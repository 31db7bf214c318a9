type t = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  max_backlog : int;
  (* Outgoing bytes not yet accepted by the kernel, in
     [out.[out_start .. out_start+out_len)]. The fd is non-blocking: a
     frame is appended here and written opportunistically, the rest
     drains when [select] reports the fd writable, so one stalled peer
     cannot block the loop (and every other client) on a full socket
     buffer. *)
  mutable out : Bytes.t;
  mutable out_start : int;
  mutable out_len : int;
  mutable eof : bool;
  mutable framing_lost : bool;
  mutable closed : bool;
}

let listen ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 8;
  Unix.set_nonblock fd;
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  (fd, bound_port)

let default_max_backlog = Wire.max_frame + (4 * 1024 * 1024)

let accept ~max_backlog socket =
  let rec loop acc =
    match Unix.accept socket with
    | fd, _ ->
      Unix.set_nonblock fd;
      (* replies are whole frames: send each at once, not after the
         peer's delayed ACK (Nagle) *)
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let c =
        {
          fd;
          dec = Wire.Decoder.create ();
          max_backlog;
          out = Bytes.create 1024;
          out_start = 0;
          out_len = 0;
          eof = false;
          framing_lost = false;
          closed = false;
        }
      in
      loop (c :: acc)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop acc
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
      ->
      List.rev acc
  in
  loop []

let fd c = c.fd

let close c =
  if not c.closed then begin
    c.closed <- true;
    c.out_len <- 0;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* One chunk shared by every connection: only the event loop reads, and
   the decoder copies what it is fed. *)
let chunk = Bytes.create 65536
let max_reads_per_tick = 16

let read c =
  let rec go budget =
    if budget > 0 && not (c.eof || c.closed) then
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 -> c.eof <- true
      | n ->
        Wire.Decoder.feed c.dec chunk n;
        if n = Bytes.length chunk then go (budget - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close c
  in
  go max_reads_per_tick

(* After a malformed header the decoder can never resynchronize, so the
   input ends here; frames decoded before it were already handed out. *)
let next c =
  if c.closed || c.framing_lost then Ok None
  else
    match Wire.Decoder.next c.dec with
    | Ok _ as frame -> frame
    | Error _ as e ->
      c.framing_lost <- true;
      c.eof <- true;
      e

let append c tag payload =
  if not c.closed then begin
    let frame = Wire.frame tag payload in
    let n = String.length frame in
    if c.out_start + c.out_len + n > Bytes.length c.out then begin
      let cap = ref (max 1024 (Bytes.length c.out)) in
      while !cap < c.out_len + n do
        cap := !cap * 2
      done;
      let dst = if !cap <= Bytes.length c.out then c.out else Bytes.create !cap in
      (* Bytes.blit handles the overlapping in-place compaction case *)
      Bytes.blit c.out c.out_start dst 0 c.out_len;
      c.out <- dst;
      c.out_start <- 0
    end;
    Bytes.blit_string frame 0 c.out (c.out_start + c.out_len) n;
    c.out_len <- c.out_len + n
  end

let flush c =
  let rec push () =
    if c.out_len > 0 && not c.closed then
      match Unix.write c.fd c.out c.out_start c.out_len with
      | 0 -> ()
      | n ->
        c.out_start <- c.out_start + n;
        c.out_len <- c.out_len - n;
        push ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close c
  in
  push ();
  if c.out_len = 0 then begin
    c.out_start <- 0;
    (* after a burst (e.g. a snapshot bootstrap), stop holding the peak *)
    if Bytes.length c.out > 1024 * 1024 then c.out <- Bytes.create 1024
  end

let backlog c = c.out_len
let over_backlog c = c.out_len > c.max_backlog
let wants_read c = not (c.eof || c.closed)
let wants_write c = c.out_len > 0 && not c.closed
let eof c = c.eof
let closed c = c.closed
let finished c = c.closed || (c.eof && c.out_len = 0)
