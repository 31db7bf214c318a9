(* A blocking client connection speaking the server's framed protocol
   directly, so the benchmark sees reply tags and byte counts exactly as
   they cross the wire. *)

module Wire = Hr_frames.Wire

type t = { fd : Unix.file_descr }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* A reader-domain reply ([OKV]) carries "<id> <lsn> <OK|ERR>\n" before
   the body; strip it so every reply reads as (ok, body). *)
let unwrap (tag, payload) =
  match tag with
  | "OK" -> (true, payload)
  | "OKV" -> (
    match String.index_opt payload '\n' with
    | Some i ->
      let head = String.sub payload 0 i in
      let body = String.sub payload (i + 1) (String.length payload - i - 1) in
      (not (String.ends_with ~suffix:"ERR" head), body)
    | None -> (false, payload))
  | _ -> (false, payload)

let request t tag payload =
  Wire.send t.fd tag payload;
  match Wire.recv t.fd with
  | Ok frame -> unwrap frame
  | Error msg -> failwith ("bad reply frame: " ^ msg)

let exec t script = request t "EXEC" script

let exec_ok t script =
  match exec t script with
  | true, body -> body
  | false, msg -> failwith (Printf.sprintf "request %S failed: %s" script msg)

(* Counters and gauges of a server's metrics registry, from its STATS
   JSON ({"counters": {...}, "gauges": {...}, ...}). Only flat integer
   fields are read; histograms are skipped. *)
let stats t =
  let body = exec_ok t "STATS JSON;" in
  let tbl = Hashtbl.create 128 in
  let n = String.length body in
  let i = ref 0 in
  while !i < n do
    if body.[!i] = '"' then begin
      let j = String.index_from body (!i + 1) '"' in
      let key = String.sub body (!i + 1) (j - !i - 1) in
      let k = ref (j + 1) in
      while !k < n && (body.[!k] = ':' || body.[!k] = ' ') do
        incr k
      done;
      let s = !k in
      while !k < n && (body.[!k] = '-' || (body.[!k] >= '0' && body.[!k] <= '9')) do
        incr k
      done;
      if !k > s && !k > j + 1 && body.[j + 1] = ':' then
        Hashtbl.replace tbl key (int_of_string (String.sub body s (!k - s)));
      i := j + 1
    end
    else incr i
  done;
  tbl

let stat tbl name = Option.value ~default:0 (Hashtbl.find_opt tbl name)
