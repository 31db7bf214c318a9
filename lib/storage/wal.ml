module W = Codec.Writer
module R = Codec.Reader

type record = { lsn : int; stmt : string }
type torn_tail = { dropped_bytes : int; dropped_records : int }

type scan_result = {
  records : record list;
  ok_bytes : int;
  total_bytes : int;
  tail : torn_tail option;
}

type t = {
  path : string;
  oc : out_channel;
  fd : Unix.file_descr;  (* the channel's descriptor, for real fsync *)
  fsync : bool;
  mutable unsynced : int;  (* appends buffered since the last [sync] *)
}

(* Appends only buffer; durability is the batched [sync] below, which
   flushes the channel and fsyncs the descriptor. [fsyncs] counts actual
   Unix.fsync calls, [sync_batches] counts sync calls that had work to
   do, and the [stmts_per_sync] histogram records how many appends each
   shared sync made durable. *)
let m_appends = Hr_obs.Metrics.counter "storage.wal.appends"
let m_fsyncs = Hr_obs.Metrics.counter "storage.wal.fsyncs"
let m_sync_batches = Hr_obs.Metrics.counter "storage.wal.sync_batches"
let m_stmts_per_sync = Hr_obs.Metrics.histogram "storage.wal.stmts_per_sync"
let m_replayed = Hr_obs.Metrics.counter "storage.wal.replayed"
let m_torn_bytes = Hr_obs.Metrics.counter "storage.wal.torn_tail_bytes"
let m_torn_records = Hr_obs.Metrics.counter "storage.wal.torn_tail_records"

let open_ ?(fsync = true) path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  { path; oc; fd = Unix.descr_of_out_channel oc; fsync; unsynced = 0 }

(* The CRC covers the LSN and the statement: a record whose LSN bytes
   were torn must not replay under a different sequence number. *)
let record_crc lsn stmt =
  Int32.to_int (Codec.crc32 (string_of_int lsn ^ "\n" ^ stmt)) land 0xFFFFFFFF

let append t ~lsn stmt =
  Hr_obs.Metrics.incr m_appends;
  let w = W.create () in
  W.u64 w (Int64.of_int lsn);
  W.string w stmt;
  W.u32 w (record_crc lsn stmt);
  output_string t.oc (W.contents w);
  t.unsynced <- t.unsynced + 1

let unsynced t = t.unsynced

let sync t =
  if t.unsynced > 0 then begin
    flush t.oc;
    if t.fsync then begin
      Unix.fsync t.fd;
      Hr_obs.Metrics.incr m_fsyncs
    end;
    Hr_obs.Metrics.incr m_sync_batches;
    Hr_obs.Metrics.observe m_stmts_per_sync t.unsynced;
    t.unsynced <- 0
  end

let close t =
  sync t;
  close_out t.oc

(* Counts records that still parse structurally after the first bad one.
   They are never replayed (the framing downstream of a corrupt record
   cannot be trusted for recovery), but the count tells an operator how
   much acknowledged work the torn tail may contain. *)
let count_tail_records r =
  let rec loop n =
    if R.at_end r then n
    else
      match
        let _lsn = R.u64 r in
        let _stmt = R.string r in
        let _crc = R.u32 r in
        ()
      with
      | () -> loop (n + 1)
      | exception R.Corrupt _ -> n + 1 (* the torn final record *)
  in
  loop 0

(* The one WAL record reader: recovery replay, replication streaming and
   fsck all go through here, so the three cannot drift on framing or
   torn-tail handling. Pure — no metrics, no side effects. *)
let scan path =
  if not (Sys.file_exists path) then
    { records = []; ok_bytes = 0; total_bytes = 0; tail = None }
  else begin
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let total = String.length data in
    let r = R.of_string data in
    let consumed () = total - R.remaining r in
    let rec loop acc ok_end =
      if R.at_end r then (List.rev acc, ok_end)
      else
        match
          let lsn = Int64.to_int (R.u64 r) in
          let stmt = R.string r in
          let crc = R.u32 r in
          if record_crc lsn stmt <> crc then None else Some { lsn; stmt }
        with
        | Some rec_ -> loop (rec_ :: acc) (consumed ())
        | None -> (List.rev acc, ok_end) (* corrupt record: drop the tail *)
        | exception R.Corrupt _ -> (List.rev acc, ok_end) (* torn tail *)
    in
    let records, ok_end = loop [] 0 in
    if ok_end = total then
      { records; ok_bytes = ok_end; total_bytes = total; tail = None }
    else begin
      let dropped_bytes = total - ok_end in
      let tail_r = R.of_string (String.sub data ok_end dropped_bytes) in
      let dropped_records = count_tail_records tail_r in
      {
        records;
        ok_bytes = ok_end;
        total_bytes = total;
        tail = Some { dropped_bytes; dropped_records };
      }
    end
  end

(* Recovery wrapper: the same scan, with the replay / torn-tail metrics
   the observability layer documents. *)
let recover path =
  let s = scan path in
  Hr_obs.Metrics.add m_replayed (List.length s.records);
  (match s.tail with
  | None -> ()
  | Some { dropped_bytes; dropped_records } ->
    Hr_obs.Metrics.add m_torn_bytes dropped_bytes;
    Hr_obs.Metrics.add m_torn_records dropped_records);
  s

let stream_from t lsn =
  (* Appends buffer in the channel until [sync]; push them to the OS so
     the file read below sees every appended record. No fsync — reading
     back our own writes needs visibility, not durability. *)
  flush t.oc;
  List.to_seq (List.filter (fun r -> r.lsn > lsn) (scan t.path).records)

let truncate path =
  let oc = open_out_gen [ Open_trunc; Open_creat; Open_binary ] 0o644 path in
  close_out oc

let truncate_to path bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd bytes)
