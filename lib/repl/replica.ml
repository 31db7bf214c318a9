module Wire = Hr_frames.Wire
module Db = Hr_storage.Db
module Server = Hr_server.Server

(* Replica-side replication metrics (docs/OBSERVABILITY.md). The
   registry is process-wide, so on a replica these sit next to the
   server.* metrics of its local read-only endpoint. *)
let m_applied = Hr_obs.Metrics.counter "repl.records_applied"
let m_installed = Hr_obs.Metrics.counter "repl.snapshots_installed"
let m_connects = Hr_obs.Metrics.counter "repl.connects"
let m_reconnects = Hr_obs.Metrics.counter "repl.reconnects"
let g_applied = Hr_obs.Metrics.gauge "repl.applied_lsn"
let g_connected = Hr_obs.Metrics.gauge "repl.connected"

type config = {
  primary_host : string;
  primary_port : int;
  dir : string;
  host : string;
  port : int;
  backoff_min : float;
  backoff_max : float;
  connect_timeout : float;
  checkpoint_every : int;
}

let config ?(primary_host = "127.0.0.1") ?(host = "127.0.0.1") ?(port = 0)
    ?(backoff_min = 0.05) ?(backoff_max = 2.0) ?(connect_timeout = 5.0)
    ?(checkpoint_every = 512) ~primary_port ~dir () =
  {
    primary_host;
    primary_port;
    dir;
    host;
    port;
    backoff_min;
    backoff_max;
    connect_timeout;
    checkpoint_every;
  }

type upstream =
  | Down of { mutable until : float; mutable backoff : float }
  | Up of { fd : Unix.file_descr; dec : Wire.Decoder.t }

type t = {
  cfg : config;
  database : Db.t;
  server : Server.t;
  mutable upstream : upstream;
  mutable attempts : int;
  mutable connected_once : bool;  (* a later successful connect is a recovery *)
  mutable warned : bool;  (* one ERR-from-primary warning per outage *)
}

let create cfg =
  let database = Db.open_dir cfg.dir in
  let server =
    Server.create_for_db ~host:cfg.host ~read_only:true ~port:cfg.port ~db:database ()
  in
  Hr_obs.Metrics.set g_applied (Db.lsn database);
  {
    cfg;
    database;
    server;
    upstream = Down { until = 0.; backoff = cfg.backoff_min };
    attempts = 0;
    connected_once = false;
    warned = false;
  }

let port t = Server.port t.server
let applied_lsn t = Db.lsn t.database
let connected t = match t.upstream with Up _ -> true | Down _ -> false
let db t = t.database

let go_down t ~now ~backoff =
  (match t.upstream with
  | Up { fd; _ } -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | Down _ -> ());
  Hr_obs.Metrics.set g_connected 0;
  t.upstream <- Down { until = now +. backoff; backoff }

let try_connect t now =
  t.attempts <- t.attempts + 1;
  match
    Server.Client.connect ~host:t.cfg.primary_host ~timeout:t.cfg.connect_timeout
      ~port:t.cfg.primary_port ()
  with
  | conn ->
    let fd = Server.Client.fd conn in
    (try
       Wire.send fd Wire.repl_subscribe (Wire.lsn_payload (applied_lsn t));
       Hr_obs.Metrics.incr m_connects;
       if t.connected_once then Hr_obs.Metrics.incr m_reconnects;
       t.connected_once <- true;
       Hr_obs.Metrics.set g_connected 1;
       t.warned <- false;
       t.upstream <- Up { fd; dec = Wire.Decoder.create () }
     with Unix.Unix_error _ ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       t.upstream <- Down { until = now +. t.cfg.backoff_min; backoff = t.cfg.backoff_min })
  | exception (Failure _ | Unix.Unix_error _) ->
    (* double the delay this attempt already waited, up to the cap *)
    let backoff =
      match t.upstream with
      | Down d -> Float.min t.cfg.backoff_max (Float.max t.cfg.backoff_min (d.backoff *. 2.))
      | Up _ -> t.cfg.backoff_min
    in
    t.upstream <- Down { until = now +. backoff; backoff }

let maybe_checkpoint t =
  if t.cfg.checkpoint_every > 0 && Db.wal_records t.database >= t.cfg.checkpoint_every
  then Db.checkpoint t.database

(* Divergence — a record the primary logged and replayed cleanly fails
   here — means the two catalogs no longer agree and silently continuing
   would serve wrong answers. Fail loudly.

   Records are collected per decoder drain into a burst and flushed
   through {!Apply.apply_batch}, record by record in LSN order. *)
let flush_burst t burst =
  match List.rev !burst with
  | [] -> ()
  | records ->
    burst := [];
    (match Apply.apply_batch ~domains:1 t.database records with
    | Ok () -> ()
    | Error msg -> failwith ("replica diverged applying " ^ msg));
    Hr_obs.Metrics.add m_applied (List.length records);
    Hr_obs.Metrics.set g_applied (applied_lsn t);
    maybe_checkpoint t

let push_record t burst ~lsn stmt =
  let last =
    match !burst with
    | { Apply.lsn; _ } :: _ -> lsn
    | [] -> applied_lsn t
  in
  if lsn > last then burst := { Apply.lsn; stmt } :: !burst

let handle_frame t (tag, payload) =
  if tag = Wire.repl_snapshot then (
    match Wire.parse_lsn_prefixed payload with
    | Ok (lsn, image) -> (
      match Db.install_snapshot t.database ~lsn image with
      | Ok () ->
        Hr_obs.Metrics.incr m_installed;
        Hr_obs.Metrics.set g_applied lsn;
        true
      | Error msg -> failwith ("replica bootstrap failed: " ^ msg))
    | Error msg -> failwith ("malformed REPL_SNAPSHOT from primary: " ^ msg))
  else if tag = "ERR" then begin
    (* the primary refused the subscription (e.g. an in-memory server);
       keep retrying at the backoff ceiling, but say why once *)
    if not t.warned then begin
      t.warned <- true;
      Printf.eprintf "hrdb_replica: primary refused subscription: %s\n%!" payload
    end;
    raise Wire.Disconnected
  end
  else true (* ignore stray OK frames *)

let upstream_chunk = Bytes.create 65536

let service_upstream t fd dec =
  let now = Unix.gettimeofday () in
  match Unix.read fd upstream_chunk 0 (Bytes.length upstream_chunk) with
  | 0 -> go_down t ~now ~backoff:t.cfg.backoff_min
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
    go_down t ~now ~backoff:t.cfg.backoff_min
  | n -> (
    Wire.Decoder.feed dec upstream_chunk n;
    let before = applied_lsn t in
    (* Burst collection: consecutive REPL_RECORD frames of one drain
       become one Apply batch; any other frame (or the end of the
       buffered input) flushes first, so a snapshot bootstrap never
       overtakes records already received. *)
    let burst = ref [] in
    let rec drain () =
      match Wire.Decoder.next dec with
      | Ok (Some (tag, payload)) when tag = Wire.repl_record -> (
        match Wire.parse_lsn_prefixed payload with
        | Ok (lsn, stmt) ->
          push_record t burst ~lsn stmt;
          drain ()
        | Error msg -> failwith ("malformed REPL_RECORD from primary: " ^ msg))
      | Ok (Some frame) ->
        flush_burst t burst;
        if handle_frame t frame then drain ()
      | Ok None -> flush_burst t burst
      | Error msg -> failwith ("malformed frame from primary: " ^ msg)
    in
    match drain () with
    | () ->
      (* One cumulative ack per shipped batch, and only after the whole
         batch is locally durable: the applies above buffer their WAL
         appends, so sync before telling the primary "applied through
         this LSN". *)
      if applied_lsn t > before then begin
        Db.sync t.database;
        try Wire.send fd Wire.repl_ack (Wire.lsn_payload (applied_lsn t))
        with Unix.Unix_error _ -> go_down t ~now ~backoff:t.cfg.backoff_min
      end
    | exception Wire.Disconnected ->
      (match t.upstream with
      | Down _ -> ()
      | Up _ ->
        let backoff =
          if t.warned then t.cfg.backoff_max else t.cfg.backoff_min
        in
        go_down t ~now ~backoff)
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      go_down t ~now ~backoff:t.cfg.backoff_min)

let step t budget =
  let now = Unix.gettimeofday () in
  (match t.upstream with
  | Down d when now >= d.until -> try_connect t now
  | Down _ | Up _ -> ());
  let extra = match t.upstream with Up { fd; _ } -> [ fd ] | Down _ -> [] in
  let readable = Server.poll ~extra t.server budget in
  match t.upstream with
  | Up { fd; dec } when List.mem fd readable -> service_upstream t fd dec
  | Up _ | Down _ -> ()

let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  while true do
    step t 0.25
  done

let close t =
  (match t.upstream with
  | Up { fd; _ } -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | Down _ -> ());
  Server.close t.server;
  Db.close t.database
