module Eval = Hr_query.Eval
module Parser = Hr_query.Parser
module Ast = Hr_query.Ast
open Hierel

let m_statements = Hr_obs.Metrics.counter "storage.db.statements"
let m_checkpoints = Hr_obs.Metrics.counter "storage.db.checkpoints"
let g_lsn = Hr_obs.Metrics.gauge "storage.db.lsn"

type t = {
  dir : string;
  mutable catalog : Catalog.t;
  mutable store : Page_store.t;
  (* O(1) capture of the catalog as of the last checkpoint: a relation
     whose current binding is physically identical was not touched, so
     the checkpoint delta skips it without reading a tuple. *)
  mutable last_ckpt : Catalog.t;
  mutable ckpt_written : int;
  mutable ckpt_total : int;
  mutable wal : Wal.t;
  mutable pending : int;
  mutable lsn : int;
  mutable base_lsn : int;
  (* In-memory image of recent WAL records, newest first, covering
     exactly the LSNs in (tail_base, lsn]. Replication catch-up
     ([records_since]) is served from here so a committed statement does
     not re-read and re-parse the whole wal.log per subscriber. The tail
     is kept across checkpoints (records stay addressable even after the
     file is truncated) and bounded: once it exceeds [2 * tail_cap]
     records the oldest half is forgotten and [tail_base] advances. *)
  mutable tail : Wal.record list;
  mutable tail_len : int;
  mutable tail_base : int;
  (* Highest LSN covered by a completed WAL sync. Shipping must never
     send records above this: a replica could make them durable and ack
     before the primary does, and a primary crash would then leave the
     replica ahead — divergence. *)
  mutable synced_lsn : int;
  auto_checkpoint_every : int;
  fsync : bool;
  lock_fd : Unix.file_descr;
}

let tail_cap = 4096

let pages_path dir = Filename.concat dir "pages.db"
let wal_path dir = Filename.concat dir "wal.log"
let lock_path dir = Filename.concat dir "LOCK"

(* One writer per directory: an OS-level advisory lock on a LOCK file.
   The lock dies with the process, so a crash never wedges the db. *)
let acquire_lock dir =
  let fd = Unix.openfile (lock_path dir) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  (try Unix.lockf fd Unix.F_TLOCK 0
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
     Unix.close fd;
     failwith (Printf.sprintf "database %s is locked by another process" dir));
  fd

(* The pre-paged layout kept its checkpoint in snapshot.bin. This build
   neither reads nor migrates it, and must not mistake such a directory
   for a fresh one: that would shadow its data with an empty store. *)
let legacy_layout dir =
  if
    Sys.file_exists (Filename.concat dir "snapshot.bin")
    && not (Sys.file_exists (pages_path dir))
  then
    Some
      (Printf.sprintf
         "%s holds snapshot.bin but no pages.db: a pre-paged layout this build \
          cannot open; migrate it by opening it once with an older build that \
          still reads snapshot.bin (docs/STORAGE.md)"
         dir)
  else None

(* Build a paged store for [catalog] beside [pages], then rename it into
   place: a crash mid-build leaves only a dead .tmp (removed on the next
   open), never a half-written pages.db. *)
let build_store ~fsync ~base_lsn pages catalog =
  let tmp = pages ^ ".tmp" in
  let s = Page_store.create tmp in
  Page_store.apply_catalog s catalog;
  Page_store.set_ddl s catalog;
  ignore (Page_store.commit s ~fsync ~base_lsn ());
  Page_store.close s;
  Sys.rename tmp pages;
  (* reopen + to_catalog primes the store's TID maps for later deltas *)
  let s = Page_store.open_ pages in
  (s, Page_store.to_catalog s)

let replay ?(upto = max_int) ~after catalog records =
  let rec go = function
    | [] -> Ok ()
    | ({ Wal.lsn; stmt } as r) :: rest when lsn > after && lsn <= upto -> (
      match Eval.run_script catalog stmt with
      | Ok _ -> go rest
      | Error msg -> Error (r, msg)
      | exception e -> Error (r, Printexc.to_string e))
    | _ :: rest -> go rest
  in
  go records

let open_dir ?(auto_checkpoint_every = 10_000) ?(fsync = true) dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* Refuse before taking the lock: nothing in the directory is touched. *)
  Option.iter failwith (legacy_layout dir);
  let pages = pages_path dir in
  let lock_fd = acquire_lock dir in
  if Sys.file_exists (pages ^ ".tmp") then Sys.remove (pages ^ ".tmp");
  (* Trusted load: pages were sealed (CRC) by the committer; [fsck]
     re-runs the deep checks. Recovery reads the page store and replays
     the WAL tail onto it. A directory without pages.db is fresh. *)
  let store, catalog =
    if Sys.file_exists pages then begin
      let s = Page_store.open_ pages in
      (s, Page_store.to_catalog s)
    end
    else build_store ~fsync ~base_lsn:0 pages (Catalog.create ())
  in
  let base_lsn = Page_store.base_lsn store in
  (* capture the page store's state before replay mutates the catalog *)
  let last_ckpt = Catalog.snapshot catalog in
  let scan = Wal.recover (wal_path dir) in
  let records = scan.Wal.records in
  (match scan.Wal.tail with
  | None -> ()
  | Some { Wal.dropped_bytes; dropped_records } ->
    (* Data-loss-free truncation: only unacknowledged bytes past the
       last intact record are dropped, but the operator should see it. *)
    Printf.eprintf
      "hrdb: warning: %s had a torn tail; dropped %d byte(s) (~%d record(s)) past the \
       last intact record\n\
       %!"
      (wal_path dir) dropped_bytes dropped_records;
    (* Repair the file too: appending after unreadable garbage would
       strand every post-recovery record beyond the next replay's stop
       point, silently losing acknowledged statements on the reopen
       after this one. *)
    Wal.truncate_to (wal_path dir) scan.Wal.ok_bytes);
  (* A crash between the page commit and the WAL truncation leaves
     records with lsn <= base_lsn in the file; the page store already
     contains them, so replaying them would double-apply (or fail
     outright on e.g. a duplicate CREATE). *)
  let records = List.filter (fun { Wal.lsn; _ } -> lsn > base_lsn) records in
  (match replay ~after:base_lsn catalog records with
  | Ok () -> ()
  | Error ({ Wal.stmt; _ }, msg) ->
    (* A logged statement failing on replay means the page store and
       log disagree; refuse to continue on half-recovered state. *)
    failwith (Printf.sprintf "WAL replay failed on %S: %s" stmt msg));
  let lsn =
    List.fold_left (fun acc { Wal.lsn; _ } -> max acc lsn) base_lsn records
  in
  Hr_obs.Metrics.set g_lsn lsn;
  {
    dir;
    catalog;
    store;
    last_ckpt;
    ckpt_written = 0;
    ckpt_total = 0;
    wal = Wal.open_ ~fsync (wal_path dir);
    pending = List.length records;
    lsn;
    base_lsn;
    tail = List.rev records;
    tail_len = List.length records;
    tail_base = base_lsn;
    synced_lsn = lsn;
    auto_checkpoint_every;
    fsync;
    lock_fd;
  }

let catalog t = t.catalog
let dir t = t.dir

let tail_push t record =
  t.tail <- record :: t.tail;
  t.tail_len <- t.tail_len + 1;
  if t.tail_len > 2 * tail_cap then begin
    let kept = List.filteri (fun i _ -> i < tail_cap) t.tail in
    (* oldest kept record is last in the newest-first list *)
    let oldest = List.nth kept (tail_cap - 1) in
    t.tail <- kept;
    t.tail_len <- tail_cap;
    t.tail_base <- oldest.Wal.lsn - 1
  end

let log_statement t source =
  t.lsn <- t.lsn + 1;
  let stmt = source ^ ";" in
  Wal.append t.wal ~lsn:t.lsn stmt;
  tail_push t { Wal.lsn = t.lsn; stmt };
  t.pending <- t.pending + 1;
  Hr_obs.Metrics.set g_lsn t.lsn

let checkpoint t =
  Hr_obs.Metrics.incr m_checkpoints;
  (* Wal.close below syncs buffered appends before the file is truncated;
     everything up to [t.lsn] is durable once the pages commit. *)
  t.synced_lsn <- t.lsn;
  (* Delta, not rewrite: only relations whose binding changed since the
     last checkpoint are diffed, and only their changed tuples touch a
     page. A crash after the page commit but before the WAL truncation
     cannot double-apply — replay skips LSNs at or below the store's
     base_lsn. *)
  List.iter
    (fun rel ->
      match Catalog.find_relation t.last_ckpt (Relation.name rel) with
      | Some old when old == rel -> ()
      | Some old -> Page_store.apply_relation t.store ~old rel
      | None -> Page_store.apply_relation t.store rel)
    (Catalog.relations t.catalog);
  List.iter
    (fun old ->
      match Catalog.find_relation t.catalog (Relation.name old) with
      | Some _ -> ()
      | None -> Page_store.drop_relation t.store (Relation.name old))
    (Catalog.relations t.last_ckpt);
  Page_store.set_ddl t.store t.catalog;
  let written, total = Page_store.commit t.store ~fsync:t.fsync ~base_lsn:t.lsn () in
  t.ckpt_written <- written;
  t.ckpt_total <- total;
  Wal.close t.wal;
  Wal.truncate (wal_path t.dir);
  t.wal <- Wal.open_ ~fsync:t.fsync (wal_path t.dir);
  t.base_lsn <- t.lsn;
  t.pending <- 0;
  t.last_ckpt <- Catalog.snapshot t.catalog

let last_checkpoint_pages t = (t.ckpt_written, t.ckpt_total)

(* A long-lived primary would otherwise grow wal.log without bound (and
   pay for it at the next recovery); the tail keeps checkpointed records
   addressable for replication catch-up. *)
let maybe_auto_checkpoint t =
  if t.auto_checkpoint_every > 0 && t.pending >= t.auto_checkpoint_every then
    checkpoint t

(* A tuple whose page-store record cannot fit one heap page would be
   acknowledged, then fail the next checkpoint. INSERT rows are measured
   before evaluation; LET and EXPLICATE compute their relation, so it is
   measured afterwards and the previous binding restored. No other
   statement adds a tuple. *)
let oversize rel bytes =
  Error
    (Printf.sprintf
       "rejected: a tuple of %s needs %d bytes on disk, more than the %d one page \
        holds"
       rel bytes Page_store.max_record_bytes)

let eval_fitting ?on_held ?on_refused t stmt =
  match stmt with
  | Ast.Insert { rel; rows } -> (
    let bytes { Ast.values; _ } =
      Page_store.record_bytes (List.map Ast.value_name values)
    in
    match List.find_opt (fun row -> bytes row > Page_store.max_record_bytes) rows with
    | Some row -> oversize rel (bytes row)
    | None -> Eval.exec ?on_held ?on_refused t.catalog stmt)
  | Ast.Let_binding { name = rel; _ } | Ast.Explicate { rel; _ } -> (
    let before = Catalog.find_relation t.catalog rel in
    match Eval.exec t.catalog stmt with
    | Error _ as e -> e
    | Ok _ as ok -> (
      match Page_store.oversize_tuple (Catalog.relation t.catalog rel) with
      | None -> ok
      | Some bytes ->
        (match before with
        | Some old -> Catalog.replace_relation t.catalog old
        | None -> Catalog.drop_relation t.catalog rel);
        oversize rel bytes))
  | _ -> Eval.exec t.catalog stmt

(* Executes parsed statements, appending the mutating ones' sources to
   the WAL buffer without syncing. The caller owns the commit point:
   nothing run here may be acknowledged to a client until [sync]
   returns. *)
let exec_parsed ?on_held ?on_refused t pieces =
  let rec run acc = function
    | [] -> Ok (List.rev acc)
    | { Parser.source; stmt = { Ast.stmt; sloc } } :: rest -> (
      Hr_obs.Metrics.incr m_statements;
      match eval_fitting ?on_held ?on_refused t stmt with
      | Ok out ->
        (* log only acknowledged statements: a rejected update (e.g. an
           integrity violation) must not poison replay *)
        if Ast.mutating stmt then log_statement t source;
        run (out :: acc) rest
      | Error msg -> Error (Eval.located sloc msg))
  in
  let result = run [] pieces in
  maybe_auto_checkpoint t;
  result

let exec_buffered ?on_held ?on_refused t script =
  Result.bind (Eval.parse_script script) (exec_parsed ?on_held ?on_refused t)

let sync t =
  Wal.sync t.wal;
  t.synced_lsn <- t.lsn

let unsynced t = Wal.unsynced t.wal
let synced_lsn t = t.synced_lsn

(* The sequential path keeps its historical contract: one call, one
   durable commit. Batching callers use [exec_buffered] and share the
   sync. *)
let exec t script =
  let result = exec_buffered t script in
  sync t;
  result

let close t =
  Wal.close t.wal;
  Page_store.close t.store;
  (try Unix.lockf t.lock_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
  Unix.close t.lock_fd

let wal_records t = t.pending
let lsn t = t.lsn
let base_lsn t = t.base_lsn

let records_since t from_lsn =
  if from_lsn >= t.tail_base then begin
    (* served from memory: the tail is newest-first, so collecting while
       the LSN stays above the offset yields oldest-first *)
    let rec collect acc = function
      | ({ Wal.lsn; _ } as r) :: rest when lsn > from_lsn -> collect (r :: acc) rest
      | _ -> acc
    in
    collect [] t.tail
  end
  else List.of_seq (Wal.stream_from t.wal from_lsn)

let snapshot_image t = Snapshot.encode t.catalog

let install_snapshot t ~lsn image =
  match Snapshot.decode image with
  | exception Snapshot.Corrupt_snapshot msg -> Error ("corrupt snapshot image: " ^ msg)
  | catalog ->
    (* A replica image replaces everything: rebuild the paged store from
       scratch (tmp + rename, same crash safety as a fresh open) rather
       than diffing against state the primary no longer vouches for. *)
    Page_store.close t.store;
    let store, catalog = build_store ~fsync:t.fsync ~base_lsn:lsn (pages_path t.dir) catalog in
    t.store <- store;
    t.catalog <- catalog;
    t.last_ckpt <- Catalog.snapshot catalog;
    Wal.close t.wal;
    Wal.truncate (wal_path t.dir);
    t.wal <- Wal.open_ ~fsync:t.fsync (wal_path t.dir);
    t.lsn <- lsn;
    t.base_lsn <- lsn;
    t.pending <- 0;
    t.tail <- [];
    t.tail_len <- 0;
    t.tail_base <- lsn;
    t.synced_lsn <- lsn;
    Hr_obs.Metrics.set g_lsn lsn;
    Ok ()

let duplicate t lsn =
  Error (Printf.sprintf "duplicate record: LSN %d already applied (at %d)" lsn t.lsn)

(* The bookkeeping half of [apply_replicated]: log one evaluated primary
   record under its own LSN, keeping the local WAL contiguous (fsck
   F007). *)
let log_replicated t ~lsn source =
  if lsn <= t.lsn then duplicate t lsn
  else begin
    Hr_obs.Metrics.incr m_statements;
    Wal.append t.wal ~lsn source;
    tail_push t { Wal.lsn; stmt = source };
    t.pending <- t.pending + 1;
    t.lsn <- lsn;
    Hr_obs.Metrics.set g_lsn lsn;
    Ok ()
  end

let apply_replicated t ~lsn source =
  if lsn <= t.lsn then duplicate t lsn
  else
    match Eval.run_script t.catalog source with
    | Ok _ -> log_replicated t ~lsn source
    | Error msg -> Error msg
