(* perfbench — the repository's benchmark driver. One invocation runs one
   workload against freshly forked hrdb_server / hrdb_replica processes,
   checks every answer, and prints one JSON result line (README.md
   documents the workloads, metrics and flags). Run it through run.py,
   which builds it and guards the process tree. *)

module Db = Hr_storage.Db
module Catalog = Hierel.Catalog
module Relation = Hierel.Relation
module Eval = Hr_query.Eval

let now = Unix.gettimeofday

(* ---- run context and report ------------------------------------------- *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  work : string;  (** scratch directory for this run's databases *)
  bin : string;  (** directory holding the built server binaries *)
  nproc : int;  (** the host's CPUs: apply domains and shard count follow it *)
  cpus : int;  (** the CPUs this run may use (1 under run.py): reader domains *)
}

let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []
let metrics : (string * float * string) list ref = ref []
let info : (string * string) list ref = ref []

let problem fmt =
  Printf.ksprintf
    (fun msg ->
      if List.length !problems < 20 then problems := msg :: !problems;
      prerr_endline ("perfbench: check failed: " ^ msg))
    fmt

let metric name unit value = metrics := (name, value, unit) :: !metrics

(* Wall time per phase of the run, for the report: where a run's time
   goes besides its timed window. *)
let phase_start = ref (Unix.gettimeofday ())
let phases = ref []

let phase name =
  let t = Unix.gettimeofday () in
  phases := Printf.sprintf "%s=%.1f" name (t -. !phase_start) :: !phases;
  phase_start := t
let note key value = info := (key, value) :: !info

(* Records one op outcome; an op that errs or answers wrongly is failed. *)
let judge ~what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    problem "%s" what
  end

let ms dt = dt *. 1000.

let local_exec cat script =
  match Eval.run_script cat script with
  | Ok outs -> (true, String.concat "\n" outs)
  | Error msg -> (false, msg)

(* ---- child processes ---------------------------------------------------- *)

let server_exe ctx = Filename.concat ctx.bin "hrdb_server.exe"
let replica_exe ctx = Filename.concat ctx.bin "hrdb_replica.exe"

let spawn_server ctx ~name ?(extra = []) dir =
  Proc.spawn ~name
    ~log:(Filename.concat ctx.work (name ^ ".log"))
    (server_exe ctx)
    ([ "-p"; "0"; "-d"; dir; "--no-fsync" ] @ extra)

(* Kills a durable server with SIGKILL and times Db.open_dir on its
   directory: the crash-recovery cost. With [~opens:n] the directory is
   then closed and reopened n-1 more times (the same pages and log, so
   the same work); every open's time, at the reference speed (speed.ml),
   is returned with the open database. *)
let crash_and_recover ?(opens = 1) child dir =
  Speed.burst ();
  (* the driver's own heap should not decide how long an open takes *)
  Gc.compact ();
  let t0 = now () in
  Proc.kill child;
  let db = ref (Db.open_dir ~fsync:false dir) in
  let times = ref [ (t0, now () -. t0) ] in
  for _ = 2 to opens do
    Db.close !db;
    Speed.sample ();
    Gc.compact ();
    let t = now () in
    db := Db.open_dir ~fsync:false dir;
    times := (t, now () -. t) :: !times
  done;
  Speed.burst ();
  (!db, List.map (fun (start, dt) -> Speed.scale ~start dt) !times)

(* Space per stored tuple: checkpoint the recovered state so the number
   does not depend on how many ops the run got through, then count every
   byte in the directory. *)
let checkpointed_bytes db =
  Db.checkpoint db;
  Proc.dir_bytes (Db.dir db)

let stored_tuples cat = List.fold_left (fun acc r -> acc + Relation.cardinality r) 0 (Catalog.relations cat)

(* ---- latency bookkeeping ------------------------------------------------ *)

(* Round trips, scaled to the reference speed when they are reported. *)
type lat = { writes : Speed.spans; reads : Speed.spans }

let lat () = { writes = Speed.spans (); reads = Speed.spans () }

(* Mean latency by statement verb, for the human-readable report. *)
let by_verb = Hashtbl.create 8

let record_verb (op : Gen.op) dt =
  let verb = List.hd (String.split_on_char ' ' op.stmt) in
  let n, sum = Option.value ~default:(0, 0.) (Hashtbl.find_opt by_verb verb) in
  Hashtbl.replace by_verb verb (n + 1, sum +. ms dt)

(* Records a round trip of [dt] seconds that has just ended. *)
let record l (op : Gen.op) dt =
  record_verb op dt;
  let start = now () -. dt in
  match op.kind with
  | Gen.Write -> Speed.add l.writes ~start dt
  | Gen.Read -> Speed.add l.reads ~start dt

let latency_metrics l =
  Hashtbl.iter
    (fun verb (n, sum) -> note ("mean_ms " ^ verb) (Printf.sprintf "%.3f over %d" (sum /. float_of_int n) n))
    by_verb;
  let pct p s = ms (Stats.percentile p (Speed.scaled s)) in
  metric "write_p50_ms" "ms" (pct 50. l.writes);
  metric "write_p90_ms" "ms" (pct 90. l.writes);
  metric "read_p50_ms" "ms" (pct 50. l.reads);
  metric "read_p90_ms" "ms" (pct 90. l.reads);
  note "write_p99_ms" (Printf.sprintf "%.3f" (pct 99. l.writes));
  note "read_p99_ms" (Printf.sprintf "%.3f" (pct 99. l.reads));
  note "samples" (Printf.sprintf "writes=%d reads=%d" (Speed.count l.writes) (Speed.count l.reads))

(* Runs [op] on [conn], timing the round trip. *)
let timed conn (op : Gen.op) =
  let t0 = now () in
  let ok, body = Conn.exec conn op.stmt in
  (ok, body, now () -. t0)

(* Per-layer counts from a server's STATS, as deltas over the window. *)
let stats_delta before after name = Conn.stat after name - Conn.stat before name

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---- traced-run metrics shared by the single-node workloads ----------- *)

let per_layer_names =
  [
    ("core.integrity_ms", "ms"); ("core.verdict_us", "us"); ("core.index_probes_per_read", "count");
    ("core.verdicts_per_write", "count"); ("hierarchy.mcd_calls_per_write", "count");
    ("hierarchy.subsumption_checks_per_op", "count"); ("hierarchy.freeze_ms", "ms");
    ("query.parse_us", "us"); ("query.optimize_us", "us"); ("query.eval_us", "us");
    ("exec.publish_us", "us"); ("exec.offloaded_share", "ratio"); ("storage.sync_us", "us");
    ("storage.syncs_per_write", "count"); ("storage.wal_bytes_per_write", "B");
    ("storage.checkpoint_ms", "ms"); ("storage.checkpoint_pages", "pages");
    ("storage.replayed_on_open", "count"); ("storage.pager_reads_on_open", "count");
    ("storage.pager_evictions_on_open", "count"); ("wire.codec_us", "us");
    ("server.reply_bytes_per_read", "B"); ("server.unattributed_ms", "ms");
    ("shard.ddl_ms_per_stmt", "ms"); ("shard.pulls_per_read", "count");
    ("shard.merged_tuples_per_read", "count"); ("shard.broadcasts_per_write", "count");
    ("effect.overlapped_share", "ratio"); ("repl.apply_batch_ms", "ms"); ("repl.parallel_share", "ratio");
    ("repl.groups_per_batch", "count"); ("host.calib_ms", "ms");
  ]

let end_to_end_names =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("write_p50_ms", "ms"); ("write_p90_ms", "ms");
    ("read_p50_ms", "ms"); ("read_p90_ms", "ms"); ("server_rss_mb", "MB");
    ("disk_bytes_per_row", "B"); ("recovery_s", "s");
  ]

(* The traced replay covers at most this many window ops. *)
let trace_cap = 300

(* Replays [ops] through [Traced] in [dir], after [prepare] has brought
   it to the served node's state at the start of the window, comparing
   each outcome with the served one, and records the per-layer metrics
   the replay measures. [served] holds the (ok, body, round trip in ms)
   the server gave for each op. *)
let traced_single_node ?offload_reads ~dir ~prepare ~ops ~served () =
  let ops = List.filteri (fun i _ -> i < trace_cap) ops in
  let served = List.filteri (fun i _ -> i < trace_cap) served in
  let t = Traced.create ?offload_reads dir in
  prepare t;
  Traced.start t;
  let wal = Filename.concat dir "wal.log" in
  let wal_size () = (Unix.stat wal).Unix.st_size in
  let wal0 = wal_size () in
  let served_mean_ms = Stats.mean (List.map (fun (_, _, dt) -> dt) served) in
  let mismatches = ref 0 in
  List.iter2
    (fun op (ok, body, _) ->
      let ok', body' = Traced.step t op in
      if ok <> ok' || body <> body' then begin
        incr mismatches;
        if !mismatches <= 3 then
          problem "traced replay disagrees with the served run on %S: served %b %S, replay %b %S"
            op.Gen.stmt ok body ok' body'
      end)
    ops served;
  let s = Traced.finish t in
  let db = t.Traced.db in
  let wal_bytes = wal_size () - wal0 in
  (* reopen without a checkpoint: the replayed-on-open counts *)
  Db.close db;
  let c n = Hr_obs.Metrics.counter_value n in
  let r0 = c "storage.wal.replayed" and p0 = c "storage.pager.disk_reads" and e0 = c "storage.pager.evictions" in
  let db = Db.open_dir ~fsync:false dir in
  metric "storage.replayed_on_open" "count" (float_of_int (c "storage.wal.replayed" - r0));
  metric "storage.pager_reads_on_open" "count" (float_of_int (c "storage.pager.disk_reads" - p0));
  metric "storage.pager_evictions_on_open" "count" (float_of_int (c "storage.pager.evictions" - e0));
  let t0 = now () in
  Db.checkpoint db;
  metric "storage.checkpoint_ms" "ms" (ms (now () -. t0));
  metric "storage.checkpoint_pages" "pages" (float_of_int (fst (Db.last_checkpoint_pages db)));
  Db.close db;
  let per n total = if n = 0 then 0. else total /. float_of_int n in
  let writes = s.Traced.writes and reads = s.Traced.reads and ops_n = s.Traced.ops in
  let integrity = Traced.total s "integrity" in
  let eval_self =
    Traced.total s "eval" -. Traced.total s "parse" -. Traced.total s "optimize" -. integrity
  in
  metric "core.integrity_ms" "ms" (per writes integrity);
  metric "core.verdict_us" "us" (1000. *. per (Traced.count s "verdict") (Traced.total s "verdict"));
  metric "core.index_probes_per_read" "count"
    (ratio (Traced.get s.Traced.read_counts "core.binding.index_probes") reads);
  metric "core.verdicts_per_write" "count"
    (ratio (Traced.get s.Traced.write_counts "core.binding.verdicts") writes);
  metric "hierarchy.mcd_calls_per_write" "count"
    (ratio (Traced.get s.Traced.write_counts "hierarchy.mcd_calls") writes);
  metric "hierarchy.subsumption_checks_per_op" "count"
    (ratio
       (Traced.get s.Traced.read_counts "hierarchy.subsumption_checks"
       + Traced.get s.Traced.write_counts "hierarchy.subsumption_checks")
       ops_n);
  metric "hierarchy.freeze_ms" "ms" s.Traced.freeze_ms;
  metric "query.parse_us" "us" (1000. *. per ops_n (Traced.total s "parse"));
  metric "query.optimize_us" "us" (1000. *. per (Traced.count s "optimize") (Traced.total s "optimize"));
  metric "query.eval_us" "us" (1000. *. per ops_n (Float.max 0. eval_self));
  metric "exec.publish_us" "us" (1000. *. per (Traced.count s "publish") (Traced.total s "publish"));
  metric "storage.sync_us" "us" (1000. *. per (Traced.count s "sync") (Traced.total s "sync"));
  metric "storage.wal_bytes_per_write" "B" (per writes (float_of_int wal_bytes));
  metric "wire.codec_us" "us" (1000. *. per ops_n (Traced.total s "wire"));
  (* the served path's layers: everything but the standalone re-runs *)
  let layer_sum =
    Traced.total s "wire" +. Traced.total s "eval" +. Traced.total s "sync" +. Traced.total s "publish"
  in
  metric "server.unattributed_ms" "ms" (served_mean_ms -. per ops_n layer_sum);
  note "traced_ops" (string_of_int ops_n);
  note "traced_mismatches" (string_of_int !mismatches)

let zero names = List.iter (fun n -> metric n (List.assoc n per_layer_names) 0.) names

(* ---- exception_write ---------------------------------------------------- *)

(* Expected replies: the write's acknowledgement, and the ASK verdict
   the write implies (negated after an INSERT of an exception, positive
   again after its DELETE). *)
let xw_check (op : Gen.op) ~last_write ok body =
  if not ok then false
  else
    match op.kind with
    | Gen.Write ->
      body
      = (if String.starts_with ~prefix:"INSERT" op.stmt then "1 tuple(s) inserted into xr"
         else "1 tuple(s) deleted from xr")
    | Gen.Read ->
      let sign = if String.starts_with ~prefix:"INSERT" last_write then "- " else "+ " in
      String.starts_with ~prefix:sign body

let exception_write ctx =
  let ddl = Gen.Xw.ddl ctx.seed and load = Gen.Xw.load ctx.seed in
  let copies = if ctx.trace then 1 else if ctx.smoke then 2 else 3 in
  let warm = 6 and probe = if ctx.smoke then 4 else 24 in
  let setups = Speed.spans () and recoveries = Stats.create () in
  let reply_bytes = ref 0 in
  let run_ops conn next n ?lat ?(log = fun _ _ -> ()) () =
    let last_write = ref "" in
    for _ = 1 to n do
      let op = next () in
      let ok, body, dt = timed conn op in
      if op.Gen.kind = Gen.Write then last_write := op.Gen.stmt;
      Option.iter (fun l -> record l op dt) lat;
      log op (ok, body, ms dt);
      if op.Gen.kind = Gen.Read then reply_bytes := !reply_bytes + String.length body;
      judge ~what:(Printf.sprintf "%S answered %b %S" op.Gen.stmt ok body)
        (xw_check op ~last_write:!last_write ok body)
    done
  in
  let setup i =
    Speed.burst ();
    let t0 = now () in
    let dir = Proc.fresh_dir ctx.work (Printf.sprintf "xw%d" i) in
    let child, port = spawn_server ctx ~name:(Printf.sprintf "xw-server%d" i) dir in
    let conn = Conn.connect port in
    ignore (Conn.exec_ok conn ddl);
    ignore (Conn.exec_ok conn load);
    let next = Gen.Xw.stream ctx.seed in
    run_ops conn next warm ();
    Speed.add setups ~start:t0 (now () -. t0);
    Speed.burst ();
    (dir, child, conn, next)
  in
  let state conn = (Conn.exec_ok conn "SELECT * FROM xr;", Conn.exec_ok conn "COUNT xr;") in
  (* Recovery probes: crash, recover, compare, then checkpoint the
     recovered state for the space metric and fsck the first. *)
  let disk = Stats.create () in
  for i = 1 to copies - 1 do
    let dir, child, conn, next = setup i in
    run_ops conn next probe ();
    let before = state conn in
    Conn.close conn;
    let db, dts = crash_and_recover ~opens:8 child dir in
    List.iter (Stats.add recoveries) dts;
    let cat = Db.catalog db in
    let after = (snd (local_exec cat "SELECT * FROM xr;"), snd (local_exec cat "COUNT xr;")) in
    if after <> before then problem "exception_write: recovered state differs from the pre-kill state";
    (match Hierel.Integrity.check (Catalog.relation cat "xr") with
    | [] -> ()
    | cs -> problem "exception_write: recovered relation has %d ambiguity conflict(s)" (List.length cs));
    Stats.add disk (float_of_int (checkpointed_bytes db) /. float_of_int (stored_tuples cat));
    Db.close db;
    (* fsck walks the whole 5k-node hierarchy (seconds): once per run *)
    if i = 1 then begin
      let report = Hr_check.Fsck.run dir in
      if not (Hr_check.Fsck.clean report) then
        problem "exception_write: fsck is not clean:\n%s" (Hr_check.Fsck.render_text report)
    end;
    Proc.rm_rf dir
  done;
  let dir, child, conn, next = setup copies in
  phase "setup";
  let stats0 = Conn.stats conn in
  let l = lat () in
  let log = ref [] in
  let ops = ref 0 in
  let t0 = now () in
  let deadline = t0 +. ctx.seconds in
  while now () < deadline do
    run_ops conn next 2 ~lat:l ~log:(fun op r -> log := (op, r) :: !log) ();
    ops := !ops + 2;
    Speed.tick ()
  done;
  let window = Speed.scaled_window t0 (now ()) in
  phase "window";
  let stats1 = Conn.stats conn in
  let integrity = Conn.exec_ok conn "CHECK xr;" in
  metric "ops_per_s" "1/s" (float_of_int !ops /. window);
  latency_metrics l;
  metric "setup_s" "s" (Stats.median (Speed.scaled setups));
  metric "recovery_s" "s" (Stats.median (Stats.to_list recoveries));
  metric "server_rss_mb" "MB" (Proc.peak_rss_mb child);
  metric "disk_bytes_per_row" "B" (Stats.median (Stats.to_list disk));
  Conn.close conn;
  Proc.kill child;
  (* the server's own Integrity.check of the final relation *)
  if integrity <> "consistent: the ambiguity constraint holds" then
    problem "exception_write: final relation is not consistent: %s" integrity;
  if ctx.trace then begin
    let log = List.rev !log in
    let n = List.length log in
    let prepare t =
      Traced.script t ddl;
      Traced.script t load;
      let replay_warm = Gen.Xw.stream ctx.seed in
      for _ = 1 to warm do
        ignore (Traced.step t (replay_warm ()))
      done
    in
    let replay_dir = Proc.fresh_dir ctx.work "xw-replay" in
    traced_single_node ~dir:replay_dir ~prepare ~ops:(List.map fst log) ~served:(List.map snd log) ();
    let d = stats_delta stats0 stats1 in
    let writes = n / 2 in
    metric "storage.syncs_per_write" "count" (ratio (d "storage.wal.sync_batches") writes);
    metric "exec.offloaded_share" "ratio" (ratio (d "exec.jobs_offloaded") (n - writes));
    metric "server.reply_bytes_per_read" "B" (ratio !reply_bytes (n - writes));
    zero
      [ "shard.ddl_ms_per_stmt"; "shard.pulls_per_read"; "shard.merged_tuples_per_read";
        "shard.broadcasts_per_write"; "effect.overlapped_share"; "repl.apply_batch_ms";
        "repl.parallel_share"; "repl.groups_per_batch" ]
  end;
  Proc.rm_rf dir

(* ---- hier_read ---------------------------------------------------------- *)

let hier_read ctx =
  let ddl = Gen.Hr.ddl () and side = Gen.Hr.side_load ctx.seed in
  let rows = Gen.Hr.big_rows ctx.seed in
  let copies = if ctx.trace then 1 else if ctx.smoke then 2 else 3 in
  let warm = if ctx.smoke then 10 else 60 in
  let setups = Speed.spans () and recoveries = Stats.create () in
  (* Bulk load: hb goes straight into the catalog and out through a
     checkpoint, as a restore would; loading it statement by statement
     would re-check integrity over 40k tuples per INSERT. *)
  let build dir =
    let db = Db.open_dir ~fsync:false dir in
    List.iter (fun s -> match Db.exec db s with Ok _ -> () | Error m -> failwith m) [ ddl; side ];
    let cat = Db.catalog db in
    let hb =
      List.fold_left
        (fun r (sign, names) ->
          Relation.add_named r (if sign = "+" then Hierel.Types.Pos else Hierel.Types.Neg) names)
        (Catalog.relation cat "hb") rows
    in
    Catalog.replace_relation cat hb;
    Db.checkpoint db;
    let pages = snd (Db.last_checkpoint_pages db) in
    Db.close db;
    (cat, hb, pages)
  in
  let side_ack (op : Gen.op) =
    if String.starts_with ~prefix:"INSERT" op.stmt then "1 tuple(s) inserted into hs"
    else "1 tuple(s) deleted from hs"
  in
  (* reads are checked against the bulk-loaded catalog after the window *)
  let samples = ref [] in
  let check_reply (op : Gen.op) ok body =
    match op.kind with
    | Gen.Write -> judge ~what:(Printf.sprintf "%S answered %b %S" op.stmt ok body) (ok && body = side_ack op)
    | Gen.Read ->
      if not ok then judge ~what:(Printf.sprintf "%S failed: %S" op.stmt body) false
      else samples := (op, body) :: !samples
  in
  let setup i =
    Speed.burst ();
    let t0 = now () in
    let dir = Proc.fresh_dir ctx.work (Printf.sprintf "hr%d" i) in
    let cat, hb, pages = build dir in
    let child, port =
      spawn_server ctx ~name:(Printf.sprintf "hr-server%d" i) ~extra:[ "--reader-domains"; string_of_int ctx.cpus ] dir
    in
    let conn = Conn.connect port in
    let next = Gen.Hr.stream ctx.seed in
    for _ = 1 to warm do
      let op = next () in
      let ok, body = Conn.exec conn op.Gen.stmt in
      check_reply op ok body
    done;
    Speed.add setups ~start:t0 (now () -. t0);
    Speed.burst ();
    (dir, child, conn, next, cat, hb, pages)
  in
  let recover ?opens child dir hb hs_before =
    let db, dt = crash_and_recover ?opens child dir in
    let rcat = Db.catalog db in
    if Relation.to_rows (Catalog.relation rcat "hb") <> Relation.to_rows hb then
      problem "hier_read: recovered hb differs from the loaded relation";
    if snd (local_exec rcat "SELECT * FROM hs;") <> hs_before then
      problem "hier_read: recovered hs differs from the pre-kill state";
    (db, dt)
  in
  for i = 1 to copies - 1 do
    let dir, child, conn, _, _, hb, _ = setup i in
    let hs = Conn.exec_ok conn "SELECT * FROM hs;" in
    Conn.close conn;
    let db, dts = recover ~opens:9 child dir hb hs in
    List.iter (Stats.add recoveries) dts;
    Db.close db;
    Proc.rm_rf dir
  done;
  let dir, child, conn, next, cat, hb, pages = setup copies in
  note "hb_pages" (string_of_int pages);
  phase "setup";
  let stats0 = Conn.stats conn in
  let l = lat () in
  let log = ref [] in
  let reply_bytes = ref 0 in
  let ops = ref 0 in
  let t0 = now () in
  let deadline = t0 +. ctx.seconds in
  while now () < deadline do
    let op = next () in
    let ok, body, dt = timed conn op in
    record l op dt;
    if op.Gen.kind = Gen.Read then reply_bytes := !reply_bytes + String.length body;
    log := (op, (ok, body, ms dt)) :: !log;
    check_reply op ok body;
    incr ops;
    Speed.tick ()
  done;
  let window = Speed.scaled_window t0 (now ()) in
  phase "window";
  let stats1 = Conn.stats conn in
  let hs = Conn.exec_ok conn "SELECT * FROM hs;" in
  metric "ops_per_s" "1/s" (float_of_int !ops /. window);
  latency_metrics l;
  metric "setup_s" "s" (Stats.median (Speed.scaled setups));
  metric "recovery_s" "s" (Stats.median (Stats.to_list recoveries));
  metric "server_rss_mb" "MB" (Proc.peak_rss_mb child);
  Conn.close conn;
  let db, _ = recover child dir hb hs in
  let bytes = checkpointed_bytes db in
  metric "disk_bytes_per_row" "B" (float_of_int bytes /. float_of_int (stored_tuples (Db.catalog db)));
  Db.close db;
  (* every sixteenth read answer against the same query on the loaded
     catalog *)
  List.iteri
    (fun i ((op : Gen.op), body) ->
      if i mod 16 = 0 then
        let _, want = local_exec cat op.stmt in
        judge ~what:(Printf.sprintf "hier_read: %S answered differently from the loaded catalog" op.stmt) (body = want))
    !samples;
  if ctx.trace then begin
    let log = List.rev !log in
    let reads = List.length (List.filter (fun ((op : Gen.op), _) -> op.kind = Gen.Read) log) in
    let replay_dir = Proc.fresh_dir ctx.work "hr-replay" in
    ignore (build replay_dir);
    let prepare t =
      let replay_warm = Gen.Hr.stream ctx.seed in
      for _ = 1 to warm do
        ignore (Traced.step t (replay_warm ()))
      done
    in
    traced_single_node ~offload_reads:true ~dir:replay_dir ~prepare ~ops:(List.map fst log)
      ~served:(List.map snd log) ();
    let d = stats_delta stats0 stats1 in
    let writes = List.length log - reads in
    metric "storage.syncs_per_write" "count" (ratio (d "storage.wal.sync_batches") writes);
    (* less the STATS frame that closed the window, itself offloaded *)
    metric "exec.offloaded_share" "ratio" (ratio (d "exec.jobs_offloaded" - 1) reads);
    metric "server.reply_bytes_per_read" "B" (ratio !reply_bytes reads);
    zero
      [ "shard.ddl_ms_per_stmt"; "shard.pulls_per_read"; "shard.merged_tuples_per_read";
        "shard.broadcasts_per_write"; "effect.overlapped_share"; "repl.apply_batch_ms";
        "repl.parallel_share"; "repl.groups_per_batch" ]
  end;
  Proc.rm_rf dir

(* ---- sharded_mixed ------------------------------------------------------ *)

let count_statements script = List.length (List.filter (fun l -> String.trim l <> "") (String.split_on_char ';' script))

let sharded_mixed ctx =
  let ddl = Gen.Sm.ddl ctx.seed and load = Gen.Sm.load ctx.seed in
  let copies = if ctx.trace then 1 else if ctx.smoke then 2 else 3 in
  let warm = 20 and probe = if ctx.smoke then 4 else 60 in
  let setups = Speed.spans () and recoveries = Stats.create () and ddl_ms = Stats.create () in
  let disk = Stats.create () in
  let setup i =
    Speed.burst ();
    let t0 = now () in
    let shards =
      List.init 2 (fun s ->
          let dir = Proc.fresh_dir ctx.work (Printf.sprintf "sm%d-shard%d" i s) in
          let child, port = spawn_server ctx ~name:(Printf.sprintf "sm%d-shard%d" i s) dir in
          (dir, child, port))
    in
    let map = Filename.concat ctx.work (Printf.sprintf "sm%d.map" i) in
    Out_channel.with_open_text map (fun oc ->
        output_string oc (Gen.Sm.shard_map (List.map (fun (_, _, p) -> p) shards)));
    let router, port =
      Proc.spawn ~name:(Printf.sprintf "sm%d-router" i)
        ~log:(Filename.concat ctx.work (Printf.sprintf "sm%d-router.log" i))
        (server_exe ctx) [ "-p"; "0"; "--router"; "--shard-map"; map ]
    in
    let conn = Conn.connect port in
    let t1 = now () in
    ignore (Conn.exec_ok conn ddl);
    Stats.add ddl_ms (ms (now () -. t1) /. float_of_int (count_statements ddl));
    ignore (Conn.exec_ok conn load);
    let next = Gen.Sm.stream ctx.seed in
    let log = ref [] in
    for _ = 1 to warm do
      let op = next () in
      let ok, body, dt = timed conn op in
      log := (op, (ok, body, ms dt)) :: !log
    done;
    Speed.add setups ~start:t0 (now () -. t0);
    Speed.burst ();
    (shards, router, conn, next, log)
  in
  for i = 1 to copies - 1 do
    let shards, router, conn, next, _ = setup i in
    for _ = 1 to probe do
      let op = next () in
      let ok, body = Conn.exec conn op.Gen.stmt in
      judge ~what:(Printf.sprintf "%S failed: %S" op.Gen.stmt body) ok
    done;
    Conn.close conn;
    Proc.kill router;
    (* the whole deployment crashes; recovery is every shard reopened *)
    let before =
      List.map
        (fun (_, _, port) ->
          let sc = Conn.connect port in
          let b = Conn.exec_ok sc "SELECT * FROM sr;" in
          Conn.close sc;
          b)
        shards
    in
    let bytes = ref 0 and tuples = ref 0 in
    let total =
      List.fold_left2
        (fun acc (dir, child, _) before ->
          let db, dts = crash_and_recover ~opens:21 child dir in
          if snd (local_exec (Db.catalog db) "SELECT * FROM sr;") <> before then
            problem "sharded_mixed: a recovered shard differs from its pre-kill state";
          tuples := !tuples + stored_tuples (Db.catalog db);
          bytes := !bytes + checkpointed_bytes db;
          Db.close db;
          acc +. Stats.median dts)
        0. shards before
    in
    Stats.add recoveries total;
    Stats.add disk (float_of_int !bytes /. float_of_int !tuples);
    List.iter (fun (dir, child, _) -> Proc.kill child; Proc.rm_rf dir) shards
  done;
  let shards, router, conn, next, log = setup copies in
  let shard_stats () =
    List.map (fun (_, _, port) -> let c = Conn.connect port in let s = Conn.stats c in Conn.close c; s) shards
  in
  phase "setup";
  let stats0 = Conn.stats conn and sstats0 = shard_stats () in
  let warm_log = List.rev !log in
  log := [];
  let l = lat () in
  let reply_bytes = ref 0 in
  let ops = ref 0 in
  let t0 = now () in
  let deadline = t0 +. ctx.seconds in
  while now () < deadline do
    let op = next () in
    let ok, body, dt = timed conn op in
    record l op dt;
    if op.Gen.kind = Gen.Read then reply_bytes := !reply_bytes + String.length body;
    log := (op, (ok, body, ms dt)) :: !log;
    incr ops;
    Speed.tick ()
  done;
  let window = Speed.scaled_window t0 (now ()) in
  phase "window";
  let stats1 = Conn.stats conn and sstats1 = shard_stats () in
  let log = List.rev !log in
  metric "ops_per_s" "1/s" (float_of_int !ops /. window);
  latency_metrics l;
  metric "setup_s" "s" (Stats.median (Speed.scaled setups));
  metric "recovery_s" "s" (Stats.median (Stats.to_list recoveries));
  metric "server_rss_mb" "MB"
    (List.fold_left (fun acc (_, c, _) -> acc +. Proc.peak_rss_mb c) (Proc.peak_rss_mb router) shards);
  metric "disk_bytes_per_row" "B" (Stats.median (Stats.to_list disk));
  (* the shards' stored tuples, replicas merged, are what the router
     answers for the whole relation *)
  let rows body =
    (* table rows without the header row, padding removed *)
    String.split_on_char '\n' body
    |> List.filter (String.starts_with ~prefix:"|")
    |> List.tl
    |> List.map (fun l -> String.concat "" (String.split_on_char ' ' l))
  in
  let merged = rows (Conn.exec_ok conn "SELECT * FROM sr;") in
  let stored =
    List.concat_map
      (fun (_, _, port) ->
        let sc = Conn.connect port in
        let r = rows (Conn.exec_ok sc "SELECT * FROM sr;") in
        Conn.close sc;
        r)
      shards
  in
  if List.sort_uniq compare stored <> List.sort compare merged then
    problem "sharded_mixed: the shards' merged tuples differ from the router's answer";
  Conn.close conn;
  Proc.kill_all ();
  (* single-node replay of the set-up and the first [replayed] window
     ops: every write's answer and every other read's, byte for byte,
     against what the router gave *)
  let replayed = 4000 in
  let cat = Catalog.create () in
  List.iter (fun s -> if not (fst (local_exec cat s)) then problem "sharded_mixed: replay set-up failed") [ ddl; load ];
  List.iteri
    (fun i ((op : Gen.op), (ok, body, _)) ->
      if op.kind = Gen.Write || i mod 2 = 0 then begin
        let ok', body' = local_exec cat op.stmt in
        judge
          ~what:(Printf.sprintf "sharded_mixed: %S answered %b %S, one node answers %b %S" op.stmt ok body ok' body')
          (ok && ok = ok' && body = body')
      end
      else judge ~what:(Printf.sprintf "sharded_mixed: %S failed: %S" op.stmt body) ok)
    (warm_log @ List.filteri (fun i _ -> i < replayed) log);
  List.iteri
    (fun i ((op : Gen.op), (ok, body, _)) ->
      if i >= replayed then judge ~what:(Printf.sprintf "sharded_mixed: %S failed: %S" op.stmt body) ok)
    log;
  if ctx.trace then begin
    let prepare t =
      Traced.script t ddl;
      Traced.script t load;
      List.iter (fun (op, _) -> ignore (Traced.step t op)) warm_log
    in
    let replay_dir = Proc.fresh_dir ctx.work "sm-replay" in
    traced_single_node ~dir:replay_dir ~prepare ~ops:(List.map fst log) ~served:(List.map snd log) ();
    let reads = List.length (List.filter (fun ((op : Gen.op), _) -> op.kind = Gen.Read) log) in
    let writes = List.length log - reads in
    let d = stats_delta stats0 stats1 in
    let sd name = List.fold_left2 (fun acc a b -> acc + stats_delta a b name) 0 sstats0 sstats1 in
    metric "storage.syncs_per_write" "count" (ratio (sd "storage.wal.sync_batches") writes);
    metric "exec.offloaded_share" "ratio" 0.;
    metric "server.reply_bytes_per_read" "B" (ratio !reply_bytes reads);
    metric "shard.ddl_ms_per_stmt" "ms" (Stats.median (Stats.to_list ddl_ms));
    metric "shard.pulls_per_read" "count" (ratio (d "shard.pulls") reads);
    metric "shard.merged_tuples_per_read" "count" (ratio (d "shard.merged_tuples") reads);
    (* extra shard copies per routed write: a replicated row appends to
       the WAL of every shard it covers *)
    metric "shard.broadcasts_per_write" "count" (ratio (sd "storage.wal.appends" - writes) writes);
    metric "effect.overlapped_share" "ratio" (ratio (d "effect.router_overlapped") writes);
    zero [ "repl.apply_batch_ms"; "repl.parallel_share"; "repl.groups_per_batch" ]
  end;
  List.iter (fun (dir, _, _) -> Proc.rm_rf dir) shards

(* ---- replica_catchup ---------------------------------------------------- *)

(* One round: a fresh primary takes a round of single-row INSERTs, then a
   fresh replica subscribes from LSN 0 and is timed until it has applied
   the primary's whole log; its answers are compared with the primary's,
   and it is killed and recovered. Rounds repeat for the whole window.
   The replica checkpoints less often than a round has records, so its
   recovery always replays one whole round. *)
let replica_catchup ctx =
  let ddl = Gen.Rc.ddl ctx.seed in
  let setups = Speed.spans () and recoveries = Stats.create () in
  let rss = Stats.create () and disk = Stats.create () in
  let l = lat () in
  let applied = ref 0 and catchups = Stats.create () in
  let first_round = ref [] in
  let batches = ref 0 and groups = ref 0 and parallel = ref 0 and serial = ref 0 in
  let t_start = now () in
  let round = ref 0 in
  while !round = 0 || now () < t_start +. ctx.seconds do
    let k = !round in
    incr round;
    Speed.burst ();
    let t0 = now () in
    let pdir = Proc.fresh_dir ctx.work (Printf.sprintf "rc%d-primary" k) in
    let primary, pport = spawn_server ctx ~name:(Printf.sprintf "rc%d-primary" k) pdir in
    let pconn = Conn.connect pport in
    ignore (Conn.exec_ok pconn ddl);
    Speed.add setups ~start:t0 (now () -. t0);
    Speed.burst ();
    let writes = Gen.Rc.writes ctx.seed k in
    let writes = if ctx.smoke then Array.sub writes 0 50 else writes in
    Array.iter
      (fun (op : Gen.op) ->
        let ok, body, dt = timed pconn op in
        record l op dt;
        if k = 0 then first_round := (ok, body, ms dt) :: !first_round;
        let rel = List.nth (String.split_on_char ' ' op.stmt) 2 in
        judge ~what:(Printf.sprintf "%S answered %b %S" op.stmt ok body)
          (ok && body = "1 tuple(s) inserted into " ^ rel);
        Speed.tick ())
      writes;
    let lsn = Conn.stat (Conn.stats pconn) "storage.db.lsn" in
    let rdir = Proc.fresh_dir ctx.work (Printf.sprintf "rc%d-replica" k) in
    let t1 = now () in
    let replica, rport =
      Proc.spawn ~name:(Printf.sprintf "rc%d-replica" k)
        ~log:(Filename.concat ctx.work (Printf.sprintf "rc%d-replica.log" k))
        (replica_exe ctx)
        [ "-P"; string_of_int pport; "-d"; rdir; "-p"; "0"; "--apply-domains"; string_of_int ctx.nproc;
          "--checkpoint-every"; "100000" ]
    in
    let rconn = Conn.connect rport in
    let rec wait () =
      let st = Conn.stats rconn in
      if Conn.stat st "repl.applied_lsn" >= lsn then st
      else if now () -. t1 > 120. then failwith "replica did not catch up within 120 s"
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    in
    let st = wait () in
    (* Wall time, not scaled (speed.ml): on recorded rounds the catch-up
       took 1.1-1.5 s whatever the host's speed, while the kernel's time
       near it ranged over 1.2-2.0 ms. The replica spends it waiting on
       the stream, not computing, and scaling only added spread. *)
    Stats.add catchups (now () -. t1);
    (* samples for the reads that follow *)
    Speed.burst ();
    applied := !applied + lsn;
    batches := !batches + Conn.stat st "repl.apply_batches";
    groups := !groups + Conn.stat st "repl.apply_groups";
    parallel := !parallel + Conn.stat st "repl.apply_parallel_records";
    serial := !serial + Conn.stat st "repl.apply_serial_records";
    Array.iter
      (fun (op : Gen.op) ->
        let ok, body, dt = timed rconn op in
        record l op dt;
        let want = Conn.exec pconn op.stmt in
        judge ~what:(Printf.sprintf "replica answered %S differently from the primary" op.stmt) ((ok, body) = want);
        Speed.tick ())
      (Gen.Rc.reads ctx.seed k);
    Stats.add rss (Proc.peak_rss_mb primary +. Proc.peak_rss_mb replica);
    Conn.close rconn;
    let db, dts = crash_and_recover ~opens:5 replica rdir in
    List.iter (Stats.add recoveries) dts;
    for r = 0 to Gen.Rc.relations - 1 do
      let q = Printf.sprintf "SELECT * FROM rc_r%d;" r in
      if local_exec (Db.catalog db) q <> Conn.exec pconn q then
        problem "replica_catchup: recovered replica differs from the primary on rc_r%d" r
    done;
    let tuples = stored_tuples (Db.catalog db) in
    Stats.add disk (float_of_int (checkpointed_bytes db) /. float_of_int tuples);
    Db.close db;
    Conn.close pconn;
    Proc.kill primary;
    Proc.rm_rf pdir;
    Proc.rm_rf rdir
  done;
  note "rounds" (string_of_int !round);
  note "catchup_s" (String.concat " " (List.rev_map (Printf.sprintf "%.3f") (Stats.to_list catchups)));
  metric "ops_per_s" "1/s" (float_of_int !applied /. List.fold_left ( +. ) 0. (Stats.to_list catchups));
  latency_metrics l;
  metric "setup_s" "s" (Stats.median (Speed.scaled setups));
  metric "recovery_s" "s" (Stats.median (Stats.to_list recoveries));
  metric "server_rss_mb" "MB" (Stats.median (Stats.to_list rss));
  metric "disk_bytes_per_row" "B" (Stats.median (Stats.to_list disk));
  if ctx.trace then begin
    (* the primary's write path, in-process *)
    let writes = List.filteri (fun i _ -> i < List.length !first_round) (Array.to_list (Gen.Rc.writes ctx.seed 0)) in
    let replay_dir = Proc.fresh_dir ctx.work "rc-replay" in
    traced_single_node ~dir:replay_dir ~prepare:(fun t -> Traced.script t ddl) ~ops:writes
      ~served:(List.rev !first_round) ();
    (* the replica's apply, in-process with the served replica's mean
       burst size; last, because it spawns domains *)
    let burst = max 1 (!applied / max 1 !batches) in
    let apply_dir = Proc.fresh_dir ctx.work "rc-apply" in
    let db = Db.open_dir ~fsync:false apply_dir in
    let records =
      List.mapi (fun i (op : Gen.op) -> { Hr_repl.Apply.lsn = i + 1; stmt = op.stmt })
        (List.map (fun s -> { Gen.kind = Gen.Write; stmt = s ^ ";" }) (List.filter (fun s -> String.trim s <> "") (List.map String.trim (String.split_on_char ';' ddl)))
        @ writes)
    in
    let rec chunks acc = function
      | [] -> List.rev acc
      | l ->
        let b = List.filteri (fun i _ -> i < burst) l and rest = List.filteri (fun i _ -> i >= burst) l in
        chunks (b :: acc) rest
    in
    let times = Stats.create () in
    List.iter
      (fun b ->
        let t0 = now () in
        (match Hr_repl.Apply.apply_batch ~domains:ctx.nproc db b with
        | Ok () -> ()
        | Error m -> problem "replica_catchup: traced apply failed: %s" m);
        Db.sync db;
        Stats.add times (ms (now () -. t0)))
      (chunks [] records);
    Db.close db;
    Proc.rm_rf apply_dir;
    note "traced_apply_burst" (string_of_int burst);
    metric "repl.apply_batch_ms" "ms" (Stats.mean (Stats.to_list times));
    metric "repl.parallel_share" "ratio" (ratio !parallel (!parallel + !serial));
    metric "repl.groups_per_batch" "count" (ratio !groups !batches);
    metric "storage.syncs_per_write" "count" 1.;
    metric "exec.offloaded_share" "ratio" 0.;
    metric "server.reply_bytes_per_read" "B" 0.;
    zero
      [ "shard.ddl_ms_per_stmt"; "shard.pulls_per_read"; "shard.merged_tuples_per_read";
        "shard.broadcasts_per_write"; "effect.overlapped_share" ]
  end

(* ---- entry point -------------------------------------------------------- *)

(* How many CPUs this process may run on, from its affinity list (e.g.
   "0" or "0-1,4"); run.py pins the whole process tree to one CPU. *)
let cpus_allowed () =
  let count range =
    match String.split_on_char '-' (String.trim range) with
    | [ a; b ] -> int_of_string b - int_of_string a + 1
    | _ -> 1
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines -> (
    match List.find_opt (String.starts_with ~prefix:"Cpus_allowed_list:") lines with
    | Some l ->
      String.sub l 18 (String.length l - 18) |> String.split_on_char ',' |> List.map count
      |> List.fold_left ( + ) 0
    | None -> 1)
  | exception (Sys_error _ | Failure _) -> 1

let workloads =
  [
    ("exception_write", exception_write);
    ("hier_read", hier_read);
    ("sharded_mixed", sharded_mixed);
    ("replica_catchup", replica_catchup);
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let emit ctx =
  let names = if ctx.trace then per_layer_names else end_to_end_names in
  let correct = !problems = [] && !failed = 0 in
  let body =
    String.concat ", "
      (List.filter_map
         (fun (n, _) ->
           match List.find_opt (fun (m, _, _) -> m = n) !metrics with
           | Some (_, v, unit) ->
             Some (Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) unit)
           | None -> None)
         names)
  in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) (List.rev !info);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 !attempted) !failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 and smoke = ref false in
  let work = ref ".perfbench" and bin = ref "_build/default/bin" in
  let nproc = ref (Domain.recommended_domain_count ()) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer breakdown (1)");
      ("--smoke", Arg.Set smoke, " a few ops only (the benchmark's own tests)");
      ("--work", Arg.Set_string work, "DIR scratch directory (inside the checkout)");
      ("--bin", Arg.Set_string bin, "DIR where hrdb_server.exe and hrdb_replica.exe are built");
      ("--nproc", Arg.Set_int nproc, "N the host's CPU count: reader domains, apply domains (default: this process's)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if not (Sys.file_exists !work) then Unix.mkdir !work 0o755;
  let nproc = max 1 !nproc in
  let ctx =
    {
      workload = !workload;
      seed = !seed;
      seconds = (if !smoke then Float.min !seconds 0.5 else !seconds);
      trace = !trace = 1;
      smoke = !smoke;
      work = Proc.fresh_dir !work !workload;
      bin = !bin;
      nproc;
      cpus = max 1 (cpus_allowed ());
    }
  in
  Proc.check_no_leftovers (Filename.concat !work "children.pids");
  Proc.install_handlers ();
  Speed.burst ();
  (try run ctx
   with e ->
     problem "%s aborted: %s" ctx.workload (Printexc.to_string e);
     Proc.kill_all ();
     prerr_endline (Printexc.get_backtrace ());
     exit 1);
  Proc.kill_all ();
  phase "checks";
  note "phases_s" (String.concat " " (List.rev !phases));
  let calib, q1, q3, n = Speed.summary () in
  metric "host.calib_ms" "ms" calib;
  note "host"
    (Printf.sprintf "nproc=%d cpus=%d flush=fsync:false calib_ms=%.3f (middle half %.3f-%.3f over %d samples)"
       nproc ctx.cpus calib q1 q3 n);
  note "workload" (Printf.sprintf "%s seed=%d seconds=%g trace=%d" ctx.workload ctx.seed ctx.seconds !trace);
  List.iter (fun p -> Printf.printf "# problem: %s\n" p) (List.rev !problems);
  Proc.rm_rf ctx.work;
  emit ctx
