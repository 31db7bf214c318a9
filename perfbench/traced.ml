(* The traced run: replays a workload's op stream in-process through the
   same public functions the server calls, each call wrapped in a trace
   span from this file. The served path of one op is

     Wire decode -> Db.exec_buffered (parse, optimize, eval, integrity,
     WAL append) -> Db.sync -> Publisher.publish -> Wire encode

   and reads on a reader-domain server run Eval.run_script on the
   published version instead of Db.exec_buffered. Layers the served
   path only reaches inside Db.exec_buffered (parse, optimize,
   Integrity.check, Binding.verdict) are timed by a standalone call of
   the same function on the same input right after it, and subtracted
   from the eval span to give eval's self time. *)

module Trace = Hr_obs.Trace
module Metrics = Hr_obs.Metrics
module Wire = Hr_frames.Wire
module Db = Hr_storage.Db
module Ast = Hr_query.Ast

type t = {
  db : Db.t;
  pub : Hr_exec.Publisher.t;
  offload_reads : bool;
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  (* counter deltas over the served-path calls only, by op kind *)
  read_counts : (string, int) Hashtbl.t;
  write_counts : (string, int) Hashtbl.t;
  mutable freeze_ms : float;
}

let counters =
  [ "core.binding.index_probes"; "core.binding.verdicts"; "hierarchy.mcd_calls"; "hierarchy.subsumption_checks" ]

let counter_values () = List.map (fun n -> Metrics.counter_value n) counters

let accumulate tbl before after =
  List.iter2
    (fun n (b, a) ->
      Hashtbl.replace tbl n (Option.value ~default:0 (Hashtbl.find_opt tbl n) + a - b))
    counters (List.combine before after)

let get tbl n = Option.value ~default:0 (Hashtbl.find_opt tbl n)

(* Opens [dir] the way the server does: the start-up publish freezes
   whatever catalog the directory holds. Set-up scripts then go through
   {!script}, which publishes after each one as the server's commit
   point does, so the hierarchy is frozen at the same moment it is on a
   served node. The time spent sealing catalogs during set-up is
   [freeze_ms]. *)
let create ?(offload_reads = false) dir =
  Metrics.set_enabled true;
  let db = Db.open_dir ~fsync:false dir in
  let t0 = Unix.gettimeofday () in
  let pub = Hr_exec.Publisher.create ~lsn:(Db.synced_lsn db) (Db.catalog db) in
  {
    db;
    pub;
    offload_reads;
    ops = 0;
    reads = 0;
    writes = 0;
    read_counts = Hashtbl.create 8;
    write_counts = Hashtbl.create 8;
    freeze_ms = (Unix.gettimeofday () -. t0) *. 1000.;
  }

let publish t = ignore (Hr_exec.Publisher.publish t.pub ~lsn:(Db.synced_lsn t.db) (Db.catalog t.db))

let script t s =
  (match Db.exec_buffered t.db s with Ok _ -> () | Error msg -> failwith ("set-up script failed: " ^ msg));
  Db.sync t.db;
  let t0 = Unix.gettimeofday () in
  publish t;
  t.freeze_ms <- t.freeze_ms +. ((Unix.gettimeofday () -. t0) *. 1000.)

(* Forgets everything measured so far (set-up and warm-up ops) and
   starts recording spans. *)
let start t =
  t.ops <- 0;
  t.reads <- 0;
  t.writes <- 0;
  Hashtbl.reset t.read_counts;
  Hashtbl.reset t.write_counts;
  Trace.set_enabled true;
  Trace.reset ()

let span = Trace.with_span

let codec tag payload =
  let bytes = Wire.frame tag payload in
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed d (Bytes.unsafe_of_string bytes) (String.length bytes);
  match Wire.Decoder.next d with
  | Ok (Some (_, p)) -> p
  | Ok None | Error _ -> failwith "perfbench: wire round trip failed"

(* Runs one op as the server would and returns (ok, reply body). *)
let step t (op : Gen.op) =
  t.ops <- t.ops + 1;
  (match op.kind with Gen.Read -> t.reads <- t.reads + 1 | Gen.Write -> t.writes <- t.writes + 1);
  span "op" (fun () ->
      let stmt = span "wire" (fun () -> codec "EXEC" op.stmt) in
      let parsed = span "parse" (fun () -> try Some (Hr_query.Parser.parse_statement stmt) with _ -> None) in
      (match parsed with
      | Some { Ast.stmt = Ast.Select_query { expr; _ } | Ast.Count { expr; _ }; _ } ->
        span "optimize" (fun () -> ignore (Hr_query.Optimizer.optimize expr))
      | _ -> ());
      let before = counter_values () in
      let ok, body =
        match op.kind with
        | Gen.Read when t.offload_reads -> (
          let v = Hr_exec.Publisher.current t.pub in
          match span "eval" (fun () -> Hr_query.Eval.run_script v.Hr_exec.Version.catalog stmt) with
          | Ok outs -> (true, String.concat "\n" outs)
          | Error msg -> (false, msg))
        | _ -> (
          let res = span "eval" (fun () -> Db.exec_buffered t.db stmt) in
          span "sync" (fun () -> Db.sync t.db);
          span "publish" (fun () -> publish t);
          match res with Ok outs -> (true, String.concat "\n" outs) | Error msg -> (false, msg))
      in
      accumulate
        (match op.kind with Gen.Read -> t.read_counts | Gen.Write -> t.write_counts)
        before (counter_values ());
      (* standalone re-runs of the layers eval reaches internally *)
      let cat = Db.catalog t.db in
      (match parsed with
      | Some { Ast.stmt = Ast.Insert { rel; _ } | Ast.Delete { rel; _ }; _ } when ok ->
        span "integrity" (fun () -> ignore (Hierel.Integrity.check (Hierel.Catalog.relation cat rel)))
      | Some { Ast.stmt = Ast.Ask { rel; values; semantics }; _ } ->
        let r = Hierel.Catalog.relation cat rel in
        let item = Hr_query.Eval.resolve_values (Hierel.Relation.schema r) values in
        span "verdict" (fun () -> ignore (Hierel.Binding.verdict ?semantics r item))
      | _ -> ());
      ignore (span "wire" (fun () -> codec (if ok then "OK" else "ERR") body));
      (ok, body))

type summary = {
  ops : int;
  reads : int;
  writes : int;
  span_ms : (string * float * int) list;  (** name, total ms, count *)
  read_counts : (string, int) Hashtbl.t;
  write_counts : (string, int) Hashtbl.t;
  freeze_ms : float;
}

(* Each root is one op; its children are the layer calls, whose
   inclusive durations are summed by name (spans the library opens
   inside them belong to them). The root's self time is the "op" entry:
   the replay's own bookkeeping. *)
let finish (t : t) =
  let tbl = Hashtbl.create 16 in
  let add name ns =
    let ms, n = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (ms +. (float_of_int ns /. 1e6), n + 1)
  in
  let visit s =
    let kids = Trace.children s in
    List.iter (fun c -> add (Trace.name c) (Trace.duration_ns c)) kids;
    add (Trace.name s)
      (Trace.duration_ns s - List.fold_left (fun acc c -> acc + Trace.duration_ns c) 0 kids)
  in
  List.iter visit (Trace.take ());
  Trace.set_enabled false;
  {
    ops = t.ops;
    reads = t.reads;
    writes = t.writes;
    span_ms = Hashtbl.fold (fun k (ms, n) acc -> (k, ms, n) :: acc) tbl [];
    read_counts = t.read_counts;
    write_counts = t.write_counts;
    freeze_ms = t.freeze_ms;
  }

let total s name =
  List.fold_left (fun acc (n, ms, _) -> if n = name then acc +. ms else acc) 0. s.span_ms

let count s name = List.fold_left (fun acc (n, _, c) -> if n = name then acc + c else acc) 0 s.span_ms
