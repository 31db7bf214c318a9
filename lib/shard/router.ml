module Wire = Hr_frames.Wire
module Conn = Hr_frames.Conn
module Shard_map = Hr_check.Shard_map
module Client = Hr_server.Server.Client
module Hierarchy = Hr_hierarchy.Hierarchy
module Ast = Hr_query.Ast
module Parser = Hr_query.Parser
module Lexer = Hr_query.Lexer
module Eval = Hr_query.Eval
module Optimizer = Hr_query.Optimizer
module Loc = Hr_query.Loc
module Metrics = Hr_obs.Metrics
open Hierel

(* Router metrics (docs/OBSERVABILITY.md). [shard.<id>.lsn] gauges are
   registered per shard in [create]. *)
let m_frames = Metrics.counter "shard.frames_routed"
let m_mutations = Metrics.counter "shard.mutations_routed"
let m_broadcasts = Metrics.counter "shard.broadcasts"
let m_pulls = Metrics.counter "shard.pulls"
let m_merged = Metrics.counter "shard.merged_tuples"
let m_dedup = Metrics.counter "shard.dedup_dropped"
let m_errors = Metrics.counter "shard.errors"
let m_reconnects = Metrics.counter "shard.reconnects"
let g_dead = Metrics.gauge "shard.dead"
let h_fanout = Metrics.histogram "shard.fanout"
let h_gather = Metrics.histogram "shard.gather_ns"

type shard = {
  sid : int;
  shost : string;
  sport : int;
  mutable conn : Client.conn option;  (* [None] = down *)
  mutable lsn : int;  (* head LSN from the last reply *)
  mutable last_attempt : int;  (* now_ns of the last failed dial *)
  g_lsn : Metrics.gauge;
}

type t = {
  socket : Unix.file_descr;
  bound_port : int;
  map : Shard_map.t;
  shards : shard list;  (* ascending sid *)
  timeout : float;
  max_backlog : int;
  (* DDL only: every hierarchy, every relation schema, no tuples. DDL
     replays here in the same order as on every shard, so node ids (and
     hence the wire tuple encoding) agree across the deployment. Query
     evaluation temporarily materializes gathered extensions into it. *)
  cat : Catalog.t;
  mutable clients : Conn.t list;  (* in accept order *)
}

(* A shard round failed: a shard is unreachable, diverged or refused.
   The text is the client's error, unlocated. *)
exception Shard_error of string

let down_msg sc msg =
  Printf.sprintf "shard %d (%s:%d) unreachable: %s" sc.sid sc.shost sc.sport msg

let exn_msg = function
  | Failure m -> m
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | Wire.Disconnected -> "disconnected"
  | e -> Printexc.to_string e

let dead_count t = List.length (List.filter (fun s -> s.conn = None) t.shards)

(* What a shard answered one frame of a round with. *)
type answer =
  | Reply of string  (* the expected reply's body, after its LSN prefix *)
  | Rejected of int option * string
      (* the shard's error, location stripped, and the row of the
         statement it refused when the error names one *)
  | Down of string  (* the shard is unreachable; the text names it *)

(* The shard is dropped: its connection closes, and it answers [Down]
   until a reconnect. *)
let drop t sc msg =
  Option.iter Client.close sc.conn;
  sc.conn <- None;
  sc.last_attempt <- Metrics.now_ns ();
  Metrics.set g_dead (dead_count t);
  Metrics.incr m_errors;
  Down (down_msg sc msg)

(* Dial throttle: a dead shard is retried at most once a second so a
   write storm against a down subtree does not spend every statement's
   latency budget on connect timeouts. *)
let reconnect_throttle_ns = 1_000_000_000

let ensure_conn t sc =
  match sc.conn with
  | Some c -> c
  | None ->
    if Metrics.now_ns () - sc.last_attempt < reconnect_throttle_ns then
      raise (Shard_error (down_msg sc "down (reconnect throttled)"));
    sc.last_attempt <- Metrics.now_ns ();
    (match Client.connect ~host:sc.shost ~timeout:t.timeout ~port:sc.sport () with
    | conn ->
      sc.conn <- Some conn;
      Metrics.incr m_reconnects;
      Metrics.set g_dead (dead_count t);
      conn
    | exception e -> raise (Shard_error (down_msg sc (exn_msg e))))

let shard_of t sid =
  match List.find_opt (fun s -> s.sid = sid) t.shards with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Router: unknown shard %d" sid)

(* Mutations that touch several shards (DDL broadcast, replicated rows,
   repartitions) refuse to start unless every target is reachable —
   beginning a multi-shard write that can only half-apply is how
   divergence is born. (A crash mid-broadcast can still diverge; that
   window is what [hrdb fsck --against MAP] exists for.) *)
let require_up t sids =
  List.iter (fun sid -> ignore (ensure_conn t (shard_of t sid))) sids

(* ---- shard evaluator errors ------------------------------------------ *)

(* A shard runs the re-rendered statement at line 1 of its own tiny
   script, so its error location is meaningless to the client. Strip it;
   the statement loop re-wraps with the original statement's span,
   making the error byte-identical to a single-node server's. *)
let strip_located msg =
  try
    Scanf.sscanf msg "at line %d, column %d: %n" (fun _ _ n ->
        String.sub msg n (String.length msg - n))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> msg

(* ---- shard rounds ----------------------------------------------------- *)

(* Every exchange with the shards is a round: [send] puts one [tag]
   frame per [(shard, payload)] out before any reply is read, and
   [collect] reads every reply owed, even after a failure, so no shard's
   reply FIFO is left holding a reply the next round would take for its
   own. A shard the frame cannot reach already has its answer: [Down]. *)
let send t tag frames =
  List.map
    (fun (sc, payload) ->
      match Client.send (ensure_conn t sc) tag payload with
      | () -> (sc, None)
      | exception Shard_error msg -> (sc, Some (Down msg))
      | exception e -> (sc, Some (drop t sc (exn_msg e))))
    frames

(* Every shard's answer, in send order. [expected]-tagged replies carry
   an LSN prefix (tracked per shard); an [ERR] answering [SHARD_EXEC]
   carries the refused row; anything else is a protocol violation and
   the shard is dropped. *)
let collect t ~expected sent =
  let read sc c =
    match Client.recv_any c with
    | exception e -> drop t sc (exn_msg e)
    | Error msg -> drop t sc msg
    | Ok ("ERR", payload) when expected <> Wire.shard_ack ->
      Rejected (None, strip_located payload)
    | Ok ("ERR", payload) -> (
      match Wire.rejected_row payload with
      | Ok (row, msg) -> Rejected (row, strip_located msg)
      | Error msg -> drop t sc ("protocol error: " ^ msg))
    | Ok (tag, payload) when tag = expected -> (
      match Wire.parse_lsn_prefixed payload with
      | Error msg -> drop t sc msg
      | Ok (lsn, body) ->
        sc.lsn <- max sc.lsn lsn;
        Metrics.set sc.g_lsn sc.lsn;
        Reply body)
    | Ok (tag, _) -> drop t sc (Printf.sprintf "protocol error: unexpected %S" tag)
  in
  List.map
    (fun (sc, answered) ->
      ( sc,
        match (answered, sc.conn) with
        | Some a, _ -> a
        | None, Some c -> read sc c
        (* an earlier reply of the round dropped the shard *)
        | None, None -> Down (down_msg sc "down") ))
    sent

(* The first failure of a round, in send order, raised; [rejected sc
   msg] words a shard's refusal. *)
let raise_first ~rejected answers =
  List.iter
    (function
      | _, Reply _ -> ()
      | sc, Rejected (_, msg) -> raise (Shard_error (rejected sc msg))
      | _, Down msg -> raise (Shard_error msg))
    answers

(* ---- scatter-gather reads -------------------------------------------- *)

let first_coord item = Item.coord item 0

(* Row [i] (from 0) of a statement on [rel], resolved as the engine
   resolves it, so a bad row is refused with a single node's error text. *)
let cover_of_row t ~rel schema i values =
  let h = Schema.hierarchy schema 0 in
  Shard_map.cover t.map h
    (first_coord (Eval.resolve_values ~cat:t.cat ~rel ~row:(i + 1) schema values))

(* Relation names a statement's evaluation can touch, filtered to names
   the catalog knows — unknown names are left for the local evaluator,
   whose error text then matches a single node's byte for byte. *)
let mentioned_relations t stmt =
  let names =
    match stmt with
    | Ast.Insert { rel; _ } | Ast.Delete { rel; _ } -> [ rel ]
    | Ast.Show_relations -> List.map Relation.name (Catalog.relations t.cat)
    | stmt -> Ast.relations_read stmt
  in
  List.filter (fun n -> Catalog.find_relation t.cat n <> None) names

(* Which shards a relation must be pulled from for this statement, and
   the node of its first attribute the pull may be narrowed to.
   Default: every shard, the whole relation. Two provably sufficient
   restrictions: a top-level point query whose optimized plan is a
   selection on the scanned relation's first attribute, and ASK/EXPLAIN
   on a specific item — in both, every tuple that can influence the
   answer has a first coordinate intersecting the probed node (Lemma E,
   docs/SEMANTICS.md), so only that node's meeting set is pulled, and
   the cover rule guarantees all of it lives on the node's cover. *)
let read_scope t stmt name =
  let all = (Shard_map.ids t.map, None) in
  match Catalog.find_relation t.cat name with
  | None -> all
  | Some rel -> (
    let schema = Relation.schema rel in
    let h = Schema.hierarchy schema 0 in
    let probe v =
      match Hierarchy.find h (Ast.value_name v) with
      | Some n -> (Shard_map.cover t.map h n, Some n)
      | None -> all
    in
    match stmt with
    | Ast.Select_query { expr; justified = false } -> (
      match (Optimizer.optimize expr).Ast.expr with
      | Ast.Select ({ Ast.expr = Ast.Rel r; _ }, attr, v)
        when r = name && attr = Hr_util.Symbol.name (Schema.attr schema 0).Schema.name ->
        probe v
      | _ -> all)
    | (Ast.Ask { rel; values = v :: _; _ } | Ast.Explain { rel; values = v :: _ })
      when rel = name ->
      probe v
    | _ -> all)

(* Decoded tuple lines from one shard, merged into [body] with
   exact-identity dedup: the same (item, sign) from several shards is
   one tuple (that is what replication means); the same item with
   opposite signs is divergence and poisons the whole read — silently
   picking a winner would let a half-applied write change query
   results. Returns the merged body and how many tuples this shard
   added to it. *)
let merge_part name schema body sc part =
  List.fold_left
    (fun ((body, added) as acc) line ->
      if line = "" then acc
      else begin
        let fail () =
          raise
            (Shard_error
               (Printf.sprintf "shard %d sent a malformed tuple %S for %s" sc.sid
                  line name))
        in
        if String.length line < 3 || String.get line 1 <> ' ' then fail ();
        let sign =
          match String.get line 0 with
          | '+' -> Types.Pos
          | '-' -> Types.Neg
          | _ -> fail ()
        in
        let coords =
          String.sub line 2 (String.length line - 2)
          |> String.split_on_char ','
          |> List.map (fun s ->
                 match int_of_string_opt s with Some n -> n | None -> fail ())
          |> Array.of_list
        in
        let item =
          try Item.make schema coords
          with _ ->
            raise
              (Shard_error
                 (Printf.sprintf
                    "shard %d sent tuple %S outside %s's schema (cross-shard \
                     divergence; run hrdb fsck --against the shard map)"
                    sc.sid line name))
        in
        match Relation.Item_map.find_opt item body with
        | None ->
          Metrics.incr m_merged;
          (Relation.Item_map.add item sign body, added + 1)
        | Some s when s = sign ->
          Metrics.incr m_dedup;
          acc
        | Some _ ->
          raise
            (Shard_error
               (Printf.sprintf
                  "cross-shard divergence on %s: shard %d disagrees on the sign \
                   of %s (run hrdb fsck --against the shard map)"
                  name sc.sid
                  (Item.to_string schema item)))
      end)
    (body, 0)
    (String.split_on_char '\n' part)

type gather_info = { gi_name : string; gi_shard : shard; gi_tuples : int }

(* Pull [scoped] relations (each from its scope's shards, narrowed to
   its probed node's meeting set when the scope names one) in one round.
   Only once every reply is in does a failure raise: the first
   unreachable or refusing shard in send order, else a divergence found
   while merging. The merged extensions replace the local catalog's
   empty relations. *)
let gather t scoped =
  let t0 = Metrics.now_ns () in
  let pull (name, (sids, probe)) =
    let payload =
      match probe with None -> name | Some n -> name ^ "\n" ^ string_of_int n
    in
    List.map (fun sid -> (name, (shard_of t sid, payload))) sids
  in
  let frames = List.concat_map pull scoped in
  Metrics.add m_pulls (List.length frames);
  let answers =
    List.combine (List.map fst frames)
      (collect t ~expected:Wire.shard_part (send t Wire.shard_pull (List.map snd frames)))
  in
  let by_relation =
    List.map
      (fun (name, _) ->
        let mine = List.filter_map (fun (n, a) -> if n = name then Some a else None) answers in
        raise_first mine ~rejected:(fun sc msg ->
            Printf.sprintf
              "shard %d (%s:%d) cannot serve %s: %s (cross-shard divergence; run hrdb \
               fsck --against the shard map)"
              sc.sid sc.shost sc.sport name msg);
        (name, mine))
      scoped
  in
  let infos =
    List.concat_map
      (fun (name, answers) ->
        let schema = Relation.schema (Catalog.relation t.cat name) in
        let body, infos =
          List.fold_left
            (fun (body, infos) -> function
              | sc, Reply part ->
                let body, added = merge_part name schema body sc part in
                (body, { gi_name = name; gi_shard = sc; gi_tuples = added } :: infos)
              | _, (Rejected _ | Down _) -> (body, infos))
            (Relation.Item_map.empty, []) answers
        in
        Catalog.replace_relation t.cat (Relation.of_map ~name schema body);
        Metrics.observe h_fanout (List.length answers);
        List.rev infos)
      by_relation
  in
  Metrics.observe h_gather (Metrics.now_ns () - t0);
  infos

(* [f] evaluates over the gathered extensions of [scoped]. Afterwards,
   whether it answers or raises, those relations and [also] are emptied
   again: the router's catalog stays schema-only between statements. *)
let with_gathered ?(also = []) t scoped f =
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun name ->
          match Catalog.find_relation t.cat name with
          | Some rel ->
            Catalog.replace_relation t.cat (Relation.empty ~name (Relation.schema rel))
          | None -> ())
        (also @ List.map fst scoped))
    (fun () -> f (gather t scoped))

let per_shard_section infos =
  String.concat "\n  "
    ("per-shard breakdown:"
    :: List.map
         (fun { gi_name; gi_shard = sc; gi_tuples } ->
           Printf.sprintf "shard %d (%s:%d) lsn=%d: %s %d tuple(s)" sc.sid sc.shost sc.sport
             sc.lsn gi_name gi_tuples)
         infos)

(* ---- SHARD_EXEC rounds ------------------------------------------------ *)

(* A round every shard must accept: a DDL run or a repartition.
   [rejected sc msg] words a shard's refusal. *)
let everywhere t script_for ~rejected =
  let sids = Shard_map.ids t.map in
  require_up t sids;
  Metrics.incr m_broadcasts;
  send t Wire.shard_exec
    (List.map (fun sid -> let sc = shard_of t sid in (sc, script_for sc)) sids)
  |> collect t ~expected:Wire.shard_ack
  |> raise_first ~rejected

let broadcast t script =
  everywhere t (fun _ -> script) ~rejected:(fun sc msg ->
      Printf.sprintf
        "shard %d rejected a replicated statement (%s); the deployment has \
         diverged — run hrdb fsck --against the shard map"
        sc.sid msg)

(* Push a router-computed relation ([LET] / [CONSOLIDATE] / [EXPLICATE]
   result) back out: every shard rebuilds its slice from scratch. The
   slice is chosen by the same cover rule as routed inserts, so the
   placement invariant fsck checks holds for derived relations too. *)
let repartition t rel ~present =
  let h = Schema.hierarchy (Relation.schema rel) 0 in
  everywhere t
    (fun sc ->
      Render.rebuild rel ~present ~only:(fun (tu : Relation.tuple) ->
          List.mem sc.sid (Shard_map.cover t.map h (first_coord tu.Relation.item))))
    ~rejected:(fun sc msg ->
      Printf.sprintf "rebuild of %s failed on shard %d: %s" (Relation.name rel)
        sc.sid msg)

(* ---- routed writes ---------------------------------------------------- *)

(* A routed INSERT or DELETE: its rows grouped by their covers, one
   re-rendered sub-statement per covered shard. The reply quotes the
   original row count, so the client cannot tell it from a single
   node's. *)
type plan = {
  rel : string;
  values : Ast.value list array;  (* each row's values, in statement order *)
  parts : (shard * string * int list) list;
      (* covered shard (ascending sid), its sub-statement, and the
         statement's rows (numbered from 0) it carries, in order *)
  undoable : bool;  (* an INSERT: a failure deletes what a shard newly stored *)
  reply : string;
}

(* Rows are resolved as the engine resolves them, so a bad row raises a
   single node's error text. *)
let plan t stmt =
  let build rel rows ~values ~render ~undoable ~verb =
    let schema = Relation.schema (Eval.relation t.cat rel) in
    let rows = Array.of_list rows in
    let covers = Array.mapi (fun i r -> cover_of_row t ~rel schema i (values r)) rows in
    let part sid =
      let mine =
        List.filter (fun i -> List.mem sid covers.(i)) (List.init (Array.length rows) Fun.id)
      in
      (shard_of t sid, render (List.map (Array.get rows) mine), mine)
    in
    {
      rel;
      values = Array.map values rows;
      parts = List.map part (List.sort_uniq compare (List.concat (Array.to_list covers)));
      undoable;
      reply = string_of_int (Array.length rows) ^ " tuple(s) " ^ verb ^ " " ^ rel;
    }
  in
  match stmt with
  | Ast.Insert { rel; rows } ->
    build rel rows
      ~values:(fun (r : Ast.signed_row) -> r.Ast.values)
      ~render:(fun rows ->
        Render.insert rel
          (List.map (fun (r : Ast.signed_row) -> (r.Ast.sign, r.Ast.values)) rows))
      ~undoable:true ~verb:"inserted into"
  | Ast.Delete { rel; rows } ->
    build rel rows ~values:Fun.id ~render:(Render.delete rel) ~undoable:false
      ~verb:"deleted from"
  | _ -> invalid_arg "Router.plan: not an INSERT or DELETE"

(* Runs the plan as one round and answers with its reply (unlocated).
   The failure reported is the one a single node gives: an unreachable
   shard first, else the refusal of the statement's earliest row, else
   a refusal naming no row (a node stages every row before its
   commit-time check); ties go to send order. A failed INSERT is undone
   at once, in a second round: every shard that acknowledged deletes
   the rows it newly stored — best effort, a shard that dies mid-undo
   leaves divergence for fsck to find. Deletes are never undone: they
   fail identically everywhere or expose divergence that is already
   there. *)
let write t plan =
  require_up t (List.map (fun (sc, _, _) -> sc.sid) plan.parts);
  Metrics.incr m_mutations;
  Metrics.observe h_fanout (List.length plan.parts);
  let round frames = collect t ~expected:Wire.shard_ack (send t Wire.shard_exec frames) in
  (* [Ok held], or [Error (rank, message)] *)
  let rec outcome ((_, _, mine) as part) (sc, answer) =
    match answer with
    | Reply body -> (
      match Wire.held_rows body with
      | Ok held -> Ok held
      | Error msg -> outcome part (sc, drop t sc ("protocol error: " ^ msg)))
    | Down msg -> Error (-1, msg)
    | Rejected (row, msg) ->
      let at = Option.bind row (fun r -> List.nth_opt mine (r - 1)) in
      Error (Option.value at ~default:max_int, msg)
  in
  let outcomes =
    List.map2 outcome plan.parts
      (round (List.map (fun (sc, script, _) -> (sc, script)) plan.parts))
  in
  let failures = List.filter_map (function Error e -> Some e | Ok _ -> None) outcomes in
  match List.stable_sort (fun (a, _) (b, _) -> compare a b) failures with
  | [] -> Ok plan.reply
  | (_, msg) :: _ ->
    let owed (sc, _, mine) = function
      | Ok held when plan.undoable -> (
        match List.filteri (fun k _ -> not (List.mem (k + 1) held)) mine with
        | [] -> None
        | fresh -> Some (sc, Render.delete plan.rel (List.map (Array.get plan.values) fresh)))
      | Ok _ | Error _ -> None
    in
    ignore (round (List.filter_map Fun.id (List.map2 owed plan.parts outcomes)));
    Error msg

(* ---- statement dispatch ----------------------------------------------- *)

let is_ddl = function
  | Ast.Create_domain _ | Ast.Create_class _ | Ast.Create_instance _
  | Ast.Create_isa _ | Ast.Create_preference _ | Ast.Create_relation _
  | Ast.Drop_relation _ ->
    true
  | _ -> false

let exec_stmt t stmt =
  match stmt with
  | _ when is_ddl stmt ->
    (* Local only: a statement the router's own evaluator rejects is
       answered with the evaluator's error and never broadcast. The
       accepted ones reach the shards as a run ({!exec_script}). *)
    require_up t (Shard_map.ids t.map);
    Eval.exec t.cat stmt
  | Ast.Insert _ | Ast.Delete _ -> (
    match plan t stmt with
    | plan -> write t plan
    | exception Eval.Rejected _ when mentioned_relations t stmt <> [] ->
      (* A row names nothing, but one node refuses an earlier INSERT row
         that contradicts first: evaluated over the stored tuples, the
         statement fails as one node's does. *)
      with_gathered t
        (List.map (fun n -> (n, (Shard_map.ids t.map, None))) (mentioned_relations t stmt))
        (fun _ -> Eval.exec t.cat stmt))
  | Ast.Let_binding { name = target; _ }
  | Ast.Consolidate target
  | Ast.Explicate { rel = target; _ } ->
    (* gather from every shard, evaluate, repartition the result *)
    let all = Shard_map.ids t.map in
    let present = Catalog.find_relation t.cat target <> None in
    require_up t all;
    with_gathered t ~also:[ target ]
      (List.map (fun n -> (n, (all, None))) (mentioned_relations t stmt))
      (fun _ ->
        let r = Eval.exec t.cat stmt in
        if Result.is_ok r then repartition t (Catalog.relation t.cat target) ~present;
        r)
  | Ast.Select_query _ | Ast.Ask _ | Ast.Check _ | Ast.Count _ | Ast.Diff _
  | Ast.Explain _ | Ast.Explain_plan _ | Ast.Explain_analyze _
  | Ast.Explain_estimate _ | Ast.Show_relations ->
    with_gathered t
      (List.map (fun n -> (n, read_scope t stmt n)) (mentioned_relations t stmt))
      (fun infos ->
        match (stmt, Eval.exec t.cat stmt) with
        | Ast.Explain_analyze _, Ok out when infos <> [] ->
          Ok (out ^ "\n" ^ per_shard_section infos)
        | _, r -> r)
  (* SHOW HIERARCHY/HIERARCHIES and STATS read only the router's own
     catalog. The DDL constructors never get here: the first arm takes
     them. *)
  | _ -> Eval.exec t.cat stmt

let located sloc f =
  let at msg = Error (Format.asprintf "at %a: %s" Loc.pp_prose sloc msg) in
  match f () with
  | Ok _ as ok -> ok
  | Error msg -> at msg
  | exception
      ( Eval.Rejected (_, msg)
      | Types.Model_error msg
      | Hierarchy.Error msg
      | Failure msg
      | Shard_error msg ) ->
    at msg

let exec_located t { Ast.stmt; sloc } = located sloc (fun () -> exec_stmt t stmt)

(* A run of consecutive DDL statements is evaluated locally one at a
   time, then reaches each shard as one SHARD_EXEC (split only where
   the run would not fit one frame): each shard still logs one WAL
   record per statement, but publishes once per run. The run is sent
   before the statement that ends it runs — a rejected DDL statement,
   or any other statement, which must see the shards' DDL — so a
   script rejected at statement k leaves statements 1..k-1 on every
   shard, as a statement-at-a-time broadcast would. A shard rejecting
   the run is reported at the run's first statement. *)
let exec_script t payload =
  match Eval.parse_script payload with
  | Error _ as e -> e
  | Ok pieces ->
    (* [run]: the accepted, not yet broadcast DDL, newest first *)
    let flush = function
      | [] -> Ok ()
      | run ->
        let first = fst (List.nth run (List.length run - 1)) in
        located first (fun () ->
            List.iter (broadcast t)
              (Render.scripts ~limit:Wire.max_frame (List.rev_map snd run));
            Ok ())
    in
    let rec loop acc run = function
      | [] -> Result.map (fun () -> List.rev acc) (flush run)
      | ({ Ast.stmt; sloc } as lstmt) :: rest when is_ddl stmt -> (
        match exec_located t lstmt with
        | Ok out -> loop (out :: acc) ((sloc, Render.statement stmt) :: run) rest
        | Error _ as e -> Result.bind (flush run) (fun () -> e))
      | lstmt :: rest -> (
        match Result.bind (flush run) (fun () -> exec_located t lstmt) with
        | Ok out -> loop (out :: acc) [] rest
        | Error _ as e -> e)
    in
    loop [] [] (List.map (fun p -> p.Parser.stmt) pieces)

(* ---- client connections ----------------------------------------------- *)

(* A client whose unsent replies pass the backlog bound is cut off; every
   later reply to it in this tick is a no-op ({!Conn.close}). *)
let reply c tag payload =
  Conn.append c tag payload;
  Conn.flush c;
  if Conn.over_backlog c then Conn.close c

let answer c = function
  | Ok out -> reply c "OK" out
  | Error msg ->
    Metrics.incr m_errors;
    reply c "ERR" msg

(* ---- frame handling --------------------------------------------------- *)

let explain_estimate t payload =
  match Parser.parse_statement ("EXPLAIN ESTIMATE " ^ payload) with
  | exception Parser.Parse_error { msg; _ } -> Error ("parse error: " ^ msg)
  | exception Lexer.Lex_error { msg; _ } -> Error ("lex error: " ^ msg)
  | { Ast.stmt = Ast.Explain_estimate _ as stmt; sloc } -> (
    match exec_located t { Ast.stmt; sloc } with
    | Ok out -> Ok out
    | Error msg -> Error (strip_located msg))
  | _ -> Error "ESTIMATE expects a single query expression"

let handle_frame t c tag payload =
  match tag with
  | "EXEC" -> answer c (Result.map (String.concat "\n") (exec_script t payload))
  | "LINT" ->
    reply c "OK"
      (Hr_analysis.Diagnostic.render_json
         (Hr_analysis.Lint.analyze_script ~catalog:t.cat payload))
  | "ESTIMATE" -> answer c (explain_estimate t payload)
  | "STATS" ->
    let snap = Metrics.snapshot () in
    reply c "OK"
      (if String.lowercase_ascii (String.trim payload) = "json" then
         Metrics.render_json snap
       else Metrics.render_text snap)
  | "FSCK" ->
    answer c
      (Error
         "the router stores no tuples; run hrdb fsck DIR --against the shard \
          map against each shard's directory offline")
  | _ -> answer c (Error (Printf.sprintf "unknown request %S" tag))

(* ---- event loop ------------------------------------------------------- *)

(* One tick: every complete frame is answered in arrival order, one at a
   time, each running to its last shard reply before the next starts. A
   malformed header is answered with one ERR in reply order; the input
   ends there and the connection closes once its replies drain. *)
let poll ?(timeout = 0.05) t =
  let fds_where p =
    List.filter_map (fun c -> if p c then Some (Conn.fd c) else None) t.clients
  in
  match
    Unix.select (t.socket :: fds_where Conn.wants_read) (fds_where Conn.wants_write) [] timeout
  with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
    if List.mem t.socket readable then
      t.clients <- t.clients @ Conn.accept ~max_backlog:t.max_backlog t.socket;
    List.iter (fun c -> if List.mem (Conn.fd c) readable then Conn.read c) t.clients;
    List.iter
      (fun c ->
        let rec drain () =
          match Conn.next c with
          | Ok None -> ()
          | Ok (Some (tag, payload)) ->
            Metrics.incr m_frames;
            handle_frame t c tag payload;
            drain ()
          | Error msg -> answer c (Error msg)
        in
        drain ())
      t.clients;
    List.iter (fun c -> if List.mem (Conn.fd c) writable then Conn.flush c) t.clients;
    (* the EOF rule: a client that half-closed still gets every reply *)
    t.clients <-
      List.filter
        (fun c ->
          if Conn.finished c then Conn.close c;
          not (Conn.closed c))
        t.clients

let serve_forever t =
  (* a client or shard that vanishes mid-write must not kill the router *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rec loop () =
    poll ~timeout:0.2 t;
    loop ()
  in
  loop ()

(* ---- lifecycle -------------------------------------------------------- *)

let create ?(host = "127.0.0.1") ?(timeout = 5.0)
    ?(max_backlog = Conn.default_max_backlog) ~port ~map () =
  (* EXPLAIN ESTIMATE statements evaluate through the local Eval path;
     force the registration the same way the CLI does. *)
  Hr_analysis.Estimate.ensure_registered ();
  let socket, bound_port = Conn.listen ~host ~port in
  let shards =
    List.map
      (fun (s : Shard_map.shard) ->
        {
          sid = s.Shard_map.id;
          shost = s.Shard_map.host;
          sport = s.Shard_map.port;
          conn = None;
          lsn = 0;
          last_attempt = min_int / 2;
          g_lsn = Metrics.gauge (Printf.sprintf "shard.%d.lsn" s.Shard_map.id);
        })
      map.Shard_map.shards
  in
  let t =
    {
      socket;
      bound_port;
      map;
      shards;
      timeout;
      max_backlog;
      cat = Catalog.create ();
      clients = [];
    }
  in
  (* Eager dial so the common case starts connected; failures are fine
     here — the lazy reconnect path owns retries. *)
  List.iter (fun sc -> try ignore (ensure_conn t sc) with Shard_error _ -> ()) t.shards;
  Metrics.set g_dead (dead_count t);
  t

let port t = t.bound_port

let close t =
  (try Unix.close t.socket with Unix.Unix_error _ -> ());
  List.iter Conn.close t.clients;
  t.clients <- [];
  List.iter
    (fun sc ->
      Option.iter Client.close sc.conn;
      sc.conn <- None)
    t.shards
