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

(* Infrastructure failure talking to a shard (vs [Reply_err]: the shard
   answered, with an evaluator error). *)
exception Shard_down of shard * string
exception Reply_err of string

let down_msg sc msg =
  Printf.sprintf "shard %d (%s:%d) unreachable: %s" sc.sid sc.shost sc.sport msg

let exn_msg = function
  | Failure m -> m
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | Wire.Disconnected -> "disconnected"
  | e -> Printexc.to_string e

let dead_count t = List.length (List.filter (fun s -> s.conn = None) t.shards)

let mark_down t sc msg =
  (match sc.conn with
  | Some c -> Client.close c
  | None -> ());
  sc.conn <- None;
  sc.last_attempt <- Metrics.now_ns ();
  Metrics.set g_dead (dead_count t);
  Metrics.incr m_errors;
  raise (Shard_down (sc, msg))

(* Dial throttle: a dead shard is retried at most once a second so a
   write storm against a down subtree does not spend every statement's
   latency budget on connect timeouts. *)
let reconnect_throttle_ns = 1_000_000_000

let ensure_conn t sc =
  match sc.conn with
  | Some c -> c
  | None ->
    if Metrics.now_ns () - sc.last_attempt < reconnect_throttle_ns then
      raise (Shard_down (sc, "down (reconnect throttled)"));
    sc.last_attempt <- Metrics.now_ns ();
    (match Client.connect ~host:sc.shost ~timeout:t.timeout ~port:sc.sport () with
    | conn ->
      sc.conn <- Some conn;
      Metrics.incr m_reconnects;
      Metrics.set g_dead (dead_count t);
      conn
    | exception e -> raise (Shard_down (sc, exn_msg e)))

let shard_send t sc tag payload =
  let c = ensure_conn t sc in
  try Client.send c tag payload with e -> mark_down t sc (exn_msg e)

(* One reply off a shard connection, in FIFO order with its requests.
   [expected]-tagged replies carry an LSN prefix (tracked per shard);
   [ERR] raises {!Reply_err}; anything else is a protocol violation and
   the shard is dropped. *)
let shard_recv t sc ~expected =
  (* [None] can happen mid-round: an earlier pipelined reply marked the
     shard down while this statement's reply was still owed. *)
  let c =
    match sc.conn with
    | Some c -> c
    | None -> raise (Shard_down (sc, "down"))
  in
  match Client.recv_any c with
  | Error msg -> mark_down t sc msg
  | Ok ("ERR", payload) -> raise (Reply_err payload)
  | Ok (tag, payload) when tag = expected -> (
    match Wire.parse_lsn_prefixed payload with
    | Error msg -> mark_down t sc msg
    | Ok (lsn, body) ->
      sc.lsn <- max sc.lsn lsn;
      Metrics.set sc.g_lsn sc.lsn;
      body)
  | Ok (tag, _) -> mark_down t sc (Printf.sprintf "protocol error: unexpected %S" tag)

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
  let names = ref [] in
  let add n = if not (List.mem n !names) then names := n :: !names in
  let rec expr e =
    match e.Ast.expr with
    | Ast.Rel n -> add n
    | Ast.Select (e, _, _)
    | Ast.Project (e, _)
    | Ast.Rename (e, _, _)
    | Ast.Consolidated e
    | Ast.Explicated (e, _) -> expr e
    | Ast.Join (a, b) | Ast.Union (a, b) | Ast.Intersect (a, b) | Ast.Except (a, b)
      ->
      expr a;
      expr b
  in
  (match stmt with
  | Ast.Select_query { expr = e; _ }
  | Ast.Let_binding { expr = e; _ }
  | Ast.Explain_plan e | Ast.Explain_analyze e | Ast.Explain_estimate e ->
    expr e
  | Ast.Count { expr = e; _ } -> expr e
  | Ast.Diff { prev; next } ->
    expr prev;
    expr next
  | Ast.Ask { rel; _ }
  | Ast.Check rel
  | Ast.Explain { rel; _ }
  | Ast.Consolidate rel
  | Ast.Explicate { rel; _ } -> add rel
  | Ast.Show_relations ->
    List.iter (fun r -> add (Relation.name r)) (Catalog.relations t.cat)
  | _ -> ());
  List.filter (fun n -> Catalog.find_relation t.cat n <> None) (List.rev !names)

(* Which shards a relation must be pulled from for this statement.
   Default: all of them. Two provably sufficient restrictions: a
   top-level point query whose optimized plan is a selection on the
   scanned relation's first attribute, and ASK/EXPLAIN on a specific
   item — in both, every tuple that can influence the answer has a
   first coordinate intersecting the probed node, and the cover rule
   guarantees all such tuples live on the node's cover. *)
let read_scope t stmt name =
  let all = Shard_map.ids t.map in
  let cover_of_value v =
    match Catalog.find_relation t.cat name with
    | None -> all
    | Some rel -> (
      let schema = Relation.schema rel in
      let h = Schema.hierarchy schema 0 in
      match Hierarchy.find h (Ast.value_name v) with
      | Some n -> Shard_map.cover t.map h n
      | None -> all)
  in
  let first_attr () =
    match Catalog.find_relation t.cat name with
    | None -> None
    | Some rel ->
      Some (Hr_util.Symbol.name (Schema.attr (Relation.schema rel) 0).Schema.name)
  in
  match stmt with
  | Ast.Select_query { expr; justified = false } -> (
    match (Optimizer.optimize expr).Ast.expr with
    | Ast.Select ({ Ast.expr = Ast.Rel r; _ }, attr, v)
      when r = name && first_attr () = Some attr ->
      cover_of_value v
    | _ -> all)
  | (Ast.Ask { rel; values = v :: _; _ } | Ast.Explain { rel; values = v :: _ })
    when rel = name ->
    cover_of_value v
  | _ -> all

(* Decoded tuple lines from one shard, merged with exact-identity dedup:
   the same (item, sign) from several shards is one tuple (that is what
   replication means); the same item with opposite signs is divergence
   and poisons the whole read — silently picking a winner would let a
   half-applied write change query results. *)
let merge_part name schema tbl sc body =
  let lines = String.split_on_char '\n' body in
  List.iter
    (fun line ->
      if line <> "" then begin
        let fail () =
          raise
            (Reply_err
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
              (Reply_err
                 (Printf.sprintf
                    "shard %d sent tuple %S outside %s's schema (cross-shard \
                     divergence; run hrdb fsck --against the shard map)"
                    sc.sid line name))
        in
        match Hashtbl.find_opt tbl item with
        | None ->
          Hashtbl.add tbl item sign;
          Metrics.incr m_merged
        | Some s when s = sign -> Metrics.incr m_dedup
        | Some _ ->
          raise
            (Reply_err
               (Printf.sprintf
                  "cross-shard divergence on %s: shard %d disagrees on the sign \
                   of %s (run hrdb fsck --against the shard map)"
                  name sc.sid
                  (Item.to_string schema item)))
      end)
    lines

type gather_info = { gi_name : string; gi_sid : int; gi_tuples : int; gi_lsn : int }

(* Pull [names] (each from its scope's shards), pipelined: all PULL
   frames go out before any reply is read, in a fixed order both sides
   share, so each shard connection's FIFO stays aligned. The merged
   extensions replace the local catalog's empty relations for the
   duration of one statement. *)
let gather t scoped =
  let t0 = Metrics.now_ns () in
  List.iter
    (fun (name, sids) ->
      List.iter
        (fun sid ->
          shard_send t (shard_of t sid) Wire.shard_pull name;
          Metrics.incr m_pulls)
        sids)
    scoped;
  let infos = ref [] in
  List.iter
    (fun (name, sids) ->
      let schema = Relation.schema (Catalog.relation t.cat name) in
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun sid ->
          let sc = shard_of t sid in
          let body =
            try shard_recv t sc ~expected:Wire.shard_part
            with Reply_err msg ->
              raise
                (Reply_err
                   (Printf.sprintf
                      "shard %d (%s:%d) cannot serve %s: %s (cross-shard \
                       divergence; run hrdb fsck --against the shard map)"
                      sc.sid sc.shost sc.sport name (strip_located msg)))
          in
          let before = Hashtbl.length tbl in
          merge_part name schema tbl sc body;
          infos :=
            { gi_name = name; gi_sid = sid; gi_tuples = Hashtbl.length tbl - before;
              gi_lsn = sc.lsn }
            :: !infos)
        sids;
      let rel =
        Hashtbl.fold (fun item sign r -> Relation.set r item sign) tbl
          (Relation.empty ~name schema)
      in
      Catalog.replace_relation t.cat rel;
      Metrics.observe h_fanout (List.length sids))
    scoped;
  Metrics.observe h_gather (Metrics.now_ns () - t0);
  List.rev !infos

(* After evaluating, gathered extensions are dropped again: the router's
   catalog stays schema-only between statements. *)
let reset_relations t names =
  List.iter
    (fun name ->
      match Catalog.find_relation t.cat name with
      | None -> ()
      | Some rel ->
        Catalog.replace_relation t.cat
          (Relation.empty ~name (Relation.schema rel)))
    names

let per_shard_section t infos =
  let b = Buffer.create 128 in
  Buffer.add_string b "per-shard breakdown:";
  List.iter
    (fun gi ->
      let sc = shard_of t gi.gi_sid in
      Buffer.add_string b
        (Printf.sprintf "\n  shard %d (%s:%d) lsn=%d: %s %d tuple(s)" gi.gi_sid
           sc.shost sc.sport gi.gi_lsn gi.gi_name gi.gi_tuples))
    infos;
  Buffer.contents b

(* ---- SHARD_EXEC rounds ------------------------------------------------ *)

(* What a shard answered one SHARD_EXEC with. *)
type ack =
  | Acked of int list
      (* the INSERT rows (numbered from 1) the shard stored before *)
  | Rejected of string  (* the shard's evaluator error, location stripped *)
  | Down of string  (* the shard is unreachable; the text names it *)

(* One SHARD_EXEC per [(shard, script)], every frame out before any
   reply is read. A shard the frame cannot reach already has its
   answer: [Down]. *)
let send t scripts =
  List.map
    (fun (sc, script) ->
      match shard_send t sc Wire.shard_exec script with
      | () -> (sc, None)
      | exception Shard_down (sc, msg) -> (sc, Some (Down (down_msg sc msg))))
    scripts

(* Every shard's ack, in send order. Every reply owed is read, even
   after a failure, so no shard's reply FIFO is left holding an ack the
   next round would take for its own. *)
let collect t sent =
  let ack sc =
    match
      match Wire.held_rows (shard_recv t sc ~expected:Wire.shard_ack) with
      | Ok held -> held
      | Error msg -> mark_down t sc ("protocol error: " ^ msg)
    with
    | held -> Acked held
    | exception Reply_err msg -> Rejected (strip_located msg)
    | exception Shard_down (sc, msg) -> Down (down_msg sc msg)
  in
  List.map
    (fun (sc, answered) -> (sc, match answered with Some a -> a | None -> ack sc))
    sent

(* A round every shard must accept: a DDL run or a repartition.
   [rejected sc msg] words a shard's refusal. *)
let everywhere t script_for ~rejected =
  let sids = Shard_map.ids t.map in
  require_up t sids;
  Metrics.incr m_broadcasts;
  send t (List.map (fun sid -> let sc = shard_of t sid in (sc, script_for sc)) sids)
  |> collect t
  |> List.iter (function
       | _, Acked _ -> ()
       | sc, Rejected msg -> raise (Reply_err (rejected sc msg))
       | _, Down msg -> raise (Reply_err msg))

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
  parts : (shard * string * Ast.value list list) list;
      (* covered shard (ascending sid), its sub-statement, and the rows
         an INSERT sends it — what its undo may delete ([] for a DELETE) *)
  reply : string;
  footprint : Hr_analysis.Footprint.t Lazy.t;  (* for the commutativity oracle *)
}

(* Rows are resolved as the engine resolves them, so a bad row raises a
   single node's error text. *)
let plan t stmt =
  let build rel rows ~values ~render ~undoable ~verb =
    let schema = Relation.schema (Eval.relation t.cat rel) in
    let covers =
      List.mapi (fun i r -> (r, cover_of_row t ~rel schema i (values r))) rows
    in
    let part sid =
      let mine =
        List.filter_map (fun (r, c) -> if List.mem sid c then Some r else None) covers
      in
      (shard_of t sid, render mine, if undoable then List.map values mine else [])
    in
    {
      rel;
      parts = List.map part (List.sort_uniq compare (List.concat_map snd covers));
      reply = string_of_int (List.length rows) ^ " tuple(s) " ^ verb ^ " " ^ rel;
      footprint =
        lazy
          (try Hr_analysis.Effect.footprint ~find:(Catalog.find_relation t.cat) stmt
           with _ -> Hr_analysis.Footprint.Opaque "footprint analysis failed");
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

(* Sends the plan's sub-statements; [finish] collects them. *)
let start t plan =
  require_up t (List.map (fun (sc, _, _) -> sc.sid) plan.parts);
  Metrics.incr m_mutations;
  Metrics.observe h_fanout (List.length plan.parts);
  send t (List.map (fun (sc, script, _) -> (sc, script)) plan.parts)

(* The plan's reply (unlocated), and the undo a failure owes: for every
   INSERT part a shard acknowledged, a DELETE of the rows that shard
   newly stored. Deletes are never undone: they fail identically
   everywhere or expose divergence that is already there. *)
let finish t plan sent =
  let acks = collect t sent in
  let failure = function _, (Rejected m | Down m) -> Some m | _, Acked _ -> None in
  match List.find_map failure acks with
  | None -> (Ok plan.reply, [])
  | Some msg ->
    let owed (sc, ack) =
      match (ack, List.find (fun (s, _, _) -> s == sc) plan.parts) with
      | Acked held, (_, _, rows) -> (
        match List.filteri (fun i _ -> not (List.mem (i + 1) held)) rows with
        | [] -> None
        | fresh -> Some (sc, Render.delete plan.rel fresh))
      | (Rejected _ | Down _), _ -> None
    in
    (Error msg, List.filter_map owed acks)

(* Best effort: a shard that dies mid-undo leaves divergence for fsck
   to find. *)
let undo t owed = ignore (collect t (send t owed))

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
  | Ast.Insert _ | Ast.Delete _ ->
    let plan = plan t stmt in
    let result, owed = finish t plan (start t plan) in
    undo t owed;
    result
  | Ast.Let_binding { name; expr = _ } -> (
    let srcs = mentioned_relations t stmt in
    let present = Catalog.find_relation t.cat name <> None in
    require_up t (Shard_map.ids t.map);
    ignore (gather t (List.map (fun n -> (n, Shard_map.ids t.map)) srcs));
    match Eval.exec t.cat stmt with
    | Error _ as e ->
      reset_relations t srcs;
      e
    | Ok out ->
      let rel = Catalog.relation t.cat name in
      repartition t rel ~present;
      reset_relations t (name :: srcs);
      Ok out)
  | Ast.Consolidate rel_name | Ast.Explicate { rel = rel_name; _ } -> (
    let srcs = mentioned_relations t stmt in
    require_up t (Shard_map.ids t.map);
    ignore (gather t (List.map (fun n -> (n, Shard_map.ids t.map)) srcs));
    match Eval.exec t.cat stmt with
    | Error _ as e ->
      reset_relations t srcs;
      e
    | Ok out ->
      let rel = Catalog.relation t.cat rel_name in
      repartition t rel ~present:true;
      reset_relations t srcs;
      Ok out)
  | Ast.Select_query _ | Ast.Ask _ | Ast.Check _ | Ast.Count _ | Ast.Diff _
  | Ast.Explain _ | Ast.Explain_plan _ | Ast.Explain_analyze _
  | Ast.Explain_estimate _ | Ast.Show_relations -> (
    let names = mentioned_relations t stmt in
    let scoped = List.map (fun n -> (n, read_scope t stmt n)) names in
    let infos = gather t scoped in
    let r = Eval.exec t.cat stmt in
    reset_relations t names;
    match (stmt, r) with
    | Ast.Explain_analyze _, Ok out when infos <> [] ->
      Ok (out ^ "\n" ^ per_shard_section t infos)
    | _ -> r)
  (* SHOW HIERARCHY/HIERARCHIES, STATS and EXPLAIN EFFECTS read only
     the router's own catalog. EXPLAIN EFFECTS resolves cones against it
     — the router owns the DAG and every relation schema (DDL is
     broadcast), which is all a footprint needs. The DDL constructors
     never get here: the first arm takes them. *)
  | _ -> Eval.exec t.cat stmt

let located sloc f =
  let r =
    try f () with
    | Eval.Rejected (_, msg)
    | Types.Model_error msg
    | Hierarchy.Error msg
    | Failure msg ->
      Error msg
    | Shard_down (sc, msg) -> Error (down_msg sc msg)
    | Reply_err msg -> Error (strip_located msg)
  in
  match r with
  | Ok _ as ok -> ok
  | Error msg -> Error (Format.asprintf "at %a: %s" Loc.pp_prose sloc msg)

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
  match Parser.parse payload with
  | exception Parser.Parse_error { msg; _ } -> Error ("parse error: " ^ msg)
  | exception Lexer.Lex_error { msg; _ } -> Error ("lex error: " ^ msg)
  | stmts ->
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
    loop [] [] stmts

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

(* ---- frame handling (synchronous path) -------------------------------- *)

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

(* An EXEC frame that is exactly one INSERT or DELETE, planned. A write
   the engine refuses is left to the synchronous path, which answers it
   with the engine's error. *)
let routed_write t payload =
  match Parser.parse payload with
  | [ { Ast.stmt = (Ast.Insert _ | Ast.Delete _) as stmt; sloc } ] -> (
    try Some (sloc, plan t stmt) with _ -> None)
  | _ | (exception _) -> None

type pending =
  | Write of Conn.t * Loc.t * plan * (shard * ack option) list
      (* a routed write of the pipelined run, and what [start] sent *)
  | Sync of Conn.t * string * string
  | Fail of Conn.t * string

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
    (* Phase A: decode every complete frame, in arrival order. The
       leading run of routed writes over connected shards is started at
       once — their SHARD_EXEC frames are all in flight before any reply
       is awaited, which is where the K-shard write speedup comes from.
       A single-shard write always joins (per-shard FIFO preserves
       arrival order); a multi-shard write joins only when the
       commutativity oracle proves it commutes with {e every} write
       already in the run — then even its undo (on partial failure,
       deferred past the run) commutes with everything applied after it.
       Once a multi-shard write is in, later single-shard writes must
       commute with the multi-shard ones for the same reason. The first
       frame that cannot join ends the run: later frames must not send
       to shards before it does, or the per-shard reply FIFOs would
       interleave. *)
    let pendings = ref [] and in_run = ref true in
    (* footprints of every write in the run / of the multi-shard ones *)
    let run_fps = ref [] and multi_fps = ref [] in
    let commutes_all fp fps =
      List.for_all
        (fun fp' ->
          match Hr_analysis.Effect.commutes_fp fp fp' with
          | Hr_analysis.Effect.Commute -> true
          | Hr_analysis.Effect.Conflict _ | Hr_analysis.Effect.Unknown _ -> false)
        fps
    in
    let join (plan : plan) =
      let multi = List.compare_length_with plan.parts 1 > 0 in
      let others = if multi then !run_fps else !multi_fps in
      let fp = Lazy.force plan.footprint in
      let joins =
        List.for_all (fun (sc, _, _) -> sc.conn <> None) plan.parts
        && commutes_all fp others
      in
      if joins then begin
        if others <> [] then Hr_analysis.Effect.note_router_overlap ();
        run_fps := fp :: !run_fps;
        if multi then multi_fps := fp :: !multi_fps
      end;
      joins
    in
    List.iter
      (fun c ->
        let rec drain () =
          match Conn.next c with
          | Error msg ->
            (* framing is lost: answered with one ERR in reply order, then
               the connection closes once its replies drain *)
            pendings := Fail (c, msg) :: !pendings
          | Ok None -> ()
          | Ok (Some (tag, payload)) ->
            Metrics.incr m_frames;
            let p =
              match if !in_run && tag = "EXEC" then routed_write t payload else None with
              | Some (sloc, plan) when join plan -> Write (c, sloc, plan, start t plan)
              | Some _ | None ->
                in_run := false;
                Sync (c, tag, payload)
            in
            pendings := p :: !pendings;
            drain ()
        in
        drain ())
      t.clients;
    (* Phase B: answer in order. The undo a failed write owes is
       deferred until every write of the run has its replies (undoing
       earlier would desynchronize the per-shard FIFOs), but runs before
       any synchronous frame executes (those were not oracle-checked, so
       they must not observe rows about to be undone). Every write of
       the run precedes every synchronous frame in [pendings], so
       settling at each [Sync] and at the end covers both. *)
    let owed = ref [] in
    let settle () =
      undo t (List.rev !owed);
      owed := []
    in
    List.iter
      (function
        | Write (c, sloc, plan, sent) ->
          let result, owes = finish t plan sent in
          owed := List.rev_append owes !owed;
          answer c (located sloc (fun () -> result))
        | Sync (c, tag, payload) ->
          settle ();
          handle_frame t c tag payload
        | Fail (c, msg) -> answer c (Error msg))
      (List.rev !pendings);
    settle ();
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
  (* EXPLAIN ESTIMATE / EXPLAIN EFFECTS statements evaluate through the
     local Eval path; force both registrations the same way the CLI
     does. *)
  Hr_analysis.Estimate.ensure_registered ();
  Hr_analysis.Effect.ensure_registered ();
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
  List.iter
    (fun sc -> try ignore (ensure_conn t sc) with Shard_down _ -> ())
    t.shards;
  Metrics.set g_dead (dead_count t);
  t

let port t = t.bound_port

let close t =
  (try Unix.close t.socket with Unix.Unix_error _ -> ());
  List.iter Conn.close t.clients;
  t.clients <- [];
  List.iter
    (fun sc ->
      match sc.conn with
      | Some c ->
        Client.close c;
        sc.conn <- None
      | None -> ())
    t.shards
