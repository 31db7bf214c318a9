(** HRQL statement evaluation against a catalog.

    Every statement produces a human-readable report string; errors
    (syntax, unknown names, integrity violations) are returned as
    [Error _] rather than raised, so a REPL can keep going. Inserts and
    deletes run inside a transaction and are rejected wholesale if the
    resulting relation would violate the ambiguity constraint, exactly as
    §3.1 of the paper requires. This module is the one place that
    decides whether a statement is accepted: [attempt] also says why it
    refused one, which is what [hrdb lint] reports. *)

module Hierarchy = Hr_hierarchy.Hierarchy
open Hierel

let buf_fmt f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* ---- rejections -------------------------------------------------------- *)

(* Why the engine refused a statement. [exec] reports only the message;
   the linter reports each reason under one stable code
   ([Hr_analysis.Diagnostic.of_rejection], docs/LINT.md). *)
type reason =
  | Unknown_relation
  | Arity
  | Foreign_value  (* a name that belongs to another domain *)
  | All_on_instance
  | Cycle
  | Unknown_name
  | Duplicate
  | Invalid  (* any other refusal: an invalid hierarchy edit, an ambiguous name *)
  | Contradiction of { rel : Relation.t; row : int; item : Item.t; sign : Types.sign }
      (* row [row] asserts the opposite sign of a tuple stored on [item] *)
  | Ambiguity of { rel : Relation.t; conflict : Integrity.conflict }
      (* the commit would leave the staged [rel] ambiguous (paper, §3.1) *)

exception Rejected of (reason * string)

let reject reason fmt = Format.kasprintf (fun msg -> raise (Rejected (reason, msg))) fmt

let domain_name h = Hr_util.Symbol.name (Hierarchy.domain h)

(* ---- names -------------------------------------------------------------- *)

(* The one name lookup: the registered hierarchies that define the class
   or instance [name] (a domain's root included). DDL keeps names unique
   across the catalog, so this is at most one hierarchy. *)
let defining cat name = List.filter (fun h -> Hierarchy.mem h name) (Catalog.hierarchies cat)

(* The hierarchy that defines [name]. *)
let hierarchy_containing cat name =
  match defining cat name with
  | [ h ] -> h
  | [] -> reject Unknown_name "unknown class or instance %S" name
  | _ :: _ :: _ -> reject Invalid "%S is ambiguous across hierarchies" name

(* A new class or instance name must be defined nowhere yet, or
   [hierarchy_containing] could no longer place it. *)
let require_fresh cat name =
  if defining cat name <> [] then
    reject Duplicate "%S is already defined; class and instance names must be unique" name

let relation cat name =
  match Catalog.find_relation cat name with
  | Some r -> r
  | None -> reject Unknown_relation "unknown relation %S" name

let domain cat name =
  match Catalog.find_hierarchy cat name with
  | Some h -> h
  | None -> reject Unknown_name "unknown domain %S" name

(* A value in the position of an attribute whose domain is [h]. [cat]
   lets a name from another domain be reported as such. *)
let resolve_value ?cat h v =
  let name = Ast.value_name v in
  match Hierarchy.find h name with
  | Some node -> (
    match v with
    | Ast.All _ when Hierarchy.is_instance h node ->
      reject All_on_instance "ALL %s: %s is an instance, not a class" name name
    | Ast.All _ | Ast.Atom _ -> node)
  | None -> (
    match Option.map (fun cat -> defining cat name) cat with
    | Some (other :: _) ->
      reject Foreign_value "%S belongs to domain %s, not %s (the attribute's domain)" name
        (domain_name other) (domain_name h)
    | Some [] | None -> reject Unknown_name "unknown class or instance %S" name)

(* Row [row] of a statement on relation [rel]: one node per attribute. *)
let resolve_values ?cat ?rel ?(row = 1) schema values =
  let arity = Schema.arity schema and n = List.length values in
  if n <> arity then (
    match rel with
    | Some rel ->
      reject Arity "relation %s has arity %d but row %d has %d value(s)" rel arity row n
    | None -> reject Arity "expected %d values, got %d" arity n);
  Item.make schema
    (Array.of_list
       (List.mapi (fun i v -> resolve_value ?cat (Schema.hierarchy schema i) v) values))

(* Static span names: picking the label by pattern match keeps a
   disabled [with_span] allocation-free. *)
let span_name e =
  match e.Ast.expr with
  | Ast.Rel _ -> "eval.rel"
  | Ast.Select _ -> "eval.select"
  | Ast.Project _ -> "eval.project"
  | Ast.Join _ -> "eval.join"
  | Ast.Union _ -> "eval.union"
  | Ast.Intersect _ -> "eval.intersect"
  | Ast.Except _ -> "eval.except"
  | Ast.Rename _ -> "eval.rename"
  | Ast.Consolidated _ -> "eval.consolidated"
  | Ast.Explicated _ -> "eval.explicated"

let rec eval_raw cat e =
  Hr_obs.Trace.with_span (span_name e) (fun () ->
      let result =
        match e.Ast.expr with
        | Ast.Rel name -> relation cat name
        | Ast.Select (e, attr, v) ->
          Ops.select (eval_raw cat e) ~attr ~value:(Ast.value_name v)
        | Ast.Project (e, attrs) -> Ops.project (eval_raw cat e) attrs
        | Ast.Join (a, b) -> Ops.join (eval_raw cat a) (eval_raw cat b)
        | Ast.Union (a, b) -> Ops.union (eval_raw cat a) (eval_raw cat b)
        | Ast.Intersect (a, b) -> Ops.inter (eval_raw cat a) (eval_raw cat b)
        | Ast.Except (a, b) -> Ops.diff (eval_raw cat a) (eval_raw cat b)
        | Ast.Rename (e, old_name, new_name) ->
          Ops.rename (eval_raw cat e) ~old_name ~new_name
        | Ast.Consolidated e -> Ops.consolidated (eval_raw cat e)
        | Ast.Explicated (e, over) -> Explicate.explicate ?over (eval_raw cat e)
      in
      if Hr_obs.Trace.enabled () then
        Hr_obs.Trace.note "rows" (Relation.cardinality result);
      result)

(* Statements evaluate optimized plans; the rewrites preserve the
   equivalent flat relation (see [Optimizer]). *)
let eval_expr cat expr = eval_raw cat (Optimizer.optimize expr)

(* ---- EXPLAIN ANALYZE --------------------------------------------------- *)

(* One evaluated plan node. Counter and time fields are inclusive of the
   node's subtree, like the "actual time" convention of SQL EXPLAIN
   ANALYZE: the root row shows the whole query's cost. *)
type analyzed = {
  a_label : string;
  a_rows : int;
  a_subs : int;  (* hierarchy.subsumption_checks delta *)
  a_reach : int;  (* graph.reach.queries delta *)
  a_verdicts : int;  (* core.binding.verdicts delta *)
  a_probes : int;  (* core.binding.index_probes delta *)
  a_time_ns : int;
  a_children : analyzed list;
}

let node_label e =
  match e.Ast.expr with
  | Ast.Rel name -> "scan " ^ name
  | Ast.Select (_, attr, v) -> Printf.sprintf "select[%s=%s]" attr (Ast.value_name v)
  | Ast.Project (_, attrs) -> Printf.sprintf "project[%s]" (String.concat "," attrs)
  | Ast.Join _ -> "join"
  | Ast.Union _ -> "union"
  | Ast.Intersect _ -> "intersect"
  | Ast.Except _ -> "except"
  | Ast.Rename (_, o, n) -> Printf.sprintf "rename[%s->%s]" o n
  | Ast.Consolidated _ -> "consolidated"
  | Ast.Explicated _ -> "explicated"

let rec analyze_raw cat e =
  let subs name = Hr_obs.Metrics.counter_value name in
  let t0 = Hr_obs.Metrics.now_ns () in
  let subs0 = subs "hierarchy.subsumption_checks" in
  let reach0 = subs "graph.reach.queries" in
  let verd0 = subs "core.binding.verdicts" in
  let probe0 = subs "core.binding.index_probes" in
  let rel, children =
    let one sub = let r, a = analyze_raw cat sub in (r, [ a ]) in
    let two a b op =
      let ra, aa = analyze_raw cat a in
      let rb, ab = analyze_raw cat b in
      (op ra rb, [ aa; ab ])
    in
    match e.Ast.expr with
    | Ast.Rel name -> (relation cat name, [])
    | Ast.Select (sub, attr, v) ->
      let r, kids = one sub in
      (Ops.select r ~attr ~value:(Ast.value_name v), kids)
    | Ast.Project (sub, attrs) ->
      let r, kids = one sub in
      (Ops.project r attrs, kids)
    | Ast.Join (a, b) -> two a b (fun x y -> Ops.join x y)
    | Ast.Union (a, b) -> two a b (fun x y -> Ops.union x y)
    | Ast.Intersect (a, b) -> two a b (fun x y -> Ops.inter x y)
    | Ast.Except (a, b) -> two a b (fun x y -> Ops.diff x y)
    | Ast.Rename (sub, old_name, new_name) ->
      let r, kids = one sub in
      (Ops.rename r ~old_name ~new_name, kids)
    | Ast.Consolidated sub ->
      let r, kids = one sub in
      (Ops.consolidated r, kids)
    | Ast.Explicated (sub, over) ->
      let r, kids = one sub in
      (Explicate.explicate ?over r, kids)
  in
  ( rel,
    {
      a_label = node_label e;
      a_rows = Relation.cardinality rel;
      a_subs = subs "hierarchy.subsumption_checks" - subs0;
      a_reach = subs "graph.reach.queries" - reach0;
      a_verdicts = subs "core.binding.verdicts" - verd0;
      a_probes = subs "core.binding.index_probes" - probe0;
      a_time_ns = Hr_obs.Metrics.now_ns () - t0;
      a_children = children;
    } )

let render_analyzed root =
  let buf = Buffer.create 512 in
  let rec walk depth a =
    Buffer.add_string buf
      (Printf.sprintf
         "%s%s  rows=%d subsumption=%d reach=%d verdicts=%d probes=%d time=%.3fms\n"
         (String.make (2 * depth) ' ')
         a.a_label a.a_rows a.a_subs a.a_reach a.a_verdicts a.a_probes
         (float_of_int a.a_time_ns /. 1e6));
    List.iter (walk (depth + 1)) a.a_children
  in
  walk 0 root;
  Buffer.contents buf

(* Feedback to the static estimator: measured row counts flow back into
   the catalog's observed-statistics store, keyed the way the estimator
   looks them up — the whole stored extension of a scanned relation, or
   a selection directly over one. *)
let rec record_actuals cat plan (a : analyzed) =
  (match plan.Ast.expr, a.a_children with
  | Ast.Rel name, _ -> Catalog.record_stat cat ~rel:name ~label:"*" a.a_rows
  | Ast.Select ({ Ast.expr = Ast.Rel name; _ }, attr, v), _ ->
    Catalog.record_stat cat ~rel:name
      ~label:(Printf.sprintf "%s=%s" attr (Ast.value_name v))
      a.a_rows
  | _ -> ());
  let children =
    match plan.Ast.expr with
    | Ast.Rel _ -> []
    | Ast.Select (e, _, _)
    | Ast.Project (e, _)
    | Ast.Rename (e, _, _)
    | Ast.Consolidated e
    | Ast.Explicated (e, _) ->
      [ e ]
    | Ast.Join (x, y) | Ast.Union (x, y) | Ast.Intersect (x, y) | Ast.Except (x, y)
      ->
      [ x; y ]
  in
  List.iter2 (record_actuals cat) children a.a_children

(* Counters are forced on for the duration so the per-node deltas are
   real even if the process runs with the registry disabled. *)
let explain_analyze cat expr =
  let plan = Optimizer.optimize expr in
  Hr_obs.Metrics.with_enabled true (fun () ->
      let rel, root = analyze_raw cat plan in
      record_actuals cat plan root;
      Printf.sprintf "plan: %s\n%sresult: %d tuple(s)" (Optimizer.describe plan)
        (render_analyzed root) (Relation.cardinality rel))

(* ---- EXPLAIN ESTIMATE -------------------------------------------------- *)

(* The cost estimator lives a layer up (Hr_analysis.Estimate, which also
   serves `hrdb lint`), so it registers itself here at module-init time
   rather than being called directly — the dependency points the other
   way. Executables that evaluate HRQL all link the analysis library. *)
let estimator :
    (Catalog.t -> Ast.query_expr -> (string, string) result) ref =
  ref (fun _ _ ->
      Error "EXPLAIN ESTIMATE: no estimator registered (link hr_analysis)")

let set_estimator f = estimator := f

let render_relation rel =
  buf_fmt (fun ppf ->
      Format.fprintf ppf "%s (%d tuple%s)@.%a" (Relation.name rel)
        (Relation.cardinality rel)
        (if Relation.cardinality rel = 1 then "" else "s")
        Relation.pp rel)

let render_tuples schema tuples =
  let rows =
    List.map
      (fun (t : Relation.tuple) ->
        Format.asprintf "%a" Types.pp_sign t.Relation.sign
        :: List.init (Schema.arity schema) (fun i ->
               let h = Schema.hierarchy schema i in
               let v = Item.coord t.Relation.item i in
               if Hierarchy.is_class h v then "V " ^ Hierarchy.node_label h v
               else Hierarchy.node_label h v))
      tuples
  in
  Hr_util.Texttable.render_rows ~headers:("" :: Schema.names schema) rows

let render_conflicts schema = function
  | [] -> "consistent: the ambiguity constraint holds"
  | conflicts ->
    buf_fmt (fun ppf ->
        Format.fprintf ppf "%d unresolved conflict(s):@." (List.length conflicts);
        List.iter
          (fun c -> Format.fprintf ppf "%a@." (Integrity.pp_conflict schema) c)
          conflicts)

(* A commit the ambiguity constraint refuses: the report [exec] has
   always printed, and the first conflict for the linter. *)
let commit txn =
  match Txn.commit txn with
  | Ok () -> ()
  | Error violations -> (
    let msg =
      buf_fmt (fun ppf ->
          Format.fprintf ppf "rejected: update would violate the ambiguity constraint@.";
          List.iter
            (fun (v : Txn.violation) ->
              Format.fprintf ppf "relation %s: %d conflict(s)@." v.relation_name
                (List.length v.conflicts))
            violations)
    in
    match violations with
    | { Txn.relation_name; conflicts = conflict :: _ } :: _ ->
      reject (Ambiguity { rel = Txn.current txn relation_name; conflict }) "%s" msg
    | _ -> reject Invalid "%s" msg)

(* CREATE CLASS / CREATE INSTANCE: a fresh name under parents that all
   live in one hierarchy and are classes. *)
let create_node cat ~kind ~add name parents =
  require_fresh cat name;
  let h = hierarchy_containing cat (List.hd parents) in
  List.iter
    (fun p ->
      match Hierarchy.find h p with
      | None when defining cat p = [] ->
        reject Unknown_name "unknown parent %S for %s %s" p kind name
      | None ->
        reject Foreign_value "parent %S of %s %s is not in domain %s" p kind name
          (domain_name h)
      | Some node when Hierarchy.is_instance h node ->
        reject Invalid "%S is an instance and cannot have children" p
      | Some _ -> ())
    parents;
  (* Hierarchy DDL goes through the catalog's copy-on-write path:
     in-place when the hierarchy is unfrozen (REPL, replay, tests),
     copy-swap-rebind when a published snapshot or a fork's parent
     shares it. *)
  Catalog.update_hierarchy cat h (fun h -> ignore (add h ?parents:(Some parents) name));
  Printf.sprintf "%s %s created" kind name

(* The second name of an ISA or PREFERENCE edge, in [h]. *)
let edge_end cat h ~edge name =
  match Hierarchy.find h name with
  | Some node -> node
  | None when defining cat name = [] -> reject Unknown_name "unknown class or instance %S" name
  | None ->
    reject Foreign_value "%S is not in domain %s; %s edges cannot cross domains" name
      (domain_name h) edge

(* [on_held], when given, is called with the number (from 1) of each
   INSERT row whose signed item the relation stored before the
   statement: adding it again changes nothing. [on_refused] is called
   with the number of the INSERT row refused as a direct contradiction. *)
let exec_statement ?on_held ?on_refused cat stmt =
  match stmt with
  | Ast.Create_domain name ->
    if Option.is_some (Catalog.find_hierarchy cat name) then
      reject Duplicate "domain %S already exists" name;
    if defining cat name <> [] then
      reject Duplicate "%S is already defined as a class or instance" name;
    Catalog.define_hierarchy cat (Hierarchy.create name);
    Printf.sprintf "domain %s created" name
  | Ast.Create_class { name; parents } ->
    create_node cat ~kind:"class" ~add:Hierarchy.add_class name parents
  | Ast.Create_instance { name; parents } ->
    create_node cat ~kind:"instance" ~add:Hierarchy.add_instance name parents
  | Ast.Create_isa { sub; super } ->
    let h = hierarchy_containing cat super in
    let sub_node = edge_end cat h ~edge:"isa" sub in
    if Hierarchy.subsumes h sub_node (Hierarchy.find_exn h super) then
      reject Cycle "isa edge %s -> %s would create a cycle: %s already subsumes %s"
        super sub sub super;
    Catalog.update_hierarchy cat h (fun h -> Hierarchy.add_isa h ~sub ~super);
    Printf.sprintf "isa edge %s -> %s created" super sub
  | Ast.Create_preference { weaker; stronger } ->
    let h = hierarchy_containing cat weaker in
    ignore (edge_end cat h ~edge:"preference" stronger);
    Catalog.update_hierarchy cat h (fun h -> Hierarchy.add_preference h ~weaker ~stronger);
    Printf.sprintf "preference %s over %s created" stronger weaker
  | Ast.Create_relation { name; attrs } ->
    if Option.is_some (Catalog.find_relation cat name) then
      reject Duplicate "relation %S already exists" name;
    let names = List.map fst attrs in
    if List.length (List.sort_uniq String.compare names) <> List.length names then
      reject Duplicate "relation %S declares a duplicate attribute name" name;
    let domain_of (a, d) =
      match Catalog.find_hierarchy cat d with
      | Some h -> (a, h)
      | None -> reject Unknown_name "unknown domain %S for attribute %S" d a
    in
    let schema = Schema.make (List.map domain_of attrs) in
    Catalog.define_relation cat (Relation.empty ~name schema);
    Printf.sprintf "relation %s created" name
  | Ast.Drop_relation name ->
    ignore (relation cat name);
    Catalog.drop_relation cat name;
    Printf.sprintf "relation %s dropped" name
  | Ast.Insert { rel; rows } ->
    let base = relation cat rel in
    let schema = Relation.schema base in
    let txn = Txn.begin_ cat in
    List.iteri
      (fun i { Ast.sign; values } ->
        let row = i + 1 in
        let item = resolve_values ~cat ~rel ~row schema values in
        (match on_held with
        | Some f when Relation.find base item = Some sign -> f row
        | _ -> ());
        (* the item has the relation's schema, so [Relation.add] can only
           refuse it as a direct contradiction *)
        try Txn.insert_item txn ~rel sign item
        with Types.Model_error msg ->
          Option.iter (fun f -> f row) on_refused;
          reject (Contradiction { rel = Txn.current txn rel; row; item; sign }) "%s" msg)
      rows;
    commit txn;
    Printf.sprintf "%d tuple(s) inserted into %s" (List.length rows) rel
  | Ast.Delete { rel; rows } ->
    let schema = Relation.schema (relation cat rel) in
    let txn = Txn.begin_ cat in
    List.iteri
      (fun i values ->
        Txn.delete_item txn ~rel (resolve_values ~cat ~rel ~row:(i + 1) schema values))
      rows;
    commit txn;
    Printf.sprintf "%d tuple(s) deleted from %s" (List.length rows) rel
  | Ast.Select_query { expr; justified } -> (
    match expr.Ast.expr, justified with
    | Ast.Select ({ Ast.expr = Ast.Rel name; _ }, attr, v), true ->
      let rel = relation cat name in
      let result, applicable =
        Ops.select_justified rel ~attr ~value:(Ast.value_name v)
      in
      render_relation result ^ "justification (applicable tuples):\n"
      ^ render_tuples (Relation.schema rel) applicable
    | _, true ->
      render_relation (eval_expr cat expr)
      ^ "note: WITH JUSTIFICATION applies to a simple SELECT on a stored relation\n"
    | _, false -> render_relation (eval_expr cat expr))
  | Ast.Let_binding { name; expr } ->
    let rel = Relation.with_name (eval_expr cat expr) name in
    (match Catalog.find_relation cat name with
    | Some _ -> Catalog.replace_relation cat rel
    | None -> Catalog.define_relation cat rel);
    Printf.sprintf "%s defined (%d tuples)" name (Relation.cardinality rel)
  | Ast.Ask { rel = name; values; semantics } ->
    let r = relation cat name in
    let schema = Relation.schema r in
    let item = resolve_values ~cat ~rel:name schema values in
    buf_fmt (fun ppf ->
        Binding.pp_verdict schema ppf (Binding.verdict ?semantics r item))
  | Ast.Consolidate name ->
    let rel = relation cat name in
    let consolidated = Ops.consolidated rel in
    Catalog.replace_relation cat consolidated;
    (* removed: the stored tuples the result no longer holds *)
    let removed =
      Relation.fold
        (fun (t : Relation.tuple) n ->
          if Relation.mem consolidated t.Relation.item then n else n + 1)
        rel 0
    in
    Printf.sprintf "%s consolidated: %d redundant tuple(s) removed, %d remain" name removed
      (Relation.cardinality consolidated)
  | Ast.Explicate { rel; over } ->
    let r = relation cat rel in
    List.iter
      (fun n ->
        if Option.is_none (Schema.find_index (Relation.schema r) n) then
          reject Unknown_name "explication over unknown attribute %S of %s" n rel)
      (Option.value ~default:[] over);
    let explicated = Explicate.explicate ?over r in
    Catalog.replace_relation cat explicated;
    Printf.sprintf "%s explicated: %d tuple(s)" rel (Relation.cardinality explicated)
  | Ast.Check name ->
    let rel = relation cat name in
    render_conflicts (Relation.schema rel) (Integrity.check rel)
  | Ast.Show_hierarchy name ->
    let h = domain cat name in
    buf_fmt (fun ppf -> Hierarchy.pp ppf h)
  | Ast.Show_relations ->
    buf_fmt (fun ppf ->
        List.iter
          (fun r ->
            Format.fprintf ppf "%s %a (%d tuples)@." (Relation.name r) Schema.pp
              (Relation.schema r) (Relation.cardinality r))
          (List.sort
             (fun a b -> String.compare (Relation.name a) (Relation.name b))
             (Catalog.relations cat)))
  | Ast.Show_hierarchies ->
    buf_fmt (fun ppf ->
        List.iter
          (fun h ->
            Format.fprintf ppf "%a (%d nodes)@." Hr_util.Symbol.pp
              (Hierarchy.domain h) (Hierarchy.node_count h))
          (List.sort
             (fun a b ->
               Hr_util.Symbol.compare (Hierarchy.domain a) (Hierarchy.domain b))
             (Catalog.hierarchies cat)))
  | Ast.Explain_plan expr ->
    Printf.sprintf "naive:     %s\noptimized: %s"
      (Optimizer.describe expr)
      (Optimizer.describe (Optimizer.optimize expr))
  | Ast.Explain_analyze expr -> explain_analyze cat expr
  | Ast.Explain_estimate expr -> (
    match !estimator cat expr with Ok out -> out | Error msg -> failwith msg)
  | Ast.Stats { json } ->
    let snap = Hr_obs.Metrics.snapshot () in
    if json then Hr_obs.Metrics.render_json snap
    else Hr_obs.Metrics.render_text snap
  | Ast.Stats_reset ->
    Hr_obs.Metrics.reset ();
    "metrics registry reset"
  | Ast.Count { expr; by } -> (
    let rel = eval_expr cat expr in
    match by with
    | None -> Printf.sprintf "count: %d" (Aggregate.count rel)
    | Some attr ->
      let rows =
        List.map (fun (label, n) -> [ label; string_of_int n ])
          (Aggregate.histogram rel ~attr)
      in
      Hr_util.Texttable.render_rows ~headers:[ attr; "count" ] rows)
  | Ast.Diff { prev; next } ->
    let prev = eval_expr cat prev and next = eval_expr cat next in
    let d = Rel_diff.diff ~prev ~next in
    buf_fmt (fun ppf -> Rel_diff.pp (Relation.schema prev) ppf d)
  | Ast.Explain { rel = name; values } ->
    let r = relation cat name in
    let schema = Relation.schema r in
    let item = resolve_values ~cat ~rel:name schema values in
    let verdict = Binding.verdict r item in
    let applicable = Binding.justification r item in
    buf_fmt (fun ppf ->
        Format.fprintf ppf "verdict: %a@.applicable tuples:@.%s"
          (Binding.pp_verdict schema) verdict
          (render_tuples schema applicable))

(* Run one statement, or say why the engine refuses it. A refused
   statement leaves the catalog as it was. *)
let attempt ?on_held ?on_refused cat stmt =
  try Ok (exec_statement ?on_held ?on_refused cat stmt) with
  | Rejected rejection -> Error rejection
  | Types.Model_error msg | Hierarchy.Error msg | Failure msg -> Error (Invalid, msg)

let exec ?on_held ?on_refused cat stmt =
  Result.map_error snd (attempt ?on_held ?on_refused cat stmt)

(* The prefix a failing statement's message gets: its line and column
   in the script. *)
let located sloc msg = Format.asprintf "at %a: %s" Loc.pp_prose sloc msg

(* A whole script is parsed before any of it runs: a script that does
   not parse runs nothing. *)
let parse_script input =
  match Parser.parse_pieces input with
  | exception Parser.Parse_error { msg; _ } -> Error ("parse error: " ^ msg)
  | exception Lexer.Lex_error { msg; _ } -> Error ("lex error: " ^ msg)
  | pieces -> Ok pieces

let run_pieces ?on_held ?on_refused cat pieces =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | { Parser.stmt = { Ast.stmt; sloc }; _ } :: rest -> (
      match exec ?on_held ?on_refused cat stmt with
      | Ok out -> loop (out :: acc) rest
      | Error msg -> Error (located sloc msg))
  in
  loop [] pieces

let run_script ?on_held ?on_refused cat input =
  Result.bind (parse_script input) (run_pieces ?on_held ?on_refused cat)
