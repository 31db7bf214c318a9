(** Performance lints P300–P305.

    Each check prices the statement's (optimized) query plans with
    {!Cost_model} over the lint's fork of the catalog and flags shapes
    the cost model predicts to be needlessly expensive. Every diagnostic carries
    {!Diagnostic.Perf} severity — always advisory, never affecting exit
    codes — and quotes the estimate that triggered it, so the number a
    reader sees is the number the model computed. Thresholds live in
    {!Cost_model} and are documented in [docs/COST.md]. *)

module Ast = Hr_query.Ast

(* Structural key of an estimated subtree — repeated derivations have
   equal keys (the label vocabulary includes operands, e.g.
   [select[a=v]]). *)
let rec key (n : Cost_model.node) =
  n.Cost_model.n_label
  ^ "(" ^ String.concat "," (List.map key n.Cost_model.n_children) ^ ")"

let rec base_rels acc (n : Cost_model.node) =
  let acc =
    match n.Cost_model.n_kind with
    | Cost_model.Scan name -> if List.mem name acc then acc else name :: acc
    | _ -> acc
  in
  List.fold_left base_rels acc n.Cost_model.n_children

let rec has_selection (n : Cost_model.node) =
  (match n.Cost_model.n_kind with Cost_model.Selection _ -> true | _ -> false)
  || List.exists has_selection n.Cost_model.n_children

(* P302 only fires on intermediates big enough to matter. *)
let reorder_min_rows = 4.0

(* P305: a sharded router restricts a query's scatter to the cover of
   the selected subtree only when the plan selects a relation on its
   {e first} attribute — the sharding key (docs/SHARDING.md). A query
   that selects the relation on other attributes alone still fans out
   to every shard, which usually surprises: the user restricted the
   query, just not on the routable coordinate. Bare unselected scans
   are not flagged (nothing suggests a restriction was intended). *)
let check_routing ~emit cat expr =
  let first_attr name =
    match Hierel.Catalog.find_relation cat name with
    | None -> None
    | Some rel ->
      let schema = Hierel.Relation.schema rel in
      if Hierel.Schema.arity schema = 0 then None
      else
        Some
          (Hr_util.Symbol.name
             (Hierel.Schema.attrs schema).(0).Hierel.Schema.name)
  in
  let rec walk sels (e : Ast.query_expr) =
    match e.Ast.expr with
    | Ast.Rel name -> (
      match first_attr name with
      | Some first when sels <> [] && not (List.mem first sels) ->
        emit
          (Diagnostic.perff ~code:"P305" e.Ast.eloc
             ~related:
               [
                 Printf.sprintf
                   "%s is routed by its first attribute %s; selections on [%s] \
                    cannot restrict the scatter"
                   name first
                   (String.concat ", " (List.rev sels));
               ]
             "unrouted scan: under a sharded deployment this query fans out \
              to every shard because nothing selects %S on its sharding key"
             name)
      | _ -> ())
    | Ast.Select (inner, attr, _) -> walk (attr :: sels) inner
    | Ast.Project (inner, _)
    | Ast.Rename (inner, _, _)
    | Ast.Consolidated inner
    | Ast.Explicated (inner, _) ->
      walk sels inner
    | Ast.Join (a, b)
    | Ast.Union (a, b)
    | Ast.Intersect (a, b)
    | Ast.Except (a, b) ->
      walk sels a;
      walk sels b
  in
  walk [] expr

let check_expr ~emit cat expr =
  match Cost_model.plan cat expr with
  | Error _ -> () (* unknown relation: E001 already reported *)
  | Ok (opt, root) ->
    check_routing ~emit cat opt;
    let open Cost_model in
    let seen_rederive = Hashtbl.create 8 in
    let counts = Hashtbl.create 8 in
    let rec count n =
      let k = key n in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k));
      List.iter count n.n_children
    in
    count root;
    let rec walk n =
      (match n.n_kind, n.n_children with
      | Joining { cartesian = true }, [ a; b ]
        when n.n_rows >= cartesian_rows_threshold ->
        emit
          (Diagnostic.perff ~code:"P300" n.n_loc
             ~related:
               [
                 Printf.sprintf
                   "estimated %.0f x %.0f = %.0f rows and %.1f work units"
                   a.n_rows b.n_rows n.n_rows n.n_cost;
               ]
             "cartesian join: the operands share no attribute, so every pair \
              of tuples combines")
      | Joining _, [ a; b ] ->
        let shared_base =
          List.filter (fun r -> List.mem r (base_rels [] b)) (base_rels [] a)
        in
        (match shared_base with
        | rel :: _ ->
          emit
            (Diagnostic.perff ~code:"P304" n.n_loc
               ~related:
                 [
                   Printf.sprintf
                     "estimated %.0f x %.0f pairs = %.1f work units"
                     a.n_rows b.n_rows n.n_cost;
                 ]
               "self-join: %S appears on both sides, a recursive pattern the \
                optimizer cannot reorder or push selections through" rel)
        | [] -> ())
      | Flatten _, _
        when n.n_rows > explicate_cone_threshold && not (has_selection n) ->
        emit
          (Diagnostic.perff ~code:"P301" n.n_loc
             ~related:
               [
                 Printf.sprintf
                   "estimated extension: %.0f rows (threshold %.0f)" n.n_rows
                   explicate_cone_threshold;
               ]
             "EXPLICATE over a large cone with no restricting predicate: the \
              whole atomic extension materializes")
      | Selection { selectivity = outer_sel }, [ inner ] -> (
        match inner.n_kind with
        | Selection { selectivity = inner_sel }
          when inner_sel > outer_sel +. 0.25 && inner.n_rows >= reorder_min_rows
          ->
          emit
            (Diagnostic.perff ~code:"P302" n.n_loc
               ~related:
                 [
                   Printf.sprintf
                     "estimated selectivity %.2f before %.2f; the intermediate \
                      holds %.0f rows"
                     inner_sel outer_sel inner.n_rows;
                 ]
               "predicate ordering: the unselective conjunct %s is evaluated \
                before the more selective %s" inner.n_label n.n_label)
        | _ -> ())
      | _ -> ());
      (match n.n_kind with
      | Scan _ -> ()
      | _ ->
        let k = key n in
        if
          Option.value ~default:0 (Hashtbl.find_opt counts k) >= 2
          && n.n_cost >= rederive_cost_threshold
          && not (Hashtbl.mem seen_rederive k)
        then begin
          Hashtbl.add seen_rederive k ();
          emit
            (Diagnostic.perff ~code:"P303" n.n_loc
               ~related:
                 [
                   Printf.sprintf
                     "subplan %s: estimated %.1f work units per derivation, \
                      derived %d times"
                     n.n_label n.n_cost
                     (Option.value ~default:0 (Hashtbl.find_opt counts k));
                 ]
               "repeated re-derivation: an identical subplan is computed more \
                than once; LET (or CONSOLIDATE on the stored relation) would \
                cache it")
        end);
      List.iter walk n.n_children
    in
    walk root

(* Query expressions worth pricing. EXPLAIN statements are exempt: the
   user is already inspecting the plan. *)
let exprs_of = function
  | Ast.Select_query { expr; _ } | Ast.Let_binding { expr; _ }
  | Ast.Count { expr; _ } ->
    [ expr ]
  | Ast.Diff { prev; next } -> [ prev; next ]
  | _ -> []

let check cat ~emit { Ast.stmt; sloc } =
  List.iter (check_expr ~emit cat) (exprs_of stmt);
  (* the statement form of EXPLICATE can carry no restricting predicate
     at all, so only the cone size matters *)
  match stmt with
  | Ast.Explicate { rel; over } -> (
    match Hierel.Catalog.find_relation cat rel with
    | Some r ->
      let rows = Cost_model.extension_rows ?over r in
      if float_of_int rows > Cost_model.explicate_cone_threshold then
        emit
          (Diagnostic.perff ~code:"P301" sloc
             ~related:
               [
                 Printf.sprintf "estimated extension: %d rows (threshold %.0f)"
                   rows Cost_model.explicate_cone_threshold;
               ]
             "EXPLICATE over a large cone with no restricting predicate: the \
              whole atomic extension materializes")
    | None -> ())
  | _ -> ()
