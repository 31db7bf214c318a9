(** Hierarchy-aware cardinality and cost model.

    Walks an optimized plan bottom-up and annotates every node with
    estimated output rows and cumulative cost, without evaluating
    anything. Cardinalities come from a catalog — the live one for
    `EXPLAIN ESTIMATE`, the lint's fork for `hrdb lint` — so both price
    plans the same way.

    The model quantifies the paper's central claim: hierarchy keeps
    queries cheap until something flattens them. A stored tuple costs
    one probe to scan; a selection costs one closure-index probe per
    input tuple; a join costs one subsumption test per operand pair; an
    EXPLICATE costs the size of the item cones it expands (the product
    of per-coordinate atomic extensions). Costs are abstract {e work
    units} — 1 unit ≈ one tuple visit or one closure-index probe — and
    are cumulative, inclusive of the subtree, like the time column of
    SQL EXPLAIN ANALYZE. *)

module Hierarchy = Hr_hierarchy.Hierarchy
module Ast = Hr_query.Ast
open Hierel

(* ---- hierarchy statistics --------------------------------------------- *)

let extension_count = Hierarchy.instance_count

let cone_size h v = List.length (Hierarchy.descendants h v)

let domain_width h = max 1 (List.length (Hierarchy.instances h))

(* Mean atomic extension of one stored value drawn from [h]: the expansion
   a flattening applies per attribute when the actual coordinates are not
   statically known. *)
let avg_extension h =
  let nodes = Hierarchy.nodes h in
  let total = List.fold_left (fun acc v -> acc + extension_count h v) 0 nodes in
  float_of_int total /. float_of_int (max 1 (List.length nodes))

(* ---- relation statistics ---------------------------------------------- *)

let exception_count rel =
  List.fold_left
    (fun acc (t : Relation.tuple) ->
      match t.Relation.sign with Types.Neg -> acc + 1 | Types.Pos -> acc)
    0 (Relation.tuples rel)

let is_flat rel =
  let schema = Relation.schema rel in
  List.for_all
    (fun (t : Relation.tuple) ->
      List.for_all
        (fun i ->
          Hierarchy.is_instance (Schema.hierarchy schema i) (Item.coord t.Relation.item i))
        (List.init (Schema.arity schema) Fun.id))
    (Relation.tuples rel)

(* Estimated flat cardinality of [EXPLICATE rel (over)]: per tuple, the
   product of the flattened coordinates' atomic extensions; negated
   tuples punch holes, so they subtract. Overlapping cones make this an
   upper bound — exact only when the relation is already flat. *)
let extension_rows ?over rel =
  let schema = Relation.schema rel in
  let indices =
    let all = List.init (Schema.arity schema) Fun.id in
    match over with
    | None -> all
    | Some attrs ->
      let names = Schema.names schema in
      List.filter (fun i -> List.mem (List.nth names i) attrs) all
  in
  let cone (t : Relation.tuple) =
    List.fold_left
      (fun acc i ->
        acc * extension_count (Schema.hierarchy schema i) (Item.coord t.Relation.item i))
      1 indices
  in
  let pos, neg =
    List.fold_left
      (fun (p, n) (t : Relation.tuple) ->
        match t.Relation.sign with
        | Types.Pos -> (p + cone t, n)
        | Types.Neg -> (p, n + cone t))
      (0, 0) (Relation.tuples rel)
  in
  max 0 (pos - neg)

(* ---- schema inference over plans -------------------------------------- *)

let rec schema_of cat e =
  match e.Ast.expr with
  | Ast.Rel name ->
    Option.map
      (fun rel ->
        let s = Relation.schema rel in
        List.mapi (fun i n -> (n, Schema.hierarchy s i)) (Schema.names s))
      (Catalog.find_relation cat name)
  | Ast.Select (e, _, _) | Ast.Consolidated e | Ast.Explicated (e, _) ->
    schema_of cat e
  | Ast.Project (e, attrs) ->
    Option.map (List.filter (fun (n, _) -> List.mem n attrs)) (schema_of cat e)
  | Ast.Rename (e, o, n) ->
    Option.map (List.map (fun (a, h) -> if a = o then (n, h) else (a, h)))
      (schema_of cat e)
  | Ast.Join (a, b) -> (
    match schema_of cat a, schema_of cat b with
    | Some sa, Some sb ->
      Some (sa @ List.filter (fun (n, _) -> not (List.mem_assoc n sa)) sb)
    | _ -> None)
  | Ast.Union (a, _) | Ast.Intersect (a, _) | Ast.Except (a, _) -> schema_of cat a

(* ---- the annotated plan ------------------------------------------------ *)

type node = {
  n_label : string;  (* same vocabulary as EXPLAIN ANALYZE *)
  n_loc : Hr_query.Loc.t;
  n_rows : float;  (* estimated output rows *)
  n_cost : float;  (* cumulative work units, inclusive of children *)
  n_exact : bool;  (* the row estimate is provably exact *)
  n_kind : kind;
  n_children : node list;
}

and kind =
  | Scan of string
  | Selection of { selectivity : float }
  | Joining of { cartesian : bool }
  | Flatten of { expansion : float }
  | Opaque

exception Unknown_relation of string

let default_selectivity = 1.0 /. 3.0

(* Selectivity of [attr = v] when all we have is the value name: the
   share of the domain's atomic extension that [v]'s cone covers. *)
let name_selectivity cat vname =
  match
    List.filter (fun h -> Hierarchy.mem h vname) (Catalog.hierarchies cat)
  with
  | [ h ] ->
    let v = Hierarchy.find_exn h vname in
    let sel = float_of_int (extension_count h v) /. float_of_int (domain_width h) in
    Float.min 1.0 (Float.max sel (1.0 /. float_of_int (domain_width h)))
  | _ -> default_selectivity

let attr_index schema attr =
  let rec go i = function
    | [] -> None
    | n :: _ when n = attr -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 (Schema.names schema)

let rec walk cat e =
  let mk ?(exact = false) ~kind ~rows ~cost children =
    {
      n_label = Hr_query.Eval.node_label e;
      n_loc = e.Ast.eloc;
      n_rows = rows;
      n_cost = cost;
      n_exact = exact;
      n_kind = kind;
      n_children = children;
    }
  in
  match e.Ast.expr with
  | Ast.Rel name -> (
    match Catalog.find_relation cat name with
    | None -> raise (Unknown_relation name)
    | Some rel ->
      let rows = float_of_int (Relation.cardinality rel) in
      (mk ~exact:true ~kind:(Scan name) ~rows ~cost:rows [], Some rel))
  | Ast.Select (sub, attr, v) ->
    let child, carried = walk cat sub in
    let in_rows = child.n_rows in
    let vname = Ast.value_name v in
    let rows, exact =
      match carried with
      | Some rel -> (
        (* the stored relation is right beneath: count matching tuples
           statically, preferring a count EXPLAIN ANALYZE observed *)
        match
          Catalog.observed_stat cat ~rel:(Relation.name rel)
            ~label:(Printf.sprintf "%s=%s" attr vname)
        with
        | Some n -> (float_of_int n, false)
        | None -> (
          let schema = Relation.schema rel in
          match attr_index schema attr with
          | Some i when Hierarchy.mem (Schema.hierarchy schema i) vname ->
            let h = Schema.hierarchy schema i in
            let vnode = Hierarchy.find_exn h vname in
            let matches = List.length (Relation.meeting rel i vnode) in
            (* intersection is equality on instances, so the count is
               exact when neither side has a cone to expand *)
            let flat =
              Hierarchy.is_instance h vnode
              && List.for_all
                   (fun (t : Relation.tuple) ->
                     Hierarchy.is_instance h (Item.coord t.Relation.item i))
                   (Relation.tuples rel)
            in
            (float_of_int matches, flat)
          | _ -> (in_rows *. name_selectivity cat vname, false)))
      | None -> (in_rows *. name_selectivity cat vname, false)
    in
    let selectivity = if in_rows > 0.0 then rows /. in_rows else 1.0 in
    ( mk ~exact
        ~kind:(Selection { selectivity })
        ~rows
        ~cost:(child.n_cost +. in_rows)
        [ child ],
      None )
  | Ast.Project (sub, _) ->
    let child, _ = walk cat sub in
    ( mk ~kind:Opaque ~rows:child.n_rows ~cost:(child.n_cost +. child.n_rows)
        [ child ],
      None )
  | Ast.Rename (sub, _, _) ->
    let child, carried = walk cat sub in
    (mk ~exact:child.n_exact ~kind:Opaque ~rows:child.n_rows ~cost:child.n_cost [ child ], carried)
  | Ast.Join (a, b) ->
    let na, _ = walk cat a in
    let nb, _ = walk cat b in
    let shared =
      match schema_of cat a, schema_of cat b with
      | Some sa, Some sb -> List.filter (fun (n, _) -> List.mem_assoc n sb) sa
      | _ -> []
    in
    let pairs = na.n_rows *. nb.n_rows in
    let rows =
      match shared with
      | [] -> pairs (* cartesian product *)
      | _ :: _ ->
        let width =
          List.fold_left (fun acc (_, h) -> max acc (domain_width h)) 1 shared
        in
        pairs /. float_of_int width
    in
    ( mk
        ~kind:(Joining { cartesian = shared = [] })
        ~rows
        ~cost:(na.n_cost +. nb.n_cost +. pairs)
        [ na; nb ],
      None )
  | Ast.Union (a, b) ->
    let na, _ = walk cat a in
    let nb, _ = walk cat b in
    let rows = na.n_rows +. nb.n_rows in
    (mk ~kind:Opaque ~rows ~cost:(na.n_cost +. nb.n_cost +. rows) [ na; nb ], None)
  | Ast.Intersect (a, b) ->
    let na, _ = walk cat a in
    let nb, _ = walk cat b in
    ( mk ~kind:Opaque
        ~rows:(Float.min na.n_rows nb.n_rows)
        ~cost:(na.n_cost +. nb.n_cost +. (na.n_rows *. nb.n_rows))
        [ na; nb ],
      None )
  | Ast.Except (a, b) ->
    let na, _ = walk cat a in
    let nb, _ = walk cat b in
    ( mk ~kind:Opaque ~rows:na.n_rows
        ~cost:(na.n_cost +. nb.n_cost +. (na.n_rows *. nb.n_rows))
        [ na; nb ],
      None )
  | Ast.Consolidated sub ->
    let child, _ = walk cat sub in
    (* pairwise redundancy sweep; consolidation only removes rows, so the
       input cardinality is a safe upper bound *)
    ( mk ~kind:Opaque ~rows:child.n_rows
        ~cost:(child.n_cost +. (child.n_rows *. child.n_rows))
        [ child ],
      None )
  | Ast.Explicated (sub, over) ->
    let child, carried = walk cat sub in
    let rows, exact =
      match carried with
      | Some rel ->
        let rows = float_of_int (extension_rows ?over rel) in
        (rows, is_flat rel && exception_count rel = 0)
      | None ->
        let expansion =
          match schema_of cat sub with
          | Some schema ->
            List.fold_left (fun acc (_, h) -> acc *. avg_extension h) 1.0 schema
          | None -> 1.0
        in
        (child.n_rows *. expansion, false)
    in
    let expansion = if child.n_rows > 0.0 then rows /. child.n_rows else 1.0 in
    ( mk ~exact
        ~kind:(Flatten { expansion })
        ~rows
        ~cost:(child.n_cost +. rows)
        [ child ],
      None )

let plan cat expr =
  let optimized = Hr_query.Optimizer.optimize expr in
  match walk cat optimized with
  | root, _ -> Ok (optimized, root)
  | exception Unknown_relation name ->
    Error (Printf.sprintf "unknown relation %S" name)

(* ---- lint thresholds (documented in docs/COST.md) ---------------------- *)

let cartesian_rows_threshold = 16.0
(** P300: a cartesian join is only worth flagging once its estimated
    output would exceed this many rows. *)

let explicate_cone_threshold = 64.0
(** P301: an unrestricted EXPLICATE whose estimated extension exceeds
    this many rows. *)

let rederive_cost_threshold = 8.0
(** P303: a subplan repeated verbatim is only flagged when one
    derivation of it costs at least this many work units. *)
