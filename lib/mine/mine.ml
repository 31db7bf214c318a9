module Hierarchy = Hr_hierarchy.Hierarchy
open Hierel

let is_tree h =
  List.for_all
    (fun v -> List.length (Hierarchy.parents h v) <= 1)
    (List.filter (fun v -> v <> Hierarchy.root h) (Hierarchy.nodes h))

(* Children in the first-parent spanning tree: node [c] belongs to the
   child list of the first element of its parent list. On a tree this is
   just [children]. *)
let spanning_children h =
  let table = Hashtbl.create 64 in
  List.iter
    (fun v ->
      match Hierarchy.parents h v with
      | [] -> ()
      | first :: _ ->
        Hashtbl.replace table first (v :: (Option.value ~default:[] (Hashtbl.find_opt table first))))
    (Hierarchy.nodes h);
  fun v -> Option.value ~default:[] (Hashtbl.find_opt table v)

let infinity_cost = max_int / 4

(* DP over (node, inherited sign): minimal number of asserted tuples in
   the subtree, and the action at this node realizing it. *)
type action = Inherit | Assert of Types.sign

let organize ?(name = "organized") h ~members =
  let target = Hashtbl.create 64 in
  List.iter
    (fun m ->
      let v = Hierarchy.find_exn h m in
      if not (Hierarchy.is_instance h v) then
        Types.model_error "%S is a class; members must be instances" m;
      Hashtbl.replace target v ())
    members;
  let children = spanning_children h in
  let memo = Hashtbl.create 256 in
  let rec cost v inh =
    match Hashtbl.find_opt memo (v, inh) with
    | Some r -> r
    | None ->
      let result =
        if Hierarchy.is_instance h v then begin
          let required = if Hashtbl.mem target v then Types.Pos else Types.Neg in
          if Types.sign_equal inh required then (0, Inherit) else (1, Assert required)
        end
        else
          let sum s = List.fold_left (fun acc c -> acc + fst (cost c s)) 0 (children v) in
          let keep = sum inh in
          let flip = 1 + sum (Types.negate inh) in
          if keep <= flip then (min keep infinity_cost, Inherit)
          else (min flip infinity_cost, Assert (Types.negate inh))
      in
      Hashtbl.add memo (v, inh) result;
      result
  in
  let schema = Schema.make [ ("v", h) ] in
  let rel = ref (Relation.empty ~name schema) in
  let rec emit v inh =
    let _, action = cost v inh in
    let inh' =
      match action with
      | Inherit -> inh
      | Assert s ->
        rel := Relation.set !rel (Item.make schema [| v |]) s;
        s
    in
    if not (Hierarchy.is_instance h v) then List.iter (fun c -> emit c inh') (children v)
  in
  emit (Hierarchy.root h) Types.Neg;
  (* On a DAG the spanning-tree DP can disagree with full binding
     semantics; patch divergent instances with exact tuples. *)
  let patched = ref !rel in
  List.iter
    (fun inst ->
      let item = Item.make schema [| inst |] in
      let want = Hashtbl.mem target inst in
      let got =
        match Binding.verdict !rel item with
        | Binding.Asserted (s, _) -> Types.bool_of_sign s
        | Binding.Unasserted -> false
        | Binding.Conflict _ -> not want (* force a patch *)
      in
      if got <> want then patched := Relation.set !patched item (Types.sign_of_bool want))
    (Hierarchy.instances h);
  (* Consolidation is only extension-safe on consistent relations; on a
     DAG the class tuples may still conflict at instance-free items, in
     which case the patched relation is returned as is. *)
  let result =
    if Integrity.is_consistent !patched then Consolidate.consolidate !patched
    else !patched
  in
  Relation.with_name result name

let compression_ratio rel =
  let stored = Relation.cardinality rel in
  if stored = 0 then 1.0
  else float_of_int (Aggregate.count rel) /. float_of_int stored
