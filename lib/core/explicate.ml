module Hierarchy = Hr_hierarchy.Hierarchy

(* The ancestors of an item's coordinates, counted: strict subsumption
   shrinks some coordinate's ancestor set and grows none, so a strict
   subsumer always counts fewer. *)
let specificity schema item =
  let n = ref 0 in
  for i = 0 to Schema.arity schema - 1 do
    n :=
      Hierarchy.fold_ancestors (Schema.hierarchy schema i) (Item.coord item i)
        (fun _ k -> k + 1) !n
  done;
  !n

let explicate ?over ?keep_negated rel =
  let schema = Relation.schema rel in
  let positions =
    match over with
    | None -> List.init (Schema.arity schema) Fun.id
    | Some names -> List.map (Schema.index_of schema) names
  in
  let full = List.length positions = Schema.arity schema in
  let keep_negated =
    match keep_negated with
    | Some k -> k || not full
    | None -> not full
  in
  (* The closure under maximal common descendants, each item carrying
     its verdict, most specific first. Over any atom the closure items
     have a least element, which carries the atom's verdict
     (docs/SEMANTICS.md §4), and it comes first. *)
  let closed = Ops.refine ~consolidate:false schema (Binding.truth rel) (Relation.items rel) in
  let order =
    Relation.tuples closed
    |> List.map (fun (t : Relation.tuple) -> (specificity schema t.Relation.item, t))
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare b a)
  in
  (* First insertion wins: [update] leaves a bound item alone. The body
     is one map, turned into a relation once. *)
  let first sign = function None -> Some sign | kept -> kept in
  let body =
    List.fold_left
      (fun body (_, (t : Relation.tuple)) ->
        List.fold_left
          (fun body item -> Relation.Item_map.update item (first t.Relation.sign) body)
          body
          (Item.atomic_extension schema ~over:positions t.Relation.item))
      Relation.Item_map.empty order
  in
  let body =
    if keep_negated then body
    else Relation.Item_map.filter (fun _ sign -> Types.bool_of_sign sign) body
  in
  Relation.of_map ~name:(Relation.name rel) schema body
