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
  let g = Subsumption.build rel in
  let order =
    List.filter (fun v -> v <> Subsumption.root g) (List.rev (Subsumption.topological g))
  in
  (* First insertion wins: [update] leaves a bound item alone. The body
     is one map, turned into a relation once. *)
  let first sign = function None -> Some sign | kept -> kept in
  let body =
    List.fold_left
      (fun body v ->
        let t = Subsumption.tuple g v in
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
