(* Immediate predecessors: the subsumers with no other subsumer strictly
   below them. *)
let minimal schema item above =
  List.filter
    (fun u -> not (List.exists (fun w -> Item.strictly_subsumes schema (item u) (item w)) above))
    above

let pp ppf rel =
  let schema = Relation.schema rel in
  let item (t : Relation.tuple) = t.Relation.item in
  let label = function
    | None -> "UNIVERSAL-"
    | Some (t : Relation.tuple) ->
      Format.asprintf "%a%a" Types.pp_sign t.Relation.sign (Item.pp schema) t.Relation.item
  in
  let preds v =
    List.filter
      (fun u -> Item.strictly_subsumes schema (item u) (item v))
      (Relation.candidates rel (item v))
    |> minimal schema item
  in
  (* Tuples come in item order and the sort is stable, so each
     subsumer's edges keep that order too. *)
  let by_subsumer (a, _) (b, _) =
    match (a, b) with
    | None, None -> 0
    | None, Some _ -> 1
    | Some _, None -> -1
    | Some a, Some b -> Item.compare (item a) (item b)
  in
  List.concat_map
    (fun v ->
      match preds v with
      | [] -> [ (None, v) ]
      | us -> List.map (fun u -> (Some u, v)) us)
    (Relation.tuples rel)
  |> List.stable_sort by_subsumer
  |> List.iter (fun (u, v) -> Format.fprintf ppf "%s -> %s@." (label u) (label (Some v)))
