module Item_tbl = Hashtbl.Make (Item)

(* A tuple is redundant iff its minimal surviving strict subsumers all
   carry its sign, the universal negated tuple standing in when there is
   none (docs/SEMANTICS.md §5, Lemma B). Only a non-atomic tuple
   subsumes another (Lemma A), so the subsumers come from the binding
   index of the non-atomic tuples, and only those are memoized: each is
   decided, and its removal reported, before any tuple below it reads
   it. *)
let consolidate_verbose rel =
  let schema = Relation.schema rel in
  let composite = Relation.filter (fun t -> not (Item.is_atomic schema t.Relation.item)) rel in
  let memo = Item_tbl.create 64 in
  let removed = ref [] in
  let rec decide (t : Relation.tuple) =
    let above =
      List.filter
        (fun (u : Relation.tuple) ->
          Item.strictly_subsumes schema u.Relation.item t.Relation.item && survives u)
        (Relation.candidates composite t.Relation.item)
    in
    let agrees (u : Relation.tuple) = Types.sign_equal u.Relation.sign t.Relation.sign in
    let redundant =
      match Subsumption.minimal schema (fun (u : Relation.tuple) -> u.Relation.item) above with
      (* the universal negated tuple stands in for a missing subsumer *)
      | [] -> Types.sign_equal t.Relation.sign Types.Neg
      | preds -> List.for_all agrees preds
    in
    if redundant then removed := t :: !removed;
    not redundant
  and survives (u : Relation.tuple) =
    match Item_tbl.find_opt memo u.Relation.item with
    | Some kept -> kept
    | None ->
      let kept = decide u in
      Item_tbl.add memo u.Relation.item kept;
      kept
  in
  Relation.iter
    (fun t -> ignore (if Item.is_atomic schema t.Relation.item then decide t else survives t))
    rel;
  let removed = List.rev !removed in
  let result =
    List.fold_left (fun r (t : Relation.tuple) -> Relation.remove r t.Relation.item) rel removed
  in
  (result, removed)

let consolidate rel = fst (consolidate_verbose rel)
let redundant_tuples rel = snd (consolidate_verbose rel)
let is_consolidated rel = redundant_tuples rel = []
