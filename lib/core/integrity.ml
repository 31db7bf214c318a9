type conflict = {
  pos : Relation.tuple;
  neg : Relation.tuple;
  witnesses : Item.t list;
}

let m_pairs = Hr_obs.Metrics.counter "core.integrity.pairs"

module Item_set = Set.Make (Item)

(* --- Candidate pairs through the binding index ------------------------ *)

type probe = { tuple : Relation.tuple; at : Item.t }

module Pair_set = Set.Make (struct
  type t = Item.t * Item.t

  let compare (a, b) (a', b') = match Item.compare a a' with 0 -> Item.compare b b' | c -> c
end)

(* Calls [f pos neg] for opposite-sign pairs whose items meet on the
   coordinate the index probes ({!Relation.partners}): a superset of the
   pairs whose items intersect. With no [affected] probes that is every
   such pair, read once from the tuples of the sign that has fewer.
   Otherwise each probe pairs its tuple with the opposite-sign tuples
   that meet the probe's item; a pair that two probes find is called
   once. Returns the number of pairs. *)
let candidate_pairs ?affected rel f =
  let pairs = ref 0 in
  let emit (a : Relation.tuple) t =
    incr pairs;
    if Types.bool_of_sign a.Relation.sign then f a t else f t a
  in
  (match affected with
  | None ->
    let positives, negatives =
      List.partition (fun (t : Relation.tuple) -> Types.bool_of_sign t.Relation.sign)
        (Relation.tuples rel)
    in
    let lead = if List.length negatives < List.length positives then negatives else positives in
    List.iter (fun a -> List.iter (emit a) (Relation.partners rel a)) lead
  | Some probes ->
    let seen = ref Pair_set.empty in
    List.iter
      (fun { tuple = a; at } ->
        List.iter
          (fun (t : Relation.tuple) ->
            let key =
              if Types.bool_of_sign a.Relation.sign then (a.Relation.item, t.Relation.item)
              else (t.Relation.item, a.Relation.item)
            in
            if not (Pair_set.mem key !seen) then begin
              seen := Pair_set.add key !seen;
              emit a t
            end)
          (Relation.partners rel { a with Relation.item = at }))
      probes);
  !pairs

(* --- Off-path check: pairwise maximal-common-descendant witnesses ---- *)

(* Opposite-sign pairs of incomparable, intersecting tuples; for each, the
   maximal-common-descendant witnesses whose verdict is a conflict. The
   candidate pairs come from the binding index ({!candidate_pairs}); the
   incomparable, intersecting ones are then visited in the order of a
   scan over (i, j), i < j, in structural tuple order, so the first
   conflict found is the one a scan of every pair would report. Stops
   after the first conflicting pair when [first]. The number of
   candidate pairs is added to [core.integrity.pairs] once per sweep. *)
let sweep_pairs ?affected ~first rel =
  let schema = Relation.schema rel in
  let clashing = ref [] in
  let pairs =
    candidate_pairs ?affected rel (fun pos neg ->
        let a = pos.Relation.item and b = neg.Relation.item in
        if (not (Item.comparable schema a b)) && Item.intersects schema a b then begin
          let i, j = if Item.compare a b < 0 then (a, b) else (b, a) in
          clashing := (i, j, pos, neg) :: !clashing
        end)
  in
  Hr_obs.Metrics.add m_pairs pairs;
  let by_position (i, j, _, _) (i', j', _, _) =
    match Item.compare i i' with 0 -> Item.compare j j' | c -> c
  in
  let rec visit found = function
    | [] -> List.rev found
    | (_, _, pos, neg) :: rest ->
      let witnesses =
        List.filter
          (fun w ->
            match Binding.verdict rel w with
            | Binding.Conflict _ -> true
            | Binding.Asserted _ | Binding.Unasserted -> false)
          (Item.maximal_common_descendants schema pos.Relation.item neg.Relation.item)
      in
      if witnesses = [] then visit found rest
      else
        let found = { pos; neg; witnesses } :: found in
        if first then List.rev found else visit found rest
  in
  visit [] (List.sort by_position !clashing)

type delta = { inserted : Relation.tuple list; deleted : Relation.tuple list }

let delta ~base rel touched =
  List.fold_left
    (fun d item ->
      match Relation.find base item, Relation.find rel item with
      | Some s, Some s' when Types.sign_equal s s' -> d
      | before, after ->
        let cons sign l = { Relation.item; sign } :: l in
        {
          inserted = Option.fold ~none:d.inserted ~some:(fun s -> cons s d.inserted) after;
          deleted = Option.fold ~none:d.deleted ~some:(fun s -> cons s d.deleted) before;
        })
    { inserted = []; deleted = [] }
    (List.sort_uniq Item.compare touched)

let own (t : Relation.tuple) = { tuple = t; at = t.Relation.item }

(* A tuple exposed by a deletion binds above the deleted item on every
   coordinate, so it is among the index's binding-order candidates. It
   probes from the deleted item, once per deletion that exposed it. *)
let affected rel { inserted; deleted } =
  let schema = Relation.schema rel in
  let fresh = Item_set.of_list (List.map (fun (t : Relation.tuple) -> t.Relation.item) inserted) in
  let exposed (d : Relation.tuple) =
    List.filter_map
      (fun (t : Relation.tuple) ->
        if
          (not (Item_set.mem t.Relation.item fresh))
          && Item.binds_below schema t.Relation.item d.Relation.item
        then Some { tuple = t; at = d.Relation.item }
        else None)
      (Relation.candidates ~binding:true rel d.Relation.item)
  in
  List.map own inserted @ List.concat_map exposed deleted

let sweep ?affected rel =
  match sweep_pairs ?affected ~first:true rel with
  | [] -> None
  | c :: _ -> Some c

(* --- Stricter semantics: exhaustive witness enumeration -------------- *)

(* Under on-path or no-preemption semantics a conflict can arise below a
   pair of comparable tuples (the more general one is no longer fully
   preempted), so MCD witnesses do not suffice. Every conflicting item has
   a negative binder, hence lies (weakly) below some negated tuple: it is
   enough to test the atomic extension of every negated tuple's item, plus
   the MCD witnesses and the stored items themselves. Conflicts confined
   to instance-free classes are invisible to this enumeration — and to the
   equivalent flat relation. *)
let exhaustive_conflicts_seq ~semantics rel =
  let schema = Relation.schema rel in
  let candidates = ref Item_set.empty in
  let add it = candidates := Item_set.add it !candidates in
  Relation.iter
    (fun (t : Relation.tuple) ->
      add t.Relation.item;
      if Types.sign_equal t.Relation.sign Types.Neg then
        List.iter add (Item.atomic_extension schema t.Relation.item))
    rel;
  ignore
    (candidate_pairs rel (fun pos neg ->
         let a = pos.Relation.item and b = neg.Relation.item in
         if not (Item.comparable schema a b) then
           List.iter add (Item.maximal_common_descendants schema a b)));
  Seq.filter_map
    (fun w ->
      match Binding.verdict ~semantics rel w with
      | Binding.Conflict { positive; negative } ->
        Some { pos = List.hd positive; neg = List.hd negative; witnesses = [ w ] }
      | Binding.Asserted _ | Binding.Unasserted -> None)
    (Item_set.to_seq !candidates)

let check ?(semantics = Types.Off_path) rel =
  match semantics with
  | Types.Off_path -> sweep_pairs ~first:false rel
  | Types.On_path | Types.No_preemption -> List.of_seq (exhaustive_conflicts_seq ~semantics rel)

let first_conflict ?(semantics = Types.Off_path) rel =
  match semantics with
  | Types.Off_path -> sweep rel
  | Types.On_path | Types.No_preemption -> (
    match (exhaustive_conflicts_seq ~semantics rel) () with
    | Seq.Nil -> None
    | Seq.Cons (c, _) -> Some c)

let is_consistent ?semantics rel = Option.is_none (first_conflict ?semantics rel)

let minimal_resolution_set rel a b =
  Item.maximal_common_descendants (Relation.schema rel) a b

let pp_conflict schema ppf { pos; neg; witnesses } =
  Format.fprintf ppf "@[<v>conflict between +%a and -%a at:@,%a@]"
    (Item.pp schema) pos.Relation.item (Item.pp schema) neg.Relation.item
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (Item.pp schema))
    witnesses
