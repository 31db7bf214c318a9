type conflict = {
  pos : Relation.tuple;
  neg : Relation.tuple;
  witnesses : Item.t list;
}

let m_pairs = Hr_obs.Metrics.counter "core.integrity.pairs"

(* --- Off-path check: pairwise maximal-common-descendant witnesses ---- *)

(* Opposite-sign pairs of incomparable, intersecting tuples; for each, the
   maximal-common-descendant witnesses whose verdict is a conflict. The
   pairs are (i, j), i < j, in structural tuple order, restricted to those
   with at least one member in [affected] (every tuple when [None]); a
   tuple outside [affected] is only paired with the affected tuples, so
   the work is about |affected| * n rather than n^2. Stops after the
   first conflicting pair when [first]. The number of opposite-sign pairs
   visited is added to [core.integrity.pairs] once per sweep. *)
let sweep_pairs ?affected ~first rel =
  let schema = Relation.schema rel in
  let tuples = Array.of_list (Relation.tuples rel) in
  let n = Array.length tuples in
  let in_a =
    match affected with
    | None -> Array.make n true
    | Some a ->
      let module S = Set.Make (Item) in
      let a = S.of_list (List.map (fun (t : Relation.tuple) -> t.Relation.item) a) in
      Array.map (fun (t : Relation.tuple) -> S.mem t.Relation.item a) tuples
  in
  let a_idx = List.filter (fun i -> in_a.(i)) (List.init n Fun.id) in
  let pairs = ref 0 in
  let found = ref [] in
  let exception Stop in
  let visit i j =
    let ti = tuples.(i) and tj = tuples.(j) in
    if not (Types.sign_equal ti.Relation.sign tj.Relation.sign) then begin
      incr pairs;
      let pos, neg =
        if Types.bool_of_sign ti.Relation.sign then ti, tj else tj, ti
      in
      if not (Item.comparable schema pos.Relation.item neg.Relation.item) then begin
        let candidates =
          Item.maximal_common_descendants schema pos.Relation.item neg.Relation.item
        in
        let witnesses =
          List.filter
            (fun w ->
              match Binding.verdict rel w with
              | Binding.Conflict _ -> true
              | Binding.Asserted _ | Binding.Unasserted -> false)
            candidates
        in
        if witnesses <> [] then begin
          found := { pos; neg; witnesses } :: !found;
          if first then raise Stop
        end
      end
    end
  in
  (try
     for i = 0 to n - 1 do
       if in_a.(i) then
         for j = i + 1 to n - 1 do
           visit i j
         done
       else List.iter (fun j -> if j > i then visit i j) a_idx
     done
   with Stop -> ());
  Hr_obs.Metrics.add m_pairs !pairs;
  List.rev !found

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

let affected rel { inserted; deleted } =
  let schema = Relation.schema rel in
  let module S = Set.Make (Item) in
  let fresh = S.of_list (List.map (fun (t : Relation.tuple) -> t.Relation.item) inserted) in
  let exposed =
    Relation.fold
      (fun t acc ->
        if
          (not (S.mem t.Relation.item fresh))
          && List.exists
               (fun (d : Relation.tuple) -> Item.binds_below schema t.Relation.item d.Relation.item)
               deleted
        then t :: acc
        else acc)
      rel []
  in
  inserted @ exposed

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
  let tuples = Relation.tuples rel in
  let module S = Set.Make (Item) in
  let candidates = ref S.empty in
  let add it = candidates := S.add it !candidates in
  List.iter
    (fun (t : Relation.tuple) ->
      add t.Relation.item;
      if Types.sign_equal t.Relation.sign Types.Neg then
        List.iter add (Item.atomic_extension schema t.Relation.item))
    tuples;
  List.iter
    (fun (a : Relation.tuple) ->
      List.iter
        (fun (b : Relation.tuple) ->
          if
            (not (Types.sign_equal a.Relation.sign b.Relation.sign))
            && not (Item.comparable schema a.Relation.item b.Relation.item)
          then
            List.iter add
              (Item.maximal_common_descendants schema a.Relation.item b.Relation.item))
        tuples)
    tuples;
  Seq.filter_map
    (fun w ->
      match Binding.verdict ~semantics rel w with
      | Binding.Conflict { positive; negative } ->
        Some { pos = List.hd positive; neg = List.hd negative; witnesses = [ w ] }
      | Binding.Asserted _ | Binding.Unasserted -> None)
    (S.to_seq !candidates)

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
