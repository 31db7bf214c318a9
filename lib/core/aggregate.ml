module Hierarchy = Hr_hierarchy.Hierarchy
module Item_tbl = Hashtbl.Make (Item)

(* The operand's items closed under maximal common descendants, each
   with its closure weight: 1 if its verdict is positive, else 0, less
   the weights of the closure items that strictly subsume it. Over any
   atom the weights of the closure items above it sum to the atom's
   truth (docs/SEMANTICS.md §6, Lemma C). Items of weight 0 are
   dropped. *)
let weighted rel =
  let schema = Relation.schema rel in
  let closed = Ops.refine ~consolidate:false schema (Binding.truth rel) (Relation.items rel) in
  let memo = Item_tbl.create 64 in
  let rec weight (t : Relation.tuple) =
    match Item_tbl.find_opt memo t.Relation.item with
    | Some w -> w
    | None ->
      let w =
        List.fold_left
          (fun w (e : Relation.tuple) ->
            if Item.strictly_subsumes schema e.Relation.item t.Relation.item then w - weight e
            else w)
          (if Types.bool_of_sign t.Relation.sign then 1 else 0)
          (Relation.candidates closed t.Relation.item)
      in
      Item_tbl.add memo t.Relation.item w;
      w
  in
  Relation.fold
    (fun t acc -> match weight t with 0 -> acc | w -> (t.Relation.item, w) :: acc)
    closed []

(* The atoms under [item], counting coordinate [skip] (if given) as one. *)
let atoms ?(skip = -1) schema item =
  let n = ref 1 in
  for i = 0 to Schema.arity schema - 1 do
    if i <> skip then
      n := !n * Hierarchy.instance_count (Schema.hierarchy schema i) (Item.coord item i)
  done;
  !n

let count rel =
  let schema = Relation.schema rel in
  List.fold_left (fun n (item, w) -> n + (w * atoms schema item)) 0 (weighted rel)

(* An item of weight [w] adds [w] times the atoms of its other
   coordinates to each instance under its coordinate [i]. *)
let count_by rel ~attr =
  let schema = Relation.schema rel in
  let i = Schema.index_of schema attr in
  let h = Schema.hierarchy schema i in
  let tally = Hashtbl.create 32 in
  List.iter
    (fun (item, w) ->
      let per_instance = w * atoms ~skip:i schema item in
      if per_instance <> 0 then
        List.iter
          (fun v ->
            Hashtbl.replace tally v
              (per_instance + Option.value ~default:0 (Hashtbl.find_opt tally v)))
          (Hierarchy.leaves_under h (Item.coord item i)))
    (weighted rel);
  Hashtbl.fold (fun v n acc -> if n = 0 then acc else (v, n) :: acc) tally []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let count_under rel ~attr ~cls =
  let schema = Relation.schema rel in
  let h = Schema.hierarchy schema (Schema.index_of schema attr) in
  let c = Hierarchy.find_exn h cls in
  List.fold_left
    (fun n (v, k) -> if Hierarchy.subsumes h c v then n + k else n)
    0 (count_by rel ~attr)

let histogram rel ~attr =
  let schema = Relation.schema rel in
  let i = Schema.index_of schema attr in
  let h = Schema.hierarchy schema i in
  count_by rel ~attr
  |> List.map (fun (v, n) -> (Hierarchy.node_label h v, n))
  |> List.sort (fun (la, na) (lb, nb) ->
         match Int.compare nb na with 0 -> String.compare la lb | c -> c)
