module Dag = Hr_graph.Dag

type t = {
  relation : Relation.t;
  tuples : Relation.tuple array;
  dag : Dag.t;
  root : int;
}

(* Immediate predecessors: the subsumers with no other subsumer strictly
   below them. *)
let minimal schema item above =
  List.filter
    (fun u -> not (List.exists (fun w -> Item.strictly_subsumes schema (item u) (item w)) above))
    above

let build relation =
  let schema = Relation.schema relation in
  let tuples = Array.of_list (Relation.tuples relation) in
  let n = Array.length tuples in
  let dag = Dag.create () in
  for _ = 0 to n do
    ignore (Dag.add_node dag)
  done;
  let root = n in
  let item i = tuples.(i).Relation.item in
  (* [tuples] ascends in item order, like every [Relation] listing, so a
     stored item's node is found by binary search. *)
  let position it =
    let rec search lo hi =
      let mid = (lo + hi) / 2 in
      let c = Item.compare (item mid) it in
      if c = 0 then mid else if c < 0 then search (mid + 1) hi else search lo mid
    in
    search 0 n
  in
  (* Ancestors of each tuple among the other tuples, descending: the
     binding index lists the tuples that may subsume it, ascending. *)
  let above =
    Array.init n (fun v ->
        List.fold_left
          (fun acc (t : Relation.tuple) ->
            if Item.strictly_subsumes schema t.Relation.item (item v) then
              position t.Relation.item :: acc
            else acc)
          []
          (Relation.candidates relation (item v)))
  in
  for v = 0 to n - 1 do
    List.iter (fun u -> Dag.add_edge dag u v) (minimal schema item above.(v));
    if above.(v) = [] then Dag.add_edge dag root v
  done;
  { relation; tuples; dag; root }

let relation t = t.relation
let tuple_count t = Array.length t.tuples
let tuple t i = t.tuples.(i)
let root t = t.root
let dag t = t.dag

let sign_of_node t i = if i = t.root then Types.Neg else t.tuples.(i).Relation.sign

let topological t = Dag.topo_sort t.dag
let preds t v = Dag.preds t.dag v
let succs t v = Dag.succs t.dag v

let pp ppf t =
  let schema = Relation.schema t.relation in
  let label i =
    if i = t.root then "UNIVERSAL-"
    else
      Format.asprintf "%a%a" Types.pp_sign t.tuples.(i).Relation.sign (Item.pp schema)
        t.tuples.(i).Relation.item
  in
  List.iter
    (fun u ->
      List.iter
        (fun v -> Format.fprintf ppf "%s -> %s@." (label u) (label v))
        (Dag.succs t.dag u))
    (Dag.live_nodes t.dag)
