module Dag = Hr_graph.Dag

(* Walk the subsumption graph most-general first; a node whose current
   immediate predecessors all carry its own sign is redundant and is
   eliminated (off-path, preserving the transitive reduction) before the
   walk continues. The initial topological order remains valid after
   eliminations because node elimination preserves reachability among the
   surviving nodes.

   An atomic tuple subsumes no other tuple, so it is a sink: its fate
   depends only on its predecessors and eliminating it changes no other
   node's. The walk therefore runs over the non-atomic tuples alone, and
   each atomic tuple is then decided against its minimal surviving
   subsumers, the predecessors it would have had when the full walk
   reached it (docs/SEMANTICS.md §5). *)
let consolidate_verbose rel =
  let schema = Relation.schema rel in
  let atomic (t : Relation.tuple) = Item.is_atomic schema t.Relation.item in
  let composite = Relation.filter (fun t -> not (atomic t)) rel in
  let g = Subsumption.build composite in
  let dag = Subsumption.dag g in
  let removed = ref [] in
  let result = ref rel in
  let remove (t : Relation.tuple) =
    removed := t :: !removed;
    result := Relation.remove !result t.Relation.item
  in
  let agrees (t : Relation.tuple) sign = Types.sign_equal sign t.Relation.sign in
  List.iter
    (fun v ->
      if v <> Subsumption.root g then begin
        let t = Subsumption.tuple g v in
        let preds = Dag.preds dag v in
        if preds <> [] && List.for_all (fun u -> agrees t (Subsumption.sign_of_node g u)) preds
        then begin
          remove t;
          Dag.eliminate_node dag ~on_path:false v
        end
      end)
    (Subsumption.topological g);
  Relation.iter
    (fun t ->
      if atomic t then begin
        let above =
          List.filter
            (fun (u : Relation.tuple) ->
              Relation.mem !result u.Relation.item
              && Item.strictly_subsumes schema u.Relation.item t.Relation.item)
            (Relation.candidates composite t.Relation.item)
        in
        let preds = Subsumption.minimal schema (fun (u : Relation.tuple) -> u.Relation.item) above in
        let redundant =
          match preds with
          (* the universal negated tuple stands in for a missing subsumer *)
          | [] -> agrees t Types.Neg
          | _ -> List.for_all (fun (u : Relation.tuple) -> agrees t u.Relation.sign) preds
        in
        if redundant then remove t
      end)
    rel;
  (!result, List.rev !removed)

let consolidate rel = fst (consolidate_verbose rel)
let redundant_tuples rel = snd (consolidate_verbose rel)
let is_consolidated rel = redundant_tuples rel = []
