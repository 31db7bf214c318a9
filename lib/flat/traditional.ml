module Hierarchy = Hr_hierarchy.Hierarchy

type t = { isa : Flat_relation.t }

let of_hierarchy h =
  let isa = Flat_relation.create ~name:"isa" [ "child"; "parent" ] in
  let isa =
    List.fold_left
      (fun isa node ->
        List.fold_left
          (fun isa parent ->
            Flat_relation.insert isa
              [ Hierarchy.node_label h node; Hierarchy.node_label h parent ])
          isa (Hierarchy.parents h node))
      isa (Hierarchy.nodes h)
  in
  { isa }

let member_join_count t ~instance ~cls =
  let module S = Set.Make (String) in
  let rec climb frontier seen joins =
    if S.mem cls frontier then (true, joins)
    else if S.is_empty frontier then (false, joins)
    else
      (* one join round: frontier ⋈ isa, projected on parent *)
      let next =
        S.fold
          (fun child acc ->
            Flat_relation.fold
              (fun row acc ->
                match row with
                | [ c; p ] when c = child && not (S.mem p seen) -> S.add p acc
                | _ -> acc)
              t.isa acc)
          frontier S.empty
      in
      climb next (S.union seen next) (joins + 1)
  in
  climb (S.singleton instance) (S.singleton instance) 0

let member t ~instance ~cls = fst (member_join_count t ~instance ~cls)

let extension_relation rel =
  let open Hierel in
  let schema = Relation.schema rel in
  let flat = Flat_relation.create ~name:(Relation.name rel) (Schema.names schema) in
  List.fold_left
    (fun acc item ->
      let cells =
        List.init (Schema.arity schema) (fun i ->
            Hierarchy.node_label (Schema.hierarchy schema i) (Item.coord item i))
      in
      Flat_relation.insert acc cells)
    flat
    (Flatten.extension_list rel)
