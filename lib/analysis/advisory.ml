(** The advisory checks of a statement the engine accepted: W101 on a
    new isa edge, and on inserted rows H201, W102, W103, W107 and W109.
    They read the relation as it stood before the statement, through its
    binding index, and never decide whether a statement runs — the
    engine already has. *)

module Hierarchy = Hr_hierarchy.Hierarchy
module Ast = Hr_query.Ast
open Hierel

(* Content-sensitive analyses enumerate atomic extensions; skip when the
   extension would exceed this bound. *)
let extension_cap = 256

(* H201: a bare class name in a row applies to every member. *)
let bare_classes ~emit loc schema values =
  List.iteri
    (fun i v ->
      match v with
      | Ast.Atom name ->
        let h = Schema.hierarchy schema i in
        if Hierarchy.is_class h (Hierarchy.find_exn h name) then
          emit
            (Diagnostic.hintf ~code:"H201" loc
               "%S is a class; the row applies to every member — write ALL %s if \
                that is intended"
               name name)
      | Ast.All _ -> ())
    values

(* W101: the edge made another isa edge redundant, or is redundant
   itself; [before] is what [Hierarchy.validate] said before it. *)
let redundant_isa ~emit loc ~before h =
  List.iter
    (fun issue ->
      if not (List.mem issue before) then
        match issue with
        | Hierarchy.Redundant_isa_edge (a, b) ->
          emit
            (Diagnostic.warningf ~code:"W101" loc
               "isa edge %s -> %s is redundant (implied by another path); it \
                changes off-path preemption"
               (Hierarchy.node_label h a) (Hierarchy.node_label h b)))
    (Hierarchy.validate h)

(* Stored tuples of [sign] that strictly subsume [item], in structural
   order: read from the index's candidates, not from a scan. *)
let generalizations rel item sign =
  let schema = Relation.schema rel in
  List.filter
    (fun (t : Relation.tuple) ->
      t.Relation.sign = sign && Item.strictly_subsumes schema t.Relation.item item)
    (Relation.candidates rel item)

(* W102: the new row is implied by a stored same-sign row, and no
   opposite-sign row intersects it — so it can neither change a verdict
   nor serve as a disambiguating assertion (an intersecting opposite row
   can make an otherwise-implied row load-bearing, as with the third
   tuple of the paper's Respects relation). *)
let dead_row rel item sign =
  let schema = Relation.schema rel in
  generalizations rel item sign <> []
  && not
       (List.exists
          (fun (t : Relation.tuple) -> Item.intersects schema t.Relation.item item)
          (Relation.partners rel { Relation.item; sign }))

(* The atoms of [item]'s extension, or [] when there are more than
   [extension_cap] of them. *)
let atoms schema item =
  let size = ref 1 in
  Array.iteri
    (fun i c ->
      if !size <= extension_cap then
        size := !size * Hierarchy.instance_count (Schema.hierarchy schema i) c)
    (Item.coords item);
  if !size > extension_cap then [] else Item.atomic_extension schema item

(* W103: a negated row every atom of which is re-covered by a strictly
   more specific positive row — under off-path preemption the negation
   never wins anywhere. *)
let shadowed_negation rel item =
  let schema = Relation.schema rel in
  match atoms schema item with
  | [] -> false
  | atoms ->
    List.for_all
      (fun atom ->
        List.exists
          (fun (t : Relation.tuple) ->
            t.Relation.sign = Types.Pos
            && Item.strictly_subsumes schema item t.Relation.item
            && Item.subsumes schema t.Relation.item atom)
          (Relation.candidates rel atom))
      atoms

(* W109: the inserted negation is an exception that erases its parent
   class entirely — a stored positive generalization whose whole atomic
   extension the exception re-covers. The paper's exceptions (§2.2,
   penguins among birds) carve a strict subset out of a generalization;
   an exception congruent with the generalization's extension leaves the
   positive assertion holding nowhere, which is almost never intended. *)
let erased_generalization rel item sign =
  let schema = Relation.schema rel in
  if sign <> Types.Neg then None
  else
    List.find_opt
      (fun (t : Relation.tuple) ->
        match atoms schema t.Relation.item with
        | [] -> false
        | atoms -> List.for_all (fun atom -> Item.subsumes schema item atom) atoms)
      (generalizations rel item Types.Pos)

(* W107: under flattening the insert changes nothing — every atom of the
   row already receives exactly this sign from the stored tuples. Unlike
   W102 this needs no single covering generalization: a patchwork of
   narrower tuples (or an exact duplicate) triggers it too. *)
let noop_under_flattening rel item sign =
  match atoms (Relation.schema rel) item with
  | [] -> false
  | atoms ->
    List.for_all
      (fun atom ->
        match Binding.verdict rel atom with
        | Binding.Asserted (s, _) -> s = sign
        | Binding.Unasserted | Binding.Conflict _ -> false)
      atoms

(* The rows of an accepted INSERT, each with its resolved item, checked
   in order against [rel] as it stood before the statement plus the
   rows before it. At most one of W102, W109 and W107 fires per row,
   in that order of preference; W103 and H201 are independent. *)
let insert_rows ~emit loc rel rows =
  let name = Relation.name rel and schema = Relation.schema rel in
  let shadow = ref rel in
  List.iteri
    (fun i ({ Ast.sign; values }, item) ->
      let row = i + 1 and text = Item.to_string schema item in
      bare_classes ~emit loc schema values;
      (if dead_row !shadow item sign then
         emit
           (Diagnostic.warningf ~code:"W102" loc
              "row %d is dead: %s is already implied by a more general tuple of the same \
               sign in %s"
              row text name)
       else
         match erased_generalization !shadow item sign with
         | Some gen ->
           emit
             (Diagnostic.warningf ~code:"W109" loc
                "row %d: the exception %s covers the entire extension of its \
                 generalization %s — the positive assertion no longer holds anywhere"
                row text
                (Item.to_string schema gen.Relation.item))
         | None ->
           if noop_under_flattening !shadow item sign then
             emit
               (Diagnostic.warningf ~code:"W107" loc
                  "row %d is a no-op under flattening: every instance of %s already \
                   receives this sign from the stored tuples"
                  row text));
      shadow := Relation.set !shadow item sign;
      if sign = Types.Neg && shadowed_negation !shadow item then
        emit
          (Diagnostic.warningf ~code:"W103" loc
             "row %d: the negation on %s is shadowed — every instance it covers is \
              re-asserted by a more specific positive tuple"
             row text))
    rows
