(** Static checking of HRQL query expressions: schema inference over a
    catalog (the lint's fork), without evaluating anything. Names are
    looked up as the engine looks them up ({!Hr_query.Eval.relation},
    {!Hr_query.Eval.resolve_value}), so an unknown name gets the
    engine's own rejection.

    [infer] returns the expression's schema when it can be determined —
    attribute names in order, each with its domain hierarchy — and
    [None] after a reported error made the schema unknowable. Checks are
    best-effort: one bad operand does not stop the other operand's
    checks. *)

module Hierarchy = Hr_hierarchy.Hierarchy
module Ast = Hr_query.Ast
module Eval = Hr_query.Eval
open Hierel

type attr = { aname : string; hier : Hierarchy.t }

let pp_schema attrs =
  "("
  ^ String.concat ", "
      (List.map (fun a -> a.aname ^ ": " ^ Eval.domain_name a.hier) attrs)
  ^ ")"

let of_relation rel =
  let schema = Relation.schema rel in
  List.mapi
    (fun i name -> { aname = name; hier = Schema.hierarchy schema i })
    (Schema.names schema)

let compatible a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> x.aname = y.aname && x.hier == y.hier) a b

let find_attr attrs name = List.find_opt (fun a -> a.aname = name) attrs

(* The stored relation an expression re-represents, reached through
   schema- and position-preserving operators only. Used by checks that
   need contents (H202). *)
let rec base_relation cat e =
  match e.Ast.expr with
  | Ast.Rel name -> Catalog.find_relation cat name
  | Ast.Select (inner, _, _) | Ast.Consolidated inner | Ast.Explicated (inner, _) ->
    base_relation cat inner
  | _ -> None

(* [f ()], or [None] after reporting the engine's rejection. *)
let engine ~emit loc f =
  try Some (f ()) with Eval.Rejected rejection ->
    emit (Diagnostic.of_rejection loc rejection);
    None

(* The chain of selections directly under [e], innermost last — for
   detecting contradictory ANDed conditions (W105). *)
let rec inner_selections acc e =
  match e.Ast.expr with
  | Ast.Select (inner, attr, v) -> inner_selections ((attr, v) :: acc) inner
  | _ -> acc

let rec infer cat ~emit (e : Ast.query_expr) =
  let loc = e.Ast.eloc in
  match e.Ast.expr with
  | Ast.Rel name ->
    Option.map of_relation (engine ~emit loc (fun () -> Eval.relation cat name))
  | Ast.Select (inner, attr, v) -> (
    let si = infer cat ~emit inner in
    match si with
    | None -> None
    | Some attrs -> (
      (match find_attr attrs attr with
      | None ->
        emit
          (Diagnostic.errorf ~code:"E008" loc
             "selection on unknown attribute %S (schema is %s)" attr
             (pp_schema attrs))
      | Some { hier; _ } -> (
        (* a selection reads only the value's name: [ALL] is not checked *)
        match
          engine ~emit loc (fun () ->
              Eval.resolve_value ~cat hier (Ast.Atom (Ast.value_name v)))
        with
        | None -> ()
        | Some node ->
          (* contradictory ANDed selections on the same attribute *)
          List.iter
            (fun (attr', v') ->
              if attr' = attr then
                match Hierarchy.find hier (Ast.value_name v') with
                | Some node' when not (Hierarchy.intersects hier node node') ->
                  emit
                    (Diagnostic.warningf ~code:"W105" loc
                       "selection is unsatisfiable: %s = %s contradicts %s = %s \
                        (disjoint in domain %s)"
                       attr (Ast.value_name v) attr' (Ast.value_name v')
                       (Eval.domain_name hier))
                | _ -> ())
            (inner_selections [] inner)));
      si))
  | Ast.Project (inner, names) -> (
    let si = infer cat ~emit inner in
    match si with
    | None -> None
    | Some attrs ->
      let dup =
        List.find_opt (fun n -> List.length (List.filter (( = ) n) names) > 1) names
      in
      (match dup with
      | Some n ->
        emit
          (Diagnostic.errorf ~code:"E009" loc
             "attribute %S appears twice in the projection" n)
      | None -> ());
      let known =
        List.filter_map
          (fun n ->
            match find_attr attrs n with
            | Some a -> Some a
            | None ->
              emit
                (Diagnostic.errorf ~code:"E008" loc
                   "projection on unknown attribute %S (schema is %s)" n
                   (pp_schema attrs));
              None)
          names
      in
      if List.length known <> List.length names || dup <> None then None
      else begin
        check_projected_exceptions cat ~emit ~loc inner names;
        Some known
      end)
  | Ast.Join (a, b) -> (
    let sa = infer cat ~emit a and sb = infer cat ~emit b in
    match sa, sb with
    | Some sa, Some sb ->
      let shared =
        List.filter (fun x -> Option.is_some (find_attr sb x.aname)) sa
      in
      List.iter
        (fun x ->
          match find_attr sb x.aname with
          | Some y when not (x.hier == y.hier) ->
            emit
              (Diagnostic.errorf ~code:"E007" loc
                 "join on attribute %S over disjoint domains %s and %s" x.aname
                 (Eval.domain_name x.hier) (Eval.domain_name y.hier))
          | _ -> ())
        shared;
      if List.exists
           (fun x ->
             match find_attr sb x.aname with
             | Some y -> not (x.hier == y.hier)
             | None -> false)
           sa
      then None
      else
        Some (sa @ List.filter (fun y -> Option.is_none (find_attr sa y.aname)) sb)
    | _ -> None)
  | Ast.Union (a, b) -> set_op cat ~emit ~loc "UNION" a b
  | Ast.Intersect (a, b) -> set_op cat ~emit ~loc "INTERSECT" a b
  | Ast.Except (a, b) -> set_op cat ~emit ~loc "EXCEPT" a b
  | Ast.Rename (inner, old_name, new_name) -> (
    let si = infer cat ~emit inner in
    match si with
    | None -> None
    | Some attrs -> (
      match find_attr attrs old_name with
      | None ->
        emit
          (Diagnostic.errorf ~code:"E008" loc
             "rename of unknown attribute %S (schema is %s)" old_name
             (pp_schema attrs));
        None
      | Some _ when old_name <> new_name && Option.is_some (find_attr attrs new_name)
        ->
        emit
          (Diagnostic.errorf ~code:"E006" loc
             "rename %s -> %s collides with an existing attribute" old_name new_name);
        None
      | Some _ ->
        Some
          (List.map
             (fun a -> if a.aname = old_name then { a with aname = new_name } else a)
             attrs)))
  | Ast.Consolidated inner -> infer cat ~emit inner
  | Ast.Explicated (inner, over) -> (
    let si = infer cat ~emit inner in
    match si, over with
    | Some attrs, Some names ->
      List.iter
        (fun n ->
          if Option.is_none (find_attr attrs n) then
            emit
              (Diagnostic.errorf ~code:"E008" loc
                 "explication over unknown attribute %S (schema is %s)" n
                 (pp_schema attrs)))
        names;
      si
    | _ -> si)

and set_op cat ~emit ~loc op a b =
  let sa = infer cat ~emit a and sb = infer cat ~emit b in
  match sa, sb with
  | Some sa, Some sb ->
    if compatible sa sb then Some sa
    else begin
      emit
        (Diagnostic.errorf ~code:"E006" loc
           "operands of %s must have identical schemas: %s vs %s" op (pp_schema sa)
           (pp_schema sb));
      None
    end
  | Some sa, None -> Some sa
  | None, Some sb -> Some sb
  | None, None -> None

(* H202: projecting away an attribute on which a stored negated tuple
   carves its exception loses the exception structure (the paper's Fig.
   11c caveat; [Ops.project] resolves collisions in favour of the
   positive tuple). Only checked when the projected expression
   re-represents a stored relation. *)
and check_projected_exceptions cat ~emit ~loc inner names =
  match base_relation cat inner with
  | Some rel ->
    let schema = Relation.schema rel in
    let dropped =
      List.mapi (fun i n -> (i, n)) (Schema.names schema)
      |> List.filter (fun (_, n) -> not (List.mem n names))
    in
    let carrying =
      List.filter
        (fun (i, _) ->
          List.exists
            (fun (t : Relation.tuple) ->
              t.Relation.sign = Types.Neg
              && Hierarchy.is_class (Schema.hierarchy schema i)
                   (Item.coord t.Relation.item i))
            (Relation.tuples rel))
        dropped
    in
    (match carrying with
    | [] -> ()
    | (_, n) :: _ ->
      emit
        (Diagnostic.hintf ~code:"H202" loc
           "projection drops attribute %S, on which %s carries a negated class \
            tuple; the exception structure is lost (positives win on collision)"
           n (Relation.name rel)))
  | None -> ()
