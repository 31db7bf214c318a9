(* Abstract effect footprints for HRQL statements.

   A footprint is the set of (relation, item-cone, sign, read|write)
   atoms a statement may touch. Item coordinates are hierarchy DAG
   nodes, so an atom's reach is the node's cone (itself plus every
   transitive descendant) — the paper's reason a single row like
   [+ ALL bird] has non-local effect. Anything the analysis cannot
   resolve widens to [Top] (written ⊤), and DDL — which rewrites the
   very hierarchies cones are expressed in — is [Opaque]: no cone
   vocabulary survives it.

   Footprints feed the commutativity oracle ({!Effect.commutes}); the
   soundness argument is spelled out in docs/EFFECTS.md. *)

module Ast = Hr_query.Ast
module Hierarchy = Hr_hierarchy.Hierarchy
open Hierel

type cone =
  | Top  (** unresolved: conservatively covers every item *)
  | Node of Hierarchy.t * Hierarchy.node
      (** the node's cone in its hierarchy (itself + descendants) *)

type mode = Read | Write

type atom = {
  rel : string;
  mode : mode;
  sign : Types.sign option;  (** [None] for reads and DELETE rows *)
  cones : cone array option;
      (** one cone per attribute, in schema order; [None] when even the
          relation's arity is unknown (widest possible atom) *)
}

type t =
  | Atoms of atom list
  | Opaque of string  (** why nothing can be said (e.g. DDL) *)

(* ---- construction ------------------------------------------------------ *)

let relations_of_expr expr =
  let rec walk acc { Ast.expr = node; _ } =
    match node with
    | Ast.Rel name -> name :: acc
    | Ast.Select (e, _, _)
    | Ast.Project (e, _)
    | Ast.Rename (e, _, _)
    | Ast.Consolidated e
    | Ast.Explicated (e, _) ->
      walk acc e
    | Ast.Join (a, b) | Ast.Union (a, b) | Ast.Intersect (a, b) | Ast.Except (a, b)
      ->
      walk (walk acc a) b
  in
  List.sort_uniq String.compare (walk [] expr)

(* Resolve one surface value against the attribute's hierarchy. A name
   the hierarchy does not define widens to ⊤ — the oracle then answers
   [Unknown] for any overlap question involving it. ALL c and a bare c
   both denote c's cone; an instance's cone is the instance itself. *)
let resolve_value h v =
  match Hierarchy.find h (Ast.value_name v) with
  | Some node -> Node (h, node)
  | None -> Top

let resolve_row find rel values =
  match find rel with
  | None -> None
  | Some r ->
    let schema = Relation.schema r in
    if List.length values <> Schema.arity schema then None
    else
      Some
        (Array.of_list
           (List.mapi (fun i v -> resolve_value (Schema.hierarchy schema i) v) values))

let read_all rel = { rel; mode = Read; sign = None; cones = None }
let write_all rel = { rel; mode = Write; sign = None; cones = None }
let reads_of_expr expr = List.map read_all (relations_of_expr expr)

let of_statement ~find stmt =
  match stmt with
  (* DDL rewrites the hierarchies cones live in: no footprint survives. *)
  | Ast.Create_domain _ | Ast.Create_class _ | Ast.Create_instance _
  | Ast.Create_isa _ | Ast.Create_preference _ | Ast.Create_relation _
  | Ast.Drop_relation _ ->
    Opaque "DDL (rewrites the hierarchy the cones are expressed in)"
  | Ast.Insert { rel; rows } ->
    Atoms
      (List.map
         (fun { Ast.sign; values } ->
           { rel; mode = Write; sign = Some sign; cones = resolve_row find rel values })
         rows)
  | Ast.Delete { rel; rows } ->
    Atoms
      (List.map
         (fun values ->
           { rel; mode = Write; sign = None; cones = resolve_row find rel values })
         rows)
  | Ast.Let_binding { name; expr } ->
    (* Replaces the binding wholesale: a ⊤ write on the name, plus reads
       of everything the defining expression mentions. *)
    Atoms (write_all name :: reads_of_expr expr)
  | Ast.Consolidate rel -> Atoms [ read_all rel; write_all rel ]
  | Ast.Explicate { rel; over = _ } -> Atoms [ read_all rel; write_all rel ]
  | Ast.Select_query { expr; _ } -> Atoms (reads_of_expr expr)
  | Ast.Count { expr; _ } -> Atoms (reads_of_expr expr)
  | Ast.Diff { prev; next } -> Atoms (reads_of_expr prev @ reads_of_expr next)
  | Ast.Explain_plan expr | Ast.Explain_analyze expr | Ast.Explain_estimate expr
    ->
    Atoms (reads_of_expr expr)
  | Ast.Ask { rel; values; _ } | Ast.Explain { rel; values } ->
    Atoms [ { rel; mode = Read; sign = None; cones = resolve_row find rel values } ]
  | Ast.Check rel -> Atoms [ read_all rel ]
  | Ast.Explain_effects _ | Ast.Show_hierarchy _ | Ast.Show_relations
  | Ast.Show_hierarchies
  | Ast.Stats _ | Ast.Stats_reset ->
    Atoms []

(* ---- queries ----------------------------------------------------------- *)

(* Pairwise cone comparison: [Disjoint] and [Overlap] are both proofs
   (some coordinate provably empty-intersects / every coordinate provably
   intersects); [May_overlap] is the honest rest. Nodes resolved against
   physically different hierarchies are never compared — between the two
   resolutions a DDL must have intervened, so nothing is provable. *)
type cone_cmp = Disjoint | Overlap | May_overlap

let compare_cones a b =
  match (a.cones, b.cones) with
  | None, _ | _, None -> May_overlap
  | Some ca, Some cb ->
    if Array.length ca <> Array.length cb then May_overlap
    else begin
      let disjoint = ref false and unknown = ref false in
      Array.iteri
        (fun i xa ->
          match (xa, cb.(i)) with
          | Node (h1, n1), Node (h2, n2) when h1 == h2 ->
            if not (Hierarchy.intersects h1 n1 n2) then disjoint := true
          | _ -> unknown := true)
        ca;
      if !disjoint then Disjoint else if !unknown then May_overlap else Overlap
    end

(* a subsumes b: every coordinate of a covers the matching coordinate of
   b. ⊤ covers everything; nothing but ⊤ covers ⊤. *)
let subsumes a b =
  match (a.cones, b.cones) with
  | None, _ -> true
  | Some _, None -> false
  | Some ca, Some cb ->
    Array.length ca = Array.length cb
    && begin
         let ok = ref true in
         Array.iteri
           (fun i xa ->
             match (xa, cb.(i)) with
             | Top, _ -> ()
             | Node _, Top -> ok := false
             | Node (h1, n1), Node (h2, n2) ->
               if not (h1 == h2 && (n1 = n2 || Hierarchy.subsumes h1 n1 n2)) then
                 ok := false)
           ca;
         !ok
       end

(* Neither atom's item covers the other's: the pair carves incomparable
   cones (the shape behind order-dependent ambiguity acceptance). *)
let incomparable a b = (not (subsumes a b)) && not (subsumes b a)

(* ---- rendering --------------------------------------------------------- *)

let pp_cone ppf = function
  | Top -> Format.pp_print_string ppf "\xe2\x8a\xa4" (* ⊤ *)
  | Node (h, n) ->
    let label = Hierarchy.node_label h n in
    if Hierarchy.is_class h n then Format.fprintf ppf "%s\xe2\x86\x93" label
      (* ↓ marks a cone of descendants *)
    else Format.pp_print_string ppf label

let pp_atom ppf a =
  let mode = match a.mode with Read -> "read " | Write -> "write" in
  let sign =
    match a.sign with
    | Some Types.Pos -> " +"
    | Some Types.Neg -> " -"
    | None -> ""
  in
  (match a.cones with
  | None -> Format.fprintf ppf "%s %s%s (\xe2\x8a\xa4)" mode a.rel sign
  | Some cones ->
    Format.fprintf ppf "%s %s%s (%a)" mode a.rel sign
      (Format.pp_print_seq
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_cone)
      (Array.to_seq cones))

let pp ppf = function
  | Opaque reason -> Format.fprintf ppf "opaque: %s" reason
  | Atoms [] -> Format.pp_print_string ppf "empty (no catalog effect)"
  | Atoms atoms ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
      pp_atom ppf atoms

let to_string fp = Format.asprintf "@[<v>%a@]" pp fp
