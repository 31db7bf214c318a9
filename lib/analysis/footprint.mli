(** Abstract effect footprints for HRQL statements.

    A footprint over-approximates what a statement touches: a set of
    (relation, item-cone, sign, read|write) atoms, with item coordinates
    resolved to hierarchy DAG nodes (a node stands for its whole cone —
    itself plus every transitive descendant, served by the closure index
    in [lib/graph]). Anything unresolvable widens to [Top] (⊤); DDL is
    [Opaque] because it rewrites the hierarchies the cones are expressed
    in. Semantics and the soundness argument: docs/EFFECTS.md. *)

type cone =
  | Top  (** unresolved: conservatively covers every item *)
  | Node of Hr_hierarchy.Hierarchy.t * Hr_hierarchy.Hierarchy.node

type mode = Read | Write

type atom = {
  rel : string;
  mode : mode;
  sign : Hierel.Types.sign option;  (** [None] for reads and DELETE rows *)
  cones : cone array option;
      (** one cone per attribute in schema order; [None] when even the
          relation's arity is unknown (the widest possible atom) *)
}

type t =
  | Atoms of atom list
  | Opaque of string  (** why nothing can be said (e.g. DDL) *)

val of_statement :
  find:(string -> Hierel.Relation.t option) -> Hr_query.Ast.statement -> t
(** [find] resolves relation names against whatever catalog the caller
    trusts (live {!Hierel.Catalog}, the lint's fork of it, router
    local catalog) — cones from two footprints are only comparable when
    both were resolved through the same catalog state. *)

type cone_cmp =
  | Disjoint  (** some coordinate pair provably never intersects *)
  | Overlap  (** every coordinate pair provably intersects *)
  | May_overlap  (** at least one ⊤/unknown coordinate, no disjoint one *)

val compare_cones : atom -> atom -> cone_cmp
(** Coordinate-wise, via {!Hr_hierarchy.Hierarchy.intersects}. Only
    meaningful for atoms over the same relation. *)

val subsumes : atom -> atom -> bool
(** Whether the first atom's item covers the second's, coordinate-wise. *)

val incomparable : atom -> atom -> bool
(** Neither subsumes the other — the shape behind order-dependent
    ambiguity acceptance (and lint W110). *)

val pp_atom : Format.formatter -> atom -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
