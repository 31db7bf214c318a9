(** Items: one hierarchy node per attribute (paper, §2.2).

    An item is "one member (class or element) from each of D₁, D₂, …"; it
    denotes the cartesian product of the extensions of its coordinates. An
    {e atomic} item has only instances as coordinates; a {e composite} item
    has at least one class. The item hierarchy is the product graph of the
    attribute hierarchies; it is never materialized — subsumption and
    neighborhood queries are computed coordinatewise. *)

type t = private int array
(** Coordinate [i] is a node of [Schema.hierarchy schema i]. Items compare
    structurally; they are immutable by convention (the [private] type
    prevents construction, not mutation of coordinates — do not mutate). *)

val make : Schema.t -> Hr_hierarchy.Hierarchy.node array -> t
(** Validates arity and that each coordinate belongs to its attribute's
    hierarchy. Raises {!Types.Model_error} otherwise. *)

val of_names : Schema.t -> string list -> t
(** Convenience: resolve each class/instance name in its attribute's
    hierarchy, positionally. *)

val coords : t -> Hr_hierarchy.Hierarchy.node array
(** A fresh copy of the coordinates. *)

val coord : t -> int -> Hr_hierarchy.Hierarchy.node
val arity : t -> int

val compare : t -> t -> int
(** Structural order — arity first, then lexicographic over the
    coordinates, the order [Stdlib.compare] gives int arrays. A total
    order for container keys ([Relation.Item_map] and every item set),
    unrelated to subsumption. *)

val equal : t -> t -> bool
val hash : t -> int

val is_atomic : Schema.t -> t -> bool
(** All coordinates are instances. *)

val subsumes : Schema.t -> t -> t -> bool
(** [subsumes schema a b] iff every coordinate of [a] subsumes the
    corresponding coordinate of [b] over [isa] edges: the extension of [b]
    is contained in that of [a]. Reflexive. *)

val strictly_subsumes : Schema.t -> t -> t -> bool

val binds_below : Schema.t -> t -> t -> bool
(** Coordinatewise reachability over [isa] and preference edges — the
    binding-strength order (paper, Appendix). *)

val comparable : Schema.t -> t -> t -> bool
(** One subsumes the other. *)

val intersects : Schema.t -> t -> t -> bool
(** Optimistic intersection: every pair of corresponding coordinates has an
    explicit common descendant. *)

val maximal_common_descendants : Schema.t -> t -> t -> t list
(** The maximal common descendants of two items: the cartesian product of
    the per-coordinate maximal common descendants (maximality in a product
    order is coordinatewise). Empty iff the items do not intersect. These
    are the paper's minimal-conflict-resolution-set items (§3.1). *)

val substitute : t -> int -> Hr_hierarchy.Hierarchy.node -> t
(** Fresh item with one coordinate replaced. The caller must ensure the
    node belongs to the right hierarchy. *)

val project : t -> int list -> t
val concat : t -> t -> t

val atomic_extension : Schema.t -> ?over:int list -> t -> t list
(** All items obtained by replacing each coordinate in [over] (default:
    all coordinates) by one of its instance leaves — the enumeration step
    of explication (paper, §3.3.2). A class coordinate with no instances
    yields no items. *)

val pp : Schema.t -> Format.formatter -> t -> unit
(** Paper style: class coordinates are printed with a [∀] prefix
    (rendered as ["V "]), instances bare. *)

val to_string : Schema.t -> t -> string
