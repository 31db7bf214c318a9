(** The paper's "traditional database approach" (footnote 1, §1).

    Without class-valued attributes, a 1989 relational schema stores
    class membership in a separate [isa(child, parent)] relation and keeps
    facts fully enumerated; asking whether an instance belongs to a class
    then requires one self-join of [isa] per hierarchy level, and keeping
    a class's fact-extension in sync requires an out-of-band integrity
    constraint. This module implements exactly that encoding, so
    benchmarks can measure the repeated-join cost and the storage blow-up
    the paper's model avoids. *)

type t

val of_hierarchy : Hr_hierarchy.Hierarchy.t -> t
(** Encodes the immediate [isa] edges (transitive reduction, as a real
    schema would store them). *)

val member : t -> instance:string -> cls:string -> bool
(** Upward join loop: joins the frontier with [isa] until the class is
    reached or the frontier is exhausted. *)

val member_join_count : t -> instance:string -> cls:string -> bool * int
(** Like {!member} but also reports how many join rounds were executed —
    the quantity footnote 1 complains about. *)

val extension_relation : Hierel.Relation.t -> Flat_relation.t
(** The traditional storage of a hierarchical relation: its full
    explicated extension as a flat relation (one row per atomic item). *)
