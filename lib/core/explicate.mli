(** The [explicate] operator (paper, §3.3.2).

    Flattens a relation to its extension over all or a subset of its
    attributes: every tuple of the result has instances (atomic values) in
    the explicated positions. The algorithm closes the relation's items
    under maximal common descendants, each carrying the relation's
    verdict ({!Ops.refine} without consolidation), walks the closure
    most specific first (by the ancestor counts of its coordinates),
    enumerates the membership of each class value to be explicated, and
    inserts each resulting tuple unless one with the same item was
    already inserted. Over each atom the closure has a least item, which
    carries the atom's binding verdict, preference edges included, and
    the walk reaches it first, so first-insertion-wins is exact
    (docs/SEMANTICS.md §4).

    After a {e full} explication every negated tuple is redundant (the
    paper notes a following consolidate removes them), so they are dropped
    by default; partial explication keeps them, as they are then genuine
    exceptions. *)

val explicate : ?over:string list -> ?keep_negated:bool -> Relation.t -> Relation.t
(** [over] lists the attributes to flatten (default: all).
    [keep_negated] defaults to [false] for full explication and is forced
    to [true] for partial explication. A conflict in the relation raises
    {!Types.Model_error}, as a selection does. *)
