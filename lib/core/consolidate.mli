(** The [consolidate] operator (paper, §3.3.1).

    Removes redundant tuples: a tuple is redundant iff it has the same
    truth value as {e all} of its immediate predecessors in the relation's
    subsumption graph (the virtual universal negated tuple standing in for
    absent predecessors, so an uncovered negated tuple is redundant).
    Nodes are examined in topological order and removed with the node
    elimination procedure, which yields the unique minimum relation with
    no redundant tuples (paper's claim, citing [15]; property-tested
    here). Consolidation changes only the stored form — the equivalent
    flat relation is untouched.

    Subsumption here is set inclusion over [isa] edges; preference edges
    play no role, exactly as in the paper.

    An atomic tuple (every coordinate an instance) is a sink of the
    graph, so the walk runs over the non-atomic tuples only, and each
    atomic tuple is then decided against the minimal surviving tuples
    that subsume it ({!Subsumption.minimal}), with the universal negated
    tuple standing in when there is none. This removes the same tuples
    as walking the whole graph (docs/SEMANTICS.md §5, Lemma B); the
    graph costs only the non-atomic tuples, and an atomic one costs one
    {!Relation.candidates} lookup. *)

val consolidate : Relation.t -> Relation.t
(** The unique minimal equivalent relation. *)

val consolidate_verbose : Relation.t -> Relation.t * Relation.tuple list
(** Also reports the removed tuples, in removal order: the walk's
    removals in walk (topological) order, then the atomic ones in item
    order. *)

val redundant_tuples : Relation.t -> Relation.tuple list
(** The tuples {!consolidate} would remove (without removing them). *)

val is_consolidated : Relation.t -> bool
