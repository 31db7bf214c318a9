(** The [consolidate] operator (paper, §3.3.1).

    Removes redundant tuples: a tuple is redundant iff it has the same
    truth value as {e all} of its immediate predecessors in the relation's
    subsumption graph — its minimal surviving strict subsumers
    ({!Subsumption.minimal}), the virtual universal negated tuple
    standing in when there is none, so an uncovered negated tuple is
    redundant. Each tuple is decided after every tuple that subsumes it,
    which is the paper's most-general-first walk with node elimination
    and yields the unique minimum relation with no redundant tuples
    (paper's claim, citing [15]; property-tested here). Consolidation
    changes only the stored form.

    Subsumption here is set inclusion over [isa] edges. On a relation
    closed under maximal common descendants, each item carrying its
    verdict (the form {!Ops.refine} builds), the result keeps every
    atom's verdict, preference edges included. On an arbitrary
    relation with preference edges it may not: removing an uncovered
    negated tuple that a preference made the stronger binder at an atom
    changes that atom's verdict. {!Ops.consolidated} consolidates the
    closure instead.

    A tuple's strict subsumers are read from the binding index of the
    relation's non-atomic tuples ({!Relation.candidates}); only a
    non-atomic tuple can subsume another (docs/SEMANTICS.md §5). No
    subsumption graph is built. *)

val consolidate : Relation.t -> Relation.t
(** The unique minimal equivalent relation. *)

val consolidate_verbose : Relation.t -> Relation.t * Relation.tuple list
(** Also reports the removed tuples, subsumers first: a tuple is
    reported after every removed tuple that subsumes it. *)

val redundant_tuples : Relation.t -> Relation.tuple list
(** The tuples {!consolidate} would remove (without removing them). *)

val is_consolidated : Relation.t -> bool
