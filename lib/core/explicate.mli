(** The [explicate] operator (paper, §3.3.2).

    Flattens a relation to its extension over all or a subset of its
    attributes: every tuple of the result has instances (atomic values) in
    the explicated positions. The algorithm traverses the subsumption
    graph in reverse topological order (most specific tuple first),
    enumerates the membership of each class value to be explicated, and
    inserts each resulting tuple unless one with the same item was already
    inserted — on a consistent relation the first inserter is a strongest
    binder, so first-insertion-wins is exact.

    After a {e full} explication every negated tuple is redundant (the
    paper notes a following consolidate removes them), so they are dropped
    by default; partial explication keeps them, as they are then genuine
    exceptions. *)

val explicate : ?over:string list -> ?keep_negated:bool -> Relation.t -> Relation.t
(** [over] lists the attributes to flatten (default: all).
    [keep_negated] defaults to [false] for full explication and is forced
    to [true] for partial explication. The input must be consistent
    (ambiguity-constraint-satisfying); on a conflicted relation the result
    is unspecified among the conflicting signs. *)
