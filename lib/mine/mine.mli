(** Storage-minimizing hierarchical organization of flat data.

    The paper's conclusion proposes, as future work, that "the database
    system could mechanically organize traditional relation(s) given into
    hierarchical relations with classes being defined in such a way that
    storage is minimized." This module implements that for a
    single-attribute relation against a given hierarchy: find the minimal
    set of signed class/instance tuples whose extension equals a given
    instance set.

    On a tree hierarchy the result is exactly optimal, by dynamic
    programming over (node, inherited-sign) states: at each node we either
    assert [+], assert [-], or inherit. On a DAG the same DP runs over a
    first-parent spanning tree, then instances reached through skipped
    edges are patched with explicit tuples — a documented heuristic (the
    general problem includes minimum set cover; paper §3.2 notes
    np-hardness). *)

val organize :
  ?name:string ->
  Hr_hierarchy.Hierarchy.t ->
  members:string list ->
  Hierel.Relation.t
(** [organize h ~members] is a single-attribute relation over [h] whose
    extension is exactly the given instances. Unknown names raise
    {!Hr_hierarchy.Hierarchy.Error}; non-instances raise
    {!Hierel.Types.Model_error}. *)

val compression_ratio : Hierel.Relation.t -> float
(** extension size ({!Hierel.Aggregate.count}) / stored tuple count —
    how much the hierarchical form saves over flat enumeration (claim
    C1). *)

val is_tree : Hr_hierarchy.Hierarchy.t -> bool
(** True when every node has at most one parent — the case where
    {!organize} is provably optimal. *)
