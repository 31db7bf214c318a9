(** Tuple binding: the truth value of an item (paper, §2.1–2.2, Appendix).

    A stored tuple is {e relevant} to an item when its item subsumes it
    (over [isa] edges). Among relevant tuples, the {e strongest-binding}
    ones determine the item's truth value:

    - a tuple exactly on the item always wins;
    - [Off_path] (default): the binders are the minimal relevant tuples
      under the binding order (coordinatewise reachability over [isa] and
      preference edges). This matches the paper's tuple-binding-graph
      construction provided hierarchies are kept transitively reduced
      ({!Hr_hierarchy.Hierarchy.reduce});
    - [On_path]: a tuple is preempted only if another relevant tuple lies
      on {e every} path from it to the item in the item hierarchy
      (preference edges are not consulted — the paper defines preferences
      in terms of off-path semantics);
    - [No_preemption]: every relevant tuple binds.

    Disagreement among binders is a conflict — an inconsistent database
    state (paper, §2.1). *)

type verdict =
  | Asserted of Types.sign * Relation.tuple list
      (** The sign agreed by all strongest binders, and those binders. *)
  | Unasserted
      (** No relevant tuple. Under the closed-world reading this means the
          relation does not hold. *)
  | Conflict of { positive : Relation.tuple list; negative : Relation.tuple list }
      (** Strongest binders disagree. *)

val relevant : Relation.t -> Item.t -> Relation.tuple list
(** Tuples whose item strictly subsumes the argument (the nodes of its
    tuple-binding graph other than the item itself). Served by the
    relation's memoized bucket index ({!Relation.candidates}); each call
    bumps the [core.binding.index_probes] counter. *)

val verdict : ?semantics:Types.semantics -> Relation.t -> Item.t -> verdict
(** A stored item is answered from its own tuple, which always wins, and
    costs no index probe; any other item probes {!relevant} once. *)

val decide :
  ?semantics:Types.semantics ->
  Schema.t ->
  Item.t ->
  exact:Types.sign option ->
  relevant:Relation.tuple list ->
  verdict
(** The decision procedure underneath {!verdict}, for callers that
    obtain the exact-match sign and relevant tuples from their own access
    path (the brute-force scan that test/test_index.ml and bench C9
    compare {!verdict} against). [relevant] must be exactly the tuples
    whose items strictly subsume the queried item. *)

val truth : ?semantics:Types.semantics -> Relation.t -> Item.t -> Types.sign
(** Closed-world sign: [Unasserted] maps to [Neg]. Raises
    {!Types.Model_error} on [Conflict] — callers requiring totality must
    ensure consistency first (see [Integrity]). *)

val holds : ?semantics:Types.semantics -> Relation.t -> Item.t -> bool
(** [truth = Pos]. *)

val justification : Relation.t -> Item.t -> Relation.tuple list
(** All applicable tuples — the exact-match tuple (if any) plus the
    relevant ones. This is the paper's justification facility (Fig. 9b). *)

type graph = {
  nodes : Relation.tuple array;  (** relevant tuples; node [i] is [nodes.(i)] *)
  item_node : int;  (** the queried item's node id, [= Array.length nodes] *)
  edges : (int * int) list;
      (** transitive reduction of the binding order, most-general to
          most-specific, including edges into [item_node] *)
}
(** A materialized tuple-binding graph, as drawn in the paper's Fig. 1d —
    for inspection and display. *)

val binding_graph : Relation.t -> Item.t -> graph

val pp_verdict : Schema.t -> Format.formatter -> verdict -> unit
