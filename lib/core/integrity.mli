(** The ambiguity integrity constraint (paper, §3.1).

    "For each item in the cartesian product of the attribute domains of a
    relation, either there should be a tuple associated with the item, or
    every strongest-binding tuple should have the same truth value."

    Checking every item directly is impossible (the item space is the full
    product). Soundness of the pairwise check used here: if any item has
    conflicting strongest binders, two of them are incomparable tuples
    [t⁺], [t⁻] of opposite sign whose items intersect, and the conflict
    reappears at one of the maximal common descendants of their items —
    because every tuple relevant to the original item below such a witness
    would contradict the binders' minimality. Hence checking all
    opposite-sign incomparable pairs at their maximal-common-descendant
    witnesses is sound and complete under the paper's optimistic
    intersection rule ("two sets are disjoint unless there is evidence to
    the contrary").

    The same witnesses are the paper's {e minimal conflict resolution
    set}: asserting one tuple per witness (or fewer, if an item binds more
    closely to several witnesses) always resolves the conflict.

    Under [On_path] and [No_preemption] semantics a conflict can also
    arise below two {e comparable} tuples, so the check falls back to an
    exhaustive enumeration: the atomic extensions of all negated tuples
    plus the stored items and MCD witnesses. (A conflicting item always
    has a negative binder, so it lies below a negated tuple; conflicts
    confined to instance-free classes are invisible both to this
    enumeration and to the equivalent flat relation.) *)

type conflict = {
  pos : Relation.tuple;  (** the positive tuple of the clashing pair *)
  neg : Relation.tuple;  (** the negative tuple *)
  witnesses : Item.t list;
      (** the maximal common descendants at which the verdict is a
          conflict — the minimal conflict resolution set for this pair *)
}

val check : ?semantics:Types.semantics -> Relation.t -> conflict list
(** All unresolved conflicts. Empty iff the relation satisfies the
    ambiguity constraint. The whole-relation reference: CHECK, fsck and
    rejected commits report exactly this list. *)

(** {2 Delta-scoped checking}

    A commit need not re-check every pair. Let [R] be a base relation
    known to be consistent and [R'] the staged relation a transaction
    derived from it. The transaction's net delta is

    - [I], the tuples of [R'] not in [R] with the same sign, and
    - [D], the tuples of [R] not in [R'] with the same sign

    (a sign flip counts as one of each). The {e affected set} is
    [A = I ∪ E], where [E] holds the surviving tuples of [R'] that some
    deleted tuple lay below in the binding order ({!Item.binds_below}):
    tuples that a deleted tuple used to preempt.

    {b Rule.} [R'] is consistent iff the off-path pair sweep restricted
    to opposite-sign pairs with at least one member in [A] finds no
    conflict.

    {b Soundness sketch.} Suppose item [x] conflicts in [R'], and no
    strongest binder of [x] in [R'] were in [A]. Every such binder [b] is
    then an old tuple. No deleted tuple lies below it, so [b] is still
    minimal among [x]'s relevant tuples in [R]. ([x] cannot itself be a
    deleted item: its binders would all lie above it and so be in [E].)
    Hence [R] has the same opposite-sign binders at [x] and conflicts —
    contradicting its consistency. So some binder [a] of [x] is in [A].
    Pair it with any opposite-sign binder [o]. [x] lies below some
    maximal common descendant [w] of their items. No tuple sits exactly
    on [w] and nothing stronger than [a] or [o] is relevant at [w], since
    either would be relevant at [x] and break their minimality there. So
    [w] conflicts, and the restricted sweep visits the pair [(a, o)].
    Conversely the restricted sweep visits a subset of the whole sweep's
    pairs with the same per-pair test, so it never reports a conflict
    the whole check would not. *)

type delta = {
  inserted : Relation.tuple list;  (** [I], as stored in the staged relation *)
  deleted : Relation.tuple list;  (** [D], as stored in the base relation *)
}

val delta : base:Relation.t -> Relation.t -> Item.t list -> delta
(** [delta ~base rel touched] compares [base] and [rel] at the items in
    [touched] (duplicates allowed) — the only items a transaction
    changed. *)

val affected : Relation.t -> delta -> Relation.tuple list
(** [affected rel d] is [A = I ∪ E] for the staged relation [rel]. *)

val sweep : ?affected:Relation.tuple list -> Relation.t -> conflict option
(** The off-path pair sweep at maximal-common-descendant witnesses, over
    the opposite-sign pairs with at least one member in [affected]
    (default: every tuple, the whole-relation sweep behind {!check}).
    Returns the first conflicting pair. Adds the number of opposite-sign
    pairs visited to the [core.integrity.pairs] counter. Only sound for
    a restricted [affected] when the base the delta was taken from is
    consistent (see the rule above). *)

val is_consistent : ?semantics:Types.semantics -> Relation.t -> bool

val minimal_resolution_set : Relation.t -> Item.t -> Item.t -> Item.t list
(** [minimal_resolution_set rel a b] — the maximal common descendants of
    two items, i.e. the tuples one of which must be asserted (per item) to
    disambiguate intersecting opposite assertions on [a] and [b]. *)

val first_conflict : ?semantics:Types.semantics -> Relation.t -> conflict option
(** Cheaper than {!check} when only consistency matters but a diagnostic
    is wanted on failure. *)

val pp_conflict : Schema.t -> Format.formatter -> conflict -> unit
