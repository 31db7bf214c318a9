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

    {b Probing.} Only pairs whose items intersect have a witness, and two
    items intersect only if they meet on {e every} coordinate. So the
    pairs need not be enumerated: each tuple takes its partners from the
    relation's binding index ({!Relation.partners}), the opposite-sign
    tuples whose coordinate meets its own on the one attribute where
    fewest do. Probing one coordinate loses no pair, and a pair of
    tuples that never meet costs nothing. The incomparable, intersecting
    pairs found are then visited in the order of a scan over all pairs
    [(i, j)], [i < j], in structural tuple order, so the first conflict
    reported, and the text built from it, is the scan's. The whole check
    costs the sum of the probed lists, not [n⁺ × n⁻].

    Under [On_path] and [No_preemption] semantics a conflict can also
    arise below two {e comparable} tuples, so the check falls back to an
    exhaustive enumeration: the atomic extensions of all negated tuples
    plus the stored items and the MCD witnesses of the pairs the same
    probe finds. (A conflicting item always
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
(** All unresolved conflicts, in scan order. Empty iff the relation
    satisfies the ambiguity constraint. The whole-relation reference:
    CHECK, fsck and rejected commits report exactly this list. Probes
    from the tuples of whichever sign has fewer, so on a relation of
    many positive instance tuples and a few negated classes it reads the
    buckets of the few. *)

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
(** [affected rel d] is [A = I ∪ E] for the staged relation [rel]: [I],
    then [E] in structural order. A tuple in [E] binds above a deleted
    item on every coordinate, so [E] is read from the index's
    binding-order candidates of each deleted item
    ([Relation.candidates ~binding:true]: the buckets of its
    binding ancestors, [isa] and preference edges together), not from a
    scan of the relation. *)

val sweep : ?affected:Relation.tuple list -> Relation.t -> conflict option
(** The off-path pair sweep at maximal-common-descendant witnesses, over
    the opposite-sign pairs with at least one member in [affected]
    (default: every tuple, the whole-relation sweep behind {!check}).
    Each affected tuple reads its partners from the binding index; a
    pair with both members affected is read once. Returns the first
    conflicting pair in scan order. Adds the number of candidate pairs
    the probes returned to the [core.integrity.pairs] counter: for a
    one-row write, the opposite-sign tuples that meet the affected
    tuples, not the relation. Only sound for a restricted [affected]
    when the base the delta was taken from is consistent (see the rule
    above). *)

val is_consistent : ?semantics:Types.semantics -> Relation.t -> bool

val minimal_resolution_set : Relation.t -> Item.t -> Item.t -> Item.t list
(** [minimal_resolution_set rel a b] — the maximal common descendants of
    two items, i.e. the tuples one of which must be asserted (per item) to
    disambiguate intersecting opposite assertions on [a] and [b]. *)

val first_conflict : ?semantics:Types.semantics -> Relation.t -> conflict option
(** Cheaper than {!check} when only consistency matters but a diagnostic
    is wanted on failure. *)

val pp_conflict : Schema.t -> Format.formatter -> conflict -> unit
