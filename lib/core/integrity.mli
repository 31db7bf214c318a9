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

    (a sign flip counts as one of each). A {e probe} pairs a tuple of
    [R'] with the item it reads its partners at. The {e affected set}
    holds one probe per inserted tuple, at its own item, and one per
    pair [(e, d)] of a surviving tuple [e] and a deleted tuple [d] that
    [e] binds above ({!Item.binds_below}), at [d]'s item: [e] is a tuple
    [d] used to preempt, and a tuple that two deletions exposed probes
    at both.

    {b Rule.} [R'] is consistent iff the off-path pair sweep over the
    pairs the probes find (each probe's tuple with the opposite-sign
    tuples that meet the probe's item) finds no conflict.

    {b Soundness sketch} (docs/SEMANTICS.md §2, Lemma D). Suppose item
    [x] conflicts in [R'], and take an opposite-sign pair of its
    strongest binders. If one of them, [a], was inserted, its own probe
    reads every tuple that meets [a], the other binder [o] among them.
    Otherwise every binder of [x] is an old tuple. Were each still
    minimal among [x]'s relevant tuples in [R], [R] would have the same
    opposite-sign binders at [x] and conflict, against its consistency.
    So some binder [a] was preempted in [R] by a tuple relevant at [x]
    that [R'] lacks: a deleted [d] with [x ≤ d] that [a] binds above
    ([x] itself, when [x] was deleted). Then [(a, d)] is a probe. Every
    opposite-sign binder [o] of [x] subsumes [x], and so does [d], so
    [o] meets [d] on every coordinate and the probe at [d] finds it.
    Either way the sweep visits a pair [(a, o)] of binders of [x]. [x]
    lies below some maximal common descendant [w] of their items. No
    tuple sits exactly on [w] and nothing stronger than [a] or [o] is
    relevant at [w], since either would be relevant at [x] and break
    their minimality there. So [w] conflicts, and the sweep rejects.
    Conversely it visits a subset of the whole sweep's pairs with the
    same per-pair test, so it never reports a conflict the whole check
    would not.

    Where [d] lies below [a] by [isa] alone, what meets [d] meets [a]:
    the probe at [d] reads no more than one at [a] would, and for a
    deleted instance it walks [d] and its ancestors, not [a]'s cone.
    Probes from different items are not symmetric: [a]'s probe may find
    [o] where [o]'s does not find [a]. So a pair is read from every
    probe that finds it and kept once, not from the member of one
    sign. *)

type delta = {
  inserted : Relation.tuple list;  (** [I], as stored in the staged relation *)
  deleted : Relation.tuple list;  (** [D], as stored in the base relation *)
}

val delta : base:Relation.t -> Relation.t -> Item.t list -> delta
(** [delta ~base rel touched] compares [base] and [rel] at the items in
    [touched] (duplicates allowed) — the only items a transaction
    changed. *)

type probe = {
  tuple : Relation.tuple;  (** an affected tuple *)
  at : Item.t;  (** the item its partners are read at *)
}

val own : Relation.tuple -> probe
(** The probe of a tuple at its own item. *)

val affected : Relation.t -> delta -> probe list
(** [affected rel d] is the affected set for the staged relation [rel]:
    the inserted tuples' probes, in [I]'s order, then each deleted
    tuple's exposed tuples, in structural order, probing at its item. A
    tuple exposed by a deletion binds above the deleted item on every
    coordinate, so they are read from the index's binding-order
    candidates of each deleted item ([Relation.candidates ~binding:true]:
    the buckets of its binding ancestors, [isa] and preference edges
    together), not from a scan of the relation. *)

val sweep : ?affected:probe list -> Relation.t -> conflict option
(** The off-path pair sweep at maximal-common-descendant witnesses. With
    no [affected] it visits every opposite-sign pair whose items
    intersect (the whole-relation sweep behind {!check}). Otherwise it
    visits the pairs the probes find: each probe's tuple, which [rel]
    must store, with the opposite-sign tuples that meet the probe's
    item, each pair once. A
    probe at a tuple's own item finds every pair with that tuple that
    the whole sweep visits. Returns the first conflicting pair in scan
    order. Adds the number of distinct candidate pairs the probes
    returned to the [core.integrity.pairs] counter: for a one-row write,
    the opposite-sign tuples that meet the probed items, not the
    relation. Only sound for the affected set of a delta when the base
    the delta was taken from is consistent (see the rule above). *)

val is_consistent : ?semantics:Types.semantics -> Relation.t -> bool

val minimal_resolution_set : Relation.t -> Item.t -> Item.t -> Item.t list
(** [minimal_resolution_set rel a b] — the maximal common descendants of
    two items, i.e. the tuples one of which must be asserted (per item) to
    disambiguate intersecting opposite assertions on [a] and [b]. *)

val first_conflict : ?semantics:Types.semantics -> Relation.t -> conflict option
(** Cheaper than {!check} when only consistency matters but a diagnostic
    is wanted on failure. *)

val pp_conflict : Schema.t -> Format.formatter -> conflict -> unit
