(** Standard relational operators lifted to hierarchical relations
    (paper, §3.4) plus the refinement machinery they share.

    Every operator is defined so that it commutes with flattening: the
    equivalent flat relation of the result equals the flat operator
    applied to the equivalent flat relations of the operands ("the
    semantics of relational operators is not altered"). Operands must be
    consistent (satisfy the ambiguity constraint); {!Types.Model_error} is
    raised when a conflict is hit during evaluation.

    The shared construction — {!refine} — takes a set of candidate items,
    closes it under maximal common descendants of incomparable
    intersecting pairs, evaluates a caller-supplied sign for each item,
    and consolidates. Closure makes the minimal relevant candidate for any
    atomic item unique, which makes the construction exact (see DESIGN.md
    §5); the property-based tests in [test/test_ops.ml] check operator
    results against explicated baselines. *)

val refine :
  ?name:string ->
  ?consolidate:bool ->
  Schema.t ->
  (Item.t -> Types.sign) ->
  Item.t list ->
  Relation.t
(** [refine schema eval seeds]: the closure-evaluate-consolidate pipeline.
    [consolidate] defaults to [true].

    The closure accepts every item but pairs only the non-atomic ones:
    an atomic item (every coordinate an instance) meets only items that
    subsume it, so it can yield no maximal common descendant
    (docs/SEMANTICS.md §3, Lemma A). It files each accepted non-atomic
    item in one bucket table per coordinate (node -> items) and pairs a
    new one only with the items whose coordinate meets its own
    ({!Hr_hierarchy.Hierarchy.buckets_meeting}, the probe rule of
    {!Relation.meeting}), on the coordinate that yields the fewest; the
    full incomparable-and-intersecting test runs on that shortlist. Each
    test counts one [core.ops.closure.pairs]. Operand verdicts come from
    {!Binding.verdict}, which answers a stored item from its tuple
    without an index probe. Consolidation decides each item against its
    minimal surviving subsumers, read from the binding index of the
    non-atomic items ({!Consolidate.consolidate}). So the cost follows
    the pairs of non-atomic items that meet, not the square of the item
    count: n pairwise-disjoint instance seeds under one class make no
    pair tests. *)

val consolidated : Relation.t -> Relation.t
(** The [CONSOLIDATED] operator and the [CONSOLIDATE] statement: the
    operand's items closed under maximal common descendants, each
    carrying the operand's verdict, then consolidated — the form a
    selection returns. Every atom keeps its verdict, preference edges
    included, which {!Consolidate.consolidate} on the stored tuples
    alone does not promise (docs/SEMANTICS.md §5). Without preference
    edges the two agree on a consistent operand. With them the result
    may hold a closure item in place of a stored tuple: for [b]
    preferred over [a] and an instance [z] of both, [{+a, -b}] becomes
    [{+a, -z}]. The result keeps the operand's name. A conflict raises
    {!Types.Model_error}, as a selection does. *)

val select : ?name:string -> Relation.t -> attr:string -> value:string -> Relation.t
(** [select r ~attr ~value] restricts [r] to the region where [attr] lies
    in the extension of [value] (a class or instance name of that
    attribute's hierarchy). Figs. 7–9 of the paper.

    The seeds are the maximal common descendants of [value] and the
    [attr] coordinate of each tuple that meets it; those tuples come
    from the binding index ({!Relation.meeting}), not from a scan, in
    time O(min(cone of [value], distinct [attr] coordinates)) plus their
    number. {!refine} then closes the seeds, pairing each only with the
    seeds that meet it, and consolidates. Candidates are counted in
    [core.ops.select.candidates]. *)

val select_justified :
  ?name:string ->
  Relation.t ->
  attr:string ->
  value:string ->
  Relation.t * Relation.tuple list
(** Like {!select} but also returns the applicable tuples of the operand —
    those whose [attr] coordinate meets [value], in structural order: the
    paper's justification facility (Fig. 9b). *)

val project : ?name:string -> Relation.t -> string list -> Relation.t
(** Syntactic projection: drops the other attributes from every stored
    tuple. Negated tuples are retained (as in the paper's Fig. 11c, where
    projecting the join back loses no information). When projected tuples
    of opposite sign collide on one item, the positive wins (existential
    flat semantics). For class values whose extension is partially
    covered, syntactic projection can differ from the flat projection;
    projecting the full explication ({!Explicate.explicate}) gives the
    exact existential semantics. *)

val union : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Set union of the extensions (Fig. 10c). Schemas must be equal. *)

val inter : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Fig. 10d. *)

val diff : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Extension of the first minus extension of the second (Figs. 10e–f). *)

val join : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Natural join on the attributes common to both schemas (matched by
    name; the shared attributes must use the same hierarchy). With no
    shared attribute this is the cartesian product. Fig. 11b. *)

val rename : ?name:string -> Relation.t -> old_name:string -> new_name:string -> Relation.t
(** Renames one attribute; the body is unchanged. *)
