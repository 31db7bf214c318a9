(** Hierarchical relations (paper, §2).

    A relation is an immutable set of tuples over a schema; a tuple is an
    item with a sign. At most one tuple per item can be present — asserting
    both [+A] and [-A] for the same item [A] is a direct contradiction and
    is rejected at insertion. All other consistency checking (the ambiguity
    constraint) lives in [Integrity] and is invoked by transactions, not by
    these primitive constructors: the paper allows a relation to pass
    through inconsistent states inside a transaction. *)

type tuple = { item : Item.t; sign : Types.sign }

type t

val empty : ?name:string -> Schema.t -> t
val name : t -> string
val with_name : t -> string -> t
val schema : t -> Schema.t

val with_schema : t -> Schema.t -> t
(** The same body under a different schema value — for rebinding a
    schema to a copied hierarchy ({!Schema.rebind}). The caller must
    preserve arity and node-id meaning; the body is not revalidated, and
    the consistency stamp is dropped. *)

(** {2 Consistency stamp}

    A relation value can carry a stamp saying "this body satisfies the
    ambiguity constraint over the schema's hierarchies as they are now".
    The stamp records each hierarchy's {!Hr_hierarchy.Hierarchy.generation},
    so any later hierarchy mutation — in place or by copy-on-write —
    makes {!verified} false. Every constructor that changes the body or
    the schema returns an unstamped value; {!with_name} keeps the stamp,
    and so do {!add}, {!set}, {!remove} and {!filter} when they leave
    the body as it was (they return the relation itself, index
    included).
    A stamp that {!verified} accepts is therefore always sound: only a
    passing check creates one. {!Catalog.define_relation} and
    {!Txn.commit} stamp; {!Txn.commit} relies on stamps to check only a
    transaction's delta. *)

val mark_verified : t -> t
(** The same relation, stamped against the current hierarchy
    generations. Only call after a whole-relation or delta check passed. *)

val verified : t -> bool
(** A stamp is present and every schema hierarchy is still in the state
    it recorded. *)

val cardinality : t -> int
(** Number of stored tuples (not the extension size). *)

val is_empty : t -> bool

val add : t -> Item.t -> Types.sign -> t
(** Raises {!Types.Model_error} if the item is present with the opposite
    sign (use {!set} to overwrite) or belongs to a different schema. Adding
    an already-present tuple is a no-op (duplicate elimination, §3.2). *)

val set : t -> Item.t -> Types.sign -> t
(** Insert-or-overwrite. *)

val remove : t -> Item.t -> t
(** No-op if absent. *)

val add_named : t -> Types.sign -> string list -> t
(** [add_named r sign names] resolves [names] against the schema and
    {!add}s. *)

val find : t -> Item.t -> Types.sign option
(** The sign of an exactly matching stored tuple, if any. *)

val mem : t -> Item.t -> bool

val tuples : t -> tuple list
(** In structural item order (deterministic). *)

val items : t -> Item.t list

val fold : (tuple -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (tuple -> unit) -> t -> unit
val filter : (tuple -> bool) -> t -> t

(** {2 The binding index}

    Probes read a per-relation binding index: per attribute, hierarchy
    node -> the tuples whose coordinate is that node, each entry tagged
    with its tuple's sign, plus the nodes that hold a tuple of each
    sign. A relation built in one step ({!of_map}, a {!filter} that
    drops a tuple, {!empty} and everything derived from an unindexed
    value) builds its index from the whole body on its first probe,
    O(N), counted by [core.binding.index_builds]. A version that {!add}, {!set} or
    {!remove} derives from an {e indexed} one carries that index instead:
    the same compact base plus an overlay of the changed items, so a
    commit and the reads after it never rebuild. Once the overlay holds
    more than max(16, sqrt N) changed items the derived version drops
    it, and its next probe rebuilds; a bulk construction that starts
    unindexed never pays per-row index upkeep. The base is immutable
    once built and the overlay is persistent, so one index is shared by
    every reader of a version and across reader domains. Every probe
    returns tuples in structural item order. *)

val candidates : ?binding:bool -> t -> Item.t -> tuple list
(** Tuples that may subsume [item]: a superset of the subsuming tuples,
    read from the buckets of the ancestors (inclusive) of [item]'s
    coordinate on the attribute where those buckets hold the fewest
    tuples. The caller still applies the full (strict) subsumption
    test. With [~binding:true] the ancestors are taken in the binding
    order ([isa] and preference edges), so the result is a superset of
    the tuples [t] with [Item.binds_below schema t.item item]. *)

val meeting : t -> int -> Hr_hierarchy.Hierarchy.node -> tuple list
(** [meeting r i v]: the tuples whose coordinate [i] intersects node [v]
    ({!Hr_hierarchy.Hierarchy.intersects}) — the tuples a selection on
    [v] can draw from. Reads the buckets through
    {!Hr_hierarchy.Hierarchy.buckets_meeting}: those of the nodes that
    intersect [v] or, when those outnumber the nodes bucketed at [i] (a
    selection on a domain root), the bucketed nodes tested one by one.
    Costs O(min(cone of [v], distinct coordinates at [i])) plus the
    output; allocates nothing proportional to the relation beyond the
    index. *)

val partners : t -> tuple -> tuple list
(** [partners r t]: the tuples of the opposite sign to [t] whose
    coordinate meets [t]'s on one attribute, the one whose meeting
    buckets hold the fewest tuples — a superset of the opposite-sign
    tuples whose items intersect [t]'s ({!Item.intersects} needs every
    coordinate to meet). The probe is {!meeting}'s "cone or keys" rule,
    but the key walk tests only the nodes that hold an opposite-sign
    tuple, and counts them as the limit. The candidate pairs of the
    ambiguity sweep ([Integrity.sweep]). *)

module Item_map : Map.S with type key = Item.t
(** Maps keyed by items in structural order: the body of a relation. *)

val of_map : ?name:string -> Schema.t -> Types.sign Item_map.t -> t
(** The relation whose tuples are exactly the bindings of the map, built
    in one step — for constructions that assemble a whole body and
    would otherwise allocate one relation value per {!set}. Raises
    {!Types.Model_error} if an item's arity does not match the schema. *)

val of_tuples : ?name:string -> Schema.t -> (Types.sign * string list) list -> t
(** Build from signed rows of names; convenient for tests and examples. *)

val equal : t -> t -> bool
(** Same schema and same stored tuples (syntactic, not extensional,
    equality). *)

val pp : Format.formatter -> t -> unit
(** Renders the relation as the paper's figures do: one row per tuple, a
    leading sign column, [∀]-prefixed class values. *)

val to_rows : t -> string list list
(** [["+"; "V Bird"]; ...] — sign then one cell per attribute; used by the
    table printer. *)
