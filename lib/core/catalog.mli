(** A named collection of hierarchies and relations — the database.

    Relations are immutable values; the catalog maps names to current
    versions. All mutation goes through {!Txn} transactions, which enforce
    the ambiguity constraint at commit time (paper, §3.1: "whenever an
    update is made we require that the update does not create an
    unresolved conflict ... within the same transaction"). *)

type t

val create : unit -> t

(** {2 Versioning}

    The catalog's name maps are persistent: {!snapshot} captures the
    current hierarchy and relation bindings in O(1), and no later
    mutation of the live catalog can change what the captured value
    sees. A snapshot is only safe to read from other OCaml domains
    after {!freeze} has sealed every hierarchy (reads then touch no
    mutable state); the server's version publisher
    ([Hr_exec.Publisher]) enforces that order. Observed statistics are
    shared between a catalog and its snapshots by design — they are
    estimator feedback, not query-visible data. *)

val snapshot : t -> t
(** An immutable capture of the current bindings (O(1), shares all
    structure). The live catalog continues to evolve independently. *)

val fork : t -> t
(** A private, writable copy of the current bindings, for running
    statements that must not reach [t] (a lint's dry run). O(1) like
    {!snapshot}: it shares every relation value and every hierarchy.
    Its first edit of a hierarchy runs on a copy, even an unfrozen one
    ({!update_hierarchy}); its relation and hierarchy bindings are its
    own; and it keeps its own copy of the observed statistics, so
    [drop_relation] or [EXPLAIN ANALYZE] on the fork never reaches
    [t]'s. A fork never mutates a value it shares with [t], so forking
    a frozen snapshot is safe on any domain. *)

val same_bindings : t -> t -> bool
(** Physical equality of both map roots — true iff no binding has been
    added, replaced or dropped between the two captures. O(1); used by
    the publisher to skip republishing an unchanged catalog. *)

val freeze : t -> unit
(** {!Hr_hierarchy.Hierarchy.freeze} every registered hierarchy, making
    all read paths pure. Subsequent DDL must go through
    {!update_hierarchy}, which copies. Idempotent; newly registered
    hierarchies start unfrozen. *)

val update_hierarchy : t -> Hr_hierarchy.Hierarchy.t -> (Hr_hierarchy.Hierarchy.t -> 'a) -> 'a
(** [update_hierarchy t h f] mutates registered hierarchy [h] through
    [f]. Unfrozen, [f] runs on [h] in place (the historical path) —
    unless [t] is a {!fork} that has not yet copied [h]. Frozen, or
    shared with a fork's parent, [f] runs on a private copy which — on
    success — replaces [h] in the catalog and in the schema of every
    relation bound to it (node ids are preserved, so relation bodies
    carry over); snapshots
    taken earlier, and a fork's parent, keep the original. If [f]
    raises, the catalog is unchanged. *)

val define_hierarchy : t -> Hr_hierarchy.Hierarchy.t -> unit
(** Registers a hierarchy under its domain name. Raises
    {!Types.Model_error} on duplicates. *)

val hierarchy : t -> string -> Hr_hierarchy.Hierarchy.t
val find_hierarchy : t -> string -> Hr_hierarchy.Hierarchy.t option
val hierarchies : t -> Hr_hierarchy.Hierarchy.t list

val define_relation : ?check:bool -> t -> Relation.t -> unit
(** Registers a relation under its name; the initial contents must be
    consistent, and the registered value is stamped as verified
    ({!Relation.mark_verified}). [~check:false] skips the (quadratic)
    consistency sweep — for loaders re-registering contents that were
    validated when first defined, such as CRC-verified snapshots — and
    registers the value as given. Loaded values are built unstamped, so
    the first commit against them checks the whole relation. *)

val relation : t -> string -> Relation.t
val find_relation : t -> string -> Relation.t option
val relations : t -> Relation.t list

val replace_relation : t -> Relation.t -> unit
(** Unchecked swap of a relation's current version (used by {!Txn.commit}
    and by maintenance operators like consolidation, which preserve
    semantics by construction). The value is stored as given, stamp
    included: only {!Relation.mark_verified} creates a stamp, and any
    body change drops it, so a value built by an operator arrives
    unstamped. *)

val drop_relation : t -> string -> unit
(** Also forgets any observed statistics recorded for the relation. *)

(** {2 Observed statistics}

    A tiny feedback store for the static cost estimator: [EXPLAIN
    ANALYZE] records the actual row counts it measured per (relation,
    label) pair, and the estimator prefers an observed count over its
    formula the next time the same scan or selection is priced. Labels
    are ["*"] (the stored extension) or ["attr=value"] (a selection on
    the stored relation). The store is part of the catalog so durable
    backends persist it across checkpoints ({!Hr_storage.Snapshot}). *)

val record_stat : t -> rel:string -> label:string -> int -> unit
val observed_stat : t -> rel:string -> label:string -> int option

val observed_stats : t -> ((string * string) * int) list
(** All recorded pairs, sorted — for snapshot encoding and metrics. *)
