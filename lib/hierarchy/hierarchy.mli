(** Domain hierarchies (paper, Section 2.1).

    A hierarchy is a rooted DAG over a domain: the root is the domain
    itself, internal nodes are classes, and leaves are instances (atomic
    elements, treated as singleton classes per the paper's footnote 3).
    [isa] edges run from the more general class to the more specific one;
    membership is reachability over [isa] edges. {e Preference} edges
    (paper, Appendix) additionally bias binding strength without implying
    set inclusion.

    The hierarchy enforces the {e type-irredundancy constraint} (paper,
    §3.1): no edge insertion may create a cycle. Redundant [isa] edges
    (edges implied by other paths) are legal but change off-path preemption
    results, so {!validate} reports them and {!reduce} removes them.

    Reads are answered from per-node ancestor and descendant arrays. A
    new class or instance gets its own ancestor array, the merge of its
    parents', and changes no other node's; an edit that moves edges
    between existing nodes ([add_isa], [add_preference], [eliminate],
    [reduce]) leaves the ancestor arrays to be rebuilt in one
    topological pass on the next read. Every edit drops the descendant
    index; it is rebuilt by inverting the ancestor arrays, in time
    proportional to V plus the sum of the ancestor-set sizes. Nothing
    is V×V-sized. *)

type t

type node = int
(** Nodes are dense non-negative integers, stable across mutations. *)

exception Error of string
(** Raised on malformed operations (duplicate names, cycles, unknown
    nodes, children added under instances). *)

val create : string -> t
(** [create domain] is a hierarchy whose root class is named [domain]. *)

val copy : t -> t
(** An {e unfrozen} copy whose edits never reach the original. Node ids
    are preserved, so items built against the original remain valid
    against the copy — the basis of the catalog's copy-on-write DDL
    path. O(V) pointer copies: the per-node ancestor arrays, the
    descendant index and the name map are shared, never mutated in
    place; the MCD memo starts empty. *)

val freeze : t -> unit
(** Seals the hierarchy for lock-free concurrent reads: rebuilds
    whatever an edit left stale (after leaf insertions, only the
    descendant index, by one inversion) and makes every mutator raise
    {!Error}. After [freeze], no read path
    writes any internal state, so the value may be shared across OCaml
    domains (the snapshot-isolation contract in [docs/CONCURRENCY.md]).
    Idempotent. To change a frozen hierarchy, {!copy} it (the copy is
    unfrozen), mutate the copy, and republish. *)

val frozen : t -> bool

val generation : t -> int
(** A token for the hierarchy's current state, unique across the
    process: {!create} and {!copy} draw a fresh one and every mutation
    (including {!rename_node}) replaces it. A value that recorded
    [generation h] can tell whether [h] has changed since — relation
    consistency stamps rely on this. {!freeze} does not change it. *)

val domain : t -> Hr_util.Symbol.t
(** The root class's name. *)

val root : t -> node

val add_class : t -> ?parents:string list -> string -> node
(** [add_class h name] adds class [name] under the given [parents]
    (default: directly under the root). Raises {!Error} if the name is
    taken or a parent is unknown or an instance. *)

val add_instance : t -> ?parents:string list -> string -> node
(** Like {!add_class} but the node is an instance: a leaf that can never
    be given children. *)

val add_isa : t -> sub:string -> super:string -> unit
(** Adds an [isa] edge from [super] to [sub]. Raises {!Error} if it would
    create a cycle or put a child under an instance. Redundant edges are
    accepted (see {!validate}). *)

val add_preference : t -> weaker:string -> stronger:string -> unit
(** Adds a preference edge from [weaker] to [stronger]: tuples asserted on
    [stronger] bind more strongly than tuples on [weaker] wherever both
    apply, without [stronger] becoming a subset of [weaker]. *)

val find : t -> string -> node option
val find_exn : t -> string -> node
val mem : t -> string -> bool

val node_name : t -> node -> Hr_util.Symbol.t
val node_label : t -> node -> string

val is_instance : t -> node -> bool
val is_class : t -> node -> bool

val node_count : t -> int
val nodes : t -> node list
val instances : t -> node list
(** All instance nodes, in id order. *)

val classes : t -> node list
(** All class nodes including the root, in id order. *)

val parents : t -> node -> node list
(** Immediate [isa] predecessors. *)

val children : t -> node -> node list
(** Immediate [isa] successors. *)

val preference_edges : t -> (node * node) list
(** All preference edges as [(weaker, stronger)] pairs, in insertion
    order. *)

val subsumes : t -> node -> node -> bool
(** [subsumes h a b] iff [b] is reachable from [a] over [isa] edges,
    reflexively: every member of [b] is a member of [a]. *)

val strictly_subsumes : t -> node -> node -> bool

val binds_below : t -> node -> node -> bool
(** Reachability over [isa] and preference edges together — the order used
    for binding strength (paper, Appendix). [binds_below h a b] iff [b]
    binds at least as strongly as [a] wherever both apply. *)

val leaves_under : t -> node -> node list
(** The atomic extension of a node: all instance leaves reachable from it
    (the node itself if it is an instance). Classes with no instances have
    an empty extension. *)

val instance_count : t -> node -> int
(** [List.length (leaves_under h v)] in constant time: the size of [v]'s
    atomic extension, counted once per node when the descendant index is
    built ({!freeze} builds it). *)

val descendants : t -> node -> node list
(** All [isa]-reachable nodes, inclusive, in ascending id order. *)

val ancestors : t -> node -> node list
(** All nodes that reach the argument over [isa] edges, inclusive, in
    ascending id order. *)

val fold_ancestors : ?binding:bool -> t -> node -> (node -> 'a -> 'a) -> 'a -> 'a
(** Folds over {!ancestors} in the same order without building the
    list; with [~binding:true], over the nodes that reach the argument
    over [isa] and preference edges together (the [a] with
    [binds_below h a v]). *)

val intersects : t -> node -> node -> bool
(** Optimistic intersection test (paper, §3.1): [true] iff an explicit
    common descendant — class or instance — exists. *)

val intersecting : t -> node -> limit:int -> node list option
(** [intersecting h v ~limit] is every node that {!intersects} [v] — the
    ancestors of [v]'s descendants — ascending, or [None] when there are
    more than [limit] of them. The cost is bounded by [limit] nodes and
    their parent edges, whatever the size of the hierarchy. Adds the
    number of nodes it marked to the [hierarchy.cone_nodes] counter. *)

val buckets_meeting : ?keys:node array -> t -> node -> (node, 'a) Hashtbl.t -> 'a list
(** [buckets_meeting h v buckets]: the values that [buckets] (one
    binding per key, keyed by nodes of [h]) holds under every node that
    {!intersects} [v]. It reads the buckets of {!intersecting} with
    [limit] the number of keys or, when the cone is larger than that (a
    node near the root), tests each key with {!intersects}. The shorter
    side is walked, so the cost is O(min(cone of [v], keys)) plus the
    output, never more than testing every key. In no particular order.

    [~keys] names the only buckets the caller wants (each must be bound
    in [buckets]); their number is the limit and the walk tests only
    them, so a probe for the few buckets that hold, say, a tuple of one
    sign never walks the rest. The result then holds the buckets of
    every key in [keys] that meets [v], and may hold other buckets that
    meet [v] (those of the cone), which the caller passes over. *)

val maximal_common_descendants : t -> node -> node -> node list
(** The most general common descendants of two nodes: the per-coordinate
    building block of the paper's minimal conflict resolution set. Empty
    iff the nodes do not {!intersects}. If [subsumes a b], this is [[b]]. *)

type issue =
  | Redundant_isa_edge of node * node
      (** An [isa] edge implied by another path; breaks off-path preemption
          (paper, Appendix, footnote 7). *)

val validate : t -> issue list
(** Structural problems that do not prevent operation but change semantics.
    Cycles are impossible by construction. *)

val reduce : t -> unit
(** Removes all redundant [isa] edges (restores the transitive
    reduction). *)

val rename_node : t -> old_name:string -> new_name:string -> unit
(** Renames a class or instance. Raises {!Error} if [old_name] is unknown
    or [new_name] is taken. Node ids — and therefore all existing items
    in relations over this hierarchy — are unaffected. *)

val eliminate : t -> on_path:bool -> node -> unit
(** Node elimination (paper, §2.1) applied to the hierarchy itself —
    removes a class and relinks around it. Instances of the class are kept,
    relinked to its parents. *)

val pp : Format.formatter -> t -> unit
(** Indented tree rendering (nodes with several parents are printed under
    each, marked with [*]). *)

val to_dot : t -> string
