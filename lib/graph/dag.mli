(** Mutable directed acyclic graphs over dense integer node ids.

    This is the substrate under the hierarchy graphs of the data model
    (Section 2 of the paper); relations answer subsumption through their
    binding index and build no graph. Nodes are allocated by the graph; edges carry
    a kind: [Isa] edges denote set inclusion and participate in membership
    semantics, [Preference] edges only influence binding strength (paper,
    Appendix). Graphs are not forced acyclic on every edge insertion —
    acyclicity (the paper's {e type-irredundancy constraint}) is enforced
    by callers; {!topo_sort} refuses a cyclic graph.

    All traversals ignore nodes removed with {!remove_node} or
    {!eliminate_node}. *)

type edge_kind = Isa | Preference

type t

val create : unit -> t

val copy : t -> t
(** Deep copy; subsequent mutations are independent. *)

val add_node : t -> int
(** Allocates a fresh node and returns its id. Ids are consecutive from 0
    and are never reused, even after removal. *)

val capacity : t -> int
(** One more than the largest id ever allocated. *)

val is_alive : t -> int -> bool

val live_nodes : t -> int list
(** All non-removed nodes, in increasing id order. *)

val live_count : t -> int

val add_edge : t -> ?kind:edge_kind -> int -> int -> unit
(** [add_edge g u v] inserts an edge [u -> v] ([kind] defaults to [Isa]).
    Duplicate (same endpoints, same kind) insertions are ignored. Raises
    [Invalid_argument] if either endpoint is dead or [u = v]. *)

val succs : t -> ?kinds:(edge_kind -> bool) -> int -> int list
(** Direct successors through edges whose kind satisfies [kinds]
    (default: all kinds). *)

val preds : t -> ?kinds:(edge_kind -> bool) -> int -> int list

val succs_ordered : t -> ?kinds:(edge_kind -> bool) -> int -> int list
(** Like {!succs} but in edge-insertion order rather than id order —
    hierarchies use this to preserve parent declaration order for
    left-precedence front ends. *)

val preds_ordered : t -> ?kinds:(edge_kind -> bool) -> int -> int list

val remove_node : t -> int -> unit
(** Deletes the node and its incident edges, {e without} relinking
    predecessors to successors. Compare {!eliminate_node}. *)

val eliminate_node : t -> on_path:bool -> int -> unit
(** The paper's node elimination procedure (Section 2.1): delete the node
    and its incident edges, then for each former immediate predecessor [j]
    in reverse topological order and each former immediate successor [k] in
    topological order, insert a bypass edge [j -> k] — unless
    [not on_path] and a path [j ->* k] already exists. With
    [on_path:false] this preserves the transitive reduction (off-path
    preemption); with [on_path:true] redundant bypass edges are retained
    (on-path preemption, paper Appendix). Bypass edges are [Isa] edges.
    Requires the graph to be acyclic. A node without predecessors or
    without successors is simply removed, without ordering the graph;
    otherwise one topological sort plus, off-path, one walk per former
    predecessor over what it reaches. *)

val reachable : t -> ?kinds:(edge_kind -> bool) -> int -> int -> bool
(** [reachable g u v] is [true] iff [u = v] or a directed path of live
    edges (with kinds satisfying [kinds]) leads from [u] to [v]. A
    depth-first walk whose cost, space included, is bounded by the
    nodes it visits, not by the graph's size. *)

val descendants : t -> ?kinds:(edge_kind -> bool) -> int -> int list
(** All nodes reachable from the argument, including itself. *)

val ancestors : t -> ?kinds:(edge_kind -> bool) -> int -> int list
(** All nodes that reach the argument, including itself. *)

val topo_sort : t -> int list
(** Topological order of live nodes (ancestors first). Raises
    [Invalid_argument] on a cyclic graph. *)

val transitive_reduction : t -> unit
(** Removes every [Isa] edge [u -> v] for which another [u ->* v] path of
    live edges exists. The paper requires hierarchy graphs to be kept
    transitively reduced for off-path preemption (Appendix, footnote 7).
    Requires acyclicity. *)

val redundant_edges : t -> (int * int) list
(** The [Isa] edges that {!transitive_reduction} would delete. *)

val to_dot : ?label:(int -> string) -> t -> string
(** Graphviz rendering, mainly for debugging and documentation. Preference
    edges are dashed. *)

module Ancestry : sig
  (** Per-node ancestor sets: for each node, the nodes that reach it,
      itself included, as an ascending array plus a one-word signature
      that rejects most non-members without a search. Space is the sum
      of the ancestor-set sizes, never V². A set is a value: nothing
      mutates one after it is built, so sets may be shared between
      copies of a graph's owner. *)

  type dag := t

  type set

  val empty : set
  (** The set of a removed or not yet allocated node. *)

  val build : ?kinds:(edge_kind -> bool) -> dag -> set array
  (** One topological pass over the edges whose kind satisfies [kinds]
      (default: all). The result is indexed by node id, {!capacity}
      slots; removed nodes hold {!empty}. Raises [Invalid_argument] on a
      cyclic graph. *)

  val extend : set list -> int -> set
  (** [extend parents v] is the ancestor set of a node [v] whose
      immediate predecessors have the ancestor sets [parents]: their
      union, plus [v]. *)

  val mem : set -> int -> bool
  (** [mem anc u] iff [u] is in [anc] — with [anc] the ancestor set of
      [v], iff [u] reaches [v]. A signature test, then a binary search;
      each call counts one [graph.reach.queries]. *)

  val invert : set array -> int -> int array * int array
  (** [invert sets n] is the inverse relation over nodes [0 .. n-1]:
      [(start, members)] such that the nodes whose sets contain [u] are
      [members.(start.(u))] to [members.(start.(u + 1) - 1)], ascending.
      Two allocations; time is [n] plus the sum of the set sizes. *)

  val to_list : set -> int list
  (** Ascending. *)

  val fold : (int -> 'a -> 'a) -> set -> 'a -> 'a
  (** Over the members in ascending order, allocating nothing. *)
end
