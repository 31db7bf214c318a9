(** The subsumption graph of a relation (paper, §2.1, §3.2–3.3).

    Nodes are the stored tuples plus the virtual {e universal negated
    tuple} over D⁺ (§3.2); edges are the transitive reduction of strict
    item subsumption ([isa] only — set inclusion, not binding preference),
    with the universal root pointing at every tuple that has no other
    predecessor. Consolidation and explication both traverse this graph. *)

type t

val build : Relation.t -> t
(** Each tuple's strict subsumers come from the relation's binding index
    ({!Relation.candidates}, built on first use), not from a test of
    every other tuple: the cost is the sum over tuples of their candidate
    lists plus, per tuple, the square of its subsumer count (for the
    transitive reduction), instead of n² subsumption tests. *)

val minimal : Schema.t -> ('a -> Item.t) -> 'a list -> 'a list
(** [minimal schema item above]: given the strict subsumers [above] of
    one item (through [item]), those that strictly subsume no other
    member of [above], in the order of [above] — the item's immediate
    predecessors among them. The test {!build} draws each edge with, and
    the one consolidation decides an atomic tuple by. *)

val relation : t -> Relation.t
(** The relation the graph was built from. *)

val tuple_count : t -> int

val tuple : t -> int -> Relation.tuple
(** Tuples are numbered [0 .. tuple_count - 1]. *)

val root : t -> int
(** Node id of the universal negated tuple ([= tuple_count]). *)

val dag : t -> Hr_graph.Dag.t
(** The underlying graph; mutating it is allowed (consolidation eliminates
    nodes in place) and does not affect the source relation. *)

val sign_of_node : t -> int -> Types.sign
(** Sign of a tuple node, or [Neg] for the root. *)

val topological : t -> int list
(** Live nodes, most general first (the root leads). *)

val preds : t -> int -> int list
val succs : t -> int -> int list

val pp : Format.formatter -> t -> unit
(** One line per edge, tuples rendered in paper style. *)
