(** Tuple subsumption (paper, §2.1, §3.2–3.3).

    A tuple's immediate predecessors are its minimal strict subsumers
    among the relation's tuples ([isa] only — set inclusion, not binding
    preference), with the virtual {e universal negated tuple} over D⁺
    (§3.2) standing in when there is none. Consolidation decides every
    tuple against its minimal surviving subsumers; no graph is built. *)

val minimal : Schema.t -> ('a -> Item.t) -> 'a list -> 'a list
(** [minimal schema item above]: given the strict subsumers [above] of
    one item (through [item]), those that strictly subsume no other
    member of [above], in the order of [above] — the item's immediate
    predecessors among them. The test consolidation decides a tuple by. *)

val pp : Format.formatter -> Relation.t -> unit
(** The paper's subsumption graph, one line per edge [u -> v], tuples
    rendered in paper style: each tuple's minimal strict subsumers,
    read through the binding index ({!Relation.candidates}), or
    [UNIVERSAL-] when it has none. Edges are grouped by subsumer in
    item order, the universal tuple's last. *)
