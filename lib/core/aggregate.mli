(** Statistical operations over hierarchical relations.

    The paper motivates explication precisely here (§3.3.2): "This
    operator is useful when a count, average, or other statistical
    operation is to be performed over the relation." These helpers count
    the atoms of the equivalent flat relation without listing them, so
    callers never mistake the stored tuple count for the real
    cardinality. They close the operand's items under maximal common
    descendants ({!Ops.refine} without consolidation) and give each
    closure item a weight: 1 if its verdict ({!Binding.truth}) is
    positive, else 0, less the weights of the closure items that
    strictly subsume it. An item of weight [w] adds [w] times the size
    of its atomic extension, read from
    {!Hr_hierarchy.Hierarchy.instance_count} per coordinate
    (docs/SEMANTICS.md §6, Lemma C). So a class tuple costs one closure
    item, however many instances it covers. A conflict in the operand
    raises {!Types.Model_error}, as a selection does. *)

val count : Relation.t -> int
(** Cardinality of the equivalent flat relation. *)

val count_by : Relation.t -> attr:string -> (Hr_hierarchy.Hierarchy.node * int) list
(** Group the extension by the instance in position [attr]: one pair per
    instance with a non-zero count, in instance order. For a
    single-attribute relation this is the membership indicator. *)

val count_under :
  Relation.t -> attr:string -> cls:string -> int
(** Members of the extension whose [attr] coordinate falls under [cls] —
    "how many flying creatures are penguins?". *)

val histogram : Relation.t -> attr:string -> (string * int) list
(** {!count_by} with labels, sorted by descending count then name; ready
    for printing. *)
