(** The equivalent flat relation (paper, §2.2).

    "Every hierarchical relation must be equivalent to a unique flat
    relation for a given item hierarchy." This module materializes that
    extension; it is the semantic yardstick every operator is tested
    against. *)

module Item_set : Set.S with type elt = Item.t

val extension : Relation.t -> Item_set.t
(** The set of atomic items satisfying the relation (positive tuples of a
    full explication). Finite because class extensions enumerate declared
    instances. A conflicted relation raises {!Types.Model_error}, as a
    selection does. *)

val extension_list : Relation.t -> Item.t list

val equal_extension : Relation.t -> Relation.t -> bool
(** Extensional equivalence of two relations over equal schemas. *)
