(** Semantic differencing of hierarchical relations.

    Two relations over the same schema can differ in stored form without
    differing in meaning (that is the whole point of consolidation), so a
    useful diff has two layers:

    - the {e extensional} diff — atomic items gained and lost, i.e. how
      the equivalent flat relations differ (what a downstream reader
      observes);
    - the {e intensional} diff — stored tuples added, removed, or
      re-signed (what a reviewer of the stored policy/knowledge sees).

    Typical uses: auditing a policy change before commit, showing what a
    transaction would do, and regression-checking imports. *)

type t = {
  gained : Item.t list;  (** atomic items true in [next] but not [prev] *)
  lost : Item.t list;  (** atomic items true in [prev] but not [next] *)
  added_tuples : Relation.tuple list;  (** stored in [next] only *)
  removed_tuples : Relation.tuple list;  (** stored in [prev] only *)
  resigned : (Item.t * Types.sign) list;
      (** same item stored in both with opposite signs; the sign given is
          the new one *)
}

val diff : prev:Relation.t -> next:Relation.t -> t
(** Raises {!Types.Model_error} if the schemas differ or either relation
    is conflicted (it has no extension, {!Flatten.extension}). *)

val is_semantic_noop : t -> bool
(** No extensional change (the stored form may still differ — e.g. after
    a consolidation). *)

val pp : Schema.t -> Format.formatter -> t -> unit
