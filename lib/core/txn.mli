(** Transactions with commit-time integrity (paper, §3.1).

    A transaction stages new versions of relations against a catalog.
    Intermediate states may violate the ambiguity constraint ("if an
    update creates a conflict, within the same transaction, before the
    update is committed, other updates must be made that resolve the
    conflict"); {!commit} checks every touched relation and refuses to
    publish any of them if one is still conflicted. Transactions are not
    concurrent — this is the paper's single-user consistency discipline,
    not an isolation protocol. *)

type t

type violation = { relation_name : string; conflicts : Integrity.conflict list }

val begin_ : Catalog.t -> t

val insert : t -> rel:string -> Types.sign -> string list -> unit
(** Stages the addition of one signed tuple, given by attribute-value
    names. Raises {!Types.Model_error} on a direct contradiction (same
    item, opposite sign). *)

val delete : t -> rel:string -> string list -> unit
(** Stages removal of the exactly-matching tuple; no-op if absent. *)

val insert_item : t -> rel:string -> Types.sign -> Item.t -> unit
val delete_item : t -> rel:string -> Item.t -> unit

val current : t -> string -> Relation.t
(** The staged version of a relation (reads-your-writes). *)

val staged : t -> Relation.t list
(** All touched relations, staged versions. *)

val conflicts : t -> ?semantics:Types.semantics -> string -> Integrity.conflict list
(** Conflicts the named relation would have if committed now — lets a
    front end repair before commit. *)

val commit : t -> (unit, violation list) result
(** Publishes every staged relation, atomically, iff all satisfy the
    ambiguity constraint under the paper's off-path semantics. On
    [Error] nothing is published and the transaction stays open for
    repair.

    The check is delta-scoped. Each staged relation remembers its base
    (the catalog value it was first derived from) and the items the
    transaction touched. If the base carries a valid consistency stamp
    ({!Relation.verified}), only the opposite-sign pairs with a member
    in the affected set are swept ({!Integrity.affected},
    {!Integrity.sweep}); otherwise every pair is, and
    [core.integrity.unverified_commits] is incremented. The decision is
    the same as {!Integrity.check}'s either way (the rule and its
    soundness are in [integrity.mli]). A rejected relation's
    [conflicts] is always the full {!Integrity.check} list. Published
    relations are stamped, so the next commit is delta-scoped again.

    Stricter semantics stay available through {!conflicts} and
    {!Integrity.check}. *)

val abort : t -> unit
(** Discards all staged versions. The transaction can be reused. *)
