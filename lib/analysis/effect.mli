(** The commutativity oracle over statement {!Footprint}s.

    Sound, never complete: [Commute] only when every same-relation atom
    pair involving a write has provably disjoint cones; anything
    unresolvable is [Unknown] and must be treated as conflicting.
    Soundness argument and consumer contract: docs/EFFECTS.md; held to
    account by the differential harness in test/test_effect.ml. *)

type overlap = {
  o_rel : string;
  o_left : Footprint.atom;
  o_right : Footprint.atom;
  o_incomparable : bool;
      (** neither item subsumes the other (lint W110 fires only on
          these: subsumption-related overlaps are the paper's exception
          idiom and stay silent) *)
}

type verdict =
  | Commute
  | Conflict of overlap list  (** at least one proven overlap *)
  | Unknown of string  (** unresolvable; treat as conflicting *)

val footprint :
  find:(string -> Hierel.Relation.t option) -> Hr_query.Ast.statement -> Footprint.t
(** {!Footprint.of_statement} plus the [effect.footprints] metric. *)

val commutes_fp : ?unsound_oracle:bool -> Footprint.t -> Footprint.t -> verdict
(** Both footprints must have been resolved against the same catalog
    state. [unsound_oracle] (default false) is a test-only seeded bug:
    overlapping opposite-sign write pairs are wrongly declared
    commuting. The soundness harness must catch it. *)

val commutes :
  ?unsound_oracle:bool ->
  find:(string -> Hierel.Relation.t option) ->
  Hr_query.Ast.statement ->
  Hr_query.Ast.statement ->
  verdict

val verdict_label : verdict -> string

val explain : Hierel.Catalog.t -> Hr_query.Ast.statement -> string
(** The text behind [EXPLAIN EFFECTS <stmt>;]. *)

val ensure_registered : unit -> unit
(** Force linkage so the evaluator's [EXPLAIN EFFECTS] hook is filled
    (same pattern as {!Estimate.ensure_registered}). *)
