(* The commutativity oracle: do two HRQL statements commute?

   Sound by construction, never complete: [Commute] is only answered
   when every same-relation atom pair involving a write has provably
   disjoint cones — any ⊤ coordinate, unknown relation, arity mismatch
   or DDL degrades the answer to [Unknown], which every consumer treats
   as conflicting. The full argument (including why overlapping
   SAME-sign writes must conflict — ambiguity-constraint acceptance in
   Txn.commit is order-sensitive) lives in docs/EFFECTS.md, and the
   differential harness in test/test_effect.ml holds the oracle to it:
   whenever it answers [Commute] for a random pair, both application
   orders must yield byte-identical flattened catalogs. *)

module Ast = Hr_query.Ast
open Hierel

let m_footprints = Hr_obs.Metrics.counter "effect.footprints"
let m_commute = Hr_obs.Metrics.counter "effect.oracle_commute"
let m_conflict = Hr_obs.Metrics.counter "effect.oracle_conflict"
let m_unknown = Hr_obs.Metrics.counter "effect.oracle_unknown"

type overlap = {
  o_rel : string;
  o_left : Footprint.atom;
  o_right : Footprint.atom;
  o_incomparable : bool;
      (** neither item subsumes the other: the carved cones are
          incomparable (lint W110 fires only on these) *)
}

type verdict =
  | Commute
  | Conflict of overlap list  (** at least one proven overlap *)
  | Unknown of string  (** unresolvable; treat as conflicting *)

let footprint ~find stmt =
  Hr_obs.Metrics.incr m_footprints;
  Footprint.of_statement ~find stmt

(* [unsound_oracle] is a test-only seeded bug (mirroring test_mc.ml's
   unsafe-publish switch): it wrongly declares overlapping
   opposite-sign write pairs commuting. The differential harness must
   catch it — if it ever stops failing under this flag, the harness has
   lost its teeth. *)
let commutes_fp ?(unsound_oracle = false) a b =
  let count v =
    (match v with
    | Commute -> Hr_obs.Metrics.incr m_commute
    | Conflict _ -> Hr_obs.Metrics.incr m_conflict
    | Unknown _ -> Hr_obs.Metrics.incr m_unknown);
    v
  in
  match (a, b) with
  | Footprint.Opaque r, _ | _, Footprint.Opaque r ->
    count (Unknown ("opaque footprint: " ^ r))
  | Footprint.Atoms xs, Footprint.Atoms ys ->
    let conflicts = ref [] and unknown = ref None in
    List.iter
      (fun (x : Footprint.atom) ->
        List.iter
          (fun (y : Footprint.atom) ->
            if
              x.Footprint.rel = y.Footprint.rel
              && (x.Footprint.mode = Footprint.Write
                 || y.Footprint.mode = Footprint.Write)
            then
              match Footprint.compare_cones x y with
              | Footprint.Disjoint -> ()
              | Footprint.Overlap ->
                let buggy_skip =
                  unsound_oracle
                  && x.Footprint.mode = Footprint.Write
                  && y.Footprint.mode = Footprint.Write
                  &&
                  match (x.Footprint.sign, y.Footprint.sign) with
                  | Some Types.Pos, Some Types.Neg
                  | Some Types.Neg, Some Types.Pos ->
                    true
                  | _ -> false
                in
                if not buggy_skip then
                  conflicts :=
                    {
                      o_rel = x.Footprint.rel;
                      o_left = x;
                      o_right = y;
                      o_incomparable = Footprint.incomparable x y;
                    }
                    :: !conflicts
              | Footprint.May_overlap ->
                if !unknown = None then
                  unknown :=
                    Some
                      (Printf.sprintf
                         "cones over %s cannot be proven disjoint"
                         x.Footprint.rel))
          ys)
      xs;
    count
      (match (!conflicts, !unknown) with
      | (_ :: _ as cs), _ -> Conflict (List.rev cs)
      | [], Some reason -> Unknown reason
      | [], None -> Commute)

let commutes ?unsound_oracle ~find s1 s2 =
  commutes_fp ?unsound_oracle (footprint ~find s1) (footprint ~find s2)

let verdict_label = function
  | Commute -> "commute"
  | Conflict _ -> "conflict"
  | Unknown _ -> "unknown"

(* ---- EXPLAIN EFFECTS --------------------------------------------------- *)

let explain cat stmt =
  let find name = Catalog.find_relation cat name in
  let fp = footprint ~find stmt in
  let b = Buffer.create 128 in
  Buffer.add_string b (Footprint.to_string fp);
  (match fp with
  | Footprint.Opaque _ ->
    Buffer.add_string b
      "\nany reordering across this statement is unsound (oracle: unknown)"
  | Footprint.Atoms atoms ->
    let writes = List.filter (fun a -> a.Footprint.mode = Footprint.Write) atoms in
    let widened =
      List.exists (fun (a : Footprint.atom) ->
          match a.Footprint.cones with
          | None -> true
          | Some cs -> Array.exists (fun c -> c = Footprint.Top) cs)
        atoms
    in
    Buffer.add_string b
      (Printf.sprintf "\n%d atom(s), %d write(s)%s" (List.length atoms)
         (List.length writes)
         (if widened then
            "; \xe2\x8a\xa4 coordinates present \xe2\x80\x94 the oracle will \
             answer unknown for overlap questions involving them"
          else "")));
  Buffer.contents b

(* Registration of the EXPLAIN EFFECTS renderer into the evaluator, the
   same late-binding trick as {!Estimate}: hr_query cannot depend on
   hr_analysis, so the evaluator holds a ref this module fills at link
   time. *)
let () = Hr_query.Eval.set_effects_renderer (fun cat stmt -> Ok (explain cat stmt))
let ensure_registered () = ()
