(* Fuzz-style safety properties: parsers must fail only with their
   declared exceptions, whatever the input — plus a differential sweep
   pitting random operator pipelines against the flat (traditional)
   baseline: flattening the hierarchical result must equal running the
   plain relational operators on the flattened inputs (paper §3.4). *)

module Lexer = Hr_query.Lexer
module Parser = Hr_query.Parser
module Flat_relation = Hr_flat.Flat_relation
module Traditional = Hr_flat.Traditional
module Workload = Hr_workload.Workload
module Prng = Hr_util.Prng
module Hierarchy = Hr_hierarchy.Hierarchy
module Metrics = Hr_obs.Metrics
open Hierel

(* Deterministic replay: every property's random state derives from one
   integer seed, printed up front so a failing CI run can be replayed
   locally with [HRDB_TEST_SEED=n dune runtest]. Unset, the seed varies
   run to run so repeated runs keep exploring new inputs. *)
let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None -> Int64.to_int (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let () =
  Printf.eprintf "test_fuzz: property RNG seed %d (replay with HRDB_TEST_SEED=%d)\n%!" seed
    seed

let printable_gen = QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 120))

let prop_lexer_total =
  QCheck2.Test.make ~name:"lexer is total up to Lex_error" ~count:500 printable_gen
    (fun input ->
      match Lexer.tokenize input with
      | _ -> true
      | exception Lexer.Lex_error _ -> true)

let prop_parser_total =
  QCheck2.Test.make ~name:"parser is total up to Parse/Lex errors" ~count:500 printable_gen
    (fun input ->
      match Parser.parse input with
      | _ -> true
      | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> true)

let prop_snapshot_decoder_total =
  QCheck2.Test.make ~name:"snapshot decoder is total up to Corrupt_snapshot" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 300))
    (fun input ->
      match Hr_storage.Snapshot.decode input with
      | _ -> true
      | exception Hr_storage.Snapshot.Corrupt_snapshot _ -> true)

(* ---- differential sweep: lifted operators vs the flat baseline -------- *)

(* Fresh name prefixes per seed keep hierarchies independent of the other
   test modules' workloads (symbols are global). *)
let hierarchy_of_seed seed =
  let g = Prng.create (Int64.of_int seed) in
  Workload.random_hierarchy g
    {
      Workload.name = Printf.sprintf "fz%d" seed;
      classes = 8;
      instances = 12;
      multi_parent_prob = 0.25;
    }

let relation_of_seed ?(tuples = 8) schema seed =
  let g = Prng.create (Int64.of_int ((seed * 7919) + 1)) in
  Workload.consistent_random_relation g schema
    {
      Workload.rel_name = Printf.sprintf "fzr%d" seed;
      tuples;
      neg_fraction = 0.35;
      instance_fraction = 0.3;
    }

(* The flat witness of a class: the labels of its atomic extension,
   computed by [leaves_under] — a different algorithm than the
   subsumption machinery the lifted select exercises. *)
module String_set = Set.Make (String)

let member_labels h v =
  List.fold_left
    (fun acc node -> String_set.add (Hierarchy.node_label h node) acc)
    String_set.empty (Hierarchy.leaves_under h v)

(* A pipeline is a list of stage codes, each applied simultaneously to
   the hierarchical relation and to its flat (fully explicated) mirror:

     0  select on a random class   (flat: filter by extension membership)
     1  consolidate                (flat: identity — extension preserved)
     2  explicate                  (flat: identity — extension produced)
     3  union with r2              4  intersect with r2     5  except r2

   Plain [project] is deliberately absent: it is not extension-preserving
   in general (projecting the full explication is), so it has no flat
   mirror to test against. *)
let pipeline_gen =
  QCheck2.Gen.(pair (int_range 1 100_000) (list_size (int_range 1 5) (int_range 0 5)))

let apply_stage h r2 flat2 g (rel, flat) = function
  | 0 ->
    let v = Prng.pick g (Array.of_list (Hierarchy.classes h)) in
    let value = Hierarchy.node_label h v in
    let members = member_labels h v in
    ( Ops.select rel ~attr:"v" ~value,
      Flat_relation.select_by flat (fun row ->
          String_set.mem (List.hd row) members) )
  | 1 -> (Consolidate.consolidate rel, flat)
  | 2 -> (Explicate.explicate rel, flat)
  | 3 -> (Ops.union rel r2, Flat_relation.union flat flat2)
  | 4 -> (Ops.inter rel r2, Flat_relation.inter flat flat2)
  | _ -> (Ops.diff rel r2, Flat_relation.diff flat flat2)

let prop_pipeline_differential =
  QCheck2.Test.make ~name:"random pipelines agree with the flat baseline" ~count:60
    pipeline_gen (fun (seed, stages) ->
      Metrics.with_enabled true (fun () ->
          let h = hierarchy_of_seed seed in
          let schema = Schema.make [ ("v", h) ] in
          let r1 = relation_of_seed schema (seed * 2) in
          let r2 = Relation.with_name (relation_of_seed schema ((seed * 2) + 1)) "fz_r2" in
          let subs0 = Metrics.counter_value "hierarchy.subsumption_checks" in
          let flat1 = Traditional.extension_relation r1 in
          let flat2 = Traditional.extension_relation r2 in
          let g = Prng.create (Int64.of_int (seed + 13)) in
          let rel, flat =
            List.fold_left (apply_stage h r2 flat2 g) (r1, flat1) stages
          in
          let agreed = Flat_relation.equal (Traditional.extension_relation rel) flat in
          (* a non-trivial run must have exercised the subsumption path *)
          let counted =
            Relation.cardinality r1 = 0
            || Metrics.counter_value "hierarchy.subsumption_checks" > subs0
          in
          agreed && counted))

let prop_select_over_join_differential =
  QCheck2.Test.make ~name:"select over join agrees with the flat baseline" ~count:25
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      Metrics.with_enabled true (fun () ->
          let h1 = hierarchy_of_seed (seed + 200_000) in
          let h2 = hierarchy_of_seed (seed + 300_000) in
          let s1 = Schema.make [ ("a", h1); ("b", h2) ] in
          let s2 = Schema.make [ ("b", h2); ("c", h1) ] in
          let r1 = relation_of_seed ~tuples:5 s1 (seed * 11) in
          let r2 = Relation.with_name (relation_of_seed ~tuples:5 s2 ((seed * 11) + 7)) "fzj2" in
          let verdicts0 = Metrics.counter_value "core.binding.verdicts" in
          let g = Prng.create (Int64.of_int (seed + 29)) in
          let v = Prng.pick g (Array.of_list (Hierarchy.classes h1)) in
          let members = member_labels h1 v in
          let joined = Ops.join r1 r2 in
          let lifted = Ops.select joined ~attr:"a" ~value:(Hierarchy.node_label h1 v) in
          let flat =
            Flat_relation.select_by
              (Flat_relation.join (Traditional.extension_relation r1)
                 (Traditional.extension_relation r2))
              (fun row -> String_set.mem (List.hd row) members)
          in
          let agreed = Flat_relation.equal (Traditional.extension_relation lifted) flat in
          (* selecting from an empty join computes no verdict *)
          let counted =
            Relation.cardinality joined = 0
            || Metrics.counter_value "core.binding.verdicts" > verdicts0
          in
          agreed && counted))

let suite =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]))
    [
      prop_lexer_total;
      prop_parser_total;
      prop_snapshot_decoder_total;
      prop_pipeline_differential;
      prop_select_over_join_differential;
    ]
