(* Consolidation tests: the paper's Figure 6 walkthrough, the universal
   negated tuple, uniqueness of the minimum, Figure 5's np-hardness
   boundary (union-subsumed tuples are NOT considered redundant), and
   the CONSOLIDATE statement under a preference edge. *)

open Hierel

let tuple_strings rel =
  List.map
    (fun (t : Relation.tuple) ->
      Format.asprintf "%a%s" Types.pp_sign t.Relation.sign
        (Item.to_string (Relation.schema rel) t.Relation.item))
    (Relation.tuples rel)
  |> List.sort String.compare

let test_fig6_walkthrough () =
  let hs = Fixtures.students () and ht = Fixtures.teachers () in
  let r = Fixtures.respects hs ht in
  let consolidated, removed = Consolidate.consolidate_verbose r in
  Alcotest.(check int) "two tuples removed" 2 (List.length removed);
  Alcotest.(check (list string)) "only the general positive tuple survives"
    [ "+(V obsequious_student, V teacher)" ]
    (tuple_strings consolidated);
  (* removals come subsumers first: the uncovered negated tuple, then
     the conflict-resolution tuple below it *)
  (match removed with
  | [ first; second ] ->
    Alcotest.(check Fixtures.sign) "negated first" Types.Neg first.Relation.sign;
    Alcotest.(check Fixtures.sign) "positive second" Types.Pos second.Relation.sign
  | _ -> Alcotest.fail "expected two removals");
  Alcotest.(check bool) "extension preserved" true (Flatten.equal_extension r consolidated)

let test_conflict_resolver_not_redundant_alone () =
  (* §3.2: the (obsequious, incoherent) resolver looks redundant next to
     the more general positive tuple, but deleting it alone (while the
     negation stays) produces an inconsistent relation — consolidation must
     remove the negation first, never the resolver alone. *)
  let hs = Fixtures.students () and ht = Fixtures.teachers () in
  let r = Fixtures.respects hs ht in
  let schema = Relation.schema r in
  let resolver = Item.of_names schema [ "obsequious_student"; "incoherent_teacher" ] in
  let hasty = Relation.remove r resolver in
  Alcotest.(check bool) "hasty deletion breaks consistency" false
    (Integrity.is_consistent hasty);
  Alcotest.(check bool) "consolidation result is consistent" true
    (Integrity.is_consistent (Consolidate.consolidate r))

let test_uncovered_negative_redundant () =
  let h = Fixtures.animals () in
  let schema = Fixtures.flies_schema h in
  let r =
    Relation.of_tuples ~name:"flies" schema
      [ (Types.Neg, [ "penguin" ]) ]
  in
  let consolidated = Consolidate.consolidate r in
  Alcotest.(check int) "bare negation vanishes" 0 (Relation.cardinality consolidated)

let test_duplicate_positive_redundant () =
  let h = Fixtures.animals () in
  let schema = Fixtures.flies_schema h in
  let r =
    Relation.of_tuples ~name:"flies" schema
      [ (Types.Pos, [ "bird" ]); (Types.Pos, [ "canary" ]); (Types.Pos, [ "tweety" ]) ]
  in
  let consolidated = Consolidate.consolidate r in
  Alcotest.(check (list string)) "chain collapses to the most general"
    [ "+(V bird)" ] (tuple_strings consolidated)

let test_exception_chain_kept () =
  let h = Fixtures.animals () in
  let flies = Fixtures.flies h in
  let consolidated = Consolidate.consolidate flies in
  (* peter's tuple is genuinely needed; the chain has alternating signs *)
  Alcotest.(check int) "all four kept" 4 (Relation.cardinality consolidated)

let test_idempotent () =
  let hs = Fixtures.students () and ht = Fixtures.teachers () in
  let r = Fixtures.respects hs ht in
  let once = Consolidate.consolidate r in
  let twice = Consolidate.consolidate once in
  Alcotest.(check bool) "idempotent" true (Relation.equal once twice);
  Alcotest.(check bool) "is_consolidated" true (Consolidate.is_consolidated once)

let test_fig5_union_subsumption_not_redundant () =
  (* Figure 5: C ⊆ A ∪ B but neither A nor B alone covers C. A tuple on C
     must survive consolidation (detecting it is np-hard and semantically
     fragile). *)
  let module Hierarchy = Hr_hierarchy.Hierarchy in
  let h = Hierarchy.create "d" in
  ignore (Hierarchy.add_class h "a");
  ignore (Hierarchy.add_class h "b");
  ignore (Hierarchy.add_class h "c");
  ignore (Hierarchy.add_instance h ~parents:[ "a"; "c" ] "x1");
  ignore (Hierarchy.add_instance h ~parents:[ "b"; "c" ] "x2");
  let schema = Schema.make [ ("v", h) ] in
  let r =
    Relation.of_tuples ~name:"r" schema
      [ (Types.Pos, [ "a" ]); (Types.Pos, [ "b" ]); (Types.Pos, [ "c" ]) ]
  in
  let consolidated = Consolidate.consolidate r in
  Alcotest.(check int) "c retained" 3 (Relation.cardinality consolidated)

let test_consolidate_empty () =
  let h = Fixtures.animals () in
  let r = Relation.empty ~name:"e" (Fixtures.flies_schema h) in
  Alcotest.(check int) "empty stays empty" 0
    (Relation.cardinality (Consolidate.consolidate r))

(* b is preferred over a, so -b binds z more strongly than +a. The
   stored -b has no subsumer, so consolidating the stored tuples alone
   would drop it and turn z positive; CONSOLIDATE consolidates the
   closure, where z carries its own verdict. *)
let test_preference_keeps_verdicts () =
  let cat = Catalog.create () in
  let script =
    "CREATE DOMAIN d; CREATE CLASS b UNDER d; CREATE CLASS a UNDER d; CREATE PREFERENCE b \
     OVER a; CREATE INSTANCE z OF a, b; CREATE INSTANCE y OF a; CREATE RELATION r (x: d); \
     INSERT INTO r VALUES (+ ALL a), (- ALL b); ASK r (z); SELECT * FROM CONSOLIDATED r; \
     CONSOLIDATE r; ASK r (z); ASK r (y); SELECT * FROM r;"
  in
  match Hr_query.Eval.run_script cat script with
  | Error e -> Alcotest.fail e
  | Ok outs ->
    let outs = List.filteri (fun i _ -> i >= List.length outs - 6) outs in
    let table =
      "r (2 tuples)\n+---+-----+\n|   | x   |\n+---+-----+\n| + | V a |\n| - | z   |\n\
       +---+-----+\n"
    in
    Alcotest.(check (list string))
      "z stays out"
      [
        "- (by (V b))";
        table;
        "r consolidated: 1 redundant tuple(s) removed, 2 remain";
        "- (by (z))";
        "+ (by (V a))";
        table;
      ]
      outs

let suite =
  [
    Alcotest.test_case "fig6: respects consolidates to one tuple" `Quick test_fig6_walkthrough;
    Alcotest.test_case "resolver protected while negation present" `Quick
      test_conflict_resolver_not_redundant_alone;
    Alcotest.test_case "uncovered negation is redundant" `Quick test_uncovered_negative_redundant;
    Alcotest.test_case "same-sign chain collapses" `Quick test_duplicate_positive_redundant;
    Alcotest.test_case "alternating chain kept" `Quick test_exception_chain_kept;
    Alcotest.test_case "idempotence" `Quick test_idempotent;
    Alcotest.test_case "fig5: union subsumption not redundant" `Quick
      test_fig5_union_subsumption_not_redundant;
    Alcotest.test_case "empty relation" `Quick test_consolidate_empty;
    Alcotest.test_case "CONSOLIDATE keeps verdicts under preferences" `Quick
      test_preference_keeps_verdicts;
  ]
