(* Lifted relational operators: Figures 7–11 of the paper, plus
   flat-equivalence checks of every operator. *)

open Hierel

let tuple_strings rel =
  List.map
    (fun (t : Relation.tuple) ->
      Format.asprintf "%a%s" Types.pp_sign t.Relation.sign
        (Item.to_string (Relation.schema rel) t.Relation.item))
    (Relation.tuples rel)
  |> List.sort String.compare

(* -- Figure 7: who do obsequious students respect? -------------------- *)

let test_fig7 () =
  let hs = Fixtures.students () and ht = Fixtures.teachers () in
  let r = Fixtures.respects hs ht in
  let result = Ops.select r ~attr:"student" ~value:"obsequious_student" in
  Alcotest.(check (list string)) "all teachers"
    [ "+(V obsequious_student, V teacher)" ]
    (tuple_strings result)

(* -- Figure 8: who does John respect? --------------------------------- *)

let test_fig8 () =
  let hs = Fixtures.students () and ht = Fixtures.teachers () in
  let r = Fixtures.respects hs ht in
  let result = Ops.select r ~attr:"student" ~value:"john" in
  Alcotest.(check (list string)) "john respects all teachers"
    [ "+(john, V teacher)" ]
    (tuple_strings result)

let test_select_mary () =
  (* mary is a plain student: respects everyone except incoherents *)
  let hs = Fixtures.students () and ht = Fixtures.teachers () in
  let r = Fixtures.respects hs ht in
  let result = Ops.select r ~attr:"student" ~value:"mary" in
  Fixtures.check_holds result [ "mary"; "jones" ] false "mary has no positive tuple";
  Alcotest.(check bool) "mary/smith false" false
    (Binding.holds result (Item.of_names (Relation.schema r) [ "mary"; "smith" ]))

(* -- Figure 9: selection with justification --------------------------- *)

let test_fig9 () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let result, applicable = Ops.select_justified color ~attr:"animal" ~value:"clyde" in
  Fixtures.check_holds result [ "clyde"; "dappled" ] true "clyde dappled";
  Fixtures.check_holds result [ "clyde"; "grey" ] false "clyde not grey";
  (* justification: every stored tuple mentions an ancestor of clyde *)
  Alcotest.(check int) "all five tuples applicable" 5 (List.length applicable)

let test_select_whole_domain_is_identity_extension () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let result = Ops.select color ~attr:"animal" ~value:"animal" in
  Alcotest.(check bool) "same extension" true (Flatten.equal_extension color result)

let test_select_empty_region () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let result = Ops.select color ~attr:"animal" ~value:"african_elephant" in
  (* africans are grey but have no instances; selection keeps the class
     tuple *)
  Fixtures.check_holds result [ "african_elephant"; "grey" ] true "class-level truth kept"

(* -- Figure 10: set operations ---------------------------------------- *)

let fig10 () =
  let h = Fixtures.animals () in
  (h, Fixtures.jack_loves h, Fixtures.jill_loves h)

let ext rel =
  List.map (Item.to_string (Relation.schema rel)) (Flatten.extension_list rel)
  |> List.sort String.compare

let test_fig10_union () =
  let _, jack, jill = fig10 () in
  let u = Ops.union jack jill in
  Alcotest.(check (list string)) "between them: all birds"
    [ "(pamela)"; "(patricia)"; "(paul)"; "(peter)"; "(tweety)" ]
    (ext u)

let test_fig10_inter () =
  let _, jack, jill = fig10 () in
  let i = Ops.inter jack jill in
  Alcotest.(check (list string)) "both love: nobody" [] (ext i)

let test_fig10_diff_jack () =
  let _, jack, jill = fig10 () in
  let d = Ops.diff jack jill in
  Alcotest.(check (list string)) "jack but not jill: non-penguin birds" [ "(tweety)" ] (ext d)

let test_fig10_diff_jill () =
  let _, jack, jill = fig10 () in
  let d = Ops.diff jill jack in
  Alcotest.(check (list string)) "jill but not jack: penguins"
    [ "(pamela)"; "(patricia)"; "(paul)"; "(peter)" ]
    (ext d)

let test_setops_flat_equivalence () =
  (* the lifted ops must equal the flat ops on extensions *)
  let _, jack, jill = fig10 () in
  let module S = Flatten.Item_set in
  let ja = Flatten.extension jack and ji = Flatten.extension jill in
  Alcotest.(check bool) "union" true
    (S.equal (Flatten.extension (Ops.union jack jill)) (S.union ja ji));
  Alcotest.(check bool) "inter" true
    (S.equal (Flatten.extension (Ops.inter jack jill)) (S.inter ja ji));
  Alcotest.(check bool) "diff" true
    (S.equal (Flatten.extension (Ops.diff jack jill)) (S.diff ja ji))

let test_union_stays_hierarchical () =
  (* the union must not degenerate to an enumeration: class tuples remain *)
  let _, jack, jill = fig10 () in
  let u = Ops.union jack jill in
  Alcotest.(check bool) "a class tuple survives" true
    (List.exists
       (fun (t : Relation.tuple) ->
         not (Item.is_atomic (Relation.schema u) t.Relation.item))
       (Relation.tuples u))

let test_union_conflict_requires_witness () =
  (* +a from one relation, -b from the other, overlapping at an explicit
     witness: the refine closure must assert the witness item. *)
  let module Hierarchy = Hr_hierarchy.Hierarchy in
  let h = Hierarchy.create "d" in
  ignore (Hierarchy.add_class h "a");
  ignore (Hierarchy.add_class h "b");
  ignore (Hierarchy.add_instance h ~parents:[ "a"; "b" ] "x");
  ignore (Hierarchy.add_instance h ~parents:[ "a" ] "ya");
  ignore (Hierarchy.add_instance h ~parents:[ "b" ] "yb");
  let schema = Schema.make [ ("v", h) ] in
  let r1 = Relation.of_tuples ~name:"r1" schema [ (Types.Pos, [ "a" ]) ] in
  (* difference r1 - r2 where r2 = {+b}: x lies in both classes, so it
     must drop out, which takes an explicit tuple at the witness x *)
  let r2 = Relation.of_tuples ~name:"r2" schema [ (Types.Pos, [ "b" ]) ] in
  let d = Ops.diff r1 r2 in
  Alcotest.(check bool) "x excluded" false
    (Binding.holds d (Item.of_names schema [ "x" ]));
  Alcotest.(check bool) "ya kept" true (Binding.holds d (Item.of_names schema [ "ya" ]));
  Alcotest.(check bool) "consistent result" true (Integrity.is_consistent d)

(* -- Figure 11: join and projection ----------------------------------- *)

let fig11 () =
  let he = Fixtures.elephants () in
  let hc = Fixtures.colors () in
  let hsz = Fixtures.sizes () in
  let color = Fixtures.animal_color he hc in
  let enclosure = Fixtures.enclosure he hsz in
  (he, hc, hsz, color, enclosure)

let test_fig11_join () =
  let _, _, _, color, enclosure = fig11 () in
  let j = Ops.join enclosure color in
  (* schema: animal, enclosure, color *)
  Alcotest.(check (list string)) "joined schema" [ "animal"; "enclosure"; "color" ]
    (Schema.names (Relation.schema j));
  Fixtures.check_holds j [ "clyde"; "s3000"; "dappled" ] true "clyde: 3000 + dappled";
  Fixtures.check_holds j [ "appu"; "s2000"; "white" ] true "appu: indian 2000 + white";
  Fixtures.check_holds j [ "appu"; "s3000"; "white" ] false "appu not in 3000";
  Fixtures.check_holds j [ "clyde"; "s3000"; "grey" ] false "clyde not grey"

let test_fig11_join_flat_equivalence () =
  let _, _, _, color, enclosure = fig11 () in
  let j = Ops.join enclosure color in
  let flat_join =
    (* join of the explicated relations, computed by hand *)
    let ec = Flatten.extension_list enclosure in
    let cc = Flatten.extension_list color in
    List.concat_map
      (fun e ->
        List.filter_map
          (fun c ->
            if Item.coord e 0 = Item.coord c 0 then
              Some [| Item.coord e 0; Item.coord e 1; Item.coord c 1 |]
            else None)
          cc)
      ec
  in
  let js = Flatten.extension_list j in
  Alcotest.(check int) "same extension size" (List.length flat_join) (List.length js);
  List.iter
    (fun coords ->
      Alcotest.(check bool) "triple present" true
        (List.exists (fun it -> Item.coords it = coords) js))
    flat_join

let test_fig11_projection_roundtrip () =
  (* Fig 11c: joining then projecting back loses no information. *)
  let _, _, _, color, enclosure = fig11 () in
  let j = Ops.join enclosure color in
  let back = Ops.project j [ "animal"; "color" ] in
  (* compare extensions restricted to animals that have an enclosure *)
  Fixtures.check_holds back [ "clyde"; "dappled" ] true "clyde dappled preserved";
  Fixtures.check_holds back [ "appu"; "white" ] true "appu white preserved";
  Fixtures.check_holds back [ "appu"; "grey" ] false "appu grey still excluded"

let test_project_syntactic () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let p = Ops.project color [ "animal" ] in
  Alcotest.(check (list string)) "animal column" [ "animal" ] (Schema.names (Relation.schema p));
  (* both clyde tuples collapse; the positive one wins *)
  Alcotest.(check bool) "clyde present positively" true
    (Binding.holds p (Item.of_names (Relation.schema p) [ "clyde" ]))

let test_project_exact () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  (* projecting the full explication: exact existential semantics *)
  let p = Ops.project (Explicate.explicate color) [ "animal" ] in
  let schema = Relation.schema p in
  Alcotest.(check bool) "clyde" true (Binding.holds p (Item.of_names schema [ "clyde" ]));
  Alcotest.(check bool) "appu" true (Binding.holds p (Item.of_names schema [ "appu" ]));
  (* africans have a color only at class level, no instances: absent *)
  Alcotest.(check bool) "no african instances" true
    (List.for_all
       (fun (t : Relation.tuple) -> Item.is_atomic schema t.Relation.item)
       (Relation.tuples p))

let test_rename () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let r = Ops.rename color ~old_name:"animal" ~new_name:"beast" in
  Alcotest.(check (list string)) "renamed" [ "beast"; "color" ] (Schema.names (Relation.schema r));
  Alcotest.(check int) "body unchanged" (Relation.cardinality color) (Relation.cardinality r)

let test_cartesian_product () =
  (* join with no shared attributes *)
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let hs = Fixtures.sizes () in
  let r1 =
    Relation.of_tuples ~name:"r1" (Schema.make [ ("animal", he) ])
      [ (Types.Pos, [ "royal_elephant" ]) ]
  in
  let r2 =
    Relation.of_tuples ~name:"r2" (Schema.make [ ("size", hs) ])
      [ (Types.Pos, [ "s2000" ]) ]
  in
  let p = Ops.join r1 r2 in
  Alcotest.(check (list string)) "schema" [ "animal"; "size" ] (Schema.names (Relation.schema p));
  Fixtures.check_holds p [ "clyde"; "s2000" ] true "clyde x 2000";
  ignore hc

let test_join_two_shared_attributes () =
  (* natural join matching on BOTH attributes; the meet is computed per
     shared coordinate *)
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let s1 = Schema.make [ ("animal", he); ("color", hc) ] in
  let s2 = Schema.make [ ("animal", he); ("color", hc) ] in
  let r1 =
    Relation.of_tuples ~name:"r1" s1
      [ (Types.Pos, [ "elephant"; "grey" ]); (Types.Neg, [ "royal_elephant"; "grey" ]) ]
  in
  let r2 =
    Relation.of_tuples ~name:"r2" s2 [ (Types.Pos, [ "indian_elephant"; "grey" ]) ]
  in
  let j = Ops.join r1 r2 in
  Alcotest.(check (list string)) "schema unchanged (all shared)" [ "animal"; "color" ]
    (Schema.names (Relation.schema j));
  (* flat semantics: intersection of the two extensions; appu is royal so
     excluded by r1's exception *)
  Alcotest.(check bool) "appu/grey excluded" false
    (Binding.holds j (Item.of_names (Relation.schema j) [ "appu"; "grey" ]));
  let module S = Flatten.Item_set in
  Alcotest.(check bool) "join over all-shared = intersection" true
    (S.equal (Flatten.extension j) (S.inter (Flatten.extension r1) (Flatten.extension r2)))

let test_union_schema_mismatch_rejected () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let hsz = Fixtures.sizes () in
  let enclosure = Fixtures.enclosure he hsz in
  try
    ignore (Ops.union color enclosure);
    Alcotest.fail "expected Model_error"
  with Types.Model_error _ -> ()

let suite =
  [
    Alcotest.test_case "fig7: obsequious students" `Quick test_fig7;
    Alcotest.test_case "fig8: john" `Quick test_fig8;
    Alcotest.test_case "selection keeps exceptions" `Quick test_select_mary;
    Alcotest.test_case "fig9: justification" `Quick test_fig9;
    Alcotest.test_case "select whole domain" `Quick test_select_whole_domain_is_identity_extension;
    Alcotest.test_case "select instance-free class" `Quick test_select_empty_region;
    Alcotest.test_case "fig10c: union" `Quick test_fig10_union;
    Alcotest.test_case "fig10d: intersection" `Quick test_fig10_inter;
    Alcotest.test_case "fig10e: jack - jill" `Quick test_fig10_diff_jack;
    Alcotest.test_case "fig10f: jill - jack" `Quick test_fig10_diff_jill;
    Alcotest.test_case "set ops = flat set ops" `Quick test_setops_flat_equivalence;
    Alcotest.test_case "union stays hierarchical" `Quick test_union_stays_hierarchical;
    Alcotest.test_case "refine closure asserts witnesses" `Quick
      test_union_conflict_requires_witness;
    Alcotest.test_case "fig11b: join" `Quick test_fig11_join;
    Alcotest.test_case "fig11b: join = flat join" `Quick test_fig11_join_flat_equivalence;
    Alcotest.test_case "fig11c: projection round trip" `Quick test_fig11_projection_roundtrip;
    Alcotest.test_case "syntactic projection" `Quick test_project_syntactic;
    Alcotest.test_case "exact projection" `Quick test_project_exact;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "cartesian product" `Quick test_cartesian_product;
    Alcotest.test_case "join on two shared attributes" `Quick test_join_two_shared_attributes;
    Alcotest.test_case "schema mismatch rejected" `Quick test_union_schema_mismatch_rejected;
  ]
