(* Flat relations built directly, as an import would build them: set
   semantics, the traditional export of a hierarchical extension, and a
   flat member column organized into a hierarchical relation. (The suite
   kept its name when the CSV bridge it once tested was deleted.) *)

module F = Hr_flat.Flat_relation

let test_dedup () =
  let r = F.of_rows [ "a" ] [ [ "x" ]; [ "x" ]; [ "y" ] ] in
  Alcotest.(check int) "set semantics" 2 (F.cardinality r)

let test_export_hierarchical_extension () =
  (* Figure 1b's Flies, stored traditionally: one row per atomic item
     that flies *)
  let h = Fixtures.animals () in
  let flat = Hr_flat.Traditional.extension_relation (Fixtures.flies h) in
  let expected =
    F.of_rows (F.columns flat) [ [ "pamela" ]; [ "patricia" ]; [ "peter" ]; [ "tweety" ] ]
  in
  Alcotest.(check (list (list string))) "the extension" (F.rows expected) (F.rows flat);
  Alcotest.(check bool) "equal relations" true (F.equal expected flat)

let test_csv_to_mine_pipeline () =
  (* a flat member column -> Mine.organize -> compressed hierarchical relation *)
  let module Workload = Hr_workload.Workload in
  let module Hierarchy = Hr_hierarchy.Hierarchy in
  let module Mine = Hr_mine.Mine in
  let h = Workload.tree_hierarchy ~name:"cat" ~depth:2 ~fanout:3 ~instances_per_leaf:2 () in
  let members = List.map (Hierarchy.node_label h) (Hierarchy.instances h) in
  let flat = F.of_rows [ "item" ] (List.map (fun m -> [ m ]) members) in
  let rel = Mine.organize h ~members:(List.concat (F.rows flat)) in
  Alcotest.(check int) "compressed to one tuple" 1 (Hierel.Relation.cardinality rel)

let suite =
  [
    Alcotest.test_case "set semantics" `Quick test_dedup;
    Alcotest.test_case "hierarchical extension export" `Quick test_export_hierarchical_extension;
    Alcotest.test_case "csv -> mine pipeline" `Quick test_csv_to_mine_pipeline;
  ]
