(* Item-level tests: construction, subsumption, products, extensions. *)

module Hierarchy = Hr_hierarchy.Hierarchy
open Hierel

let setup () =
  let he = Fixtures.elephants () in
  let hc = Fixtures.colors () in
  (he, hc, Fixtures.color_schema he hc)

let test_make_and_coords () =
  let he, _, schema = setup () in
  let item = Item.of_names schema [ "royal_elephant"; "grey" ] in
  Alcotest.(check int) "arity" 2 (Item.arity item);
  Alcotest.(check int) "first coord" (Hierarchy.find_exn he "royal_elephant")
    (Item.coord item 0);
  let coords = Item.coords item in
  Alcotest.(check int) "coords copy" (Item.coord item 1) coords.(1)

let test_make_checks_arity () =
  let _, _, schema = setup () in
  try
    ignore (Item.make schema [| 0 |]);
    Alcotest.fail "expected Model_error"
  with Types.Model_error _ -> ()

let test_make_checks_node_liveness () =
  let _, _, schema = setup () in
  try
    ignore (Item.make schema [| 9999; 0 |]);
    Alcotest.fail "expected Hierarchy.Error"
  with Hierarchy.Error _ -> ()

let test_atomicity () =
  let _, _, schema = setup () in
  Alcotest.(check bool) "instances atomic" true
    (Item.is_atomic schema (Item.of_names schema [ "clyde"; "grey" ]));
  Alcotest.(check bool) "class not atomic" false
    (Item.is_atomic schema (Item.of_names schema [ "royal_elephant"; "grey" ]))

let test_subsumption_componentwise () =
  let _, _, schema = setup () in
  let general = Item.of_names schema [ "elephant"; "grey" ] in
  let specific = Item.of_names schema [ "clyde"; "grey" ] in
  let other = Item.of_names schema [ "clyde"; "white" ] in
  Alcotest.(check bool) "subsumes" true (Item.subsumes schema general specific);
  Alcotest.(check bool) "strict" true (Item.strictly_subsumes schema general specific);
  Alcotest.(check bool) "not reflexively strict" false
    (Item.strictly_subsumes schema general general);
  Alcotest.(check bool) "color mismatch blocks" false (Item.subsumes schema general other);
  Alcotest.(check bool) "comparable" true (Item.comparable schema general specific);
  Alcotest.(check bool) "incomparable" false (Item.comparable schema specific other)

let test_intersects_and_mcd () =
  let _, _, schema = setup () in
  let royal = Item.of_names schema [ "royal_elephant"; "grey" ] in
  let indian = Item.of_names schema [ "indian_elephant"; "grey" ] in
  let african = Item.of_names schema [ "african_elephant"; "grey" ] in
  Alcotest.(check bool) "royal/indian meet at appu" true
    (Item.intersects schema royal indian);
  Alcotest.(check bool) "african/indian disjoint" false
    (Item.intersects schema african indian);
  Alcotest.(check (list string)) "mcd product" [ "(appu, grey)" ]
    (List.map (Item.to_string schema) (Item.maximal_common_descendants schema royal indian));
  Alcotest.(check (list string)) "mcd empty" []
    (List.map (Item.to_string schema) (Item.maximal_common_descendants schema african indian))

let test_mcd_multi_coordinate_product () =
  (* two coordinates each with two maximal witnesses -> 4 product items *)
  let h1 = Hierarchy.create "d1" in
  ignore (Hierarchy.add_class h1 "a");
  ignore (Hierarchy.add_class h1 "b");
  ignore (Hierarchy.add_instance h1 ~parents:[ "a"; "b" ] "x1");
  ignore (Hierarchy.add_instance h1 ~parents:[ "a"; "b" ] "x2");
  let schema = Schema.make [ ("p", h1); ("q", h1) ] in
  let i1 = Item.of_names schema [ "a"; "a" ] in
  let i2 = Item.of_names schema [ "b"; "b" ] in
  Alcotest.(check int) "2x2 witnesses" 4
    (List.length (Item.maximal_common_descendants schema i1 i2))

let test_substitute_project_concat () =
  let he, _, schema = setup () in
  let item = Item.of_names schema [ "clyde"; "grey" ] in
  let item' = Item.substitute item 0 (Hierarchy.find_exn he "appu") in
  Alcotest.(check string) "substituted" "(appu, grey)" (Item.to_string schema item');
  Alcotest.(check string) "original untouched" "(clyde, grey)" (Item.to_string schema item);
  let p = Item.project item [ 1 ] in
  Alcotest.(check int) "projected arity" 1 (Item.arity p);
  let c = Item.concat p p in
  Alcotest.(check int) "concat arity" 2 (Item.arity c)

let test_atomic_extension () =
  let _, _, schema = setup () in
  let item = Item.of_names schema [ "royal_elephant"; "grey" ] in
  let ext = Item.atomic_extension schema item in
  Alcotest.(check (list string)) "royals x grey" [ "(appu, grey)"; "(clyde, grey)" ]
    (List.sort String.compare (List.map (Item.to_string schema) ext));
  let partial = Item.atomic_extension schema ~over:[ 1 ] item in
  Alcotest.(check int) "color already atomic" 1 (List.length partial);
  let empty = Item.atomic_extension schema (Item.of_names schema [ "african_elephant"; "grey" ]) in
  Alcotest.(check int) "instance-free class" 0 (List.length empty)

let test_pp_quantifier () =
  let _, _, schema = setup () in
  Alcotest.(check string) "V prefix on classes" "(V elephant, grey)"
    (Item.to_string schema (Item.of_names schema [ "elephant"; "grey" ]));
  Alcotest.(check string) "bare instances" "(clyde, dappled)"
    (Item.to_string schema (Item.of_names schema [ "clyde"; "dappled" ]))

let test_structural_order_total () =
  let _, _, schema = setup () in
  let items =
    List.map (Item.of_names schema)
      [ [ "clyde"; "grey" ]; [ "appu"; "grey" ]; [ "clyde"; "white" ]; [ "clyde"; "grey" ] ]
  in
  let sorted = List.sort_uniq Item.compare items in
  Alcotest.(check int) "three distinct" 3 (List.length sorted)

(* [Item.compare] is a hand-written loop; it must order items exactly as
   [Stdlib.compare] orders their coordinate arrays (arity first, then
   lexicographic), since every item map and set is keyed by it. Arrays
   of arity 0-4 over one 40-node hierarchy; coordinates are drawn often
   from the first three nodes so equal prefixes are common. *)
let prop_compare_is_stdlib =
  let h = Hierarchy.create "ord" in
  for k = 1 to 39 do
    ignore (Hierarchy.add_class h (Printf.sprintf "ord%d" k))
  done;
  let nodes = Array.of_list (Hierarchy.nodes h) in
  let schema = Schema.make (List.init 4 (fun i -> (Printf.sprintf "a%d" i, h))) in
  (* an item of arity n is the first n coordinates of a 4-ary one *)
  let item c =
    let n = Array.length c in
    let padded = Array.init 4 (fun i -> if i < n then c.(i) else nodes.(0)) in
    Item.project (Item.make schema padded) (List.init n Fun.id)
  in
  let gen_coords =
    let open QCheck2.Gen in
    let node = oneof [ int_range 0 2; int_range 0 (Array.length nodes - 1) ] in
    map (fun l -> Array.of_list (List.map (fun k -> nodes.(k)) l)) (list_size (int_range 0 4) node)
  in
  let print (a, b) =
    let show a = String.concat ";" (List.map string_of_int (Array.to_list a)) in
    Printf.sprintf "[|%s|] vs [|%s|]" (show a) (show b)
  in
  QCheck2.Test.make ~name:"Item.compare agrees with Stdlib.compare" ~count:2000 ~print
    QCheck2.Gen.(pair gen_coords gen_coords)
    (fun (a, b) ->
      let x = item a and y = item b in
      Int.compare (Item.compare x y) 0 = Int.compare (Stdlib.compare a b) 0
      && Item.equal x y = (a = b))

let suite =
  [
    Alcotest.test_case "make and coords" `Quick test_make_and_coords;
    Alcotest.test_case "arity checked" `Quick test_make_checks_arity;
    Alcotest.test_case "node liveness checked" `Quick test_make_checks_node_liveness;
    Alcotest.test_case "atomicity" `Quick test_atomicity;
    Alcotest.test_case "componentwise subsumption" `Quick test_subsumption_componentwise;
    Alcotest.test_case "intersection and mcd" `Quick test_intersects_and_mcd;
    Alcotest.test_case "mcd product across coordinates" `Quick test_mcd_multi_coordinate_product;
    Alcotest.test_case "substitute/project/concat" `Quick test_substitute_project_concat;
    Alcotest.test_case "atomic extension" `Quick test_atomic_extension;
    Alcotest.test_case "quantifier rendering" `Quick test_pp_quantifier;
    Alcotest.test_case "structural order" `Quick test_structural_order_total;
    QCheck_alcotest.to_alcotest prop_compare_is_stdlib;
  ]
