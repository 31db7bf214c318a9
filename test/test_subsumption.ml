(* Subsumption edges as [Subsumption.pp] draws them: each tuple's
   minimal strict subsumers (the transitive reduction of tuple
   subsumption), the universal negated tuple above a tuple with none,
   on the paper's relations. *)

open Hierel

let edges rel =
  String.split_on_char '\n' (Format.asprintf "%a" Subsumption.pp rel)
  |> List.filter (fun l -> l <> "")

let test_fig1c_shape () =
  let h = Fixtures.animals () in
  let flies = Fixtures.flies h in
  (* the universal tuple covers bird only; penguin covers afp and
     peter; transitive reduction: no direct bird -> peter edge *)
  Alcotest.(check (list string)) "fig 1c edges"
    [
      "+(V bird) -> -(V penguin)";
      "-(V penguin) -> +(V amazing_flying_penguin)";
      "-(V penguin) -> +(peter)";
      "UNIVERSAL- -> +(V bird)";
    ]
    (edges flies)

let test_sign_of_node () =
  (* a lone tuple of either sign hangs off the universal negated tuple *)
  let h = Fixtures.animals () in
  let schema = Fixtures.flies_schema h in
  let r = Relation.of_tuples ~name:"r" schema [ (Types.Neg, [ "penguin" ]) ] in
  Alcotest.(check (list string)) "root is negated" [ "UNIVERSAL- -> -(V penguin)" ] (edges r)

let test_incomparable_tuples_both_under_root () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let r =
    Relation.of_tuples ~name:"r" (Fixtures.color_schema he hc)
      [
        (Types.Pos, [ "african_elephant"; "grey" ]);
        (Types.Pos, [ "indian_elephant"; "grey" ]);
      ]
  in
  Alcotest.(check int) "both hang off the universal root" 2
    (List.length (List.filter (String.starts_with ~prefix:"UNIVERSAL- -> ") (edges r)))

let test_multi_attribute_reduction () =
  (* (elephant, grey) > (royal, grey) > (clyde, grey): the long edge is
     reduced away *)
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let r =
    Relation.of_tuples ~name:"r" (Fixtures.color_schema he hc)
      [
        (Types.Pos, [ "elephant"; "grey" ]);
        (Types.Pos, [ "royal_elephant"; "grey" ]);
        (Types.Pos, [ "clyde"; "grey" ]);
      ]
  in
  Alcotest.(check (list string)) "a chain of two edges"
    [
      "+(V elephant, grey) -> +(V royal_elephant, grey)";
      "+(V royal_elephant, grey) -> +(clyde, grey)";
      "UNIVERSAL- -> +(V elephant, grey)";
    ]
    (edges r)

let test_empty_relation_graph () =
  let h = Fixtures.animals () in
  Alcotest.(check (list string)) "no edges" []
    (edges (Relation.empty ~name:"e" (Fixtures.flies_schema h)))

let suite =
  [
    Alcotest.test_case "fig1c shape" `Quick test_fig1c_shape;
    Alcotest.test_case "universal root is negated" `Quick test_sign_of_node;
    Alcotest.test_case "incomparable tuples under root" `Quick
      test_incomparable_tuples_both_under_root;
    Alcotest.test_case "multi-attribute reduction" `Quick test_multi_attribute_reduction;
    Alcotest.test_case "empty relation" `Quick test_empty_relation_graph;
  ]
