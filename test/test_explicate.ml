(* Explication tests (paper §3.3.2): full and partial flattening. *)

open Hierel

let item_strings rel =
  List.map
    (fun (t : Relation.tuple) ->
      Format.asprintf "%a%s" Types.pp_sign t.Relation.sign
        (Item.to_string (Relation.schema rel) t.Relation.item))
    (Relation.tuples rel)
  |> List.sort String.compare

let test_full_explication_fig1 () =
  let h = Fixtures.animals () in
  let flies = Fixtures.flies h in
  let flat = Explicate.explicate flies in
  Alcotest.(check (list string)) "flying creatures"
    [ "+(pamela)"; "+(patricia)"; "+(peter)"; "+(tweety)" ]
    (item_strings flat)

let test_full_explication_keep_negated () =
  let h = Fixtures.animals () in
  let flies = Fixtures.flies h in
  let flat = Explicate.explicate ~keep_negated:true flies in
  Alcotest.(check (list string)) "all five creatures decided"
    [ "+(pamela)"; "+(patricia)"; "+(peter)"; "+(tweety)"; "-(paul)" ]
    (item_strings flat)

let test_explication_is_atomic () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let flat = Explicate.explicate color in
  let schema = Relation.schema flat in
  Alcotest.(check bool) "all atomic" true
    (List.for_all (fun (t : Relation.tuple) -> Item.is_atomic schema t.Relation.item)
       (Relation.tuples flat))

let test_full_explication_fig4 () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let flat = Explicate.explicate color in
  Alcotest.(check (list string)) "clyde dappled, appu white"
    [ "+(appu, white)"; "+(clyde, dappled)" ]
    (item_strings flat)

let test_partial_explication () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let partial = Explicate.explicate ~over:[ "animal" ] color in
  let schema = Relation.schema partial in
  (* animal column atomic, color column untouched; negated tuples kept *)
  Alcotest.(check bool) "animal coordinate atomic" true
    (List.for_all
       (fun (t : Relation.tuple) ->
         Hr_hierarchy.Hierarchy.is_instance he (Item.coord t.Relation.item 0))
       (Relation.tuples partial));
  Alcotest.(check bool) "negated tuples kept" true
    (List.exists
       (fun (t : Relation.tuple) -> Types.sign_equal t.Relation.sign Types.Neg)
       (Relation.tuples partial));
  (* semantics preserved on atoms *)
  Fixtures.check_holds partial [ "clyde"; "dappled" ] true "clyde dappled";
  Fixtures.check_holds partial [ "appu"; "grey" ] false "appu not grey";
  ignore schema

let test_explication_agrees_with_binding () =
  (* every atomic item of the domain gets the same verdict before and
     after full explication *)
  let h = Fixtures.animals () in
  let flies = Fixtures.flies h in
  let flat = Explicate.explicate ~keep_negated:true flies in
  let schema = Relation.schema flies in
  List.iter
    (fun leaf ->
      let it = Item.make schema [| leaf |] in
      Alcotest.(check bool)
        (Printf.sprintf "same truth at %s" (Item.to_string schema it))
        (Binding.holds flies it) (Binding.holds flat it))
    (Hr_hierarchy.Hierarchy.instances h)

let test_extension_size () =
  let h = Fixtures.animals () in
  Alcotest.(check int) "4 flying creatures" 4
    (Relation.cardinality (Explicate.explicate (Fixtures.flies h)))

let test_explicate_empty_class () =
  (* a class with no instances contributes nothing *)
  let module Hierarchy = Hr_hierarchy.Hierarchy in
  let h = Hierarchy.create "d" in
  ignore (Hierarchy.add_class h "ghost");
  ignore (Hierarchy.add_instance h "solid");
  let schema = Schema.make [ ("v", h) ] in
  let r = Relation.of_tuples ~name:"r" schema [ (Types.Pos, [ "ghost" ]) ] in
  Alcotest.(check int) "empty extension" 0 (Relation.cardinality (Explicate.explicate r))

(* b is preferred over a, so -b binds z more strongly than +a: the
   extension is y alone, whichever class is declared first. *)
let test_preference_edge () =
  List.iter
    (fun (first, second) ->
      let cat = Catalog.create () in
      let script =
        Printf.sprintf
          "CREATE DOMAIN d; CREATE CLASS %s UNDER d; CREATE CLASS %s UNDER d; CREATE \
           PREFERENCE b OVER a; CREATE INSTANCE z OF a, b; CREATE INSTANCE y OF a; CREATE \
           RELATION r (x: d); INSERT INTO r VALUES (+ ALL a), (- ALL b); SELECT * FROM \
           EXPLICATED r;"
          first second
      in
      match Hr_query.Eval.run_script cat script with
      | Error e -> Alcotest.fail e
      | Ok outs ->
        Alcotest.(check string)
          (Printf.sprintf "%s before %s" first second)
          "r (1 tuple)\n+---+---+\n|   | x |\n+---+---+\n| + | y |\n+---+---+\n"
          (List.nth outs (List.length outs - 1));
        let r = Catalog.relation cat "r" in
        Alcotest.(check (list string))
          "with negated tuples" [ "+(y)"; "-(z)" ]
          (item_strings (Explicate.explicate ~keep_negated:true r)))
    [ ("a", "b"); ("b", "a") ]

let suite =
  [
    Alcotest.test_case "fig1 full explication" `Quick test_full_explication_fig1;
    Alcotest.test_case "keep_negated variant" `Quick test_full_explication_keep_negated;
    Alcotest.test_case "result is atomic" `Quick test_explication_is_atomic;
    Alcotest.test_case "fig4 full explication" `Quick test_full_explication_fig4;
    Alcotest.test_case "partial explication" `Quick test_partial_explication;
    Alcotest.test_case "explication preserves truth" `Quick test_explication_agrees_with_binding;
    Alcotest.test_case "extension size" `Quick test_extension_size;
    Alcotest.test_case "instance-free classes vanish" `Quick test_explicate_empty_class;
    Alcotest.test_case "preference edges decide the extension" `Quick test_preference_edge;
  ]
