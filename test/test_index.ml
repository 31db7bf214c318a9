(* Binding-index tests: verdicts served by the relation's memoized bucket
   index ({!Relation.candidates}) must agree exactly with a brute-force
   scan of every stored tuple, on fixtures and on random workloads. *)

module Workload = Hr_workload.Workload
module Prng = Hr_util.Prng
module Hierarchy = Hr_hierarchy.Hierarchy
open Hierel

(* The reference access path: no index, every stored tuple tested for
   strict subsumption, then the same decision procedure. *)
let scan_relevant rel item =
  let schema = Relation.schema rel in
  List.filter
    (fun (t : Relation.tuple) -> Item.strictly_subsumes schema t.Relation.item item)
    (Relation.tuples rel)

let scan_verdict rel item =
  Binding.decide (Relation.schema rel) item ~exact:(Relation.find rel item)
    ~relevant:(scan_relevant rel item)

let scan_holds rel item =
  match scan_verdict rel item with
  | Binding.Asserted (sign, _) -> sign = Types.Pos
  | Binding.Unasserted -> false
  | Binding.Conflict _ -> Alcotest.fail "scan found a conflict on a consistent fixture"

let test_agrees_on_fig1 () =
  let h = Fixtures.animals () in
  let flies = Fixtures.flies h in
  let schema = Relation.schema flies in
  List.iter
    (fun name ->
      let item = Item.of_names schema [ name ] in
      Alcotest.(check bool)
        (Printf.sprintf "same verdict at %s" name)
        (scan_holds flies item) (Binding.holds flies item))
    [ "tweety"; "paul"; "peter"; "pamela"; "patricia"; "penguin"; "bird" ]

let test_relevant_same_set () =
  let h = Fixtures.animals () in
  let flies = Fixtures.flies h in
  let schema = Relation.schema flies in
  let patricia = Item.of_names schema [ "patricia" ] in
  let items tuples =
    List.sort Item.compare (List.map (fun (t : Relation.tuple) -> t.Relation.item) tuples)
  in
  Alcotest.(check bool) "same relevant set" true
    (List.equal Item.equal
       (items (scan_relevant flies patricia))
       (items (Binding.relevant flies patricia)))

let test_multi_attribute () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let schema = Relation.schema color in
  List.iter
    (fun (a, c) ->
      let item = Item.of_names schema [ a; c ] in
      Alcotest.(check bool)
        (Printf.sprintf "same verdict at (%s, %s)" a c)
        (scan_holds color item) (Binding.holds color item))
    [
      ("clyde", "grey"); ("clyde", "white"); ("clyde", "dappled");
      ("appu", "grey"); ("appu", "white"); ("elephant", "grey");
    ]

let prop_index_agrees =
  QCheck2.Test.make ~name:"indexed verdicts = scanned verdicts" ~count:40
    (QCheck2.Gen.int_range 1 100_000)
    (fun seed ->
      let g = Prng.create (Int64.of_int seed) in
      let h =
        Workload.random_hierarchy g
          {
            Workload.name = Printf.sprintf "ih%d" seed;
            classes = 8;
            instances = 12;
            multi_parent_prob = 0.2;
          }
      in
      let schema = Schema.make [ ("v", h) ] in
      let rel =
        Workload.consistent_random_relation g schema
          { Workload.default_relation_spec with tuples = 12 }
      in
      (* binder order may legitimately differ between access paths *)
      let canon = function
        | Binding.Asserted (s, binders) ->
          `Asserted
            ( s,
              List.sort Item.compare
                (List.map (fun (t : Relation.tuple) -> t.Relation.item) binders) )
        | Binding.Unasserted -> `Unasserted
        | Binding.Conflict { positive; negative } ->
          `Conflict (List.length positive, List.length negative)
      in
      List.for_all
        (fun node ->
          let item = Item.make schema [| node |] in
          canon (Binding.verdict rel item) = canon (scan_verdict rel item))
        (Hierarchy.nodes h))

let suite =
  [
    Alcotest.test_case "agrees on fig1" `Quick test_agrees_on_fig1;
    Alcotest.test_case "same relevant set" `Quick test_relevant_same_set;
    Alcotest.test_case "multi-attribute" `Quick test_multi_attribute;
    QCheck_alcotest.to_alcotest prop_index_agrees;
  ]
