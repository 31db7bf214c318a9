(* Unit and property tests for the generic DAG substrate. *)

module Dag = Hr_graph.Dag

let diamond () =
  (* a -> b, a -> c, b -> d, c -> d *)
  let g = Dag.create () in
  let a = Dag.add_node g and b = Dag.add_node g in
  let c = Dag.add_node g and d = Dag.add_node g in
  Dag.add_edge g a b;
  Dag.add_edge g a c;
  Dag.add_edge g b d;
  Dag.add_edge g c d;
  (g, a, b, c, d)

let edge g u v = List.mem v (Dag.succs g u)

let test_basic () =
  let g, a, b, c, d = diamond () in
  Alcotest.(check int) "capacity" 4 (Dag.capacity g);
  Alcotest.(check int) "live" 4 (Dag.live_count g);
  Alcotest.(check bool) "edge a->b" true (edge g a b);
  Alcotest.(check bool) "no edge b->a" false (edge g b a);
  Alcotest.(check (list int)) "succs a" [ b; c ] (Dag.succs g a);
  Alcotest.(check (list int)) "preds d" [ b; c ] (Dag.preds g d)

let test_duplicate_edges_ignored () =
  let g, a, b, _, _ = diamond () in
  Dag.add_edge g a b;
  Dag.add_edge g a b;
  Alcotest.(check int) "still one succ b" 2 (List.length (Dag.succs g a))

let test_self_loop_rejected () =
  let g, a, _, _, _ = diamond () in
  Alcotest.check_raises "self loop" (Invalid_argument "Dag.add_edge: self loop") (fun () ->
      Dag.add_edge g a a)

let test_reachability () =
  let g, a, b, c, d = diamond () in
  Alcotest.(check bool) "a ->* d" true (Dag.reachable g a d);
  Alcotest.(check bool) "b ->* c" false (Dag.reachable g b c);
  Alcotest.(check bool) "reflexive" true (Dag.reachable g b b);
  Alcotest.(check (list int)) "descendants a" [ a; b; c; d ] (Dag.descendants g a);
  Alcotest.(check (list int)) "ancestors d" [ a; b; c; d ] (Dag.ancestors g d)

let test_edge_kinds () =
  let g = Dag.create () in
  let a = Dag.add_node g and b = Dag.add_node g in
  Dag.add_edge g ~kind:Dag.Preference a b;
  let isa = function Dag.Isa -> true | Dag.Preference -> false in
  Alcotest.(check bool) "pref reachable" true (Dag.reachable g a b);
  Alcotest.(check bool) "not isa-reachable" false (Dag.reachable g ~kinds:isa a b);
  Alcotest.(check (list int)) "isa succs empty" [] (Dag.succs g ~kinds:isa a);
  (* same endpoints, different kind: both edges coexist *)
  Dag.add_edge g ~kind:Dag.Isa a b;
  Alcotest.(check bool) "isa now reachable" true (Dag.reachable g ~kinds:isa a b);
  Alcotest.(check (list int)) "pref edge kept" [ b ]
    (Dag.succs g ~kinds:(fun k -> not (isa k)) a)

let test_topo_sort () =
  let g, a, b, c, d = diamond () in
  let order = Dag.topo_sort g in
  let pos v = Option.get (List.find_index (Int.equal v) order) in
  Alcotest.(check bool) "a before b" true (pos a < pos b);
  Alcotest.(check bool) "a before c" true (pos a < pos c);
  Alcotest.(check bool) "b before d" true (pos b < pos d);
  Alcotest.(check bool) "c before d" true (pos c < pos d)

let test_cycle_detection () =
  let g = Dag.create () in
  let a = Dag.add_node g and b = Dag.add_node g in
  Dag.add_edge g a b;
  Alcotest.(check (list int)) "acyclic" [ a; b ] (Dag.topo_sort g);
  Dag.add_edge g b a;
  Alcotest.check_raises "cyclic" (Invalid_argument "Dag.topo_sort: graph has a cycle") (fun () ->
      ignore (Dag.topo_sort g))

let test_remove_node () =
  let g, a, b, c, d = diamond () in
  Dag.remove_node g b;
  Alcotest.(check int) "3 live" 3 (Dag.live_count g);
  Alcotest.(check bool) "b dead" false (Dag.is_alive g b);
  Alcotest.(check bool) "a ->* d via c" true (Dag.reachable g a d);
  Alcotest.(check (list int)) "succs a" [ c ] (Dag.succs g a);
  Alcotest.(check (list int)) "preds d" [ c ] (Dag.preds g d)

let test_eliminate_bridges () =
  (* a -> m -> b; eliminating m must add a -> b. *)
  let g = Dag.create () in
  let a = Dag.add_node g and m = Dag.add_node g and b = Dag.add_node g in
  Dag.add_edge g a m;
  Dag.add_edge g m b;
  Dag.eliminate_node g ~on_path:false m;
  Alcotest.(check bool) "bypass added" true (edge g a b)

let test_eliminate_off_path_no_redundant () =
  (* a -> m -> b and a -> b already: off-path elimination must not add a
     second path marker; on-path keeps the graph identical but would have
     added the edge had it not existed. *)
  let g = Dag.create () in
  let a = Dag.add_node g and m = Dag.add_node g and b = Dag.add_node g in
  let c = Dag.add_node g in
  Dag.add_edge g a m;
  Dag.add_edge g m b;
  Dag.add_edge g a c;
  Dag.add_edge g c b;
  Dag.eliminate_node g ~on_path:false m;
  (* a->b via c exists, so no direct edge appears *)
  Alcotest.(check bool) "no redundant bypass" false (edge g a b);
  Alcotest.(check bool) "still reachable" true (Dag.reachable g a b)

let test_eliminate_on_path_keeps_redundant () =
  let g = Dag.create () in
  let a = Dag.add_node g and m = Dag.add_node g and b = Dag.add_node g in
  let c = Dag.add_node g in
  Dag.add_edge g a m;
  Dag.add_edge g m b;
  Dag.add_edge g a c;
  Dag.add_edge g c b;
  Dag.eliminate_node g ~on_path:true m;
  Alcotest.(check bool) "redundant bypass kept" true (edge g a b)

let test_transitive_reduction () =
  let g, a, _, _, d = diamond () in
  Dag.add_edge g a d;
  Alcotest.(check int) "one redundant edge" 1 (List.length (Dag.redundant_edges g));
  Dag.transitive_reduction g;
  Alcotest.(check bool) "a->d gone" false (edge g a d);
  Alcotest.(check bool) "a->*d kept" true (Dag.reachable g a d);
  Alcotest.(check (list (pair int int))) "now reduced" [] (Dag.redundant_edges g)

let test_ancestry () =
  let g, a, b, c, d = diamond () in
  let anc = Dag.Ancestry.build g in
  Alcotest.(check (list int)) "ancestors of d" [ a; b; c; d ] (Dag.Ancestry.to_list anc.(d));
  Alcotest.(check bool) "a->d" true (Dag.Ancestry.mem anc.(d) a);
  Alcotest.(check bool) "b-/->c" false (Dag.Ancestry.mem anc.(c) b);
  Alcotest.(check bool) "reflexive" true (Dag.Ancestry.mem anc.(c) c);
  Alcotest.(check bool) "d-/->a" false (Dag.Ancestry.mem anc.(a) d);
  let start, members = Dag.Ancestry.invert anc 4 in
  Alcotest.(check (list int)) "inverted: descendants of b" [ b; d ]
    (Array.to_list (Array.sub members start.(b) (start.(b + 1) - start.(b))));
  Alcotest.(check (list int)) "extend merges parents" [ a; b; c; d; 4 ]
    (Dag.Ancestry.to_list (Dag.Ancestry.extend [ anc.(b); anc.(d) ] 4));
  (* 64 and 2 share a signature bit (64 mod 62 = 2): the search decides *)
  let wide = Dag.Ancestry.extend [ Dag.Ancestry.extend [] 2 ] 200 in
  Alcotest.(check bool) "signature collision is not membership" false (Dag.Ancestry.mem wide 64);
  Alcotest.(check bool) "member past a collision" true (Dag.Ancestry.mem wide 2)

let test_copy_independent () =
  let g, _, b, c, _ = diamond () in
  let g' = Dag.copy g in
  Dag.add_edge g' b c;
  Alcotest.(check bool) "original intact" false (edge g b c);
  Alcotest.(check bool) "copy changed" true (edge g' b c)

(* ---- property tests ------------------------------------------------ *)

(* Random DAG: nodes 0..n-1, edges only i -> j for i < j (guarantees
   acyclicity), density p. *)
let random_dag_gen =
  QCheck2.Gen.(
    let* n = int_range 2 14 in
    let* edges =
      list_size (int_range 0 (n * 3))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return (n, edges))

let build_random (n, edges) =
  let g = Dag.create () in
  for _ = 1 to n do
    ignore (Dag.add_node g)
  done;
  List.iter (fun (i, j) -> if i < j then Dag.add_edge g i j) edges;
  g

let prop_reduction_preserves_reachability =
  QCheck2.Test.make ~name:"transitive_reduction preserves reachability" ~count:200
    random_dag_gen (fun spec ->
      let g = build_random spec in
      let before = Dag.Ancestry.build g in
      Dag.transitive_reduction g;
      let nodes = Dag.live_nodes g in
      List.for_all
        (fun u ->
          List.for_all (fun v -> Dag.Ancestry.mem before.(v) u = Dag.reachable g u v) nodes)
        nodes)

let prop_elimination_preserves_reachability =
  QCheck2.Test.make ~name:"eliminate_node preserves reachability among others" ~count:200
    QCheck2.Gen.(pair random_dag_gen (int_range 0 13))
    (fun (spec, pick) ->
      let g = build_random spec in
      let victim = pick mod Dag.capacity g in
      let before = Dag.Ancestry.build g in
      Dag.eliminate_node g ~on_path:false victim;
      let nodes = Dag.live_nodes g in
      List.for_all
        (fun u ->
          List.for_all (fun v -> Dag.Ancestry.mem before.(v) u = Dag.reachable g u v) nodes)
        nodes)

let prop_elimination_leaves_reduced =
  QCheck2.Test.make ~name:"off-path elimination of reduced graph stays reduced" ~count:200
    QCheck2.Gen.(pair random_dag_gen (int_range 0 13))
    (fun (spec, pick) ->
      let g = build_random spec in
      Dag.transitive_reduction g;
      let victim = pick mod Dag.capacity g in
      Dag.eliminate_node g ~on_path:false victim;
      Dag.redundant_edges g = [])

let prop_reach_index_agrees_with_dfs =
  QCheck2.Test.make ~name:"Reach index agrees with DFS reachability" ~count:200
    random_dag_gen (fun spec ->
      let g = build_random spec in
      let anc = Dag.Ancestry.build g in
      let nodes = List.sort compare (Dag.live_nodes g) in
      let start, members = Dag.Ancestry.invert anc (Dag.capacity g) in
      let reached u = Array.to_list (Array.sub members start.(u) (start.(u + 1) - start.(u))) in
      List.for_all
        (fun u ->
          List.for_all (fun v -> Dag.Ancestry.mem anc.(v) u = Dag.reachable g u v) nodes
          && reached u = List.filter (Dag.reachable g u) nodes)
        nodes)

let prop_topo_respects_edges =
  QCheck2.Test.make ~name:"topo_sort puts sources before targets" ~count:200 random_dag_gen
    (fun spec ->
      let g = build_random spec in
      let order = Dag.topo_sort g in
      let pos = Hashtbl.create 16 in
      List.iteri (fun i v -> Hashtbl.add pos v i) order;
      List.for_all
        (fun u ->
          List.for_all
            (fun v -> Hashtbl.find pos u < Hashtbl.find pos v)
            (Dag.succs g u))
        (Dag.live_nodes g))

let suite =
  [
    Alcotest.test_case "basic structure" `Quick test_basic;
    Alcotest.test_case "duplicate edges ignored" `Quick test_duplicate_edges_ignored;
    Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
    Alcotest.test_case "reachability" `Quick test_reachability;
    Alcotest.test_case "edge kinds" `Quick test_edge_kinds;
    Alcotest.test_case "topological sort" `Quick test_topo_sort;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "remove node" `Quick test_remove_node;
    Alcotest.test_case "eliminate bridges paths" `Quick test_eliminate_bridges;
    Alcotest.test_case "off-path elimination adds no redundant edge" `Quick
      test_eliminate_off_path_no_redundant;
    Alcotest.test_case "on-path elimination keeps redundant edge" `Quick
      test_eliminate_on_path_keeps_redundant;
    Alcotest.test_case "transitive reduction" `Quick test_transitive_reduction;
    Alcotest.test_case "reach index" `Quick test_ancestry;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    QCheck_alcotest.to_alcotest prop_reduction_preserves_reachability;
    QCheck_alcotest.to_alcotest prop_elimination_preserves_reachability;
    QCheck_alcotest.to_alcotest prop_elimination_leaves_reduced;
    QCheck_alcotest.to_alcotest prop_reach_index_agrees_with_dfs;
    QCheck_alcotest.to_alcotest prop_topo_respects_edges;
  ]
