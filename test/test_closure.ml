(* Refinement's closure and consolidation, differentially:

   - [Ops.refine ~consolidate:false], whose MCD closure pairs an item
     only with the accepted items in the buckets that meet it, is checked
     against the pairwise closure kept below, which pairs every popped
     item with every accepted one. Schemas of arity 1-3 over random DAG
     hierarchies (multi-parent nodes, so coordinates can be incomparable
     and still meet); seeds mix random items, join-style seeds (maximal
     common descendants of two items) and stored items;
   - [Consolidate.consolidate], which decides each tuple against its
     minimal surviving subsumers read through the binding index, is
     checked against a consolidation that builds the subsumption graph
     the n² way and re-sorts it for every elimination, result and
     removed set alike, and [Dag.eliminate_node] against that
     elimination on random DAGs that need not be transitively reduced;
   - the same comparisons on mostly atomic relations, whose atomic
     tuples have zero, one and several minimal subsumers;
   - on a selection under a class with n pairwise-disjoint instance
     seeds, the closure makes O(n) pair tests and consolidating the
     result O(n) subsumption checks, where pairing everything makes
     about n²/2; since those seeds are atomic, the closure in fact
     makes none, and since they are stored, their verdicts probe no
     index.

   The random part is replayable: [HRDB_TEST_SEED=n dune runtest]. *)

module Workload = Hr_workload.Workload
module Prng = Hr_util.Prng
module Hierarchy = Hr_hierarchy.Hierarchy
module Metrics = Hr_obs.Metrics
module Dag = Hr_graph.Dag
open Hierel
module Item_set = Set.Make (Item)

let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None -> Int64.to_int (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let () =
  Printf.eprintf "test_closure: differential seed %d (replay with HRDB_TEST_SEED=%d)\n%!" seed
    seed

(* ---- the oracles ----------------------------------------------------- *)

(* Every popped item is paired with every accepted item. *)
let pairwise_closure schema seeds =
  let accepted = ref Item_set.empty in
  let queue = Queue.create () in
  let enqueue item =
    if not (Item_set.mem item !accepted) then begin
      accepted := Item_set.add item !accepted;
      Queue.add item queue
    end
  in
  List.iter enqueue seeds;
  while not (Queue.is_empty queue) do
    let item = Queue.pop queue in
    Item_set.iter
      (fun other ->
        if
          (not (Item.equal item other))
          && (not (Item.comparable schema item other))
          && Item.intersects schema item other
        then List.iter enqueue (Item.maximal_common_descendants schema item other))
      !accepted
  done;
  Item_set.elements !accepted

(* The subsumption graph from all n² tuple pairs: node [n] is the
   universal root, tuple [v]'s strict subsumers are listed descending,
   and the immediate ones get an edge in that order. *)
let pairwise_graph rel =
  let schema = Relation.schema rel in
  let tuples = Array.of_list (Relation.tuples rel) in
  let n = Array.length tuples in
  let dag = Dag.create () in
  for _ = 0 to n do
    ignore (Dag.add_node dag)
  done;
  let item i = tuples.(i).Relation.item in
  let above = Array.make n [] in
  for v = 0 to n - 1 do
    for u = 0 to n - 1 do
      if u <> v && Item.strictly_subsumes schema (item u) (item v) then
        above.(v) <- u :: above.(v)
    done
  done;
  for v = 0 to n - 1 do
    List.iter
      (fun u ->
        let blocked =
          List.exists
            (fun w -> w <> u && Item.strictly_subsumes schema (item u) (item w))
            above.(v)
        in
        if not blocked then Dag.add_edge dag u v)
      above.(v);
    if above.(v) = [] then Dag.add_edge dag n v
  done;
  (tuples, dag)

(* Node elimination as the paper states it: order the whole graph, then
   add each bypass edge unless (off-path) a path already exists. *)
let resorting_eliminate g ~on_path v =
  let order = Dag.topo_sort g in
  let position = Array.make (max 1 (Dag.capacity g)) 0 in
  List.iteri (fun i x -> position.(x) <- i) order;
  let ps = Dag.preds g v and ks = Dag.succs g v in
  Dag.remove_node g v;
  let ps = List.sort (fun a b -> Int.compare position.(b) position.(a)) ps in
  let ks = List.sort (fun a b -> Int.compare position.(a) position.(b)) ks in
  List.iter
    (fun j ->
      List.iter (fun k -> if on_path || not (Dag.reachable g j k) then Dag.add_edge g j k) ks)
    ps

(* The consolidated relation and the tuples removed, walking every
   tuple, atomic or not, through the one graph. *)
let resorting_consolidate rel =
  let tuples, dag = pairwise_graph rel in
  let root = Array.length tuples in
  let sign u = if u = root then Types.Neg else tuples.(u).Relation.sign in
  List.fold_left
    (fun ((result, removed) as acc) v ->
      if v = root then acc
      else begin
        let preds = Dag.preds dag v in
        if preds <> [] && List.for_all (fun u -> Types.sign_equal (sign u) (sign v)) preds
        then begin
          resorting_eliminate dag ~on_path:false v;
          (Relation.remove result tuples.(v).Relation.item, tuples.(v) :: removed)
        end
        else acc
      end)
    (rel, []) (Dag.topo_sort dag)

(* ---- comparisons ----------------------------------------------------- *)

(* Each node's successors, then its predecessors, in insertion order. *)
let edges dag =
  List.concat_map
    (fun u ->
      List.map (fun v -> (u, v)) (Dag.succs_ordered dag u)
      @ List.map (fun w -> (w, u)) (Dag.preds_ordered dag u))
    (Dag.live_nodes dag)

let show_edges es = String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) es)
let show rel = Format.asprintf "%a" Relation.pp rel

(* [refine]'s closure of [seeds], which must equal the pairwise one. *)
let check_closure ~ctx schema rel seeds =
  let closed = Ops.refine ~consolidate:false schema (Binding.truth rel) seeds in
  let want = pairwise_closure schema seeds in
  if Relation.items closed <> want then
    Alcotest.failf "%s: bucketed closure has %d items, the pairwise one %d\n%s" ctx
      (Relation.cardinality closed) (List.length want) (show closed);
  closed

let check_consolidate ~ctx rel =
  let got, got_removed = Consolidate.consolidate_verbose rel in
  let want, want_removed = resorting_consolidate rel in
  if not (Relation.equal got want) then
    Alcotest.failf "%s: consolidation differs\ngot:\n%s\nre-sorting:\n%s" ctx (show got)
      (show want);
  (* the same tuples, whatever order each walk removed them in *)
  let sorted removed =
    List.sort String.compare
      (List.map
         (fun (t : Relation.tuple) ->
           Format.asprintf "%a%s" Types.pp_sign t.Relation.sign
             (Item.to_string (Relation.schema rel) t.Relation.item))
         removed)
  in
  let got_removed = sorted got_removed and want_removed = sorted want_removed in
  if got_removed <> want_removed then
    Alcotest.failf "%s: consolidation removes different tuples\ngot:        %s\nre-sorting: %s"
      ctx (String.concat " " got_removed) (String.concat " " want_removed)

(* ---- random schemas and seed sets ------------------------------------ *)

let random_item g schema =
  Item.make schema
    (Array.init (Schema.arity schema) (fun i ->
         Prng.pick g (Array.of_list (Hierarchy.nodes (Schema.hierarchy schema i)))))

(* The seeds a join makes: one per maximal common descendant of two
   items. *)
let join_seeds g schema =
  Item.maximal_common_descendants schema (random_item g schema) (random_item g schema)

let random_round g round =
  let arity = 1 + Prng.int g 3 in
  let hier k =
    Workload.random_hierarchy g
      {
        Workload.name = Printf.sprintf "clo%d_%d_%d" seed round k;
        classes = 4 + Prng.int g 8;
        instances = 6 + Prng.int g 10;
        multi_parent_prob = 0.4;
      }
  in
  let schema = Schema.make (List.init arity (fun k -> (Printf.sprintf "a%d" k, hier k))) in
  let rel =
    Workload.consistent_random_relation g schema
      {
        Workload.rel_name = Printf.sprintf "r%d" round;
        tuples = 4 + Prng.int g 12;
        neg_fraction = 0.35;
        instance_fraction = 0.4;
      }
  in
  let seeds =
    List.init (2 + Prng.int g 10) (fun _ -> random_item g schema)
    @ List.concat (List.init (1 + Prng.int g 4) (fun _ -> join_seeds g schema))
    @ List.filter (fun _ -> Prng.bool g) (Relation.items rel)
  in
  (schema, rel, seeds)

let random_closures () =
  let g = Prng.create (Int64.of_int seed) in
  let grew = ref 0 in
  for round = 1 to 60 do
    let schema, rel, seeds = random_round g round in
    let ctx = Printf.sprintf "round %d (arity %d)" round (Schema.arity schema) in
    let closed = check_closure ~ctx schema rel seeds in
    if Relation.cardinality closed > List.length (List.sort_uniq Item.compare seeds) then incr grew;
    check_consolidate ~ctx:(ctx ^ ", closure") closed;
    check_consolidate ~ctx:(ctx ^ ", relation") rel
  done;
  (* the closure must have had work to do *)
  Alcotest.(check bool) (Printf.sprintf "%d of 60 closures added items" !grew) true (!grew >= 10)

(* ---- mostly atomic relations ----------------------------------------- *)

(* The shape of a selection over instance data: nine in ten coordinates
   are instances, under a few class tuples of both signs, so most tuples
   are atomic sinks of the subsumption graph. *)
let atomic_round g round =
  let arity = 1 + Prng.int g 3 in
  let hier k =
    Workload.random_hierarchy g
      {
        Workload.name = Printf.sprintf "atm%d_%d_%d" seed round k;
        classes = 3 + Prng.int g 5;
        instances = 4 + Prng.int g 6;
        multi_parent_prob = 0.5;
      }
  in
  let schema = Schema.make (List.init arity (fun k -> (Printf.sprintf "a%d" k, hier k))) in
  let rel =
    Workload.random_relation g schema
      {
        Workload.rel_name = Printf.sprintf "atm%d" round;
        tuples = 8 + Prng.int g 16;
        neg_fraction = 0.4;
        instance_fraction = 0.9;
      }
  in
  let classes =
    Workload.random_relation g schema
      {
        Workload.rel_name = "classes";
        tuples = 2 + Prng.int g 3;
        neg_fraction = 0.5;
        instance_fraction = 0.0;
      }
  in
  let rel =
    Relation.fold
      (fun (t : Relation.tuple) r ->
        if Relation.mem r t.Relation.item then r else Relation.add r t.Relation.item t.Relation.sign)
      classes rel
  in
  (schema, Workload.repair g rel)

(* How many atomic tuples have no, one and several immediate
   predecessors in the full graph, and how many of those with none are
   negative. *)
let sink_shapes rel =
  let schema = Relation.schema rel in
  let tuples, dag = pairwise_graph rel in
  let root = Array.length tuples in
  let counts = Array.make 4 0 in
  Array.iteri
    (fun v (t : Relation.tuple) ->
      if Item.is_atomic schema t.Relation.item then begin
        let k =
          match Dag.preds dag v with
          | [ u ] when u = root -> if Types.sign_equal t.Relation.sign Types.Neg then 3 else 0
          | [ _ ] -> 1
          | _ -> 2
        in
        counts.(k) <- counts.(k) + 1
      end)
    tuples;
  counts

let atomic_sinks () =
  let g = Prng.create (Int64.of_int (seed + 2)) in
  let shapes = Array.make 4 0 in
  for round = 1 to 60 do
    let schema, rel = atomic_round g round in
    let ctx = Printf.sprintf "atomic round %d (arity %d)" round (Schema.arity schema) in
    let closed = check_closure ~ctx schema rel (Relation.items rel) in
    check_consolidate ~ctx:(ctx ^ ", relation") rel;
    check_consolidate ~ctx:(ctx ^ ", closure") closed;
    Array.iteri (fun k n -> shapes.(k) <- shapes.(k) + n) (sink_shapes rel)
  done;
  let covered what k =
    Alcotest.(check bool)
      (Printf.sprintf "%d atomic tuples with %s" shapes.(k) what)
      true (shapes.(k) > 0)
  in
  covered "no subsumer, positive" 0;
  covered "one minimal subsumer" 1;
  covered "several minimal subsumers" 2;
  covered "no subsumer, negative" 3

(* ---- node elimination on random DAGs --------------------------------- *)

(* Edges only go from lower to higher ids, so the graph is acyclic; it
   is not reduced, so off-path bypass tests see real paths. *)
let random_dag g n density =
  let dag = Dag.create () in
  for _ = 1 to n do
    ignore (Dag.add_node dag)
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.float g 1.0 < density then Dag.add_edge dag u v
    done
  done;
  dag

let random_eliminations () =
  let g = Prng.create (Int64.of_int (seed + 1)) in
  for round = 1 to 40 do
    let n = 5 + Prng.int g 30 in
    let ours = random_dag g n (Prng.float g 0.4) in
    let theirs = Dag.copy ours in
    let on_path = Prng.bool g in
    for step = 1 to n / 2 do
      let v = Prng.pick g (Array.of_list (Dag.live_nodes ours)) in
      Dag.eliminate_node ours ~on_path v;
      resorting_eliminate theirs ~on_path v;
      let a = List.sort compare (edges ours) and b = List.sort compare (edges theirs) in
      if a <> b then
        Alcotest.failf "round %d step %d (on_path %b): eliminating %d\ngot:  %s\nwant: %s" round
          step on_path v (show_edges a) (show_edges b)
    done
  done

(* ---- cost on disjoint instance seeds --------------------------------- *)

let work counter f =
  Metrics.with_enabled true (fun () ->
      let before = Metrics.counter_value counter in
      let x = f () in
      (x, Metrics.counter_value counter - before))

(* The hb shape: a class of n instances crossed with a flat domain, one
   positive class tuple over all of it and a negated tuple per instance,
   so selecting the class seeds n pairwise-disjoint instance items plus
   the class item, and all n + 1 survive consolidation. *)
let disjoint_seeds () =
  let n = 200 in
  let h = Hierarchy.create "cst" in
  ignore (Hierarchy.add_class h "cst_k");
  for j = 0 to n - 1 do
    ignore (Hierarchy.add_instance h ~parents:[ "cst_k" ] (Printf.sprintf "cst_i%d" j))
  done;
  let hw = Hierarchy.create "csw" in
  for k = 0 to 7 do
    ignore (Hierarchy.add_instance hw (Printf.sprintf "csw_%d" k))
  done;
  let schema = Schema.make [ ("v", h); ("w", hw) ] in
  let rows =
    (Types.Pos, [ "cst_k"; "csw" ])
    :: List.init n (fun j ->
           (Types.Neg, [ Printf.sprintf "cst_i%d" j; Printf.sprintf "csw_%d" (j mod 8) ]))
  in
  let rel = Relation.of_tuples ~name:"cst_r" schema rows in
  let (selected, pairs), probes =
    work "core.binding.index_probes" (fun () ->
        work "core.ops.closure.pairs" (fun () -> Ops.select rel ~attr:"v" ~value:"cst_k"))
  in
  Alcotest.(check int) "every tuple survives" (n + 1) (Relation.cardinality selected);
  Alcotest.(check bool)
    (Printf.sprintf "closure pair tests %d <= 4n = %d" pairs (4 * n))
    true
    (pairs <= 4 * n);
  (* The instance seeds are atomic and the class seed pairs with no
     other non-atomic item; every seed is a stored item, answered from
     its tuple. *)
  Alcotest.(check int) "atomic seeds make no closure pairs" 0 pairs;
  Alcotest.(check bool)
    (Printf.sprintf "index probes %d <= 1" probes)
    true (probes <= 1);
  let consolidated, checks =
    work "hierarchy.subsumption_checks" (fun () -> Consolidate.consolidate selected)
  in
  Alcotest.(check bool) "consolidation keeps the result" true (Relation.equal consolidated selected);
  Alcotest.(check bool)
    (Printf.sprintf "consolidation subsumption checks %d <= 4n = %d" checks (4 * n))
    true
    (checks <= 4 * n)

let suite =
  [
    Alcotest.test_case "closure and consolidate = pairwise on random DAGs" `Quick
      random_closures;
    Alcotest.test_case "atomic sinks consolidate as in the full walk" `Quick atomic_sinks;
    Alcotest.test_case "eliminate_node = re-sorting elimination" `Quick random_eliminations;
    Alcotest.test_case "n disjoint seeds cost O(n) pairs and checks" `Quick disjoint_seeds;
  ]
