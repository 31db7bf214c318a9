(* Selection through the binding index, differentially:

   - [Ops.select] and [Ops.select_justified] find their tuples with
     [Relation.meeting]; here they are checked against the full scan
     that tests every stored tuple, kept below as the oracle, on binary
     relations over random DAG hierarchies (multi-parent nodes, so a
     coordinate can be incomparable with the selected class and still
     meet it);
   - [Hierarchy.intersecting] is checked against the definition (shared
     descendants) and against its limit;
   - a fixed diamond pins the incomparable-but-intersecting case on both
     sides of the probe's cone/key-walk switch;
   - on the root of a large hierarchy over a small relation, the probe
     does no more reachability work than the scan.

   The random part is replayable: [HRDB_TEST_SEED=n dune runtest]. *)

module Workload = Hr_workload.Workload
module Prng = Hr_util.Prng
module Hierarchy = Hr_hierarchy.Hierarchy
module Metrics = Hr_obs.Metrics
open Hierel

let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None -> Int64.to_int (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let () =
  Printf.eprintf "test_select: differential seed %d (replay with HRDB_TEST_SEED=%d)\n%!" seed
    seed

(* ---- the oracle: selection by scanning every tuple ------------------- *)

(* [u] and [v] intersect iff they share a descendant: straight from the
   descendant lists, not through [Hierarchy.intersects]. *)
let meets h u v =
  let dv = Hierarchy.descendants h v in
  List.exists (fun w -> List.mem w dv) (Hierarchy.descendants h u)

let scan_applicable rel i v =
  let h = Schema.hierarchy (Relation.schema rel) i in
  List.filter (fun (t : Relation.tuple) -> meets h (Item.coord t.Relation.item i) v)
    (Relation.tuples rel)

let scan_select rel i v =
  let schema = Relation.schema rel in
  let h = Schema.hierarchy schema i in
  let seeds =
    Relation.fold
      (fun (t : Relation.tuple) acc ->
        let mcds = Hierarchy.maximal_common_descendants h (Item.coord t.Relation.item i) v in
        List.fold_left (fun acc m -> Item.substitute t.Relation.item i m :: acc) acc mcds)
      rel []
  in
  Ops.refine ~name:"select" schema (Binding.truth rel) seeds

(* ---- comparing one selection ----------------------------------------- *)

let tuple_equal (a : Relation.tuple) (b : Relation.tuple) =
  Item.equal a.Relation.item b.Relation.item && Types.sign_equal a.Relation.sign b.Relation.sign

let show rel = Format.asprintf "%a" Relation.pp rel

let distinct_coords rel i =
  List.sort_uniq Int.compare
    (List.map (fun (t : Relation.tuple) -> Item.coord t.Relation.item i) (Relation.tuples rel))

(* Checks one selection against the oracle; returns whether the probe
   took its cone path (the cone fits under the number of bucketed
   nodes) rather than walking the bucket keys. *)
let check_select ~ctx rel i v =
  let schema = Relation.schema rel in
  let h = Schema.hierarchy schema i in
  let attr = List.nth (Schema.names schema) i and value = Hierarchy.node_label h v in
  let ctx = Printf.sprintf "%s: %s = %s" ctx attr value in
  let result, applicable = Ops.select_justified rel ~attr ~value in
  let expected = scan_select rel i v in
  if not (Relation.equal result expected) then
    Alcotest.failf "%s: select differs from the scan\nprobe:\n%s\nscan:\n%s" ctx (show result)
      (show expected);
  if not (Relation.equal (Ops.select rel ~attr ~value) expected) then
    Alcotest.failf "%s: select and select_justified disagree" ctx;
  if not (List.equal tuple_equal applicable (scan_applicable rel i v)) then
    Alcotest.failf "%s: applicable tuples differ from the scan (%d vs %d)" ctx
      (List.length applicable)
      (List.length (scan_applicable rel i v));
  let cone = List.filter (fun u -> meets h u v) (Hierarchy.nodes h) in
  let keys = List.length (distinct_coords rel i) in
  List.iter
    (fun limit ->
      let want = if List.length cone <= limit then Some cone else None in
      if Hierarchy.intersecting h v ~limit <> want then
        Alcotest.failf "%s: intersecting ~limit:%d is wrong (cone of %d nodes)" ctx limit
          (List.length cone))
    [ 0; keys; List.length cone; List.length cone - 1; Hierarchy.node_count h ];
  List.length cone <= keys

(* ---- random binary relations over DAGs ------------------------------- *)

let random_round g round =
  let hier name =
    Workload.random_hierarchy g
      {
        Workload.name = Printf.sprintf "sel%d_%d_%s" seed round name;
        classes = 6 + Prng.int g 10;
        instances = 8 + Prng.int g 16;
        multi_parent_prob = 0.4;
      }
  in
  let ha = hier "a" and hb = hier "b" in
  let schema = Schema.make [ ("x", ha); ("y", hb) ] in
  let rel =
    Workload.consistent_random_relation g schema
      {
        Workload.rel_name = Printf.sprintf "r%d" round;
        tuples = 6 + Prng.int g 20;
        neg_fraction = 0.35;
        instance_fraction = 0.4;
      }
  in
  (schema, rel)

let random_selections () =
  let g = Prng.create (Int64.of_int seed) in
  let cone_paths = ref 0 and key_walks = ref 0 in
  for round = 1 to 40 do
    let schema, rel = random_round g round in
    for i = 0 to 1 do
      let h = Schema.hierarchy schema i in
      let pick pool = Prng.pick g (Array.of_list pool) in
      let values =
        [ Hierarchy.root h; pick (Hierarchy.classes h); pick (Hierarchy.classes h);
          pick (Hierarchy.instances h); pick (Hierarchy.instances h) ]
      in
      List.iter
        (fun v ->
          if check_select ~ctx:(Printf.sprintf "round %d" round) rel i v then incr cone_paths
          else incr key_walks)
        values
    done
  done;
  (* both sides of the switch must have been exercised *)
  Alcotest.(check bool) "some selections read the cone's buckets" true (!cone_paths > 0);
  Alcotest.(check bool) "some selections walked the bucket keys" true (!key_walks > 0)

(* ---- a fixed diamond ------------------------------------------------- *)

(* dia ⊇ dia_a, dia_b; dia_c sits under both. A tuple on [dia_a] is
   incomparable with [dia_b] yet meets it in [dia_c]: a probe that read
   only the ancestors and descendants of [dia_b] would miss it. Six
   instances right under the root give the relation seven bucketed
   nodes, more than [dia_b]'s five-node cone, so that selection reads
   buckets; the root's cone (twelve nodes) is larger, so a selection on
   the root walks the keys. *)
let diamond () =
  let h = Hierarchy.create "dia" in
  ignore (Hierarchy.add_class h "dia_a");
  ignore (Hierarchy.add_class h "dia_b");
  ignore (Hierarchy.add_class h ~parents:[ "dia_a"; "dia_b" ] "dia_c");
  ignore (Hierarchy.add_instance h ~parents:[ "dia_c" ] "dia_x");
  for k = 1 to 6 do
    ignore (Hierarchy.add_instance h (Printf.sprintf "dia_i%d" k))
  done;
  ignore (Hierarchy.add_instance h "dia_y");
  let hw = Hierarchy.create "diw" in
  ignore (Hierarchy.add_instance hw "diw_p");
  let schema = Schema.make [ ("v", h); ("w", hw) ] in
  let rows =
    (Types.Pos, [ "dia_a"; "diw" ])
    :: List.init 6 (fun k -> (Types.Neg, [ Printf.sprintf "dia_i%d" (k + 1); "diw_p" ]))
  in
  (h, Relation.of_tuples ~name:"dia_r" schema rows)

let diamond_selection () =
  let h, rel = diamond () in
  let b = Hierarchy.find_exn h "dia_b" in
  Alcotest.(check bool) "dia_b reads the cone's buckets" true (check_select ~ctx:"diamond" rel 0 b);
  let result, applicable = Ops.select_justified rel ~attr:"v" ~value:"dia_b" in
  Alcotest.(check (list (list string)))
    "the tuple on dia_a is cut down to dia_c"
    [ [ "+"; "V dia_c"; "V diw" ] ]
    (Relation.to_rows result);
  Alcotest.(check int) "one applicable tuple" 1 (List.length applicable);
  Alcotest.(check bool) "the root walks the keys" false
    (check_select ~ctx:"diamond" rel 0 (Hierarchy.root h));
  List.iter
    (fun name -> ignore (check_select ~ctx:"diamond" rel 0 (Hierarchy.find_exn h name)))
    [ "dia_a"; "dia_c"; "dia_x"; "dia_i3"; "dia_y" ]

(* ---- cost on the root of a large hierarchy --------------------------- *)

let reach_work f =
  Metrics.with_enabled true (fun () ->
      let before = Metrics.counter_value "graph.reach.queries" in
      let x = f () in
      (x, Metrics.counter_value "graph.reach.queries" - before))

let root_of_large_hierarchy () =
  let h =
    Workload.tree_hierarchy ~name:"selbig" ~depth:4 ~fanout:6 ~instances_per_leaf:3 ()
  in
  let schema = Schema.make [ ("v", h) ] in
  let rel =
    Relation.of_tuples ~name:"selbig_r" schema
      [ (Types.Pos, [ "c0_1" ]); (Types.Neg, [ "c1_2" ]); (Types.Pos, [ "i5" ]) ]
  in
  let root = Hierarchy.root h in
  ignore (Relation.meeting rel 0 root);
  (* the index is built; now compare the probe with the scan *)
  let probed, probe_work = reach_work (fun () -> Relation.meeting rel 0 root) in
  let scanned, scan_work =
    reach_work (fun () ->
        List.filter
          (fun (t : Relation.tuple) -> Hierarchy.intersects h (Item.coord t.Relation.item 0) root)
          (Relation.tuples rel))
  in
  Alcotest.(check bool) "same tuples" true (List.equal tuple_equal probed scanned);
  Alcotest.(check bool)
    (Printf.sprintf "probe reach work %d <= scan's %d" probe_work scan_work)
    true (probe_work <= scan_work);
  Alcotest.(check bool) "the root's cone is not enumerated" true
    (Hierarchy.intersecting h root ~limit:(Relation.cardinality rel) = None);
  Alcotest.(check bool) "on a hierarchy of thousands of nodes" true (Hierarchy.node_count h > 4000)

let suite =
  [
    Alcotest.test_case "select = full scan on random DAG binary relations" `Quick
      random_selections;
    Alcotest.test_case "diamond: incomparable but intersecting" `Quick diamond_selection;
    Alcotest.test_case "root of a large hierarchy costs no more than a scan" `Quick
      root_of_large_hierarchy;
  ]
