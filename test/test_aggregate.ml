(* Aggregation tests (§3.3.2 motivation: counts over explicated data).

   COUNT, COUNT BY and [count_under] count from the MCD closure of the
   operand with closure weights (docs/SEMANTICS.md §6, Lemma C); they
   never list atoms. The differential part checks them, on every
   attribute, against explicate-and-tally ([Flatten.extension_list],
   then counting the atoms):

   - random DAG hierarchies (multi-parent nodes, so classes overlap at
     common descendants) and consistent random relations of arity 1-3,
     and a selection from each;
   - mostly atomic relations under a few class tuples of both signs;
   - hierarchies with preference edges, where the reference is every
     atom of the schema whose binding verdict is positive. There the
     explicated extension ([Flatten.extension_list]) must equal it too,
     and so must the positive atoms of a partial explication and of the
     CONSOLIDATED relation.

   Fixed cases: a conflicted operand makes COUNT fail with the text a
   selection gives, and counting a class tuple of 512 instances
   explicates nothing.

   The random part is replayable: [HRDB_TEST_SEED=n dune runtest]. *)

module Eval = Hr_query.Eval
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
  Printf.eprintf "test_aggregate: differential seed %d (replay with HRDB_TEST_SEED=%d)\n%!"
    seed seed

let test_count () =
  let h = Fixtures.animals () in
  Alcotest.(check int) "4 flyers" 4 (Aggregate.count (Fixtures.flies h));
  Alcotest.(check int) "empty" 0
    (Aggregate.count (Relation.empty (Fixtures.flies_schema h)))

let test_count_is_extension_not_tuples () =
  let h = Fixtures.animals () in
  let schema = Fixtures.flies_schema h in
  let rel = Relation.of_tuples ~name:"r" schema [ (Types.Pos, [ "penguin" ]) ] in
  Alcotest.(check int) "1 stored tuple" 1 (Relation.cardinality rel);
  Alcotest.(check int) "4 penguins counted" 4 (Aggregate.count rel)

let test_count_by () =
  let he = Fixtures.elephants () and hc = Fixtures.colors () in
  let color = Fixtures.animal_color he hc in
  let by_color = Aggregate.histogram color ~attr:"color" in
  Alcotest.(check (list (pair string int))) "one of each"
    [ ("dappled", 1); ("white", 1) ] by_color

let test_count_under () =
  let h = Fixtures.animals () in
  let flies = Fixtures.flies h in
  Alcotest.(check int) "flying penguins" 3
    (Aggregate.count_under flies ~attr:"creature" ~cls:"penguin");
  Alcotest.(check int) "flying birds = all flyers" 4
    (Aggregate.count_under flies ~attr:"creature" ~cls:"bird");
  Alcotest.(check int) "flying canaries" 1
    (Aggregate.count_under flies ~attr:"creature" ~cls:"canary")

let test_hrql_count () =
  let cat = Catalog.create () in
  let script =
    {|
    CREATE DOMAIN animal;
    CREATE CLASS bird UNDER animal;
    CREATE CLASS penguin UNDER bird;
    CREATE INSTANCE tweety OF bird;
    CREATE INSTANCE paul OF penguin;
    CREATE INSTANCE pam OF penguin;
    CREATE RELATION flies (creature: animal);
    INSERT INTO flies VALUES (+ ALL bird), (- ALL penguin);
    |}
  in
  (match Eval.run_script cat script with Ok _ -> () | Error e -> failwith e);
  (match Eval.run_script cat "COUNT flies;" with
  | Ok [ out ] -> Alcotest.(check string) "count" "count: 1" out
  | Ok _ | Error _ -> Alcotest.fail "COUNT failed");
  match Eval.run_script cat "COUNT flies UNION flies BY creature;" with
  | Ok [ out ] ->
    Alcotest.(check bool) "histogram mentions tweety" true
      (let contains ~sub s =
         let n = String.length sub and m = String.length s in
         let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
         loop 0
       in
       contains ~sub:"tweety" out)
  | Ok _ | Error _ -> Alcotest.fail "COUNT BY failed"

let test_hrql_explain_plan () =
  let cat = Catalog.create () in
  let script =
    {|
    CREATE DOMAIN d;
    CREATE INSTANCE x OF d;
    CREATE RELATION a (v: d);
    CREATE RELATION b (v: d);
    |}
  in
  (match Eval.run_script cat script with Ok _ -> () | Error e -> failwith e);
  match Eval.run_script cat "EXPLAIN PLAN SELECT (a UNION b) WHERE v = x;" with
  | Ok [ out ] ->
    Alcotest.(check bool) "shows the pushdown" true
      (let contains ~sub s =
         let n = String.length sub and m = String.length s in
         let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
         loop 0
       in
       contains ~sub:"union(select[v=x](a), select[v=x](b))" out)
  | Ok _ | Error _ -> Alcotest.fail "EXPLAIN PLAN failed"

(* ---- fixed cases ------------------------------------------------------ *)

(* The classes a and b overlap only at z, declared after the tuples, so
   r holds +a and -b with no tuple to settle z: r conflicts at z. *)
let test_conflict_fails () =
  let cat = Catalog.create () in
  (match
     Eval.run_script cat
       "CREATE DOMAIN d; CREATE CLASS a UNDER d; CREATE CLASS b UNDER d; CREATE RELATION r \
        (x: d); INSERT INTO r VALUES (+ ALL a), (- ALL b); CREATE INSTANCE z OF a, b;"
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let error stmt =
    match Eval.run_script cat stmt with
    | Ok out -> Alcotest.failf "%s answered %S" stmt (String.concat "" out)
    | Error e -> e
  in
  let want = {|at line 1, column 1: conflict at item (z) in relation "r"|} in
  Alcotest.(check string) "SELECT" want (error "SELECT * FROM r WHERE x = d;");
  Alcotest.(check string) "COUNT" want (error "COUNT r;");
  Alcotest.(check string) "COUNT BY" want (error "COUNT r BY x;")

(* b is preferred over a, so -b binds z more strongly than +a: z is out.
   Declaring b before a puts it first in the isa order explication walks. *)
let test_preference_edge () =
  List.iter
    (fun (first, second) ->
      let cat = Catalog.create () in
      let script =
        Printf.sprintf
          "CREATE DOMAIN d; CREATE CLASS %s UNDER d; CREATE CLASS %s UNDER d; CREATE \
           PREFERENCE b OVER a; CREATE INSTANCE z OF a, b; CREATE INSTANCE y OF a; CREATE \
           RELATION r (x: d); INSERT INTO r VALUES (+ ALL a), (- ALL b); ASK r (z); COUNT r; \
           COUNT r BY x;"
          first second
      in
      match Eval.run_script cat script with
      | Ok outs ->
        let outs = List.filteri (fun i _ -> i >= List.length outs - 3) outs in
        Alcotest.(check (list string))
          (Printf.sprintf "%s before %s" first second)
          [
            "- (by (V b))";
            "count: 1";
            "+---+-------+\n| x | count |\n+---+-------+\n| y | 1     |\n+---+-------+\n";
          ]
          outs
      | Error e -> failwith e)
    [ ("a", "b"); ("b", "a") ]

let work counter f =
  Metrics.with_enabled true (fun () ->
      let before = Metrics.counter_value counter in
      let x = f () in
      (x, Metrics.counter_value counter - before))

(* The hb shape: one class of 512 instances crossed with a flat domain
   of 8 values, asserted by one class tuple. *)
let test_class_tuple_cost () =
  let n = 512 in
  let h = Hierarchy.create "agg_v" in
  ignore (Hierarchy.add_class h "agg_k");
  for j = 0 to n - 1 do
    ignore (Hierarchy.add_instance h ~parents:[ "agg_k" ] (Printf.sprintf "agg_i%d" j))
  done;
  let hw = Hierarchy.create "agg_w" in
  for k = 0 to 7 do
    ignore (Hierarchy.add_instance hw (Printf.sprintf "agg_w%d" k))
  done;
  let schema = Schema.make [ ("v", h); ("w", hw) ] in
  let rel = Relation.of_tuples ~name:"agg_r" schema [ (Types.Pos, [ "agg_k"; "agg_w" ]) ] in
  let (total, by_v, by_w), explications =
    work "core.flatten.extensions" (fun () ->
        ( Aggregate.count rel,
          Aggregate.count_by rel ~attr:"v",
          Aggregate.histogram rel ~attr:"w" ))
  in
  Alcotest.(check int) "explications" 0 explications;
  Alcotest.(check int) "count" (n * 8) total;
  Alcotest.(check int) "one row per instance" n (List.length by_v);
  Alcotest.(check bool) "8 under each instance" true (List.for_all (fun (_, k) -> k = 8) by_v);
  Alcotest.(check (list (pair string int)))
    "by w"
    (List.init 8 (fun k -> (Printf.sprintf "agg_w%d" k, n)))
    by_w

(* ---- the differential suite ------------------------------------------ *)

(* The reference tallies of [atoms]: the total, per attribute the count
   of each instance in item order, and [count_under] per class. *)
let check ~ctx rel atoms =
  let schema = Relation.schema rel in
  Alcotest.(check int) (ctx ^ ": count") (List.length atoms) (Aggregate.count rel);
  List.iteri
    (fun i attr ->
      let h = Schema.hierarchy schema i in
      let tally = Hashtbl.create 16 in
      List.iter
        (fun x ->
          let v = Item.coord x i in
          Hashtbl.replace tally v (1 + Option.value ~default:0 (Hashtbl.find_opt tally v)))
        atoms;
      let want = List.sort compare (Hashtbl.fold (fun v k acc -> (v, k) :: acc) tally []) in
      let got = Aggregate.count_by rel ~attr in
      let show l =
        String.concat " "
          (List.map (fun (v, k) -> Printf.sprintf "%s=%d" (Hierarchy.node_label h v) k) l)
      in
      if got <> want then
        Alcotest.failf "%s: COUNT BY %s\ngot:  %s\nwant: %s\n%s" ctx attr (show got) (show want)
          (Format.asprintf "%a" Relation.pp rel);
      List.iter
        (fun c ->
          let want =
            List.length (List.filter (fun x -> Hierarchy.subsumes h c (Item.coord x i)) atoms)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: count under %s" ctx (Hierarchy.node_label h c))
            want
            (Aggregate.count_under rel ~attr ~cls:(Hierarchy.node_label h c)))
        (Hierarchy.classes h))
    (Schema.names schema)

(* Explicate and tally. *)
let explicated rel = Flatten.extension_list rel

(* Every atom of the schema whose verdict is positive. *)
let positive_atoms rel =
  let schema = Relation.schema rel in
  let all =
    List.fold_right
      (fun i rest ->
        List.concat_map
          (fun v -> List.map (fun tail -> v :: tail) rest)
          (Hierarchy.instances (Schema.hierarchy schema i)))
      (List.init (Schema.arity schema) Fun.id)
      [ [] ]
  in
  List.filter (Binding.holds rel) (List.map (fun x -> Item.make schema (Array.of_list x)) all)

let random_hierarchy g name ~preferences =
  let h =
    Workload.random_hierarchy g
      {
        Workload.name;
        classes = 4 + Prng.int g 8;
        instances = 6 + Prng.int g 10;
        multi_parent_prob = 0.4;
      }
  in
  if preferences then begin
    let classes =
      Array.of_list (List.filter (fun v -> v <> Hierarchy.root h) (Hierarchy.classes h))
    in
    for _ = 1 to 2 + Prng.int g 3 do
      let w = Prng.pick g classes and s = Prng.pick g classes in
      try
        Hierarchy.add_preference h ~weaker:(Hierarchy.node_label h w)
          ~stronger:(Hierarchy.node_label h s)
      with Hierarchy.Error _ -> ()
    done
  end;
  h

let random_schema g prefix round ~preferences =
  let arity = 1 + Prng.int g 3 in
  Schema.make
    (List.init arity (fun k ->
         let name = Printf.sprintf "%s%d_%d_%d" prefix seed round k in
         (Printf.sprintf "a%d" k, random_hierarchy g name ~preferences)))

(* Does the closure add items to [rel]'s own? *)
let closure_grows rel =
  let closed =
    Ops.refine ~consolidate:false (Relation.schema rel) (Binding.truth rel) (Relation.items rel)
  in
  Relation.cardinality closed > Relation.cardinality rel

let random_relations () =
  let g = Prng.create (Int64.of_int seed) in
  let grew = ref 0 in
  for round = 1 to 60 do
    let schema = random_schema g "agr" round ~preferences:false in
    let rel =
      Workload.consistent_random_relation g schema
        {
          Workload.rel_name = Printf.sprintf "agr%d" round;
          tuples = 4 + Prng.int g 12;
          neg_fraction = 0.35;
          instance_fraction = 0.3;
        }
    in
    let ctx = Printf.sprintf "round %d (arity %d)" round (Schema.arity schema) in
    if closure_grows rel then incr grew;
    check ~ctx rel (explicated rel);
    let i = Prng.int g (Schema.arity schema) in
    let h = Schema.hierarchy schema i in
    let value = Hierarchy.node_label h (Prng.pick g (Array.of_list (Hierarchy.nodes h))) in
    let selected = Ops.select rel ~attr:(List.nth (Schema.names schema) i) ~value in
    check ~ctx:(Printf.sprintf "%s, selection on %s" ctx value) selected (explicated selected)
  done;
  (* the closure must have had work to do *)
  Alcotest.(check bool) (Printf.sprintf "%d of 60 closures added items" !grew) true (!grew >= 10)

(* Nine in ten coordinates are instances, under a few class tuples of
   both signs. *)
let atomic_relations () =
  let g = Prng.create (Int64.of_int (seed + 1)) in
  for round = 1 to 60 do
    let schema = random_schema g "aga" round ~preferences:false in
    let atomic =
      Workload.random_relation g schema
        {
          Workload.rel_name = Printf.sprintf "aga%d" round;
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
          if Relation.mem r t.Relation.item then r
          else Relation.add r t.Relation.item t.Relation.sign)
        classes atomic
    in
    let rel = Workload.repair g rel in
    let ctx = Printf.sprintf "atomic round %d (arity %d)" round (Schema.arity schema) in
    check ~ctx rel (explicated rel)
  done

let preference_relations () =
  let g = Prng.create (Int64.of_int (seed + 2)) in
  for round = 1 to 40 do
    let schema = random_schema g "agp" round ~preferences:true in
    let rel =
      Workload.consistent_random_relation g schema
        {
          Workload.rel_name = Printf.sprintf "agp%d" round;
          tuples = 4 + Prng.int g 12;
          neg_fraction = 0.4;
          instance_fraction = 0.3;
        }
    in
    let ctx = Printf.sprintf "preference round %d (arity %d)" round (Schema.arity schema) in
    let atoms = positive_atoms rel in
    check ~ctx rel atoms;
    let show xs = String.concat " " (List.map (Item.to_string schema) xs) in
    let sorted = List.sort Item.compare in
    let same what got =
      if sorted got <> sorted atoms then
        Alcotest.failf "%s: %s\ngot:  %s\nwant: %s\n%s" ctx what (show (sorted got))
          (show (sorted atoms))
          (Format.asprintf "%a" Relation.pp rel)
    in
    same "explicated extension" (Flatten.extension_list rel);
    let over = List.filter (fun _ -> Prng.bool g) (Schema.names schema) in
    same
      (Printf.sprintf "atoms true after EXPLICATE OVER (%s)" (String.concat ", " over))
      (positive_atoms (Explicate.explicate ~over rel));
    same "atoms true after CONSOLIDATE" (positive_atoms (Ops.consolidated rel))
  done

let suite =
  [
    Alcotest.test_case "count" `Quick test_count;
    Alcotest.test_case "count = extension, not stored tuples" `Quick
      test_count_is_extension_not_tuples;
    Alcotest.test_case "count by" `Quick test_count_by;
    Alcotest.test_case "count under" `Quick test_count_under;
    Alcotest.test_case "HRQL COUNT" `Quick test_hrql_count;
    Alcotest.test_case "HRQL EXPLAIN PLAN" `Quick test_hrql_explain_plan;
    Alcotest.test_case "a conflicted operand fails COUNT" `Quick test_conflict_fails;
    Alcotest.test_case "COUNT follows preference edges" `Quick test_preference_edge;
    Alcotest.test_case "a class tuple is counted unexplicated" `Quick test_class_tuple_cost;
    Alcotest.test_case "random DAGs vs explicate-and-tally" `Quick random_relations;
    Alcotest.test_case "mostly atomic vs explicate-and-tally" `Quick atomic_relations;
    Alcotest.test_case "preference edges vs atom verdicts" `Quick preference_relations;
  ]
