(* Benchmark harness: regenerates, for every quantitative claim of the
   paper (see DESIGN.md §3: C1–C9, C12, C13, C15), the table or series
   that supports it, and times the core operations with Bechamel. System
   performance is measured end to end by perfbench, not here.

   The paper (SIGMOD 1989) reports no absolute numbers — its evaluation
   is the worked figures plus performance arguments (storage compression
   in §1; footnote 1's repeated-join degradation; consolidation and
   explication costs in §3.3). Accordingly each experiment below prints
   the paper's *shape*: who wins, by what factor, and how the gap scales.

   Run with: dune exec bench/main.exe *)

module Hierarchy = Hr_hierarchy.Hierarchy
module Workload = Hr_workload.Workload
module Traditional = Hr_flat.Traditional
module Flat_relation = Hr_flat.Flat_relation
module Mine = Hr_mine.Mine
module Prng = Hr_util.Prng
module Texttable = Hr_util.Texttable
open Hierel

let section title = Format.printf "@.==== %s ====@." title

(* ---- Bechamel helpers ----------------------------------------------- *)

open Bechamel
open Toolkit

(* Per-run knobs (set from argv before any experiment runs) and the
   accumulated estimates, for the optional --metrics-json report. *)
let quota_s = ref 0.25
let metrics_json_path : string option ref = ref None
let collected : (string * float) list ref = ref []

let run_benches ~label tests =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second !quota_s) ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:label ~fmt:"%s %s" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let table = Texttable.create ~aligns:[ Texttable.Left; Texttable.Right ] [ "benchmark"; "ns/op" ] in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         let ns =
           match Analyze.OLS.estimates ols with
           | Some (e :: _) ->
             collected := (name, e) :: !collected;
             Printf.sprintf "%.0f" e
           | Some [] | None -> "n/a"
         in
         Texttable.add_row table [ name; ns ]);
  print_string (Texttable.render table)

(* ---- C1: storage compression (paper §1) ------------------------------ *)

let bench_storage () =
  section "C1 — storage: one class tuple vs enumerated extension (paper §1)";
  let table =
    Texttable.create
      ~aligns:[ Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "extension size"; "hierarchical tuples"; "flat rows"; "flat bytes" ]
  in
  List.iter
    (fun (depth, fanout, ipl) ->
      let h = Workload.tree_hierarchy ~name:(Printf.sprintf "c1_%d_%d" depth ipl) ~depth ~fanout ~instances_per_leaf:ipl () in
      let schema = Schema.make [ ("v", h) ] in
      let rel =
        Relation.of_tuples ~name:"r" schema
          [ (Types.Pos, [ Hierarchy.node_label h (Hierarchy.root h) ]) ]
      in
      let flat = Traditional.extension_relation rel in
      Texttable.add_row table
        [
          string_of_int (Aggregate.count rel);
          string_of_int (Relation.cardinality rel);
          string_of_int (Flat_relation.cardinality flat);
          string_of_int (Flat_relation.approx_bytes flat);
        ])
    [ (1, 10, 1); (2, 10, 1); (2, 10, 10); (3, 10, 10) ];
  print_string (Texttable.render table);
  Format.printf
    "shape check: hierarchical storage is O(1) in the class size; flat storage is O(n).@."

(* ---- C2: membership queries vs repeated joins (footnote 1) ----------- *)

let bench_membership () =
  section "C2 — membership: O(1) binding vs one join per level (footnote 1)";
  let depths = [ 2; 4; 8; 16 ] in
  let table =
    Texttable.create
      ~aligns:[ Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "hierarchy depth"; "traditional join rounds"; "hierarchical lookups" ]
  in
  let setups =
    List.map
      (fun d ->
        let h = Workload.chain_hierarchy ~name:(Printf.sprintf "c2_%d" d) ~depth:d () in
        (d, h, Traditional.of_hierarchy h))
      depths
  in
  List.iter
    (fun (d, _, t) ->
      let _, joins = Traditional.member_join_count t ~instance:"leaf" ~cls:"c0" in
      Texttable.add_row table [ string_of_int d; string_of_int joins; "1" ])
    setups;
  print_string (Texttable.render table);
  let tests =
    List.concat_map
      (fun (d, h, t) ->
        let leaf = Hierarchy.find_exn h "leaf" and c0 = Hierarchy.find_exn h "c0" in
        ignore (Hierarchy.subsumes h c0 leaf) (* warm the reachability index *);
        [
          Test.make
            ~name:(Printf.sprintf "hier/depth %02d" d)
            (Staged.stage (fun () -> Hierarchy.subsumes h c0 leaf));
          Test.make
            ~name:(Printf.sprintf "trad/depth %02d" d)
            (Staged.stage (fun () -> Traditional.member t ~instance:"leaf" ~cls:"c0"));
        ])
      setups
  in
  run_benches ~label:"membership" tests;
  Format.printf
    "shape check: traditional latency grows with depth; hierarchical stays flat.@."

(* ---- C3: consolidation (paper §3.3.1) -------------------------------- *)

let bench_consolidate () =
  section "C3 — consolidation: compression vs redundancy rate (§3.3.1)";
  let g = Prng.create 11L in
  let h = Workload.tree_hierarchy ~name:"c3" ~depth:3 ~fanout:4 ~instances_per_leaf:2 () in
  let table =
    Texttable.create
      ~aligns:[ Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "redundancy"; "tuples before"; "tuples after"; "extension preserved" ]
  in
  let cases =
    List.map
      (fun redundancy ->
        let rel = Workload.redundant_relation (Prng.split g) h ~redundancy ~tuples:60 in
        let c = Consolidate.consolidate rel in
        Texttable.add_row table
          [
            Printf.sprintf "%.0f%%" (redundancy *. 100.);
            string_of_int (Relation.cardinality rel);
            string_of_int (Relation.cardinality c);
            string_of_bool (Flatten.equal_extension rel c);
          ];
        (redundancy, rel))
      [ 0.0; 0.3; 0.6; 0.9 ]
  in
  print_string (Texttable.render table);
  let tests =
    List.map
      (fun (redundancy, rel) ->
        Test.make
          ~name:(Printf.sprintf "redundancy %.0f%%" (redundancy *. 100.))
          (Staged.stage (fun () -> Consolidate.consolidate rel)))
      cases
  in
  run_benches ~label:"consolidate" tests

(* ---- C4: explication (paper §3.3.2) ----------------------------------- *)

let bench_explicate () =
  section "C4 — explication cost tracks extension size (§3.3.2)";
  let cases =
    List.map
      (fun (fanout, ipl) ->
        let h =
          Workload.tree_hierarchy ~name:(Printf.sprintf "c4_%d_%d" fanout ipl) ~depth:2 ~fanout
            ~instances_per_leaf:ipl ()
        in
        let schema = Schema.make [ ("v", h) ] in
        (* exception on the first depth-1 class actually present *)
        let some_leaf_class =
          List.find
            (fun c ->
              String.length (Hierarchy.node_label h c) > 1
              && (Hierarchy.node_label h c).[1] = '1')
            (Hierarchy.classes h)
        in
        let rel =
          Relation.of_tuples ~name:"r" schema
            [
              (Types.Pos, [ Hierarchy.node_label h (Hierarchy.root h) ]);
              (Types.Neg, [ Hierarchy.node_label h some_leaf_class ]);
            ]
        in
        (Aggregate.count rel, rel))
      [ (4, 4); (8, 4); (8, 16) ]
  in
  let tests =
    List.map
      (fun (size, rel) ->
        Test.make
          ~name:(Printf.sprintf "extension %5d" size)
          (Staged.stage (fun () -> Explicate.explicate rel)))
      cases
  in
  run_benches ~label:"explicate" tests

(* ---- C5: lifted set operations vs explicate-then-flat ----------------- *)

let bench_setops () =
  section "C5 — set ops: lifted (hierarchical) vs explicate-then-flat (§3.4)";
  let h = Workload.tree_hierarchy ~name:"c5" ~depth:2 ~fanout:6 ~instances_per_leaf:8 () in
  let schema = Schema.make [ ("v", h) ] in
  let deep_classes =
    List.filter
      (fun c ->
        let l = Hierarchy.node_label h c in
        String.length l > 1 && l.[0] = 'c' && l.[1] = '1')
      (Hierarchy.classes h)
    |> List.map (Hierarchy.node_label h)
  in
  let ca, cb =
    match deep_classes with a :: b :: _ -> (a, b) | _ -> assert false
  in
  let r1 =
    Relation.of_tuples ~name:"r1" schema [ (Types.Pos, [ "c5" ]); (Types.Neg, [ ca ]) ]
  in
  let r2 =
    Relation.of_tuples ~name:"r2" schema [ (Types.Pos, [ ca ]); (Types.Pos, [ cb ]) ]
  in
  let flat1 = Traditional.extension_relation r1 and flat2 = Traditional.extension_relation r2 in
  Format.printf "operands: %d and %d stored tuples (extensions %d and %d)@."
    (Relation.cardinality r1) (Relation.cardinality r2)
    (Flat_relation.cardinality flat1) (Flat_relation.cardinality flat2);
  let tests =
    [
      Test.make ~name:"lifted union" (Staged.stage (fun () -> Ops.union r1 r2));
      Test.make ~name:"lifted diff" (Staged.stage (fun () -> Ops.diff r1 r2));
      Test.make ~name:"flat union (pre-explicated)"
        (Staged.stage (fun () -> Flat_relation.union flat1 flat2));
      Test.make ~name:"flat union + explication cost"
        (Staged.stage (fun () ->
             Flat_relation.union (Traditional.extension_relation r1)
               (Traditional.extension_relation r2)));
    ]
  in
  run_benches ~label:"setops" tests;
  Format.printf
    "shape check: lifted ops work on O(tuples); the flat path pays O(extension) each time.@."

(* ---- C6: integrity checking (§3.1) ------------------------------------ *)

let bench_integrity () =
  section "C6 — ambiguity-constraint checking cost (§3.1)";
  let g = Prng.create 23L in
  let cases =
    List.map
      (fun tuples ->
        let h =
          Workload.random_hierarchy (Prng.split g)
            { Workload.default_hierarchy_spec with name = Printf.sprintf "c6_%d" tuples }
        in
        let schema = Schema.make [ ("v", h) ] in
        let rel =
          Workload.consistent_random_relation (Prng.split g) schema
            { Workload.default_relation_spec with tuples }
        in
        (tuples, rel))
      [ 10; 30; 60 ]
  in
  let tests =
    List.map
      (fun (tuples, rel) ->
        Test.make
          ~name:(Printf.sprintf "%2d tuples" tuples)
          (Staged.stage (fun () -> Integrity.is_consistent rel)))
      cases
  in
  run_benches ~label:"integrity" tests

(* ---- C7: preemption semantics ablation (Appendix) --------------------- *)

let bench_preemption () =
  section "C7 — preemption semantics ablation (Appendix)";
  let h, rel = Workload.exception_chain ~name:"c7dom" ~depth:10 ~instances_per_class:2 () in
  let schema = Relation.schema rel in
  let deepest = Item.of_names schema [ "i9_1" ] in
  let answers =
    List.map
      (fun sem ->
        ( Format.asprintf "%a" Types.pp_semantics sem,
          match Binding.verdict ~semantics:sem rel deepest with
          | Binding.Asserted (s, _) -> Format.asprintf "%a" Types.pp_sign s
          | Binding.Unasserted -> "unasserted"
          | Binding.Conflict _ -> "conflict" ))
      [ Types.Off_path; Types.On_path; Types.No_preemption ]
  in
  let table = Texttable.create [ "semantics"; "verdict at depth-10 instance" ] in
  List.iter (fun (s, v) -> Texttable.add_row table [ s; v ]) answers;
  print_string (Texttable.render table);
  ignore h;
  let tests =
    List.map
      (fun sem ->
        Test.make
          ~name:(Format.asprintf "%a" Types.pp_semantics sem)
          (Staged.stage (fun () -> Binding.verdict ~semantics:sem rel deepest)))
      [ Types.Off_path; Types.On_path; Types.No_preemption ]
  in
  run_benches ~label:"preemption" tests

(* ---- C8: storage-minimizing organization (Conclusion) ----------------- *)

let bench_mine () =
  section "C8 — mechanical organization minimizes storage (Conclusion)";
  let h = Workload.tree_hierarchy ~name:"c8" ~depth:3 ~fanout:4 ~instances_per_leaf:4 () in
  let instances = Hierarchy.instances h in
  let n = List.length instances in
  let table =
    Texttable.create
      ~aligns:[ Texttable.Left; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "membership pattern"; "members"; "tuples stored"; "compression" ]
  in
  let patterns =
    [
      ("everything", List.map (Hierarchy.node_label h) instances);
      ( "all but one",
        List.map (Hierarchy.node_label h) (List.tl instances) );
      ( "every other subtree",
        List.filteri (fun i _ -> i / 16 mod 2 = 0) instances
        |> List.map (Hierarchy.node_label h) );
      ( "random half",
        let g = Prng.create 31L in
        List.filter (fun _ -> Prng.bool g) instances |> List.map (Hierarchy.node_label h) );
    ]
  in
  let organized =
    List.map
      (fun (label, members) ->
        let rel = Mine.organize h ~members in
        Texttable.add_row table
          [
            label;
            Printf.sprintf "%d/%d" (List.length members) n;
            string_of_int (Relation.cardinality rel);
            Printf.sprintf "%.1fx" (Mine.compression_ratio rel);
          ];
        (label, members))
      patterns
  in
  print_string (Texttable.render table);
  let tests =
    List.map
      (fun (label, members) ->
        Test.make ~name:label (Staged.stage (fun () -> Mine.organize h ~members)))
      organized
  in
  run_benches ~label:"mine" tests

(* ---- C9: indexed vs scanned binding queries (§4 efficiency) ----------- *)

(* The unindexed access path: every stored tuple tested for strict
   subsumption, then the same decision procedure {!Binding.verdict}
   runs over the relation's bucket index. *)
let scan_verdict rel item =
  let schema = Relation.schema rel in
  Binding.decide schema item ~exact:(Relation.find rel item)
    ~relevant:
      (List.filter
         (fun (t : Relation.tuple) -> Item.strictly_subsumes schema t.Relation.item item)
         (Relation.tuples rel))

let bench_index () =
  section "C9 — binding queries: indexed vs full scan (§4 efficiency promise)";
  let g = Prng.create 41L in
  (* One hierarchy (and one probe) shared by every size, so the cases
     differ only in tuple count — separate random hierarchies per case
     made the sizes incomparable (ancestor-set shape dominated, which is
     how 100 tuples once benched slower than 400). *)
  let h =
    Workload.random_hierarchy (Prng.split g)
      {
        Workload.name = "c9";
        classes = 60;
        instances = 200;
        multi_parent_prob = 0.15;
      }
  in
  let schema = Schema.make [ ("v", h) ] in
  let probe = Item.make schema [| List.hd (Hierarchy.instances h) |] in
  let cases =
    List.map
      (fun tuples ->
        let rel =
          Workload.consistent_random_relation (Prng.split g) schema
            { Workload.default_relation_spec with tuples }
        in
        (tuples, rel, probe))
      [ 25; 100; 400 ]
  in
  let tests =
    List.concat_map
      (fun (tuples, rel, probe) ->
        [
          Test.make
            ~name:(Printf.sprintf "scan/%3d tuples" tuples)
            (Staged.stage (fun () -> scan_verdict rel probe));
          Test.make
            ~name:(Printf.sprintf "index/%3d tuples" tuples)
            (Staged.stage (fun () -> Binding.verdict rel probe));
        ])
      cases
  in
  run_benches ~label:"binding" tests;
  Format.printf
    "shape check: scan cost grows with relation size; indexed probes stay near-flat.@."

(* ---- C12: page-level I/O of both representations ------------------------ *)

let bench_page_io () =
  section "C12 — page I/O: hierarchical stored form vs enumerated extension";
  let table =
    Texttable.create
      ~aligns:
        [ Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "extension"; "hier rows"; "hier pages"; "flat rows"; "flat pages" ]
  in
  List.iter
    (fun (fanout, ipl) ->
      let h =
        Workload.tree_hierarchy ~name:(Printf.sprintf "c12_%d_%d" fanout ipl) ~depth:2 ~fanout
          ~instances_per_leaf:ipl ()
      in
      let schema = Schema.make [ ("v", h) ] in
      let rel =
        Relation.of_tuples ~name:"r" schema
          [ (Types.Pos, [ Hierarchy.node_label h (Hierarchy.root h) ]) ]
      in
      let flat = Explicate.explicate rel in
      (* Pages a fresh Page_store commits for the catalog holding [r],
         less those it commits with the relation empty: the heap, index
         and page-table pages the stored tuples themselves need. *)
      let pages r =
        let path = Filename.temp_file "hrc12" ".db" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let cat = Catalog.create () in
            Catalog.define_hierarchy cat h;
            Catalog.define_relation ~check:false cat r;
            let store = Hr_storage.Page_store.create path in
            Hr_storage.Page_store.set_ddl store cat;
            Hr_storage.Page_store.apply_catalog store cat;
            let _, total = Hr_storage.Page_store.commit store ~fsync:false ~base_lsn:0 () in
            Hr_storage.Page_store.close store;
            total)
      in
      let base = pages (Relation.empty ~name:"r" schema) in
      let hier_rows, hier_pages = (Relation.cardinality rel, pages rel - base) in
      let flat_rows, flat_pages = (Relation.cardinality flat, pages flat - base) in
      Texttable.add_row table
        [
          string_of_int (Aggregate.count rel);
          string_of_int hier_rows;
          string_of_int hier_pages;
          string_of_int flat_rows;
          string_of_int flat_pages;
        ])
    [ (8, 8); (16, 16); (32, 32) ];
  print_string (Texttable.render table);
  Format.printf
    "shape check: the hierarchical form needs a constant page count while the flat form grows linearly.@."

(* ---- C13: semantic-net geometric growth (§2.1) --------------------------- *)

let bench_semantic_net () =
  section "C13 — semantic nets: product-taxonomy blow-up vs tuples (§2.1)";
  (* A semantic net folds associations into the taxonomy: a k-attribute
     association needs class nodes for the product regions and their
     ancestors, while the hierarchical model keeps the k taxonomies
     separate and stores one tuple per association. Count both. *)
  let domain k =
    Workload.tree_hierarchy ~name:(Printf.sprintf "c13_%d" k) ~depth:2 ~fanout:3
      ~instances_per_leaf:2 ()
  in
  let table =
    Texttable.create
      ~aligns:[ Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "attributes k"; "taxonomy nodes (ours)"; "tuples (ours)"; "semantic-net product nodes" ]
  in
  List.iter
    (fun k ->
      let hs = List.init k domain in
      let per_domain = Hierarchy.node_count (List.hd hs) in
      (* one association asserted on a mid-level class of each coordinate *)
      let mid h =
        List.find
          (fun c ->
            c <> Hierarchy.root h
            &&
            let l = Hierarchy.node_label h c in
            String.length l > 2 && l.[0] = 'c' && l.[1] = '1' && l.[2] = '_')
          (Hierarchy.classes h)
      in
      (* net nodes: every ancestor combination of the asserted region must
         exist as an explicit class in the folded taxonomy *)
      let net_nodes =
        List.fold_left
          (fun acc h -> acc * List.length (Hierarchy.ancestors h (mid h)))
          1 hs
        |> fun product_region ->
        (* plus the k base taxonomies themselves *)
        (per_domain * k) + product_region
      in
      let ours_taxonomy = per_domain * k in
      let ours_tuples = 1 in
      Texttable.add_row table
        [
          string_of_int k;
          string_of_int ours_taxonomy;
          string_of_int ours_tuples;
          string_of_int net_nodes;
        ])
    [ 1; 2; 3; 4 ];
  print_string (Texttable.render table);
  Format.printf
    "shape check: our storage is linear in k; the folded-taxonomy encoding grows geometrically.@."

(* ---- C15: estimator accuracy — estimated vs actual rows ------------------ *)

(* Per-workload q-error summaries and catalog statistics, accumulated
   for the --metrics-json report (docs/OBSERVABILITY.md, docs/COST.md). *)
let c15_json : (string * Hr_obs.Jsonout.t) list ref = ref []

(* The standard q-error with +1 smoothing, so empty nodes (estimated or
   actual) stay finite. *)
let qerror est actual =
  let e = est +. 1.0 and a = float_of_int actual +. 1.0 in
  Float.max (e /. a) (a /. e)

let median = function
  | [] -> 0.0
  | xs ->
    let sorted = List.sort compare xs in
    List.nth sorted (List.length sorted / 2)

(* Pairs each estimate node with the evaluated node of the same plan —
   Cost_model.plan and Eval.analyze_raw both walk Optimizer.optimize's
   output, so the trees are shape-identical by construction. *)
let rec zip_estimates (n : Hr_analysis.Cost_model.node) (a : Hr_query.Eval.analyzed) acc =
  let acc = (n.Hr_analysis.Cost_model.n_label, n.Hr_analysis.Cost_model.n_rows, a.Hr_query.Eval.a_rows) :: acc in
  List.fold_left2
    (fun acc c ac -> zip_estimates c ac acc)
    acc n.Hr_analysis.Cost_model.n_children a.Hr_query.Eval.a_children

(* Per-class extension counts and cone sizes — the statistics the
   estimator reads, snapshotted so a metrics report pins down the
   catalog the q-errors were measured against. *)
let catalog_stats cat =
  let open Hr_obs.Jsonout in
  let per_hierarchy h =
    let classes =
      List.filter (fun v -> not (Hierarchy.is_instance h v)) (Hierarchy.nodes h)
    in
    ( Hr_util.Symbol.name (Hierarchy.domain h),
      Obj
        (List.map
           (fun v ->
             ( Hierarchy.node_label h v,
               Obj
                 [
                   ("extension", Int (Hr_analysis.Cost_model.extension_count h v));
                   ("cone", Int (Hr_analysis.Cost_model.cone_size h v));
                 ] ))
           classes) )
  in
  Obj (List.map per_hierarchy (Catalog.hierarchies cat))

let bench_estimator () =
  section "C15 — estimator accuracy: estimated vs actual rows per plan node";
  let module Cost_model = Hr_analysis.Cost_model in
  let run_workload (name, cat, queries) =
    let qs = ref [] in
    let nodes = ref 0 in
    List.iter
      (fun q ->
        let { Hr_query.Ast.stmt; _ } =
          Hr_query.Parser.parse_statement ("EXPLAIN ESTIMATE " ^ q)
        in
        let expr =
          match stmt with
          | Hr_query.Ast.Explain_estimate e -> e
          | _ -> failwith "C15: not an expression"
        in
        match Cost_model.plan cat expr with
        | Error msg -> failwith ("C15 " ^ name ^ ": " ^ msg)
        | Ok (optimized, root) ->
          let _, actual = Hr_query.Eval.analyze_raw cat optimized in
          let pairs = zip_estimates root actual [] in
          nodes := !nodes + List.length pairs;
          List.iter (fun (_, est, act) -> qs := qerror est act :: !qs) pairs)
      queries;
    let med = median !qs and worst = List.fold_left Float.max 1.0 !qs in
    c15_json :=
      ( name,
        Hr_obs.Jsonout.Obj
          [
            ("queries", Hr_obs.Jsonout.Int (List.length queries));
            ("nodes", Hr_obs.Jsonout.Int !nodes);
            ("median_q_error", Hr_obs.Jsonout.Float med);
            ("max_q_error", Hr_obs.Jsonout.Float worst);
            ("catalog", catalog_stats cat);
          ] )
      :: !c15_json;
    (name, List.length queries, !nodes, med, worst)
  in
  let scripted name setup queries =
    let cat = Catalog.create () in
    (match Hr_query.Eval.run_script cat setup with
    | Ok _ -> ()
    | Error e -> failwith ("C15 setup: " ^ e));
    (name, cat, queries)
  in
  let flat =
    scripted "flat"
      {|
      CREATE DOMAIN d;
      CREATE INSTANCE x1 OF d; CREATE INSTANCE x2 OF d;
      CREATE INSTANCE x3 OF d; CREATE INSTANCE x4 OF d;
      CREATE RELATION r (v: d);
      CREATE RELATION s (v: d);
      INSERT INTO r VALUES (+ x1), (+ x2), (+ x3);
      INSERT INTO s VALUES (+ x2), (+ x3), (+ x4);
      |}
      [
        "r";
        "SELECT r WHERE v = x1";
        "r UNION s";
        "r INTERSECT s";
        "r JOIN s";
      ]
  in
  let hierarchy =
    scripted "hierarchy"
      {|
      CREATE DOMAIN animal;
      CREATE CLASS bird UNDER animal;
      CREATE CLASS penguin UNDER bird;
      CREATE CLASS afp UNDER penguin;
      CREATE INSTANCE tweety OF bird;
      CREATE INSTANCE paul OF penguin;
      CREATE INSTANCE pamela OF afp;
      CREATE RELATION jack (creature: animal);
      CREATE RELATION jill (creature: animal);
      INSERT INTO jack VALUES (+ ALL bird), (- ALL penguin);
      INSERT INTO jill VALUES (+ ALL penguin), (- ALL afp);
      |}
      [
        "jack";
        "SELECT jack WHERE creature = penguin";
        "jack UNION jill";
        "EXPLICATED jack";
        "EXPLICATED (jack UNION jill)";
      ]
  in
  let synthetic =
    let h =
      Workload.tree_hierarchy ~name:"syn" ~depth:2 ~fanout:3
        ~instances_per_leaf:2 ()
    in
    let cat = Catalog.create () in
    Catalog.define_hierarchy cat h;
    let prng = Prng.create 15L in
    let schema = Schema.make [ ("a", h); ("b", h) ] in
    let rel =
      Workload.repair prng
        (Workload.random_relation prng schema
           { Workload.default_relation_spec with Workload.rel_name = "syn_rel"; tuples = 12 })
    in
    Catalog.define_relation cat rel;
    ( "synthetic",
      cat,
      [ "syn_rel"; "SELECT syn_rel WHERE a = c0_1"; "EXPLICATED syn_rel" ] )
  in
  let table =
    Texttable.create
      ~aligns:[ Texttable.Left; Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "workload"; "queries"; "nodes"; "median q-error"; "max q-error" ]
  in
  List.iter
    (fun w ->
      let name, queries, nodes, med, worst = run_workload w in
      Texttable.add_row table
        [
          name;
          string_of_int queries;
          string_of_int nodes;
          Printf.sprintf "%.2f" med;
          Printf.sprintf "%.2f" worst;
        ])
    [ flat; hierarchy; synthetic ];
  print_string (Texttable.render table)

(* ---- figure regeneration check (F1–F11) -------------------------------- *)

let check_figures () =
  section "F1–F11 — figure regeneration summary (details: dune exec bin/figures.exe)";
  let h = Hierarchy.create "animal_b" in
  ignore (Hierarchy.add_class h "bird");
  ignore (Hierarchy.add_class h ~parents:[ "bird" ] "penguin");
  ignore (Hierarchy.add_class h ~parents:[ "penguin" ] "afp");
  ignore (Hierarchy.add_instance h ~parents:[ "bird" ] "tweety");
  ignore (Hierarchy.add_instance h ~parents:[ "penguin" ] "paul");
  ignore (Hierarchy.add_instance h ~parents:[ "afp" ] "pamela");
  let schema = Schema.make [ ("creature", h) ] in
  let flies =
    Relation.of_tuples ~name:"flies" schema
      [ (Types.Pos, [ "bird" ]); (Types.Neg, [ "penguin" ]); (Types.Pos, [ "afp" ]) ]
  in
  let checks =
    [
      ("F1 exception chain verdicts",
       Binding.holds flies (Item.of_names schema [ "tweety" ])
       && (not (Binding.holds flies (Item.of_names schema [ "paul" ])))
       && Binding.holds flies (Item.of_names schema [ "pamela" ]));
      ("F5/F6 consolidation fixpoint", Consolidate.is_consolidated (Consolidate.consolidate flies));
      ("F10 union extension", List.length (Flatten.extension_list (Ops.union flies flies)) = 2);
      ("ambiguity constraint", Integrity.is_consistent flies);
    ]
  in
  let table = Texttable.create [ "check"; "status" ] in
  List.iter
    (fun (name, ok) -> Texttable.add_row table [ name; (if ok then "ok" else "FAILED") ])
    checks;
  print_string (Texttable.render table)

let experiments =
  [
    ("C1", bench_storage);
    ("C2", bench_membership);
    ("C3", bench_consolidate);
    ("C4", bench_explicate);
    ("C5", bench_setops);
    ("C6", bench_integrity);
    ("C7", bench_preemption);
    ("C8", bench_mine);
    ("C9", bench_index);
    ("C12", bench_page_io);
    ("C13", bench_semantic_net);
    ("C15", bench_estimator);
    ("F", check_figures);
  ]

(* The JSON report: bechamel estimates plus a snapshot of the metrics
   registry, so a CI run records both latency and work counters. The
   schema is documented in docs/OBSERVABILITY.md. *)
let write_metrics_json path experiment_ids =
  let open Hr_obs.Jsonout in
  let benchmarks =
    List.rev !collected
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, ns) -> (name, Float ns))
  in
  let report =
    Obj
      [
        ("schema_version", Int 1);
        ("suite", String "hierel-bench");
        ("quota_seconds", Float !quota_s);
        ("experiments", List (List.map (fun id -> String id) experiment_ids));
        ("benchmarks_ns_per_op", Obj benchmarks);
        ("estimator", Obj (List.rev !c15_json));
        ("metrics", Hr_obs.Metrics.json_of_snapshot (Hr_obs.Metrics.snapshot ()));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string report);
      output_char oc '\n');
  Format.printf "metrics report written to %s@." path

(* A malformed command line names what is on offer and exits 2, before
   any experiment runs. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      prerr_endline
        ("available experiments: " ^ String.concat " " (List.map fst experiments));
      prerr_endline "flags: --quota SECONDS, --metrics-json FILE";
      exit 2)
    fmt

(* argv: experiment ids freely mixed with [--metrics-json FILE] and
   [--quota SECONDS]. *)
let rec parse_args = function
  | [] -> []
  | "--metrics-json" :: path :: rest ->
    metrics_json_path := Some path;
    parse_args rest
  | "--quota" :: s :: rest ->
    (match float_of_string_opt s with
    | Some q when q > 0. -> quota_s := q
    | _ -> usage_error "invalid --quota %s" s);
    parse_args rest
  | (("--metrics-json" | "--quota") as flag) :: [] -> usage_error "missing argument to %s" flag
  | flag :: _ when String.starts_with ~prefix:"-" flag -> usage_error "unknown flag %s" flag
  | id :: rest ->
    if not (List.mem_assoc id experiments) then usage_error "no such experiment %s" id;
    id :: parse_args rest

let () =
  let requested = parse_args (List.tl (Array.to_list Sys.argv)) in
  Format.printf
    "hierel benchmark harness — experiments C1..C15 (see DESIGN.md / EXPERIMENTS.md)@.";
  let selected =
    match requested with
    | [] -> experiments
    | _ -> List.filter (fun (id, _) -> List.mem id requested) experiments
  in
  List.iter (fun (_, run) -> run ()) selected;
  Option.iter (fun path -> write_metrics_json path (List.map fst selected)) !metrics_json_path;
  Format.printf "@.done.@."
