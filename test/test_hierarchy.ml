(* Tests for the hierarchy substrate, mostly on the paper's taxonomies. *)

module Hierarchy = Hr_hierarchy.Hierarchy

let names h vs = List.sort String.compare (List.map (Hierarchy.node_label h) vs)

let test_structure () =
  let h = Fixtures.animals () in
  Alcotest.(check string) "domain" "animal" (Hierarchy.node_label h (Hierarchy.root h));
  Alcotest.(check int) "node count" 11 (Hierarchy.node_count h);
  Alcotest.(check bool) "tweety is instance" true
    (Hierarchy.is_instance h (Hierarchy.find_exn h "tweety"));
  Alcotest.(check bool) "bird is class" true
    (Hierarchy.is_class h (Hierarchy.find_exn h "bird"));
  Alcotest.(check int) "5 instances" 5 (List.length (Hierarchy.instances h));
  Alcotest.(check int) "6 classes" 6 (List.length (Hierarchy.classes h))

let test_membership () =
  let h = Fixtures.animals () in
  let sub a b = Hierarchy.subsumes h (Hierarchy.find_exn h a) (Hierarchy.find_exn h b) in
  Alcotest.(check bool) "bird > tweety" true (sub "bird" "tweety");
  Alcotest.(check bool) "bird > patricia" true (sub "bird" "patricia");
  Alcotest.(check bool) "penguin > patricia (both parents)" true (sub "penguin" "patricia");
  Alcotest.(check bool) "canary !> paul" false (sub "canary" "paul");
  Alcotest.(check bool) "reflexive" true (sub "penguin" "penguin");
  Alcotest.(check bool) "not upward" false (sub "penguin" "bird")

let test_leaves_under () =
  let h = Fixtures.animals () in
  let leaves name = names h (Hierarchy.leaves_under h (Hierarchy.find_exn h name)) in
  Alcotest.(check (list string)) "penguins" [ "pamela"; "patricia"; "paul"; "peter" ]
    (leaves "penguin");
  Alcotest.(check (list string)) "canaries" [ "tweety" ] (leaves "canary");
  Alcotest.(check (list string)) "instance is own leaf" [ "peter" ] (leaves "peter")

let test_empty_class_extension () =
  let h = Hierarchy.create "d" in
  let c = Hierarchy.add_class h "empty" in
  Alcotest.(check (list string)) "no leaves" [] (names h (Hierarchy.leaves_under h c))

let test_duplicate_name_rejected () =
  let h = Fixtures.animals () in
  Alcotest.check_raises "dup" (Hierarchy.Error "name \"bird\" already defined") (fun () ->
      ignore (Hierarchy.add_class h "bird"))

let test_child_under_instance_rejected () =
  let h = Fixtures.animals () in
  (try
     ignore (Hierarchy.add_class h ~parents:[ "tweety" ] "sub_tweety");
     Alcotest.fail "expected Error"
   with Hierarchy.Error _ -> ());
  try
    Hierarchy.add_isa h ~sub:"bird" ~super:"tweety";
    Alcotest.fail "expected Error"
  with Hierarchy.Error _ -> ()

let test_cycle_rejected () =
  let h = Fixtures.animals () in
  try
    Hierarchy.add_isa h ~sub:"bird" ~super:"penguin";
    Alcotest.fail "expected cycle Error"
  with Hierarchy.Error _ -> ()

let test_multi_parent () =
  let h = Fixtures.animals () in
  let patricia = Hierarchy.find_exn h "patricia" in
  Alcotest.(check (list string)) "two parents"
    [ "amazing_flying_penguin"; "galapagos_penguin" ]
    (names h (Hierarchy.parents h patricia))

let test_intersection () =
  let h = Fixtures.elephants () in
  let n = Hierarchy.find_exn h in
  Alcotest.(check bool) "royal ∩ indian (appu)" true
    (Hierarchy.intersects h (n "royal_elephant") (n "indian_elephant"));
  Alcotest.(check bool) "african ∩ indian = ∅ (optimistic)" false
    (Hierarchy.intersects h (n "african_elephant") (n "indian_elephant"));
  Alcotest.(check (list string)) "mcd royal/indian" [ "appu" ]
    (names h (Hierarchy.maximal_common_descendants h (n "royal_elephant") (n "indian_elephant")));
  Alcotest.(check (list string)) "mcd comparable pair" [ "royal_elephant" ]
    (names h (Hierarchy.maximal_common_descendants h (n "elephant") (n "royal_elephant")))

let test_mcd_prefers_class_witness () =
  (* When an explicit intersection class exists, the MCD is the class, not
     its instances. *)
  let h = Hierarchy.create "d" in
  ignore (Hierarchy.add_class h "a");
  ignore (Hierarchy.add_class h "b");
  ignore (Hierarchy.add_class h ~parents:[ "a"; "b" ] "ab");
  ignore (Hierarchy.add_instance h ~parents:[ "ab" ] "x");
  let n = Hierarchy.find_exn h in
  Alcotest.(check (list string)) "class witness" [ "ab" ]
    (names h (Hierarchy.maximal_common_descendants h (n "a") (n "b")))

let test_validate_and_reduce () =
  let h = Fixtures.animals () in
  Alcotest.(check int) "clean" 0 (List.length (Hierarchy.validate h));
  (* pamela is already an amazing flying penguin; adding penguin as a direct
     parent is the paper's redundant-edge example *)
  Hierarchy.add_isa h ~sub:"pamela" ~super:"penguin";
  Alcotest.(check int) "one redundant edge" 1 (List.length (Hierarchy.validate h));
  Hierarchy.reduce h;
  Alcotest.(check int) "reduced" 0 (List.length (Hierarchy.validate h));
  Alcotest.(check bool) "membership preserved" true
    (Hierarchy.subsumes h (Hierarchy.find_exn h "penguin") (Hierarchy.find_exn h "pamela"))

let test_eliminate_class () =
  let h = Fixtures.animals () in
  let penguin = Hierarchy.find_exn h "penguin" in
  Hierarchy.eliminate h ~on_path:false penguin;
  Alcotest.(check bool) "gone" false (Hierarchy.mem h "penguin");
  (* former grandchildren hang from bird now *)
  Alcotest.(check bool) "bird > paul still" true
    (Hierarchy.subsumes h (Hierarchy.find_exn h "bird") (Hierarchy.find_exn h "paul"))

let test_preference_edges () =
  let h = Fixtures.elephants () in
  Hierarchy.add_preference h ~weaker:"indian_elephant" ~stronger:"royal_elephant";
  let n = Hierarchy.find_exn h in
  Alcotest.(check bool) "binding order includes preference" true
    (Hierarchy.binds_below h (n "indian_elephant") (n "royal_elephant"));
  Alcotest.(check bool) "isa subsumption unaffected" false
    (Hierarchy.subsumes h (n "indian_elephant") (n "royal_elephant"))

let test_rename_node () =
  let h = Fixtures.animals () in
  let tweety = Hierarchy.find_exn h "tweety" in
  Hierarchy.rename_node h ~old_name:"tweety" ~new_name:"tweety_bird";
  Alcotest.(check bool) "old name gone" false (Hierarchy.mem h "tweety");
  Alcotest.(check int) "same node" tweety (Hierarchy.find_exn h "tweety_bird");
  Alcotest.(check string) "label updated" "tweety_bird" (Hierarchy.node_label h tweety);
  (* existing items keep working: node ids are stable *)
  Alcotest.(check bool) "membership intact" true
    (Hierarchy.subsumes h (Hierarchy.find_exn h "bird") tweety);
  (try
     Hierarchy.rename_node h ~old_name:"tweety_bird" ~new_name:"bird";
     Alcotest.fail "expected Error on name clash"
   with Hierarchy.Error _ -> ());
  try
    Hierarchy.rename_node h ~old_name:"ghost" ~new_name:"spirit";
    Alcotest.fail "expected Error on unknown"
  with Hierarchy.Error _ -> ()

let test_rename_keeps_relations_valid () =
  let h = Fixtures.animals () in
  let flies = Fixtures.flies h in
  let schema = Hierel.Relation.schema flies in
  let item = Hierel.Item.of_names schema [ "tweety" ] in
  Hierarchy.rename_node h ~old_name:"tweety" ~new_name:"tweetikins";
  Alcotest.(check bool) "verdict survives rename" true (Hierel.Binding.holds flies item);
  Alcotest.(check string) "items print the new name" "(tweetikins)"
    (Hierel.Item.to_string schema item)

let test_copy_isolated () =
  let h = Fixtures.animals () in
  let h' = Hierarchy.copy h in
  ignore (Hierarchy.add_instance h' "polly");
  Alcotest.(check bool) "original lacks polly" false (Hierarchy.mem h "polly");
  Alcotest.(check bool) "copy has polly" true (Hierarchy.mem h' "polly")

(* ---- ancestor arrays vs naive traversals ------------------------------ *)

module Dag = Hr_graph.Dag
module Prng = Hr_util.Prng
module Metrics = Hr_obs.Metrics

(* Same replay contract as the other randomized suites: one integer seed
   drives every choice, printed so a failing run replays exactly with
   [HRDB_TEST_SEED=n dune runtest]. *)
let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None -> Int64.to_int (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let () =
  Printf.eprintf "test_hierarchy: differential seed %d (replay with HRDB_TEST_SEED=%d)\n%!"
    seed seed

let isa_only = function Dag.Isa -> true | Dag.Preference -> false

(* Every read the index answers, over every ordered pair of live nodes,
   as one comparable value. Order matters: descendant lists and MCDs
   must come out ascending, exactly as the oracle lists them. *)
type answers = {
  subsumes : (int * int * bool) list;
  binds : (int * int * bool) list;
  anc : (int * int list) list;
  desc : (int * int list) list;
  leaves : (int * int list * int) list;
  mcd : (int * int * int list) list;
  issues : (int * int) list;
}

let observe h =
  let vs = Hierarchy.nodes h in
  let pairs f = List.concat_map (fun a -> List.map (fun b -> f a b) vs) vs in
  {
    subsumes = pairs (fun a b -> (a, b, Hierarchy.subsumes h a b));
    binds = pairs (fun a b -> (a, b, Hierarchy.binds_below h a b));
    anc = List.map (fun v -> (v, Hierarchy.ancestors h v)) vs;
    desc = List.map (fun v -> (v, Hierarchy.descendants h v)) vs;
    leaves =
      List.map (fun v -> (v, Hierarchy.leaves_under h v, Hierarchy.instance_count h v)) vs;
    mcd = pairs (fun a b -> (a, b, Hierarchy.maximal_common_descendants h a b));
    issues =
      List.map (fun (Hierarchy.Redundant_isa_edge (u, v)) -> (u, v)) (Hierarchy.validate h);
  }

(* The same answers from plain DFS over a mirror of the hierarchy's
   graph (node ids agree: both allocate consecutively). *)
let oracle g ~is_instance =
  let vs = Dag.live_nodes g in
  let pairs f = List.concat_map (fun a -> List.map (fun b -> f a b) vs) vs in
  let descs = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.add descs v (Dag.descendants g ~kinds:isa_only v)) vs;
  let desc = Hashtbl.find descs in
  let sub a b = Dag.reachable g ~kinds:isa_only a b in
  let mcd a b =
    if sub a b then [ b ]
    else if sub b a then [ a ]
    else
      let common = List.filter (fun w -> List.mem w (desc b)) (desc a) in
      List.filter
        (fun w ->
          not (List.exists (fun p -> List.mem p common) (Dag.preds g ~kinds:isa_only w)))
        common
  in
  {
    subsumes = pairs (fun a b -> (a, b, sub a b));
    binds = pairs (fun a b -> (a, b, Dag.reachable g a b));
    anc = List.map (fun v -> (v, Dag.ancestors g ~kinds:isa_only v)) vs;
    desc = List.map (fun v -> (v, desc v)) vs;
    leaves =
      List.map
        (fun v ->
          let l = List.filter is_instance (desc v) in
          (v, l, List.length l))
        vs;
    mcd = pairs (fun a b -> (a, b, mcd a b));
    issues = Dag.redundant_edges g;
  }

let check_answers ctx want got =
  let fail what = Alcotest.failf "(seed %d) %s: %s differs from the oracle" seed ctx what in
  if want.subsumes <> got.subsumes then fail "subsumes";
  if want.binds <> got.binds then fail "binds_below";
  if want.anc <> got.anc then fail "ancestors";
  if want.desc <> got.desc then fail "descendants";
  if want.leaves <> got.leaves then fail "leaves_under or instance_count";
  if want.mcd <> got.mcd then fail "maximal_common_descendants";
  if want.issues <> got.issues then fail "validate"

(* Random edits — leaves with 1-3 parents, ISA, PREFERENCE, elimination,
   reduction, renames — interleaved with freeze-then-copy (the catalog's
   publish/copy-on-write cycle). After every step the live hierarchy
   matches the DFS oracle, and every frozen snapshot taken so far still
   gives exactly the answers it gave when it was sealed. *)
let test_differential () =
  let rng = Prng.create (Int64.of_int (seed lxor 0x41E)) in
  let h = ref (Hierarchy.create "d") in
  let g = Dag.create () in
  ignore (Dag.add_node g);
  let fresh = ref 0 in
  let name prefix =
    incr fresh;
    Printf.sprintf "%s%d" prefix !fresh
  in
  let snapshots = ref [] in
  let live () = Array.of_list (Dag.live_nodes g) in
  let classes () = Array.of_list (List.filter (Hierarchy.is_class !h) (Dag.live_nodes g)) in
  let label v = Hierarchy.node_label !h v in
  let mutable_h () = if Hierarchy.frozen !h then h := Hierarchy.copy !h in
  let parents () =
    let cs = classes () in
    List.sort_uniq compare (List.init (1 + Prng.int rng 3) (fun _ -> Prng.pick rng cs))
  in
  for step = 1 to 160 do
    let grow = Dag.live_count g < 40 in
    let ctx =
      match Prng.int rng 10 with
      | (0 | 1 | 2) when grow ->
        mutable_h ();
        let ps = parents () in
        let v = Hierarchy.add_class !h ~parents:(List.map label ps) (name "c") in
        Alcotest.(check int) "mirror id" v (Dag.add_node g);
        List.iter (fun p -> Dag.add_edge g p v) ps;
        "class"
      | (3 | 4) when grow ->
        mutable_h ();
        let ps = parents () in
        let v = Hierarchy.add_instance !h ~parents:(List.map label ps) (name "i") in
        Alcotest.(check int) "mirror id" v (Dag.add_node g);
        List.iter (fun p -> Dag.add_edge g p v) ps;
        "instance"
      | 5 ->
        mutable_h ();
        let sub = Prng.pick rng (live ()) and super = Prng.pick rng (classes ()) in
        let legal = sub <> super && not (Dag.reachable g sub super) in
        (match Hierarchy.add_isa !h ~sub:(label sub) ~super:(label super) with
        | () ->
          if not legal then Alcotest.failf "(seed %d) illegal isa accepted" seed;
          Dag.add_edge g super sub
        | exception Hierarchy.Error _ ->
          if legal then Alcotest.failf "(seed %d) legal isa refused" seed);
        "isa"
      | 6 ->
        mutable_h ();
        let w = Prng.pick rng (live ()) and s = Prng.pick rng (live ()) in
        let legal = w <> s && not (Dag.reachable g s w) in
        (match Hierarchy.add_preference !h ~weaker:(label w) ~stronger:(label s) with
        | () ->
          if not legal then Alcotest.failf "(seed %d) illegal preference accepted" seed;
          Dag.add_edge g ~kind:Dag.Preference w s
        | exception Hierarchy.Error _ ->
          if legal then Alcotest.failf "(seed %d) legal preference refused" seed);
        "preference"
      | 7 when Array.length (classes ()) > 1 ->
        mutable_h ();
        let v = Prng.pick rng (classes ()) in
        if v <> Hierarchy.root !h then begin
          let on_path = Prng.bool rng in
          Hierarchy.eliminate !h ~on_path v;
          Dag.eliminate_node g ~on_path v
        end;
        "eliminate"
      | 8 ->
        mutable_h ();
        if Prng.bool rng then begin
          Hierarchy.reduce !h;
          Dag.transitive_reduction g;
          "reduce"
        end
        else begin
          let v = Prng.pick rng (live ()) in
          if v <> Hierarchy.root !h then
            Hierarchy.rename_node !h ~old_name:(label v) ~new_name:(name "r");
          "rename"
        end
      | _ ->
        Hierarchy.freeze !h;
        snapshots := (!h, observe !h) :: !snapshots;
        "freeze"
    in
    let ctx = Printf.sprintf "step %d (%s)" step ctx in
    check_answers ctx (oracle g ~is_instance:(Hierarchy.is_instance !h)) (observe !h);
    if step mod 20 = 0 then
      List.iter
        (fun (snap, seen) -> check_answers (ctx ^ ", frozen snapshot") seen (observe snap))
        !snapshots
  done

(* Editing a copy — a leaf, an ISA and a PREFERENCE — never changes an
   answer its frozen parent gives. *)
let test_copy_leaves_frozen_parent () =
  let h = Fixtures.animals () in
  Hierarchy.add_preference h ~weaker:"canary" ~stronger:"penguin";
  Hierarchy.freeze h;
  let before = observe h in
  let h' = Hierarchy.copy h in
  ignore (Hierarchy.add_instance h' ~parents:[ "canary"; "penguin" ] "polly");
  Hierarchy.freeze h';
  Alcotest.(check bool) "copy sees the leaf" true
    (Hierarchy.subsumes h' (Hierarchy.find_exn h' "canary") (Hierarchy.find_exn h' "polly"));
  let h'' = Hierarchy.copy h' in
  Hierarchy.add_isa h'' ~sub:"peter" ~super:"canary";
  Hierarchy.add_preference h'' ~weaker:"galapagos_penguin" ~stronger:"amazing_flying_penguin";
  Hierarchy.freeze h'';
  Alcotest.(check bool) "second copy sees the isa" true
    (Hierarchy.subsumes h'' (Hierarchy.find_exn h'' "canary") (Hierarchy.find_exn h'' "peter"));
  check_answers "frozen parent" before (observe h);
  Alcotest.(check bool) "parent lacks polly" false (Hierarchy.mem h "polly")

(* A new leaf extends the ancestor arrays; sealing the copy afterwards
   rebuilds nothing. *)
let test_leaf_insertion_skips_rebuild () =
  let h = Fixtures.animals () in
  Hierarchy.freeze h;
  let builds () = Metrics.counter_value "hierarchy.index_builds" in
  Metrics.with_enabled true (fun () ->
      let before = builds () in
      let h' = Hierarchy.copy h in
      ignore (Hierarchy.add_instance h' ~parents:[ "canary"; "penguin" ] "polly");
      Hierarchy.freeze h';
      let polly = Hierarchy.find_exn h' "polly" in
      Alcotest.(check (list string)) "ancestors of the leaf"
        [ "animal"; "bird"; "canary"; "penguin"; "polly" ]
        (names h' (Hierarchy.ancestors h' polly));
      Alcotest.(check int) "no full rebuild" before (builds ());
      Hierarchy.add_isa (Hierarchy.copy h') ~sub:"peter" ~super:"canary";
      Alcotest.(check int) "an isa edge still rebuilds lazily" before (builds ()))

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "membership is transitive reachability" `Quick test_membership;
    Alcotest.test_case "leaves under" `Quick test_leaves_under;
    Alcotest.test_case "empty class has empty extension" `Quick test_empty_class_extension;
    Alcotest.test_case "duplicate names rejected" `Quick test_duplicate_name_rejected;
    Alcotest.test_case "children under instances rejected" `Quick
      test_child_under_instance_rejected;
    Alcotest.test_case "type-irredundancy: cycles rejected" `Quick test_cycle_rejected;
    Alcotest.test_case "multiple inheritance" `Quick test_multi_parent;
    Alcotest.test_case "optimistic intersection + mcd" `Quick test_intersection;
    Alcotest.test_case "mcd prefers explicit class witness" `Quick
      test_mcd_prefers_class_witness;
    Alcotest.test_case "validate flags redundant edges; reduce fixes" `Quick
      test_validate_and_reduce;
    Alcotest.test_case "node elimination keeps members" `Quick test_eliminate_class;
    Alcotest.test_case "preference edges affect binding only" `Quick test_preference_edges;
    Alcotest.test_case "rename node" `Quick test_rename_node;
    Alcotest.test_case "rename keeps relations valid" `Quick test_rename_keeps_relations_valid;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolated;
    Alcotest.test_case "random edits match naive traversals" `Quick test_differential;
    Alcotest.test_case "editing a copy leaves the frozen parent" `Quick
      test_copy_leaves_frozen_parent;
    Alcotest.test_case "leaf insertion seals without a rebuild" `Quick
      test_leaf_insertion_skips_rebuild;
  ]
