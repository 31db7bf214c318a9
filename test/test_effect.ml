(* The commutativity oracle on trial (docs/EFFECTS.md).

   The centerpiece is a differential soundness harness: generate random
   worlds and random statement pairs, and whenever [Effect.commutes]
   answers [Commute], apply the pair in both orders against snapshots
   of the same world — the flattened states and the per-statement
   outcomes must be identical. The oracle carries a test-only seeded
   bug ([~unsound_oracle]) that wrongly commutes overlapping
   opposite-sign writes; the same harness must catch it, which is what
   makes a clean sweep evidence rather than absence of assertions.

   Also here: widening edge cases (DDL, CONSOLIDATE, unresolved
   values) and the {!Hr_repl.Apply} replica burst, which must spawn no
   domain. *)

module Effect = Hr_analysis.Effect
module Footprint = Hr_analysis.Footprint
module Apply = Hr_repl.Apply
module Db = Hr_storage.Db
module Eval = Hr_query.Eval
module Parser = Hr_query.Parser
module Workload = Hr_workload.Workload
module Prng = Hr_util.Prng
module Symbol = Hr_util.Symbol
module Hierarchy = Hr_hierarchy.Hierarchy
module Traditional = Hr_flat.Traditional
module Flat_relation = Hr_flat.Flat_relation
open Hierel

(* Same replay contract as test_fuzz: one integer seed drives every
   random choice, printed so a failing run replays exactly with
   [HRDB_TEST_SEED=n dune runtest]. *)
let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None ->
      failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None ->
    Int64.to_int
      (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let () =
  Printf.eprintf
    "test_effect: differential harness seed %d (replay with HRDB_TEST_SEED=%d)\n%!"
    seed seed

let stmt_of src =
  match Parser.parse src with
  | [ { Hr_query.Ast.stmt; _ } ] -> stmt
  | _ -> Alcotest.failf "expected exactly one statement: %s" src

let must_exec cat src =
  match Eval.run_script cat src with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "world setup failed: %s (script: %s)" m src

(* ---- the differential harness ----------------------------------------- *)

(* A random world: one DAG-shaped hierarchy and two consistent
   single-attribute relations over it, so generated pairs land on the
   same relation often enough to exercise every verdict. *)
let build_world rng =
  let h =
    Workload.random_hierarchy rng
      {
        Workload.name = "d";
        classes = 5;
        instances = 6;
        multi_parent_prob = 0.25;
      }
  in
  let cat = Catalog.create () in
  Catalog.define_hierarchy cat h;
  let schema = Schema.make [ ("who", h) ] in
  List.iter
    (fun rel_name ->
      Catalog.define_relation cat
        (Workload.consistent_random_relation rng schema
           {
             Workload.default_relation_spec with
             Workload.rel_name;
             tuples = 6;
             neg_fraction = 0.3;
           }))
    [ "r"; "s" ];
  (cat, h)

let gen_value rng h =
  if Prng.bernoulli rng 0.55 then
    let classes = Array.of_list (Hierarchy.classes h) in
    "ALL " ^ Symbol.name (Hierarchy.node_name h (Prng.pick rng classes))
  else
    let instances = Array.of_list (Hierarchy.instances h) in
    Symbol.name (Hierarchy.node_name h (Prng.pick rng instances))

let gen_stmt rng h =
  let rel = if Prng.bernoulli rng 0.6 then "r" else "s" in
  let n = 1 + Prng.int rng 2 in
  if Prng.bernoulli rng 0.75 then
    Printf.sprintf "INSERT INTO %s VALUES %s;" rel
      (String.concat ", "
         (List.init n (fun _ ->
              Printf.sprintf "(%s %s)"
                (if Prng.bernoulli rng 0.7 then "+" else "-")
                (gen_value rng h))))
  else
    Printf.sprintf "DELETE FROM %s VALUES %s;" rel
      (String.concat ", "
         (List.init n (fun _ -> Printf.sprintf "(%s)" (gen_value rng h))))

type outcome = {
  r1 : string;  (* how the first-listed statement fared *)
  r2 : string;
  state : (string * Flat_relation.t) list;  (* flattened, by name *)
}

let apply cat src =
  match Eval.run_script cat src with
  | Ok _ -> "ok"
  | Error m -> "error: " ^ m
  | exception e -> "raised: " ^ Printexc.to_string e

let flatten cat =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map
       (fun r -> (Relation.name r, Traditional.extension_relation r))
       (Catalog.relations cat))

(* Run [s1; s2] and [s2; s1] against two snapshots of the same world.
   Statements execute independently (one failing must not mask the
   other), exactly like WAL records on a replica. *)
let both_orders world s1 s2 =
  let a = Catalog.snapshot world and b = Catalog.snapshot world in
  let a1 = apply a s1 in
  let a2 = apply a s2 in
  let b2 = apply b s2 in
  let b1 = apply b s1 in
  ({ r1 = a1; r2 = a2; state = flatten a }, { r1 = b1; r2 = b2; state = flatten b })

let same_outcome a b =
  a.r1 = b.r1 && a.r2 = b.r2
  && List.length a.state = List.length b.state
  && List.for_all2
       (fun (n1, f1) (n2, f2) -> n1 = n2 && Flat_relation.equal f1 f2)
       a.state b.state

let trials = 300

let test_differential () =
  let commute = ref 0 and conflict = ref 0 and unknown = ref 0 in
  for i = 0 to trials - 1 do
    let rng = Prng.create (Int64.of_int ((seed * 1_000_003) + i)) in
    let world, h = build_world rng in
    let s1 = gen_stmt rng h and s2 = gen_stmt rng h in
    let find = Catalog.find_relation world in
    match Effect.commutes ~find (stmt_of s1) (stmt_of s2) with
    | Effect.Conflict _ -> incr conflict
    | Effect.Unknown _ -> incr unknown
    | Effect.Commute ->
      incr commute;
      let a, b = both_orders world s1 s2 in
      if not (same_outcome a b) then
        Alcotest.failf
          "oracle unsound (seed %d, trial %d): declared Commute but orders \
           diverge\n  s1: %s\n  s2: %s\n  s1-first: %s / %s\n  s2-first: %s / %s"
          seed i s1 s2 a.r1 a.r2 b.r1 b.r2
  done;
  (* a sweep that never reaches the Commute arm proves nothing *)
  if !commute = 0 then
    Alcotest.failf "degenerate sweep (seed %d): 0 Commute in %d trials" seed
      trials;
  if !conflict + !unknown = 0 then
    Alcotest.failf "degenerate sweep (seed %d): every pair commuted" seed

(* The ambiguity counterexample behind the oracle's sign-blindness:
   penguin inherits from both bird and swimmer, so [+ ALL bird] and
   [- ALL swimmer] overlap on an item neither subsumes via the other.
   Whichever lands first is accepted and the second is rejected as
   ambiguous — the final state depends on the order. *)
let counterexample_world () =
  let cat = Catalog.create () in
  must_exec cat
    "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
     CREATE CLASS swimmer UNDER animal; CREATE CLASS penguin UNDER bird;\n\
     CREATE ISA penguin UNDER swimmer; CREATE INSTANCE pingu OF penguin;\n\
     CREATE INSTANCE rex OF animal;\n\
     CREATE RELATION r (who: animal); CREATE RELATION q (who: animal);";
  cat

let test_seeded_bug () =
  let world = counterexample_world () in
  let find = Catalog.find_relation world in
  let s1 = "INSERT INTO r VALUES (+ ALL bird);" in
  let s2 = "INSERT INTO r VALUES (- ALL swimmer);" in
  (match Effect.commutes ~find (stmt_of s1) (stmt_of s2) with
  | Effect.Commute ->
    Alcotest.fail "sound oracle wrongly commutes the ambiguity counterexample"
  | Effect.Conflict _ | Effect.Unknown _ -> ());
  (match Effect.commutes ~unsound_oracle:true ~find (stmt_of s1) (stmt_of s2) with
  | Effect.Commute -> ()
  | v ->
    Alcotest.failf "seeded bug did not fire: expected Commute, got %s"
      (Effect.verdict_label v));
  (* ... and the differential check sees through it, so a harness run
     over the unsound oracle cannot pass silently *)
  let a, b = both_orders world s1 s2 in
  Alcotest.(check bool) "orders diverge on the counterexample" false
    (same_outcome a b)

(* ---- widening edge cases ---------------------------------------------- *)

let is_commute = function Effect.Commute -> true | _ -> false
let is_unknown = function Effect.Unknown _ -> true | _ -> false

let test_widening () =
  let world = counterexample_world () in
  let find = Catalog.find_relation world in
  let v a b = Effect.commutes ~find (stmt_of a) (stmt_of b) in
  (* DDL footprints are opaque: everything across them is Unknown *)
  Alcotest.(check bool) "DDL never commutes" true
    (is_unknown (v "CREATE CLASS fish UNDER animal;" "INSERT INTO r VALUES (+ pingu);"));
  Alcotest.(check bool) "DDL opaque even against a read" true
    (is_unknown (v "DROP RELATION q;" "SELECT * FROM r;"));
  (* CONSOLIDATE/EXPLICATE read and rewrite their whole relation *)
  Alcotest.(check bool) "CONSOLIDATE conflicts with a same-relation write" false
    (is_commute (v "CONSOLIDATE r;" "INSERT INTO r VALUES (+ pingu);"));
  Alcotest.(check bool) "CONSOLIDATE commutes across relations" true
    (is_commute (v "CONSOLIDATE r;" "INSERT INTO q VALUES (+ pingu);"));
  (* an unresolvable value widens its cone to the whole hierarchy: the
     pair must come back Unknown (conservative), never Commute *)
  Alcotest.(check bool) "unresolved value widens to Unknown" true
    (is_unknown (v "INSERT INTO r VALUES (+ nosuch);" "INSERT INTO r VALUES (+ pingu);"));
  (* reads only block on overlapping writes *)
  Alcotest.(check bool) "read commutes with a disjoint-relation write" true
    (is_commute (v "SELECT * FROM r;" "INSERT INTO q VALUES (+ pingu);"));
  Alcotest.(check bool) "read conflicts with a same-relation write" false
    (is_commute (v "SELECT * FROM r;" "INSERT INTO r VALUES (+ pingu);"));
  (* provably disjoint cones on the same relation commute... *)
  Alcotest.(check bool) "disjoint same-relation cones commute" true
    (is_commute (v "INSERT INTO r VALUES (+ rex);" "INSERT INTO r VALUES (+ ALL bird);"));
  (* ...but overlapping incomparable ones never do *)
  Alcotest.(check bool) "incomparable overlapping cones do not commute" false
    (is_commute
       (v "INSERT INTO r VALUES (+ ALL bird);" "INSERT INTO r VALUES (- ALL swimmer);"))

(* ---- replica apply: one serial path ----------------------------------- *)

let rcd lsn stmt = { Apply.lsn; stmt }

let with_temp_dir f =
  let dir = Filename.temp_file "hrdb_effect" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let replica_world =
  "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
   CREATE CLASS penguin UNDER bird; CREATE INSTANCE tweety OF bird;\n\
   CREATE INSTANCE opus OF penguin; CREATE INSTANCE rex OF animal;\n\
   CREATE RELATION a (who: animal); CREATE RELATION b (who: animal);\n\
   CREATE RELATION c (who: animal);"

(* A burst over all three relations, with a CONSOLIDATE and a DELETE
   in the middle. *)
let replica_stmts =
  [
    "INSERT INTO a VALUES (+ ALL bird);";
    "INSERT INTO b VALUES (+ rex);";
    "INSERT INTO c VALUES (+ ALL penguin);";
    "INSERT INTO a VALUES (- opus);";
    "CONSOLIDATE a;";
    "INSERT INTO b VALUES (+ tweety), (+ opus);";
    "INSERT INTO c VALUES (- opus);";
    "DELETE FROM b VALUES (rex);";
  ]

(* Applies [replica_stmts] as one burst to a fresh durable database in
   [dir] and returns its flattened relations. *)
let apply_burst ~domains dir =
  let db = Db.open_dir dir in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      (match Db.exec db replica_world with
      | Ok _ -> ()
      | Error m -> failwith ("world setup failed: " ^ m));
      let base = Db.lsn db in
      let records =
        List.mapi (fun i stmt -> rcd (base + i + 1) stmt) replica_stmts
      in
      (match Apply.apply_batch ~domains db records with
      | Ok () -> ()
      | Error m -> failwith ("apply failed: " ^ m));
      Db.sync db;
      flatten (Db.catalog db))

(* OCaml 5 refuses [Unix.fork] once the process has created any domain,
   even one already joined. A child that can still fork after applying a
   burst with [~domains:4] therefore ran it on its own domain alone. The
   probe runs in a forked child, so a domain it spawned could not stop
   the test process from forking later. *)
let test_apply_spawns_no_domain () =
  let expected = with_temp_dir (apply_burst ~domains:1) in
  let same got =
    List.length got = List.length expected
    && List.for_all2
         (fun (n1, x1) (n2, x2) -> n1 = n2 && Flat_relation.equal x1 x2)
         got expected
  in
  match Unix.fork () with
  | 0 ->
    let code =
      match with_temp_dir (apply_burst ~domains:4) with
      | exception _ -> 2
      | got -> (
        match Unix.fork () with
        | exception Failure _ -> 3
        | 0 -> Unix._exit 0
        | pid -> (
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> if same got then 0 else 4
          | _ -> 5))
    in
    Unix._exit code
  | pid ->
    let status =
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> "ok"
      | _, Unix.WEXITED 2 -> "apply failed"
      | _, Unix.WEXITED 3 -> "fork refused: apply spawned a domain"
      | _, Unix.WEXITED 4 -> "flattened relations differ from ~domains:1"
      | _ -> "child failed"
    in
    Alcotest.(check string) "child forks after ~domains:4 apply" "ok" status

let test_apply_errors () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Db.close db)
        (fun () ->
          (match Db.exec db replica_world with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "world setup failed: %s" m);
          let base = Db.lsn db in
          (* a record that cannot evaluate is divergence *)
          (match
             Apply.apply_batch ~domains:3 db
               [
                 rcd (base + 1) "INSERT INTO nosuch VALUES (+ rex);";
                 rcd (base + 2) "INSERT INTO a VALUES (+ rex);";
               ]
           with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "bad record must fail the batch");
          (* a stale LSN is refused like the sequential path *)
          match Apply.apply_batch ~domains:1 db [ rcd base "CONSOLIDATE a;" ] with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "stale LSN must be refused"))

let suite =
  [
    Alcotest.test_case "oracle soundness: both orders agree on Commute" `Quick
      test_differential;
    Alcotest.test_case "seeded unsound oracle is caught" `Quick test_seeded_bug;
    Alcotest.test_case "widening edge cases" `Quick test_widening;
    Alcotest.test_case "apply spawns no domain" `Quick
      test_apply_spawns_no_domain;
    Alcotest.test_case "apply batch error paths" `Quick test_apply_errors;
  ]
