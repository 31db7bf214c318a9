(* The static analyzer: one positive and one negative case per
   diagnostic code, the all-codes golden fixture, span correctness,
   purity (analysis never mutates the live catalog), and totality. *)

module Lint = Hr_analysis.Lint
module Diagnostic = Hr_analysis.Diagnostic
module Lexer = Hr_query.Lexer
module Parser = Hr_query.Parser
module Loc = Hr_query.Loc
module Eval = Hr_query.Eval
module Hierarchy = Hr_hierarchy.Hierarchy
open Hierel

let codes ?catalog script =
  List.map (fun d -> d.Diagnostic.code) (Lint.analyze_script ?catalog script)

let check_codes name expected script =
  Alcotest.(check (list string)) name expected (codes script)

(* A world most cases build on: birds and penguins, and a place domain. *)
let world =
  {|CREATE DOMAIN animal;
CREATE CLASS bird UNDER animal;
CREATE CLASS penguin UNDER bird;
CREATE INSTANCE tweety OF bird;
CREATE INSTANCE opus OF penguin;
CREATE INSTANCE rex OF animal;
CREATE DOMAIN place;
CREATE INSTANCE antarctica OF place;
CREATE RELATION flies (who: animal);
|}

let test_clean_world () = check_codes "world is clean" [] world

(* -- one positive and one negative case per code ----------------------- *)

let test_e000 () =
  check_codes "garbage is a syntax error" [ "E000" ] "CREATE NONSENSE;";
  check_codes "valid statement is clean" [] "CREATE DOMAIN d;"

let test_e001 () =
  check_codes "unknown relation" [ "E001" ] "SELECT * FROM nosuch;";
  check_codes "known relation" [] (world ^ "SELECT * FROM flies;")

let test_e002 () =
  check_codes "arity mismatch" [ "E002" ]
    (world ^ "INSERT INTO flies VALUES (+ tweety, rex);");
  check_codes "right arity" [] (world ^ "INSERT INTO flies VALUES (+ tweety);")

let test_e003 () =
  check_codes "value from the wrong domain" [ "E003" ]
    (world ^ "INSERT INTO flies VALUES (+ antarctica);");
  check_codes "value from the right domain" []
    (world ^ "INSERT INTO flies VALUES (+ rex);")

let test_e004 () =
  check_codes "ALL on an instance" [ "E004" ]
    (world ^ "INSERT INTO flies VALUES (+ ALL tweety);");
  check_codes "ALL on a class" [] (world ^ "INSERT INTO flies VALUES (+ ALL bird);")

let test_e005 () =
  check_codes "isa cycle" [ "E005" ] (world ^ "CREATE ISA animal UNDER penguin;");
  check_codes "fresh isa edge is clean" []
    (world ^ "CREATE CLASS swimmer UNDER animal; CREATE ISA penguin UNDER swimmer;")

let test_e006 () =
  check_codes "union of different schemas" [ "E006" ]
    (world
   ^ "CREATE RELATION lives (who: animal, where_at: place);\n\
      SELECT * FROM flies UNION lives;");
  check_codes "union of identical schemas" []
    (world ^ "CREATE RELATION flew (who: animal); SELECT * FROM flies UNION flew;")

let test_e007 () =
  check_codes "join on disjoint domains" [ "E007" ]
    (world
   ^ "CREATE RELATION guards (who: place);\nSELECT * FROM flies JOIN guards;");
  check_codes "join on a shared domain" []
    (world
   ^ "CREATE RELATION eats (who: animal);\nSELECT * FROM flies JOIN eats;")

let test_e008 () =
  check_codes "unknown attribute in selection" [ "E008" ]
    (world ^ "SELECT * FROM flies WHERE nope = tweety;");
  check_codes "known attribute" [] (world ^ "SELECT * FROM flies WHERE who = tweety;")

let test_e009 () =
  check_codes "duplicate relation" [ "E009" ]
    (world ^ "CREATE RELATION flies (who: animal);");
  check_codes "duplicate class name" [ "E009" ] (world ^ "CREATE CLASS bird UNDER animal;");
  check_codes "fresh names are clean" []
    (world ^ "CREATE RELATION flew (who: animal); CREATE CLASS fish UNDER animal;")

(* A class, instance or domain name is unique across the catalog: the
   engine rejects a second definition in another hierarchy, as lint
   says it does. *)
let test_global_names () =
  List.iter
    (fun script ->
      (match Eval.run_script (Catalog.create ()) script with
      | Ok _ -> Alcotest.failf "the engine accepted %S" script
      | Error _ -> ());
      Alcotest.(check bool) ("E009 on " ^ script) true (List.mem "E009" (codes script)))
    [
      "CREATE DOMAIN a; CREATE CLASS bird UNDER a; CREATE DOMAIN bird;";
      "CREATE DOMAIN d; CREATE DOMAIN e; CREATE CLASS a UNDER d; CREATE CLASS a UNDER e;";
    ]

let test_e010 () =
  check_codes "children under an instance" [ "E010" ]
    (world ^ "CREATE CLASS chick UNDER tweety;");
  check_codes "children under a class" [] (world ^ "CREATE CLASS chick UNDER bird;")

let test_w101 () =
  check_codes "redundant isa edge" [ "W101" ]
    (world ^ "CREATE ISA penguin UNDER animal;");
  check_codes "non-redundant isa edge" []
    (world ^ "CREATE CLASS swimmer UNDER animal; CREATE ISA penguin UNDER swimmer;")

let test_w102 () =
  check_codes "row implied by a more general one" [ "W102" ]
    (world
   ^ "INSERT INTO flies VALUES (+ ALL bird);\nINSERT INTO flies VALUES (+ opus);");
  (* an intersecting negation makes the subsumed row load-bearing: it is
     the disambiguating assertion, exactly the paper's Respects example.
     The engine accepts the three rows only together — the negation
     alone would be ambiguous — and the resolving row is NOT dead *)
  check_codes "subsumed row that resolves a conflict is not dead" []
    (world
   ^ "CREATE CLASS swimmer UNDER animal; CREATE ISA penguin UNDER swimmer;\n\
      INSERT INTO flies VALUES (+ ALL bird), (- ALL swimmer), (+ ALL penguin);")

let test_w103 () =
  check_codes "negation fully re-covered by closer positives" [ "W103" ]
    (world
   ^ "INSERT INTO flies VALUES (+ opus);\n\
      INSERT INTO flies VALUES (+ ALL bird);\n\
      INSERT INTO flies VALUES (- ALL penguin);");
  check_codes "negation that wins somewhere" []
    (world
   ^ "CREATE INSTANCE pingu OF penguin;\n\
      INSERT INTO flies VALUES (+ opus);\n\
      INSERT INTO flies VALUES (+ ALL bird);\n\
      INSERT INTO flies VALUES (- ALL penguin);")

let test_w104 () =
  (* the same incomparable pair is order-sensitive, so the effect pass
     adds W110 *)
  check_codes "incomparable opposite rows over a shared descendant"
    [ "W104"; "W110" ]
    (world
   ^ "CREATE CLASS swimmer UNDER animal; CREATE ISA penguin UNDER swimmer;\n\
      INSERT INTO flies VALUES (+ ALL bird);\n\
      INSERT INTO flies VALUES (- ALL swimmer);");
  check_codes "comparable opposite rows are fine" []
    (world
   ^ "INSERT INTO flies VALUES (+ ALL bird);\n\
      INSERT INTO flies VALUES (- ALL penguin);\n\
      INSERT INTO flies VALUES (+ opus);")


(* W110 pairs the rows of two statements. The world here gives penguin
   two parents, so [ALL bird] and [ALL swimmer] overlap on penguin and
   neither covers the other; flipper swims but does not fly. *)
let swimmers =
  world
  ^ "CREATE CLASS swimmer UNDER animal; CREATE ISA penguin UNDER swimmer; \
     CREATE INSTANCE flipper OF swimmer;\n"

let test_w110 () =
  (* lines 11-14: the DELETE (14) races the incomparable INSERT (12)
     only; the SELECT keeps the deleted row from being a dead write *)
  (match
     Lint.analyze_script
       (swimmers
      ^ "INSERT INTO flies VALUES (+ ALL swimmer);\n\
         INSERT INTO flies VALUES (+ ALL bird);\n\
         SELECT * FROM flies;\n\
         DELETE FROM flies VALUES (ALL swimmer);")
   with
  | [ d ] ->
    Alcotest.(check string) "code" "W110" d.Diagnostic.code;
    Alcotest.(check int) "at the later statement" 14 d.Diagnostic.loc.Loc.lo.line;
    Alcotest.(check (list string)) "related to the earlier one"
      [ "conflicts with the statement at 12:1-38" ] d.Diagnostic.related
  | ds -> Alcotest.failf "expected one W110, got %d diagnostics" (List.length ds));
  check_codes "same-sign incomparable inserts are silent" []
    (swimmers
   ^ "INSERT INTO flies VALUES (+ ALL bird);\n\
      INSERT INTO flies VALUES (+ ALL swimmer);");
  check_codes "a row naming no node never pairs" [ "E008" ]
    (swimmers
   ^ "INSERT INTO flies VALUES (+ ALL bird);\n\
      INSERT INTO flies VALUES (- ALL swimmer), (- nosuch);");
  (* linting against a catalog, the fork's first edit of [animal] runs
     on a copy: rows resolved on either side of it are never compared *)
  let catalog = Catalog.create () in
  (match Eval.run_script catalog swimmers with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "world: %s" e);
  let pair between =
    "INSERT INTO flies VALUES (+ ALL bird);\n" ^ between
    ^ "INSERT INTO flies VALUES (- ALL swimmer);"
  in
  Alcotest.(check (list string)) "the pair without DDL" [ "W104"; "W110" ]
    (codes ~catalog (pair ""));
  Alcotest.(check (list string)) "the pair across a DDL that copies the domain" [ "W104" ]
    (codes ~catalog (pair "CREATE CLASS fish UNDER animal;\n"))
let test_w105 () =
  check_codes "contradictory ANDed selections" [ "W105" ]
    (world ^ "SELECT * FROM flies WHERE who = rex AND who = tweety;");
  check_codes "narrowing ANDed selections" []
    (world ^ "SELECT * FROM flies WHERE who = bird AND who = tweety;")

let seeded_catalog () =
  let cat = Catalog.create () in
  match Eval.run_script cat world with
  | Ok _ -> cat
  | Error e -> Alcotest.failf "world script failed: %s" e

let test_w106 () =
  check_codes "write deleted before any read" [ "W106" ]
    (world
   ^ "INSERT INTO flies VALUES (+ rex);\nDELETE FROM flies VALUES (rex);");
  check_codes "write destroyed by DROP RELATION" [ "W106" ]
    (world ^ "INSERT INTO flies VALUES (+ rex);\nDROP RELATION flies;");
  check_codes "a read in between keeps the write live" []
    (world
   ^ "INSERT INTO flies VALUES (+ rex);\n\
      SELECT * FROM flies;\n\
      DELETE FROM flies VALUES (rex);")

let test_w106_no_provenance () =
  (* rows that pre-exist in a live catalog were not written by the
     script, so deleting them is not a dead write *)
  let cat = seeded_catalog () in
  (match Eval.run_script cat "INSERT INTO flies VALUES (+ tweety);" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed insert failed: %s" e);
  Alcotest.(check (list string))
    "no W106 on pre-existing rows" []
    (codes ~catalog:cat "DELETE FROM flies VALUES (tweety);")

let test_w107 () =
  check_codes "patchwork of narrower tuples makes the row a no-op" [ "W107" ]
    (world
   ^ "INSERT INTO flies VALUES (+ ALL penguin), (+ tweety);\n\
      INSERT INTO flies VALUES (+ ALL bird);");
  check_codes "exact same-sign duplicate is a no-op" [ "W107" ]
    (world
   ^ "INSERT INTO flies VALUES (+ ALL bird);\nINSERT INTO flies VALUES (+ ALL bird);");
  check_codes "an uncovered instance keeps the row live" []
    (world
   ^ "INSERT INTO flies VALUES (+ ALL penguin);\n\
      INSERT INTO flies VALUES (+ ALL bird);")

let test_w108 () =
  (* the engine rejects the later row (W104); W108 points at the
     assertion it contradicts *)
  check_codes "cross-statement contradiction" [ "W104"; "W108" ]
    (world
   ^ "INSERT INTO flies VALUES (+ rex);\nINSERT INTO flies VALUES (- rex);");
  (* within one statement the overwrite is a plain direct contradiction *)
  check_codes "same-statement contradiction stays W104" [ "W104" ]
    (world ^ "INSERT INTO flies VALUES (+ rex), (- rex);")

let test_w108_no_provenance () =
  (* contradicting a tuple the script did not assert is W104, not W108 *)
  let cat = seeded_catalog () in
  (match Eval.run_script cat "INSERT INTO flies VALUES (+ rex);" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed insert failed: %s" e);
  Alcotest.(check (list string))
    "contradiction against catalog data is W104" [ "W104" ]
    (codes ~catalog:cat "INSERT INTO flies VALUES (- rex);")

let test_w109 () =
  check_codes "exception covering the whole generalization" [ "W109" ]
    (world
   ^ "INSERT INTO flies VALUES (+ ALL penguin);\n\
      INSERT INTO flies VALUES (- opus);");
  check_codes "exception carving a strict subset is fine" []
    (world
   ^ "INSERT INTO flies VALUES (+ ALL bird);\nINSERT INTO flies VALUES (- opus);")

let test_h203 () =
  check_codes "CONSOLIDATE replays from source" [ "H203" ]
    (world ^ "CONSOLIDATE flies;");
  check_codes "EXPLICATE replays from source" [ "H203" ]
    (world ^ "INSERT INTO flies VALUES (+ ALL bird);\nEXPLICATE flies;");
  check_codes "CONSOLIDATE of an unknown relation is E001" [ "E001" ]
    (world ^ "CONSOLIDATE nosuch;")

let test_h201 () =
  check_codes "bare class in an insert row" [ "H201" ]
    (world ^ "INSERT INTO flies VALUES (+ bird);");
  check_codes "explicit ALL" [] (world ^ "INSERT INTO flies VALUES (+ ALL bird);")

let test_h202 () =
  check_codes "projection drops the exception-carrying attribute" [ "H202" ]
    (world
   ^ "CREATE RELATION lives (who: animal, where_at: place);\n\
      INSERT INTO lives VALUES (+ ALL bird, antarctica);\n\
      INSERT INTO lives VALUES (- ALL penguin, antarctica);\n\
      SELECT * FROM PROJECT lives ON (where_at);");
  check_codes "projection keeping the attribute" []
    (world
   ^ "CREATE RELATION lives (who: animal, where_at: place);\n\
      INSERT INTO lives VALUES (+ ALL bird, antarctica);\n\
      INSERT INTO lives VALUES (- ALL penguin, antarctica);\n\
      SELECT * FROM PROJECT lives ON (who);")

(* -- a failed definition ------------------------------------------------ *)

(* A definition the engine rejects defines nothing: every later
   statement that names it is rejected too, and each is an error. *)
let test_failed_definitions () =
  check_codes "a bad LET leaves its name unknown" [ "E001"; "E001"; "E001"; "E001" ]
    "LET x = nosuch;\nSELECT * FROM x;\nSELECT * FROM x JOIN x;";
  check_codes "a failed CREATE RELATION leaves its name unknown"
    [ "E008"; "E001"; "E001" ]
    "CREATE RELATION r (v: nodomain);\nINSERT INTO r VALUES (+ x);\nSELECT * FROM r;"

(* -- spans -------------------------------------------------------------- *)

let test_spans () =
  let script = world ^ "SELECT * FROM nosuch;" in
  match Lint.analyze_script script with
  | [ d ] ->
    Alcotest.(check string) "code" "E001" d.Diagnostic.code;
    (* [world] is 9 statements ending in a newline, so the SELECT is
       line 10 and the relation name starts at column 15 *)
    Alcotest.(check (pair int int))
      "start" (10, 15)
      (d.Diagnostic.loc.Loc.lo.Loc.line, d.Diagnostic.loc.Loc.lo.Loc.col);
    Alcotest.(check (pair int int))
      "end" (10, 21)
      (d.Diagnostic.loc.Loc.hi.Loc.line, d.Diagnostic.loc.Loc.hi.Loc.col)
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let test_lexer_spans () =
  (match Lexer.tokenize "CREATE\n  ? DOMAIN" with
  | _ -> Alcotest.fail "expected Lex_error"
  | exception Lexer.Lex_error { loc; _ } ->
    Alcotest.(check (pair int int))
      "garbled char position" (2, 3)
      (loc.Loc.lo.Loc.line, loc.Loc.lo.Loc.col));
  match Lint.analyze_script "CREATE DOMAIN d;\n\x01;" with
  | [ d ] ->
    Alcotest.(check string) "lex error surfaces as E000" "E000" d.Diagnostic.code;
    Alcotest.(check (pair int int))
      "at the bad byte" (2, 1)
      (d.Diagnostic.loc.Loc.lo.Loc.line, d.Diagnostic.loc.Loc.lo.Loc.col)
  | ds -> Alcotest.failf "expected one E000, got %d diagnostics" (List.length ds)

(* -- the all-codes golden fixture --------------------------------------- *)

let test_golden () =
  let script = Fixtures.read "lint_all_codes.hrql" in
  let expected = Fixtures.read "lint_all_codes.expected" in
  let actual = Diagnostic.render_text (Lint.analyze_script script) in
  Alcotest.(check string) "full report matches" expected actual;
  let all_codes = codes script in
  (* report order: the effect pass (W110) interleaves with the
     per-statement codes — W110 rides along with the W104 pair *)
  Alcotest.(check (list string))
    "all twenty-nine codes, in order"
    [
      "E001"; "E002"; "E003"; "E004"; "E005"; "E006"; "E007"; "E008";
      "E009"; "E010"; "W101"; "W102"; "W103"; "W104"; "W110"; "W105"; "W106";
      "W107"; "W104"; "W108"; "W109"; "H201"; "H202"; "H203";
      "P300"; "P301"; "P302"; "P303"; "P304"; "P305";
    ]
    all_codes

(* -- analysis against a live catalog ------------------------------------ *)

let test_catalog_seeding () =
  let cat = seeded_catalog () in
  Alcotest.(check (list string))
    "catalog relations are visible" []
    (codes ~catalog:cat "INSERT INTO flies VALUES (+ tweety);");
  Alcotest.(check (list string))
    "catalog contents are visible" [ "W102" ]
    (codes ~catalog:cat
       "INSERT INTO flies VALUES (+ ALL bird);\nINSERT INTO flies VALUES (+ opus);")

(* Lint [script] against [cat] and check that nothing of [cat] changed:
   the same relation values (physically), the same hierarchy objects in
   the same state, the same observed statistics. *)
let check_pure what cat script =
  let rels = Catalog.relations cat in
  let hiers = List.map (fun h -> (h, Hierarchy.generation h)) (Catalog.hierarchies cat) in
  let stats = Catalog.observed_stats cat in
  let diags = Lint.analyze_script ~catalog:cat script in
  Alcotest.(check bool) (what ^ ": the script was accepted") false
    (Diagnostic.has_errors diags);
  Alcotest.(check int) (what ^ ": relation count") (List.length rels)
    (List.length (Catalog.relations cat));
  List.iter
    (fun r ->
      match Catalog.find_relation cat (Relation.name r) with
      | Some r' when r' == r -> ()
      | _ -> Alcotest.failf "%s: relation %s was replaced" what (Relation.name r))
    rels;
  Alcotest.(check int) (what ^ ": hierarchy count") (List.length hiers)
    (List.length (Catalog.hierarchies cat));
  List.iter
    (fun (h, generation) ->
      let name = Hr_util.Symbol.name (Hierarchy.domain h) in
      Alcotest.(check bool) (what ^ ": hierarchy " ^ name ^ " kept") true
        (Catalog.hierarchy cat name == h);
      Alcotest.(check int) (what ^ ": hierarchy " ^ name ^ " unchanged") generation
        (Hierarchy.generation h))
    hiers;
  Alcotest.(check (list (pair (pair string string) int)))
    (what ^ ": observed statistics") stats (Catalog.observed_stats cat)

let test_purity () =
  let cat = seeded_catalog () in
  (* a stat for the DROP RELATION below to find *)
  (match
     Eval.run_script cat
       "INSERT INTO flies VALUES (+ ALL bird);\n\
        EXPLAIN ANALYZE SELECT flies WHERE who = bird;"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed failed: %s" e);
  Alcotest.(check bool) "a statistic to keep" true (Catalog.observed_stats cat <> []);
  (* a script full of accepted DDL and DML: none of it may leak *)
  let script =
    "CREATE DOMAIN fish;\n\
     CREATE CLASS seabird UNDER animal;\n\
     CREATE ISA penguin UNDER seabird;\n\
     CREATE RELATION eats (who: animal);\n\
     INSERT INTO flies VALUES (+ rex), (- ALL penguin);\n\
     LET birds = SELECT flies WHERE who = bird;\n\
     DROP RELATION flies;\n\
     INSERT INTO eats VALUES (+ ALL seabird);"
  in
  check_pure "unfrozen catalog" cat script;
  Alcotest.(check bool) "no new domain appeared" false
    (Option.is_some (Catalog.find_hierarchy cat "fish"));
  Catalog.freeze cat;
  check_pure "frozen snapshot" (Catalog.snapshot cat) script

(* Linting a one-row INSERT into a relation shaped like the benchmark's
   hb (9,016 tuples) costs the write, as executing it does: a few pair
   tests and no index rebuilt — no copy of the relation, no whole
   check. *)
let test_lint_cost () =
  Hr_obs.Metrics.with_enabled true (fun () ->
      let hr, hw, rel = Test_sweep.hb () in
      let cat = Catalog.create () in
      Catalog.define_hierarchy cat hr;
      Catalog.define_hierarchy cat hw;
      Catalog.define_relation cat rel;
      let schema = Relation.schema rel in
      let w =
        List.find
          (fun w -> not (Relation.mem rel (Item.of_names schema [ "cost_i0"; w ])))
          (List.init 32 (Printf.sprintf "cost_w%d"))
      in
      (* build the live relation's index, as a served catalog has *)
      let item = Item.of_names schema [ "cost_i0"; w ] in
      ignore (Binding.verdict (Catalog.relation cat "cost_hb") item);
      let counter = Hr_obs.Metrics.counter_value in
      let pairs0 = counter "core.integrity.pairs"
      and builds0 = counter "core.binding.index_builds" in
      let diags =
        Lint.analyze_script ~catalog:cat
          (Printf.sprintf "INSERT INTO cost_hb VALUES (- cost_i0, %s);" w)
      in
      Alcotest.(check bool) "the insert is accepted" false (Diagnostic.has_errors diags);
      let pairs = counter "core.integrity.pairs" - pairs0 in
      Alcotest.(check bool) (Printf.sprintf "%d pair tests <= 8" pairs) true (pairs <= 8);
      Alcotest.(check int) "no index built" 0
        (counter "core.binding.index_builds" - builds0))

(* -- totality: the analyzer never raises -------------------------------- *)

let printable_gen =
  QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 120))

let prop_analyzer_total =
  QCheck2.Test.make ~name:"analyze_script never raises" ~count:500 printable_gen
    (fun input ->
      match Lint.analyze_script input with _ -> true)

(* Statement-shaped inputs reach much deeper than uniform strings do.
   Most names are [world]'s, so against it many statements run; a few
   are fresh, and each pool also draws from the others. *)
let statement_gen =
  let open QCheck2.Gen in
  let member =
    oneofl
      [
        "animal"; "bird"; "swimmer"; "penguin"; "tweety"; "opus"; "rex"; "place";
        "antarctica";
      ]
  in
  let fresh = oneofl [ "x"; "y"; "fish" ] in
  let rel = frequency [ (6, pure "flies"); (2, fresh); (1, pure "nosuch"); (1, member) ] in
  let name = frequency [ (3, member); (2, fresh); (1, pure "flies") ] in
  let new_name = frequency [ (3, fresh); (1, member) ] in
  let value = oneof [ map (fun n -> "ALL " ^ n) name; name ] in
  let sign = oneofl [ "+"; "-" ] in
  oneof
    [
      map (fun n -> Printf.sprintf "CREATE DOMAIN %s;" n) new_name;
      map2 (fun a b -> Printf.sprintf "CREATE CLASS %s UNDER %s;" a b) new_name name;
      map3
        (fun a b c -> Printf.sprintf "CREATE CLASS %s UNDER %s, %s;" a b c)
        new_name name name;
      map2 (fun a b -> Printf.sprintf "CREATE INSTANCE %s OF %s;" a b) new_name name;
      map3
        (fun a b c -> Printf.sprintf "CREATE INSTANCE %s OF %s, %s;" a b c)
        new_name name name;
      map2 (fun a b -> Printf.sprintf "CREATE ISA %s UNDER %s;" a b) name name;
      map2 (fun a b -> Printf.sprintf "CREATE PREFERENCE %s OVER %s;" a b) name name;
      map2 (fun r d -> Printf.sprintf "CREATE RELATION %s (who: %s);" r d) rel name;
      map3
        (fun r s v -> Printf.sprintf "INSERT INTO %s VALUES (%s %s);" r s v)
        rel sign value;
      map3
        (fun r v w -> Printf.sprintf "INSERT INTO %s VALUES (+ %s), (- %s);" r v w)
        rel value value;
      map2 (fun r v -> Printf.sprintf "DELETE FROM %s VALUES (%s);" r v) rel value;
      map (fun r -> Printf.sprintf "SELECT * FROM %s;" r) rel;
      map2 (fun a b -> Printf.sprintf "SELECT * FROM %s JOIN %s;" a b) rel rel;
      map2 (fun n r -> Printf.sprintf "LET %s = %s;" n r) rel rel;
      map (fun r -> Printf.sprintf "CONSOLIDATE %s;" r) rel;
      map (fun r -> Printf.sprintf "DROP RELATION %s;" r) rel;
    ]

let script_gen =
  QCheck2.Gen.(map (String.concat "\n") (list_size (int_range 0 12) statement_gen))

let prop_analyzer_total_on_scripts =
  QCheck2.Test.make ~name:"analyze_script never raises on statement soup"
    ~count:300 script_gen (fun input ->
      match Lint.analyze_script input with _ -> true)

let suite =
  [
    Alcotest.test_case "clean world" `Quick test_clean_world;
    Alcotest.test_case "E000 syntax error" `Quick test_e000;
    Alcotest.test_case "E001 unknown relation" `Quick test_e001;
    Alcotest.test_case "E002 arity mismatch" `Quick test_e002;
    Alcotest.test_case "E003 domain mismatch" `Quick test_e003;
    Alcotest.test_case "E004 ALL on instance" `Quick test_e004;
    Alcotest.test_case "E005 isa cycle" `Quick test_e005;
    Alcotest.test_case "E006 incompatible schemas" `Quick test_e006;
    Alcotest.test_case "E007 join on disjoint domains" `Quick test_e007;
    Alcotest.test_case "E008 unknown name" `Quick test_e008;
    Alcotest.test_case "E009 duplicate definition" `Quick test_e009;
    Alcotest.test_case "E009 names are global" `Quick test_global_names;
    Alcotest.test_case "E010 invalid hierarchy edit" `Quick test_e010;
    Alcotest.test_case "W101 redundant isa edge" `Quick test_w101;
    Alcotest.test_case "W102 dead row" `Quick test_w102;
    Alcotest.test_case "W103 shadowed negation" `Quick test_w103;
    Alcotest.test_case "W104 ambiguity conflict" `Quick test_w104;
    Alcotest.test_case "W105 unsatisfiable selection" `Quick test_w105;
    Alcotest.test_case "W106 dead write" `Quick test_w106;
    Alcotest.test_case "W106 needs script provenance" `Quick test_w106_no_provenance;
    Alcotest.test_case "W107 no-op under flattening" `Quick test_w107;
    Alcotest.test_case "W108 cross-statement contradiction" `Quick test_w108;
    Alcotest.test_case "W108 needs script provenance" `Quick test_w108_no_provenance;
    Alcotest.test_case "W109 exception erases generalization" `Quick test_w109;
    Alcotest.test_case "W110 order-sensitive row pairs" `Quick test_w110;
    Alcotest.test_case "H201 bare class value" `Quick test_h201;
    Alcotest.test_case "H202 projection drops exceptions" `Quick test_h202;
    Alcotest.test_case "H203 replica replay advisory" `Quick test_h203;
    Alcotest.test_case "failed definitions stay unknown" `Quick test_failed_definitions;
    Alcotest.test_case "diagnostic spans" `Quick test_spans;
    Alcotest.test_case "lexer positions" `Quick test_lexer_spans;
    Alcotest.test_case "all-codes golden fixture" `Quick test_golden;
    Alcotest.test_case "live-catalog seeding" `Quick test_catalog_seeding;
    Alcotest.test_case "analysis never mutates the catalog" `Quick test_purity;
    Alcotest.test_case "linting a one-row write costs the write" `Quick test_lint_cost;
    QCheck_alcotest.to_alcotest prop_analyzer_total;
    QCheck_alcotest.to_alcotest prop_analyzer_total_on_scripts;
  ]

(* -- lint errors <=> engine rejections ----------------------------------- *)

(* The dry-run contract, statement by statement: the linter reports an
   error or a W104 exactly when the engine, executing the same script
   on a live catalog, rejects the statement. Scripts are drawn from
   [statement_gen], one statement per line, against [engine_world]; the seed
   honours HRDB_TEST_SEED, and seed 1 always runs too. *)
let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None -> Int64.to_int (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let lint_rejects (d : Diagnostic.t) =
  d.Diagnostic.severity = Diagnostic.Error || d.code = "W104"

(* [world] plus a second parent of penguin, so two rows can clash *)
let engine_world () =
  let cat = seeded_catalog () in
  (match
     Eval.run_script cat
       "CREATE CLASS swimmer UNDER animal;\nCREATE ISA penguin UNDER swimmer;"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "world script failed: %s" e);
  cat

let check_against_engine seed =
  let rand = Random.State.make [| seed |] in
  let accepted = ref 0 and rejected = ref 0 in
  for _ = 1 to 300 do
    let lines =
      QCheck2.Gen.(generate1 ~rand (list_size (int_range 1 12) statement_gen))
    in
    let script = String.concat "\n" lines in
    let diags = Lint.analyze_script ~catalog:(engine_world ()) script in
    let live = engine_world () in
    List.iteri
      (fun i line ->
        let stmt = (Parser.parse_statement line).Hr_query.Ast.stmt in
        let engine = Eval.exec live stmt in
        incr (if Result.is_ok engine then accepted else rejected);
        let mine =
          List.filter
            (fun (d : Diagnostic.t) -> d.Diagnostic.loc.Loc.lo.Loc.line = i + 1)
            diags
        in
        if List.exists lint_rejects mine <> Result.is_error engine then
          Alcotest.failf
            "seed %d, statement %d of\n%s\nlint: [%s]\nengine: %s" seed (i + 1) script
            (String.concat "; "
               (List.map (fun (d : Diagnostic.t) -> d.code ^ " " ^ d.message) mine))
            (match engine with
            | Ok out -> "accepted: " ^ out
            | Error msg -> "rejected: " ^ msg))
      lines
  done;
  Printf.eprintf "test_analysis: seed %d: %d statements accepted, %d rejected\n%!" seed
    !accepted !rejected;
  Alcotest.(check bool) "some statements accepted" true (!accepted > 300);
  Alcotest.(check bool) "some statements rejected" true (!rejected > 300)

let test_against_engine () =
  Printf.eprintf "test_analysis: lint/engine seed %d (replay with HRDB_TEST_SEED=%d)\n%!"
    seed seed;
  List.iter check_against_engine (List.sort_uniq Int.compare [ 1; seed ])

let engine_suite =
  [ Alcotest.test_case "lint errors = engine rejections" `Quick test_against_engine ]
