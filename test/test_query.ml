(* HRQL end-to-end tests: build the paper's examples purely through the
   query language. *)

module Eval = Hr_query.Eval
module Parser = Hr_query.Parser
open Hierel

let run cat script =
  match Eval.run_script cat script with
  | Ok outputs -> outputs
  | Error msg -> Alcotest.failf "script failed: %s" msg

let expect_error cat script =
  match Eval.run_script cat script with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg -> msg

let fig1_script =
  {|
  CREATE DOMAIN animal;
  CREATE CLASS bird UNDER animal;
  CREATE CLASS canary UNDER bird;
  CREATE CLASS penguin UNDER bird;
  CREATE CLASS galapagos_penguin UNDER penguin;
  CREATE CLASS amazing_flying_penguin UNDER penguin;
  CREATE INSTANCE tweety OF canary;
  CREATE INSTANCE paul OF galapagos_penguin;
  CREATE INSTANCE peter OF penguin;
  CREATE INSTANCE pamela OF amazing_flying_penguin;
  CREATE INSTANCE patricia OF amazing_flying_penguin, galapagos_penguin;
  CREATE RELATION flies (creature: animal);
  INSERT INTO flies VALUES (+ ALL bird), (- ALL penguin),
    (+ ALL amazing_flying_penguin), (+ peter);
  |}

let test_fig1_via_hrql () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  let outputs =
    run cat "ASK flies (tweety); ASK flies (paul); ASK flies (patricia);"
  in
  (match outputs with
  | [ tweety; paul; patricia ] ->
    Alcotest.(check bool) "tweety +" true (String.length tweety > 0 && tweety.[0] = '+');
    Alcotest.(check bool) "paul -" true (String.length paul > 0 && paul.[0] = '-');
    Alcotest.(check bool) "patricia +" true (String.length patricia > 0 && patricia.[0] = '+')
  | _ -> Alcotest.fail "expected three answers");
  let rel = Catalog.relation cat "flies" in
  Alcotest.(check int) "four tuples" 4 (Relation.cardinality rel)

let test_ask_semantics_override () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  let conflict = List.hd (run cat "ASK flies (patricia) UNDER ON-PATH;") in
  Alcotest.(check bool) "on-path reports the conflict" true
    (String.length conflict >= 8 && String.sub conflict 0 8 = "CONFLICT")

let test_insert_rejected_on_conflict () =
  let cat = Catalog.create () in
  ignore
    (run cat
       {|
       CREATE DOMAIN animal;
       CREATE CLASS royal UNDER animal;
       CREATE CLASS indian UNDER animal;
       CREATE INSTANCE appu OF royal, indian;
       CREATE DOMAIN color;
       CREATE INSTANCE grey OF color;
       CREATE RELATION colors (animal: animal, color: color);
       INSERT INTO colors VALUES (+ ALL royal, grey);
       |});
  let msg = expect_error cat "INSERT INTO colors VALUES (- ALL indian, grey);" in
  Alcotest.(check bool) "mentions ambiguity" true
    (String.length msg > 0);
  (* the rejected insert left no trace *)
  Alcotest.(check int) "relation unchanged" 1
    (Relation.cardinality (Catalog.relation cat "colors"))

let test_select_where () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  let out = List.hd (run cat "SELECT * FROM flies WHERE creature = tweety;") in
  Alcotest.(check bool) "mentions tweety" true
    (let contains ~sub s =
       let n = String.length sub and m = String.length s in
       let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
       loop 0
     in
     contains ~sub:"tweety" out)

let test_let_and_setops () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  ignore
    (run cat
       {|
       CREATE RELATION jack_loves (creature: animal);
       CREATE RELATION jill_loves (creature: animal);
       INSERT INTO jack_loves VALUES (+ ALL bird), (- ALL penguin);
       INSERT INTO jill_loves VALUES (+ ALL penguin);
       LET both = jack_loves INTERSECT jill_loves;
       LET either = jack_loves UNION jill_loves;
       |});
  let both = Catalog.relation cat "both" in
  Alcotest.(check int) "intersection empty extension" 0
    (List.length (Flatten.extension_list both));
  let either = Catalog.relation cat "either" in
  Alcotest.(check int) "union covers all five" 5
    (List.length (Flatten.extension_list either))

let test_consolidate_statement () =
  let cat = Catalog.create () in
  ignore
    (run cat
       {|
       CREATE DOMAIN student;
       CREATE CLASS obsequious UNDER student;
       CREATE INSTANCE john OF obsequious;
       CREATE DOMAIN teacher;
       CREATE CLASS incoherent UNDER teacher;
       CREATE INSTANCE smith OF incoherent;
       CREATE RELATION respects (student: student, teacher: teacher);
       INSERT INTO respects VALUES (+ ALL obsequious, ALL teacher),
         (- ALL student, ALL incoherent), (+ ALL obsequious, ALL incoherent);
       |});
  let out = List.hd (run cat "CONSOLIDATE respects;") in
  Alcotest.(check bool) "reports 2 removed" true
    (let contains ~sub s =
       let n = String.length sub and m = String.length s in
       let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
       loop 0
     in
     contains ~sub:"2 redundant" out);
  Alcotest.(check int) "one remains" 1 (Relation.cardinality (Catalog.relation cat "respects"))

let test_explicate_statement () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  ignore (run cat "EXPLICATE flies;");
  let rel = Catalog.relation cat "flies" in
  Alcotest.(check int) "four flyers" 4 (Relation.cardinality rel);
  Alcotest.(check bool) "all atomic" true
    (List.for_all
       (fun (t : Relation.tuple) -> Item.is_atomic (Relation.schema rel) t.Relation.item)
       (Relation.tuples rel))

let test_check_statement () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  let out = List.hd (run cat "CHECK flies;") in
  Alcotest.(check bool) "reports consistency" true
    (String.length out >= 10 && String.sub out 0 10 = "consistent")

let test_all_on_instance_rejected () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  ignore (expect_error cat "INSERT INTO flies VALUES (+ ALL tweety);")

let test_parse_errors () =
  (try
     ignore (Parser.parse "CREATE NONSENSE;");
     Alcotest.fail "expected parse error"
   with Parser.Parse_error _ -> ());
  try
    ignore (Parser.parse "SELECT * FRUM flies;");
    Alcotest.fail "expected parse error"
  with Parser.Parse_error _ | Hr_query.Lexer.Lex_error _ -> ()

let test_justification_output () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  let out =
    List.hd (run cat "SELECT * FROM flies WHERE creature = patricia WITH JUSTIFICATION;")
  in
  Alcotest.(check bool) "includes justification section" true
    (let contains ~sub s =
       let n = String.length sub and m = String.length s in
       let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
       loop 0
     in
     contains ~sub:"justification" out && contains ~sub:"V penguin" out)

let test_explain () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  let out = List.hd (run cat "EXPLAIN flies (patricia);") in
  Alcotest.(check bool) "shows verdict and tuples" true
    (let contains ~sub s =
       let n = String.length sub and m = String.length s in
       let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
       loop 0
     in
     contains ~sub:"verdict" out && contains ~sub:"amazing_flying_penguin" out)

let test_show_statements () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  let h = List.hd (run cat "SHOW HIERARCHY animal;") in
  Alcotest.(check bool) "tree rendering" true
    (let contains ~sub s =
       let n = String.length sub and m = String.length s in
       let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
       loop 0
     in
     contains ~sub:"penguin" h);
  ignore (run cat "SHOW RELATIONS; SHOW HIERARCHIES;")

let test_drop () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  ignore (run cat "DROP RELATION flies;");
  Alcotest.(check bool) "gone" true (Option.is_none (Catalog.find_relation cat "flies"))

let test_case_insensitive_keywords () =
  let cat = Catalog.create () in
  ignore
    (run cat
       "create domain d; Create Class c UNDER d; create instance x of c;\n\
        CREATE relation r (v: d); insert into r values (+ all c);");
  Alcotest.(check int) "lower-case script works" 1
    (Relation.cardinality (Catalog.relation cat "r"))

(* Every keyword, in upper, lower and alternating case, lexes as that
   keyword; a word one letter longer or shorter, that is not a keyword
   itself, lexes as an identifier. *)
let test_keyword_table () =
  let module Lexer = Hr_query.Lexer in
  let lexes word = Lexer.tokenize word in
  let show toks = String.concat " " (List.map (Format.asprintf "%a" Lexer.pp_token) toks) in
  let expect word toks =
    if lexes word <> toks then
      Alcotest.failf "%S lexes as [%s], expected [%s]" word (show (lexes word)) (show toks)
  in
  let alternate k =
    String.mapi (fun i c -> if i mod 2 = 0 then Char.lowercase_ascii c else c) k
  in
  let reserved w = List.mem (String.uppercase_ascii w) Lexer.keywords in
  List.iter
    (fun k ->
      List.iter (fun w -> expect w [ Lexer.Kw k ]) [ k; String.lowercase_ascii k; alternate k ];
      List.iter
        (fun w -> if not (reserved w) then expect w [ Lexer.Ident w ])
        [ k ^ "x"; "x" ^ String.lowercase_ascii k; k ^ "_"; String.sub k 0 (String.length k - 1) ])
    Lexer.keywords

let test_comments_ignored () =
  let cat = Catalog.create () in
  ignore
    (run cat
       {|
       -- a comment before anything
       CREATE DOMAIN d;  -- trailing comment
       -- CREATE DOMAIN not_this_one;
       CREATE INSTANCE x OF d;
       |});
  Alcotest.(check bool) "commented statement skipped" true
    (Option.is_none (Catalog.find_relation cat "not_this_one"));
  Alcotest.(check bool) "d exists" true (Option.is_some (Catalog.find_hierarchy cat "d"))

let test_let_chains () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  ignore
    (run cat
       {|
       LET a = SELECT flies WHERE creature = penguin;
       LET b = EXPLICATED a;
       LET c = b UNION b;
       |});
  Alcotest.(check int) "chain result: three flying penguins" 3
    (List.length (Flatten.extension_list (Catalog.relation cat "c")))

let test_error_does_not_corrupt_catalog () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  ignore (expect_error cat "INSERT INTO flies VALUES (+ dragon);");
  ignore (expect_error cat "SELECT * FROM nonexistent;");
  Alcotest.(check int) "flies unchanged" 4 (Relation.cardinality (Catalog.relation cat "flies"))

let test_where_and () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  ignore
    (run cat
       {|
       CREATE DOMAIN place;
       CREATE INSTANCE zoo OF place;
       CREATE INSTANCE wild OF place;
       CREATE RELATION seen (creature: animal, place: place);
       INSERT INTO seen VALUES (+ ALL penguin, zoo), (+ tweety, wild);
       LET z = SELECT seen WHERE creature = penguin AND place = zoo;
       |});
  let z = Catalog.relation cat "z" in
  Alcotest.(check int) "penguins at the zoo" 4 (List.length (Flatten.extension_list z));
  let out = List.hd (run cat "SELECT * FROM seen WHERE creature = tweety AND place = wild;") in
  Alcotest.(check bool) "statement-level AND" true
    (let contains ~sub s =
       let n = String.length sub and m = String.length s in
       let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
       loop 0
     in
     contains ~sub:"tweety" out)

let test_diff_statement () =
  let cat = Catalog.create () in
  ignore (run cat fig1_script);
  ignore
    (run cat
       {|
       LET without_peter = SELECT flies WHERE creature = bird;
       |});
  (* DIFF of a relation against its consolidated self is a semantic noop *)
  let out = List.hd (run cat "DIFF flies (CONSOLIDATED flies);") in
  Alcotest.(check bool) "extension unchanged" true
    (let contains ~sub s =
       let n = String.length sub and m = String.length s in
       let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
       loop 0
     in
     contains ~sub:"no changes" out || contains ~sub:"stored form only" out);
  (* a real change shows up *)
  ignore (run cat "INSERT INTO flies VALUES (+ paul);");
  let out2 = List.hd (run cat "DIFF without_peter flies;") in
  Alcotest.(check bool) "mentions paul" true
    (let contains ~sub s =
       let n = String.length sub and m = String.length s in
       let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
       loop 0
     in
     contains ~sub:"paul" out2)

let test_semicolon_handling () =
  let cat = Catalog.create () in
  (* extra semicolons and a missing trailing one *)
  ignore (run cat ";;CREATE DOMAIN d;; CREATE INSTANCE x OF d");
  Alcotest.(check bool) "parsed anyway" true (Option.is_some (Catalog.find_hierarchy cat "d"))

let suite =
  [
    Alcotest.test_case "case-insensitive keywords" `Quick test_case_insensitive_keywords;
    Alcotest.test_case "keywords lex by table" `Quick test_keyword_table;
    Alcotest.test_case "comments ignored" `Quick test_comments_ignored;
    Alcotest.test_case "LET chains" `Quick test_let_chains;
    Alcotest.test_case "errors leave catalog intact" `Quick test_error_does_not_corrupt_catalog;
    Alcotest.test_case "WHERE ... AND ..." `Quick test_where_and;
    Alcotest.test_case "DIFF statement" `Quick test_diff_statement;
    Alcotest.test_case "semicolon handling" `Quick test_semicolon_handling;
    Alcotest.test_case "fig1 via HRQL" `Quick test_fig1_via_hrql;
    Alcotest.test_case "ASK with semantics override" `Quick test_ask_semantics_override;
    Alcotest.test_case "INSERT rejected on conflict" `Quick test_insert_rejected_on_conflict;
    Alcotest.test_case "SELECT WHERE" `Quick test_select_where;
    Alcotest.test_case "LET and set operators" `Quick test_let_and_setops;
    Alcotest.test_case "CONSOLIDATE statement" `Quick test_consolidate_statement;
    Alcotest.test_case "EXPLICATE statement" `Quick test_explicate_statement;
    Alcotest.test_case "CHECK statement" `Quick test_check_statement;
    Alcotest.test_case "ALL on instance rejected" `Quick test_all_on_instance_rejected;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "WITH JUSTIFICATION" `Quick test_justification_output;
    Alcotest.test_case "EXPLAIN" `Quick test_explain;
    Alcotest.test_case "SHOW" `Quick test_show_statements;
    Alcotest.test_case "DROP RELATION" `Quick test_drop;
  ]
