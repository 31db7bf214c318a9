(* The static cost & cardinality estimator (lib/analysis/cost_model,
   lib/analysis/estimate): exactness on flat relations, monotonicity
   under added exceptions, EXPLAIN ANALYZE feedback and its snapshot
   persistence, and the no-side-effect
   guarantee of EXPLAIN ESTIMATE — in the storage path and over the
   wire. *)

module Hierarchy = Hr_hierarchy.Hierarchy
module Cost_model = Hr_analysis.Cost_model
module Estimate = Hr_analysis.Estimate
module Eval = Hr_query.Eval
module Parser = Hr_query.Parser
module Ast = Hr_query.Ast
module Metrics = Hr_obs.Metrics
module Db = Hr_storage.Db
module Snapshot = Hr_storage.Snapshot
module Server = Hr_server.Server
open Hierel

(* the EXPLAIN ESTIMATE hook registers at Estimate's module init *)
let () = Estimate.ensure_registered ()

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  at 0

let run cat script =
  match Eval.run_script cat script with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup: %s" e

let expr_of q =
  match (Parser.parse_statement ("EXPLAIN ESTIMATE " ^ q)).Ast.stmt with
  | Ast.Explain_estimate e -> e
  | _ -> Alcotest.fail "not a query expression"

let estimate cat q =
  match Cost_model.plan cat (expr_of q) with
  | Ok (_, root) -> root
  | Error msg -> Alcotest.failf "plan %s: %s" q msg

(* -- exact counts on flat relations ------------------------------------- *)

let flat_catalog () =
  let cat = Catalog.create () in
  run cat
    {|
    CREATE DOMAIN d;
    CREATE INSTANCE x1 OF d; CREATE INSTANCE x2 OF d;
    CREATE INSTANCE x3 OF d; CREATE INSTANCE x4 OF d;
    CREATE RELATION r (v: d);
    CREATE RELATION s (v: d);
    INSERT INTO r VALUES (+ x1), (+ x2), (+ x3);
    INSERT INTO s VALUES (+ x2), (+ x3), (+ x4);
    |};
  cat

let test_flat_exact () =
  let cat = flat_catalog () in
  let scan = estimate cat "r" in
  Alcotest.(check bool) "scan is exact" true scan.Cost_model.n_exact;
  Alcotest.(check (float 0.0)) "scan rows" 3.0 scan.Cost_model.n_rows;
  let sel = estimate cat "SELECT r WHERE v = x1" in
  Alcotest.(check bool) "instance select over flat is exact" true
    sel.Cost_model.n_exact;
  Alcotest.(check (float 0.0)) "select rows" 1.0 sel.Cost_model.n_rows;
  let empty = estimate cat "SELECT r WHERE v = x4" in
  Alcotest.(check (float 0.0)) "empty select rows" 0.0
    empty.Cost_model.n_rows

(* -- monotonicity under added exceptions -------------------------------- *)

let test_monotone_exceptions () =
  let cat = Catalog.create () in
  run cat
    {|
    CREATE DOMAIN wide;
    CREATE CLASS big UNDER wide;
    CREATE INSTANCE w1 OF big; CREATE INSTANCE w2 OF big;
    CREATE INSTANCE w3 OF big; CREATE INSTANCE w4 OF big;
    CREATE RELATION pe (u: wide);
    INSERT INTO pe VALUES (+ ALL big);
    |};
  let explicated () = (estimate cat "EXPLICATED pe").Cost_model.n_rows in
  let scanned () = (estimate cat "pe").Cost_model.n_rows in
  let flat0 = explicated () and rows0 = scanned () in
  run cat "INSERT INTO pe VALUES (- w1);";
  let flat1 = explicated () and rows1 = scanned () in
  run cat "INSERT INTO pe VALUES (- w2);";
  let flat2 = explicated () and rows2 = scanned () in
  Alcotest.(check bool) "stored rows nondecreasing" true
    (rows0 <= rows1 && rows1 <= rows2);
  Alcotest.(check bool) "explicated estimate nonincreasing" true
    (flat0 >= flat1 && flat1 >= flat2);
  Alcotest.(check bool) "exceptions actually shrink the estimate" true
    (flat2 < flat0)

(* -- EXPLAIN ANALYZE feedback and snapshot persistence ------------------ *)

let feedback_catalog () =
  let cat = Catalog.create () in
  run cat
    {|
    CREATE DOMAIN d;
    CREATE CLASS c UNDER d;
    CREATE INSTANCE i1 OF c; CREATE INSTANCE i2 OF c; CREATE INSTANCE i3 OF c;
    CREATE INSTANCE j1 OF d; CREATE INSTANCE j2 OF d;
    CREATE RELATION r (v: d);
    INSERT INTO r VALUES (+ i1), (+ j1), (+ j2), (+ ALL c);
    |};
  cat

let test_feedback () =
  let cat = feedback_catalog () in
  let q = "SELECT r WHERE v = c" in
  (* cold: the class selection is priced by the selectivity heuristic *)
  let cold = (estimate cat q).Cost_model.n_rows in
  Alcotest.(check bool) "no observed stats yet" true
    (Catalog.observed_stat cat ~rel:"r" ~label:"v=c" = None);
  run cat ("EXPLAIN ANALYZE " ^ q ^ ";");
  (* the measured row counts flowed back into the catalog... *)
  let observed =
    match Catalog.observed_stat cat ~rel:"r" ~label:"v=c" with
    | Some n -> n
    | None -> Alcotest.fail "EXPLAIN ANALYZE did not record the selection"
  in
  Alcotest.(check int) "whole-extension stat too" 4
    (Option.get (Catalog.observed_stat cat ~rel:"r" ~label:"*"));
  (* ...and the estimator now quotes the actual *)
  let warm = (estimate cat q).Cost_model.n_rows in
  Alcotest.(check (float 0.0)) "estimate equals the observed actual"
    (float_of_int observed) warm;
  Alcotest.(check bool) "the feedback changed the estimate" true
    (cold <> warm);
  (* observed statistics survive an encode/decode round trip *)
  let decoded = Snapshot.decode (Snapshot.encode cat) in
  Alcotest.(check (option int)) "persisted across snapshot"
    (Some observed)
    (Catalog.observed_stat decoded ~rel:"r" ~label:"v=c");
  Alcotest.(check (float 0.0)) "decoded catalog estimates identically" warm
    (estimate decoded q).Cost_model.n_rows

(* -- EXPLAIN ESTIMATE: no execution side effects ------------------------ *)

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let test_no_side_effects_db () =
  let dir = temp_dir "hrest" in
  let db = Db.open_dir dir in
  (match
     Db.exec db
       "CREATE DOMAIN d; CREATE CLASS c UNDER d;\n\
        CREATE INSTANCE i1 OF c; CREATE INSTANCE i2 OF c;\n\
        CREATE RELATION r (v: d);\n\
        INSERT INTO r VALUES (+ ALL c), (+ i1);"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup: %s" e);
  let lsn0 = Db.lsn db in
  let wal0 = Db.wal_records db in
  let appends0 = Metrics.counter_value "storage.wal.appends" in
  (* a cold plan: this query was never executed *)
  (match Db.exec db "EXPLAIN ESTIMATE SELECT r WHERE v = c;" with
  | Ok [ out ] ->
    Alcotest.(check bool) "estimate output" true
      (String.length out > 0
      && contains ~affix:"estimated cost" out)
  | Ok outs -> Alcotest.failf "expected one output, got %d" (List.length outs)
  | Error e -> Alcotest.failf "estimate: %s" e);
  Alcotest.(check int) "lsn unchanged" lsn0 (Db.lsn db);
  Alcotest.(check int) "wal records unchanged" wal0 (Db.wal_records db);
  Alcotest.(check int) "wal appends unchanged" appends0
    (Metrics.counter_value "storage.wal.appends");
  Db.close db

(* One request over a real TCP connection against an in-process server,
   driving the server's own event loop from this thread. *)
let request_via_poll server conn tag payload =
  Server.Client.send conn tag payload;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec await () =
    ignore (Server.poll server 0.01);
    match Unix.select [ Server.Client.fd conn ] [] [] 0.0 with
    | [ _ ], _, _ -> Server.Client.recv conn
    | _ ->
      if Unix.gettimeofday () > deadline then Error "no reply"
      else await ()
  in
  await ()

let test_estimate_over_wire () =
  let dir = temp_dir "hrestw" in
  let server = Server.create_durable ~port:0 ~dir () in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      let conn = Server.Client.connect ~timeout:10.0 ~port:(Server.port server) () in
      (match
         request_via_poll server conn "EXEC"
           "CREATE DOMAIN d; CREATE CLASS c UNDER d;\n\
            CREATE INSTANCE i1 OF c; CREATE INSTANCE i2 OF c;\n\
            CREATE RELATION r (v: d);\n\
            INSERT INTO r VALUES (+ ALL c), (+ i1);"
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "setup: %s" e);
      let stmts0 = Metrics.counter_value "storage.db.statements" in
      let appends0 = Metrics.counter_value "storage.wal.appends" in
      (match request_via_poll server conn "ESTIMATE" "SELECT r WHERE v = c" with
      | Ok out ->
        Alcotest.(check bool) "annotated plan over the wire" true
          (contains ~affix:"est-rows=" out
          && contains ~affix:"estimated cost" out)
      | Error e -> Alcotest.failf "estimate frame: %s" e);
      Alcotest.(check int) "statement counter unchanged" stmts0
        (Metrics.counter_value "storage.db.statements");
      Alcotest.(check int) "wal appends unchanged" appends0
        (Metrics.counter_value "storage.wal.appends");
      (match request_via_poll server conn "ESTIMATE" "nosuch" with
      | Ok out -> Alcotest.failf "expected an error, got: %s" out
      | Error _ -> ());
      (* the connection survives the error and still executes *)
      (match request_via_poll server conn "EXEC" "ASK r (i2);" with
      | Ok out -> Alcotest.(check string) "verdict" "+ (by (V c))" out
      | Error e -> Alcotest.failf "after estimate: %s" e);
      Server.Client.close conn)

let suite =
  [
    Alcotest.test_case "flat relations price exactly" `Quick test_flat_exact;
    Alcotest.test_case "estimates are monotone under exceptions" `Quick
      test_monotone_exceptions;
    Alcotest.test_case "EXPLAIN ANALYZE feedback persists" `Quick
      test_feedback;
    Alcotest.test_case "EXPLAIN ESTIMATE leaves the WAL untouched" `Quick
      test_no_side_effects_db;
    Alcotest.test_case "ESTIMATE frame over the wire" `Quick
      test_estimate_over_wire;
  ]
