(* Storage engine tests: codec, binary snapshot images, WAL discipline,
   crash recovery, the one durable layout and its tuple-size bound. *)

module Codec = Hr_storage.Codec
module Snapshot = Hr_storage.Snapshot
module Wal = Hr_storage.Wal
module Db = Hr_storage.Db
module Persist = Hr_query.Persist
module Eval = Hr_query.Eval
open Hierel

let with_temp_dir f =
  let dir = Filename.temp_file "hrdb" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

(* ---- codec ---------------------------------------------------------- *)

let test_codec_roundtrip () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 42;
  Codec.Writer.u32 w 123456;
  Codec.Writer.u64 w 0x1122334455667788L;
  Codec.Writer.string w "hello";
  Codec.Writer.list w Codec.Writer.string [ "a"; "bb"; "" ];
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check int) "u8" 42 (Codec.Reader.u8 r);
  Alcotest.(check int) "u32" 123456 (Codec.Reader.u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Codec.Reader.u64 r);
  Alcotest.(check string) "string" "hello" (Codec.Reader.string r);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ] (Codec.Reader.list r Codec.Reader.string);
  Alcotest.(check bool) "at end" true (Codec.Reader.at_end r)

let test_codec_truncation_detected () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "hello world";
  let full = Codec.Writer.contents w in
  let torn = String.sub full 0 (String.length full - 3) in
  let r = Codec.Reader.of_string torn in
  try
    ignore (Codec.Reader.string r);
    Alcotest.fail "expected Corrupt"
  with Codec.Reader.Corrupt _ -> ()

let test_crc32_known_value () =
  (* standard test vector *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Codec.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Codec.crc32 "")

(* ---- snapshots ------------------------------------------------------- *)

let sample_catalog () =
  let cat = Catalog.create () in
  let script =
    {|
    CREATE DOMAIN pets;
    CREATE CLASS dog UNDER pets;
    CREATE CLASS puppy UNDER dog;
    CREATE INSTANCE rex OF puppy;
    CREATE INSTANCE muttley OF dog;
    CREATE CLASS cat UNDER pets;
    CREATE PREFERENCE dog OVER cat;
    CREATE RELATION barks (pet: pets);
    INSERT INTO barks VALUES (+ ALL dog), (- ALL puppy), (+ rex);
    |}
  in
  (match Eval.run_script cat script with Ok _ -> () | Error e -> failwith e);
  cat

let test_snapshot_roundtrip () =
  let cat = sample_catalog () in
  let cat2 = Snapshot.decode (Snapshot.encode cat) in
  (* compare through the canonical HRQL dump *)
  Alcotest.(check string) "same dump" (Persist.dump_catalog cat) (Persist.dump_catalog cat2)

let test_snapshot_corruption_detected () =
  let cat = sample_catalog () in
  let data = Snapshot.encode cat in
  let tampered = Bytes.of_string data in
  Bytes.set tampered (String.length data / 2) 'X';
  (try
     ignore (Snapshot.decode (Bytes.to_string tampered));
     Alcotest.fail "expected Corrupt_snapshot"
   with Snapshot.Corrupt_snapshot _ -> ());
  try
    ignore (Snapshot.decode "not a snapshot at all");
    Alcotest.fail "expected Corrupt_snapshot on garbage"
  with Snapshot.Corrupt_snapshot _ -> ()

(* ---- WAL ------------------------------------------------------------- *)

let stmts records = List.map (fun r -> r.Wal.stmt) records

let test_wal_append_replay () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_ path in
      Wal.append w ~lsn:1 "CREATE DOMAIN d;";
      Wal.append w ~lsn:2 "CREATE INSTANCE x OF d;";
      Wal.close w;
      let records = (Wal.scan path).Wal.records in
      Alcotest.(check (list string)) "replay in order"
        [ "CREATE DOMAIN d;"; "CREATE INSTANCE x OF d;" ]
        (stmts records);
      Alcotest.(check (list int)) "lsns preserved" [ 1; 2 ]
        (List.map (fun r -> r.Wal.lsn) records))

let test_wal_torn_tail_dropped () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_ path in
      Wal.append w ~lsn:1 "CREATE DOMAIN d;";
      Wal.append w ~lsn:2 "CREATE DOMAIN e;";
      Wal.close w;
      (* tear the last record *)
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data - 5));
      close_out oc;
      let { Wal.records; tail = torn; _ } = Wal.recover path in
      Alcotest.(check (list string)) "tail dropped" [ "CREATE DOMAIN d;" ] (stmts records);
      match torn with
      | None -> Alcotest.fail "expected a torn-tail report"
      | Some { Wal.dropped_bytes; dropped_records } ->
        Alcotest.(check bool) "dropped bytes counted" true (dropped_bytes > 0);
        Alcotest.(check int) "one torn record" 1 dropped_records)

let test_wal_missing_file () =
  Alcotest.(check (list string)) "no file, no records" []
    (stmts (Wal.scan "/nonexistent/wal.log").Wal.records)

(* ---- Db: recovery ----------------------------------------------------- *)

let setup_script =
  {|
  CREATE DOMAIN animal;
  CREATE CLASS bird UNDER animal;
  CREATE CLASS penguin UNDER bird;
  CREATE INSTANCE tweety OF bird;
  CREATE INSTANCE paul OF penguin;
  CREATE RELATION flies (creature: animal);
  INSERT INTO flies VALUES (+ ALL bird), (- ALL penguin);
  |}

let ask db q =
  match Db.exec db q with
  | Ok [ out ] -> out
  | Ok _ -> Alcotest.fail "expected one output"
  | Error e -> Alcotest.failf "query failed: %s" e

let test_db_recovers_from_wal () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      Alcotest.(check bool) "wal has records" true (Db.wal_records db > 0);
      Db.close db;
      (* no checkpoint: everything must come back from the log *)
      let db2 = Db.open_dir dir in
      Alcotest.(check string) "verdict survives" "+ (by (V bird))" (ask db2 "ASK flies (tweety);");
      Alcotest.(check string) "exception survives" "- (by (V penguin))"
        (ask db2 "ASK flies (paul);");
      Db.close db2)

let test_db_checkpoint_then_recover () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      Alcotest.(check int) "wal empty after checkpoint" 0 (Db.wal_records db);
      (* post-checkpoint update goes to the fresh log *)
      (match Db.exec db "INSERT INTO flies VALUES (+ paul);" with
      | Ok _ -> ()
      | Error e -> failwith e);
      Db.close db;
      let db2 = Db.open_dir dir in
      Alcotest.(check string) "snapshot + wal merge" "+ (by (paul))" (ask db2 "ASK flies (paul);");
      Db.close db2)

let test_db_rejected_update_not_logged () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      let before = Db.wal_records db in
      (* direct contradiction: rejected *)
      (match Db.exec db "INSERT INTO flies VALUES (- ALL bird);" with
      | Ok _ -> Alcotest.fail "expected rejection"
      | Error _ -> ());
      Alcotest.(check int) "nothing logged" before (Db.wal_records db);
      Db.close db;
      (* and recovery still works *)
      let db2 = Db.open_dir dir in
      Alcotest.(check string) "state intact" "+ (by (V bird))" (ask db2 "ASK flies (tweety);");
      Db.close db2)

let test_db_torn_wal_recovery () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      Db.close db;
      (* simulate a crash mid-append *)
      let path = Filename.concat dir "wal.log" in
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data - 3));
      close_out oc;
      (* the torn record was the INSERT; everything before it survives *)
      let db2 = Db.open_dir dir in
      Alcotest.(check bool) "relation exists" true
        (Option.is_some (Catalog.find_relation (Db.catalog db2) "flies"));
      Alcotest.(check int) "insert lost with the torn tail" 0
        (Relation.cardinality (Catalog.relation (Db.catalog db2) "flies"));
      Db.close db2)

let test_db_lock_released_on_close () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      Db.close db;
      (* reopen after close works; the LOCK file itself remains *)
      let db2 = Db.open_dir dir in
      Db.close db2;
      Alcotest.(check bool) "lock file exists" true
        (Sys.file_exists (Filename.concat dir "LOCK")))

let test_db_reads_not_logged () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      let before = Db.wal_records db in
      ignore (ask db "ASK flies (tweety);");
      ignore (ask db "COUNT flies;");
      Alcotest.(check int) "reads leave no trace" before (Db.wal_records db);
      Db.close db)

(* random catalogs round-trip through the binary format *)
let prop_snapshot_random_roundtrip =
  QCheck2.Test.make ~name:"binary snapshot round trip on random catalogs" ~count:25
    (QCheck2.Gen.int_range 1 100_000)
    (fun seed ->
      let module Workload = Hr_workload.Workload in
      let module Prng = Hr_util.Prng in
      let g = Prng.create (Int64.of_int seed) in
      let h =
        Workload.random_hierarchy g
          {
            Workload.name = Printf.sprintf "sc%d" seed;
            classes = 10;
            instances = 15;
            multi_parent_prob = 0.25;
          }
      in
      let cat = Catalog.create () in
      Catalog.define_hierarchy cat h;
      let schema = Schema.make [ ("v", h) ] in
      Catalog.define_relation cat
        (Workload.consistent_random_relation g schema
           { Workload.default_relation_spec with rel_name = Printf.sprintf "sr%d" seed });
      let cat2 = Snapshot.decode (Snapshot.encode cat) in
      Persist.dump_catalog cat2 = Persist.dump_catalog cat)

let test_db_full_paper_script () =
  (* the complete paper script runs durably, checkpoints, and survives a
     reopen with nothing but the binary snapshot *)
  with_temp_dir (fun dir ->
      let script = read_bytes (Filename.concat Fixtures.source_root "examples/paper.hrql") in
      let db = Db.open_dir dir in
      (match Db.exec db script with Ok _ -> () | Error e -> Alcotest.failf "script: %s" e);
      Db.checkpoint db;
      Db.close db;
      let db2 = Db.open_dir dir in
      Alcotest.(check string) "verdicts survive checkpointed restart" "+ (by (V bird))"
        (ask db2 "ASK flies (tweety);");
      Alcotest.(check bool) "derived relations survive" true
        (Option.is_some (Catalog.find_relation (Db.catalog db2) "between_them"));
      Db.close db2)

(* ---- paged store: incremental checkpoints, TID reuse, crash safety ---- *)

module Page_store = Hr_storage.Page_store
module Pager = Hr_storage.Pager
module Hierarchy = Hr_hierarchy.Hierarchy

(* Deterministic replay for the randomized workload below. *)
let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None -> Int64.to_int (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let () =
  Printf.eprintf "test_storage: RNG seed %d (replay with HRDB_TEST_SEED=%d)\n%!" seed seed

(* Process-independent, order-independent state image: every relation's
   flattened extension, rendered to labels and sorted. *)
let rendered_state cat =
  Catalog.relations cat
  |> List.map (fun rel ->
         let schema = Relation.schema rel in
         ( Relation.name rel,
           Flatten.extension_list rel
           |> List.map (Item.to_string schema)
           |> List.sort compare ))
  |> List.sort compare

let bulk_world n =
  let b = Buffer.create 4096 in
  Buffer.add_string b "CREATE DOMAIN things; CREATE CLASS gadget UNDER things;\n";
  Buffer.add_string b "CREATE RELATION owns (what: things);\n";
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "CREATE INSTANCE item%04d OF gadget;\n" i)
  done;
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "INSERT INTO owns VALUES (+ item%04d);\n" i)
  done;
  Buffer.contents b

(* Checkpoint [bulk_world n], run [delta], checkpoint again: the page
   writes (and store sizes) of the full and the delta checkpoint. *)
let full_then_delta db n delta =
  let exec script = match Db.exec db script with Ok _ -> () | Error e -> failwith e in
  exec (bulk_world n);
  Db.checkpoint db;
  let full, total1 = Db.last_checkpoint_pages db in
  exec delta;
  Db.checkpoint db;
  let incr, total2 = Db.last_checkpoint_pages db in
  (full, total1, incr, total2)

let test_incremental_checkpoint_cost () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      let full, total1, incr, total2 =
        full_then_delta db 800
          "DELETE FROM owns VALUES (item0001); INSERT INTO owns VALUES (+ item0001);"
      in
      Alcotest.(check bool) "first checkpoint writes many pages" true (full > 10);
      Alcotest.(check bool) "incremental checkpoint is proportional to the delta" true
        (incr * 3 <= full);
      Alcotest.(check bool) "store did not balloon" true (total2 <= total1 + 4);
      (* nothing changed: only the page table + meta root are rewritten *)
      Db.checkpoint db;
      let idle, _ = Db.last_checkpoint_pages db in
      Alcotest.(check bool) "idle checkpoint is O(metadata)" true (idle <= 4);
      Db.close db);
  (* 3,000 instances and rows, then ten sign flips — a real net change
     the delta checkpoint must persist — still cost at least 5x fewer
     page writes than the full checkpoint *)
  with_temp_dir (fun dir ->
      let db = Db.open_dir ~fsync:false dir in
      let flips =
        List.init 10 (fun i ->
            let item = Printf.sprintf "item%04d" (1 + (i * 7)) in
            Printf.sprintf "DELETE FROM owns VALUES (%s); INSERT INTO owns VALUES (- %s);"
              item item)
      in
      let full, _, incr, _ = full_then_delta db 3000 (String.concat "\n" flips) in
      Alcotest.(check bool)
        (Printf.sprintf "delta checkpoint (%d pages) >= 5x fewer than full (%d)" incr full)
        true
        (incr * 5 <= full);
      Db.close db)

(* The paged store reports its work through the metrics registry (and so
   through STATS / STATS JSON): the checkpoint gauges mirror
   last_checkpoint_pages. *)
let test_storage_metrics_wired () =
  with_temp_dir (fun dir ->
      let module M = Hr_obs.Metrics in
      let db = Db.open_dir dir in
      (match Db.exec db (bulk_world 50) with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      (match Db.exec db "DELETE FROM owns VALUES (item0001);" with
      | Ok _ -> ()
      | Error e -> failwith e);
      Db.checkpoint db;
      let written, total = Db.last_checkpoint_pages db in
      Alcotest.(check int) "dirty-pages gauge mirrors the checkpoint" written
        (M.gauge_value "storage.checkpoint.dirty_pages");
      Alcotest.(check int) "pages-total gauge mirrors the store" total
        (M.gauge_value "storage.checkpoint.pages_total");
      Db.close db)

(* Live pages of each type in a closed store: [(type, count)]. *)
let page_tags pages =
  let s = Page_store.open_ pages in
  Fun.protect ~finally:(fun () -> Page_store.close s) (fun () -> Page_store.Testing.page_tags s)

let pages_of_type tags ty = Option.value ~default:0 (List.assoc_opt ty tags)

(* An hb-shaped bulk load, as perfbench's hier_read builds it: a domain
   of 4,096 instances under 4 -> 16 -> 64 -> 256 classes crossed with a
   flat domain of 32 values, and a relation of 16 class tuples (four
   nested exception chains) plus 9,000 distinct instance pairs. Its first
   checkpoint writes each heap, free-space-map, blob and page-table page
   once, plus the meta root; no page is spent per tuple coordinate. *)
let test_bulk_checkpoint_writes_only_the_heap () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir ~auto_checkpoint_every:0 ~fsync:false dir in
      let b = Buffer.create 200_000 in
      Buffer.add_string b "CREATE DOMAIN hr;\nCREATE DOMAIN hw;\n";
      for k = 0 to 31 do
        Printf.bprintf b "CREATE INSTANCE hw_%d OF hw;\n" k
      done;
      List.iter
        (fun (level, parent, n, up) ->
          for k = 0 to n - 1 do
            if up = 0 then Printf.bprintf b "CREATE CLASS hr_%s%d UNDER hr;\n" level k
            else Printf.bprintf b "CREATE CLASS hr_%s%d UNDER hr_%s%d;\n" level k parent (k mod up)
          done)
        [ ("a", "", 4, 0); ("b", "a", 16, 4); ("c", "b", 64, 16); ("d", "c", 256, 64) ];
      for j = 0 to 4095 do
        Printf.bprintf b "CREATE INSTANCE hr_i%d OF hr_d%d;\n" j (j mod 256)
      done;
      Buffer.add_string b "CREATE RELATION hb (v: hr, w: hw);";
      (match Db.exec db (Buffer.contents b) with Ok _ -> () | Error e -> failwith e);
      let cat = Db.catalog db in
      let chains =
        List.concat_map
          (fun k ->
            List.map
              (fun (sign, level) -> (sign, [ Printf.sprintf "hr_%s%d" level k; "hw" ]))
              [ (Types.Pos, "a"); (Types.Neg, "b"); (Types.Pos, "c"); (Types.Neg, "d") ])
          [ 0; 1; 2; 3 ]
      in
      (* 7919 is odd, so i -> 7919 i mod 2^17 never repeats a pair *)
      let pairs =
        List.init 9_000 (fun i ->
            let p = i * 7919 mod (4096 * 32) in
            (Types.Pos, [ Printf.sprintf "hr_i%d" (p / 32); Printf.sprintf "hw_%d" (p mod 32) ]))
      in
      let hb =
        List.fold_left
          (fun r (sign, names) -> Relation.add_named r sign names)
          (Catalog.relation cat "hb") (chains @ pairs)
      in
      Alcotest.(check int) "hb-shaped" 9_016 (Relation.cardinality hb);
      Catalog.replace_relation cat hb;
      Db.checkpoint db;
      let written, _ = Db.last_checkpoint_pages db in
      Db.close db;
      let tags = page_tags (Filename.concat dir "pages.db") in
      let mapped = List.fold_left (fun n (_, c) -> n + c) 0 tags in
      let page_table = max 1 ((mapped + 1023) / 1024) in
      let bound =
        pages_of_type tags 1 + pages_of_type tags 2 + pages_of_type tags 5 + page_table + 1
      in
      Alcotest.(check (list int)) "only heap, free-space-map and blob pages" [ 1; 2; 5 ]
        (List.map fst tags);
      Alcotest.(check bool)
        (Printf.sprintf "%d pages written, at most %d (heap + map + blob + table + meta)" written
           bound)
        true (written <= bound))

(* test/fixtures/v1_store was written by a build whose stores still kept
   a coordinate B-tree (meta version 1): three relations checkpointed
   twice, the B-tree split into two leaves, then a WAL tail of four
   statements. v1_store.expected is what that build read back from it. *)
let v1_reads =
  [
    "SHOW HIERARCHIES;"; "SHOW HIERARCHY animal;"; "SHOW HIERARCHY food;"; "SHOW RELATIONS;";
    "SELECT * FROM flies;"; "SELECT * FROM eats;"; "SELECT * FROM tagged;";
  ]

let read_v1 db =
  String.concat "\n"
    (List.map
       (fun s -> match Db.exec db s with Ok l -> String.concat "\n" l | Error e -> "ERROR " ^ e)
       v1_reads)
  ^ "\n"

(* The version field of each meta slot: it follows the magic string's
   4-byte length and 8 bytes. *)
let meta_versions pages =
  let data = read_bytes pages in
  List.map (fun slot -> Char.code data.[(slot * Pager.page_size) + 12]) [ 0; 1 ]

let test_v1_store_opens () =
  with_temp_dir (fun dir ->
      List.iter
        (fun f -> write_bytes (Filename.concat dir f) (Fixtures.read ("v1_store/" ^ f)))
        [ "pages.db"; "wal.log" ];
      let pages = Filename.concat dir "pages.db" in
      let v1_bytes = read_bytes pages in
      let fsck_codes () =
        List.map (fun f -> f.Hr_check.Fsck.code) (Hr_check.Fsck.run dir).Hr_check.Fsck.findings
      in
      Alcotest.(check (list string)) "fsck clean on the version-1 store" [] (fsck_codes ());
      Alcotest.(check bool) "fsck leaves pages.db byte-identical" true
        (String.equal v1_bytes (read_bytes pages));
      Alcotest.(check (list int)) "both meta slots are version 1" [ 1; 1 ] (meta_versions pages);
      let db = Db.open_dir dir in
      Alcotest.(check string) "catalog as the version-1 build read it"
        (Fixtures.read "v1_store.expected") (read_v1 db);
      Db.checkpoint db;
      Db.close db;
      Alcotest.(check (list int)) "the checkpoint wrote a version-2 root" [ 1; 2 ]
        (List.sort compare (meta_versions pages));
      Alcotest.(check (list int)) "no B-tree page left after a checkpoint" []
        (List.filter (fun ty -> ty = 3 || ty = 4) (List.map fst (page_tags pages)));
      Alcotest.(check bool) "pages.db did not grow" true
        (String.length (read_bytes pages) <= String.length v1_bytes);
      Alcotest.(check (list string)) "fsck clean after the checkpoint" [] (fsck_codes ());
      let db = Db.open_dir dir in
      Alcotest.(check string) "same catalog after the upgrade"
        (Fixtures.read "v1_store.expected") (read_v1 db);
      Db.close db)

let test_tid_reuse_after_delete () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db (bulk_world 300) with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      let _, total1 = Db.last_checkpoint_pages db in
      (* retract and re-assert everything: the tombstoned slots must be
         reused, not appended after *)
      let b = Buffer.create 1024 in
      for i = 1 to 300 do
        Buffer.add_string b (Printf.sprintf "DELETE FROM owns VALUES (item%04d);\n" i)
      done;
      (match Db.exec db (Buffer.contents b) with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      let b = Buffer.create 1024 in
      for i = 1 to 300 do
        Buffer.add_string b (Printf.sprintf "INSERT INTO owns VALUES (+ item%04d);\n" i)
      done;
      (match Db.exec db (Buffer.contents b) with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      let _, total3 = Db.last_checkpoint_pages db in
      (* shadow paging keeps a second physical for every page touched in a
         cycle, so one full rewrite can grow the file once; with slots and
         logical pages reused, repeating the cycle must not grow it again *)
      Alcotest.(check bool)
        (Printf.sprintf "bounded growth: %d pages grew to %d" total1 total3)
        true
        (total3 <= (total1 * 2) + 4);
      let cycle del =
        let b = Buffer.create 1024 in
        for i = 1 to 300 do
          Buffer.add_string b
            (if del then Printf.sprintf "DELETE FROM owns VALUES (item%04d);\n" i
             else Printf.sprintf "INSERT INTO owns VALUES (+ item%04d);\n" i)
        done;
        (match Db.exec db (Buffer.contents b) with Ok _ -> () | Error e -> failwith e);
        Db.checkpoint db
      in
      cycle true;
      cycle false;
      let _, total5 = Db.last_checkpoint_pages db in
      Alcotest.(check bool)
        (Printf.sprintf "steady state: %d pages settled at %d" total3 total5)
        true
        (total5 <= total3 + 2);
      Db.close db;
      (* and the state is right after recovery from pages alone *)
      let db2 = Db.open_dir dir in
      Alcotest.(check string) "reasserted tuple survives" "+ (by (item0007))"
        (ask db2 "ASK owns (item0007);");
      Db.close db2)

(* A store several times larger than the pager pool: every page falls
   out of cache and comes back from disk, and the state is still exact. *)
let test_data_larger_than_pool () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "pages.db" in
      let cat = Catalog.create () in
      (match Eval.run_script cat (bulk_world 600) with Ok _ -> () | Error e -> failwith e);
      let s = Page_store.create ~pool_pages:8 path in
      Page_store.apply_catalog s cat;
      Page_store.set_ddl s cat;
      ignore (Page_store.commit s ~base_lsn:0 ());
      Page_store.close s;
      let s = Page_store.open_ ~pool_pages:8 path in
      Alcotest.(check bool) "store spans more pages than the pool" true
        (Pager.page_count (Page_store.pager s) > 8);
      let cat2 = Page_store.to_catalog s in
      Alcotest.(check bool) "evictions actually happened" true
        (Pager.evictions (Page_store.pager s) > 0);
      Alcotest.(check (list string)) "page-store faults" []
        (List.map (fun f -> f.Page_store.detail) (Page_store.check s));
      Page_store.close s;
      Alcotest.(check bool) "state identical through an 8-page pool" true
        (rendered_state cat = rendered_state cat2))

(* kill -9 between the data flush and the meta-root swap: the directory
   must come back as if the checkpoint never started — prior pages plus
   full WAL replay — with fsck clean. *)
let test_kill_mid_checkpoint () =
  with_temp_dir (fun dir ->
      let followup = "DELETE FROM owns VALUES (item0003); INSERT INTO owns VALUES (+ item0005);" in
      (match Unix.fork () with
      | 0 ->
        (try
           let db = Db.open_dir dir in
           (match Db.exec db (bulk_world 120) with Ok _ -> () | Error _ -> Unix._exit 2);
           Db.checkpoint db;
           (match Db.exec db followup with Ok _ -> () | Error _ -> Unix._exit 2);
           Page_store.Testing.crash_before_meta := true;
           Db.checkpoint db;
           (* the crash hook fires inside commit; never reached *)
           Unix._exit 4
         with _ -> Unix._exit 3)
      | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 137 -> ()
        | _, status ->
          Alcotest.failf "child did not die at the crash hook: %s"
            (match status with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
            | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)));
      let r = Hr_check.Fsck.run dir in
      Alcotest.(check (list string)) "fsck clean after mid-checkpoint kill" []
        (List.map (fun f -> f.Hr_check.Fsck.code) r.Hr_check.Fsck.findings);
      let expected = Catalog.create () in
      (match Eval.run_script expected (bulk_world 120) with Ok _ -> () | Error e -> failwith e);
      (match Eval.run_script expected followup with Ok _ -> () | Error e -> failwith e);
      let db = Db.open_dir dir in
      Alcotest.(check bool) "recovered state identical to the uncrashed run" true
        (rendered_state (Db.catalog db) = rendered_state expected);
      (* and the directory is fully functional: the interrupted
         checkpoint can simply be retried *)
      Db.checkpoint db;
      Db.close db;
      let db2 = Db.open_dir dir in
      Alcotest.(check bool) "re-checkpoint after the crash sticks" true
        (rendered_state (Db.catalog db2) = rendered_state expected);
      Db.close db2)

(* Randomized, seed-replayable workload: the durable engine (with
   random checkpoints and reopens) must track a plain in-memory catalog
   fed the same statements. *)
let test_randomized_durability_vs_oracle () =
  let rng = Random.State.make [| seed |] in
  with_temp_dir (fun dir ->
      let control = Catalog.create () in
      let setup =
        "CREATE DOMAIN d; CREATE CLASS c UNDER d;"
        ^ String.concat ""
            (List.init 16 (fun i -> Printf.sprintf " CREATE INSTANCE x%02d OF c;" i))
        ^ " CREATE RELATION r (v: d);"
      in
      (match Eval.run_script control setup with Ok _ -> () | Error e -> failwith e);
      let db = ref (Db.open_dir dir) in
      (match Db.exec !db setup with Ok _ -> () | Error e -> failwith e);
      for _step = 1 to 300 do
        let target =
          if Random.State.int rng 4 = 0 then "ALL c"
          else Printf.sprintf "x%02d" (Random.State.int rng 16)
        in
        let sign = if Random.State.bool rng then "+" else "-" in
        let stmt = Printf.sprintf "INSERT INTO r VALUES (%s %s);" sign target in
        let a = Db.exec !db stmt in
        let b = Eval.run_script control stmt in
        (match (a, b) with
        | Ok _, Ok _ | Error _, Error _ -> ()
        | Ok _, Error e ->
          Alcotest.failf "seed %d: db accepted %S, control rejected: %s" seed stmt e
        | Error e, Ok _ ->
          Alcotest.failf "seed %d: db rejected %S (%s), control accepted" seed stmt e);
        if Random.State.int rng 40 = 0 then Db.checkpoint !db;
        if Random.State.int rng 60 = 0 then begin
          Db.close !db;
          db := Db.open_dir dir
        end
      done;
      Db.close !db;
      let db2 = Db.open_dir dir in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: durable state equals the in-memory oracle" seed)
        true
        (rendered_state (Db.catalog db2) = rendered_state control);
      Db.close db2)

(* ---- one durable layout ---------------------------------------------- *)

let listing dir = List.sort compare (Array.to_list (Sys.readdir dir))

(* What a pre-paged build's directory held after a checkpoint and one
   more statement: a snapshot image plus the WAL tail. *)
let write_pre_paged dir =
  write_bytes (Filename.concat dir "snapshot.bin") (Snapshot.encode (sample_catalog ()));
  let w = Wal.open_ (Filename.concat dir "wal.log") in
  Wal.append w ~lsn:1 "INSERT INTO barks VALUES (+ muttley);";
  Wal.close w

let test_pre_paged_dir_refused () =
  with_temp_dir (fun dir ->
      write_pre_paged dir;
      let snap = read_bytes (Filename.concat dir "snapshot.bin") in
      let wal = read_bytes (Filename.concat dir "wal.log") in
      (match Db.open_dir dir with
      | db ->
        Db.close db;
        Alcotest.fail "a snapshot.bin directory must not open"
      | exception Failure msg ->
        Alcotest.(check bool) "the error names the file" true
          (Test_util.contains ~sub:"snapshot.bin" msg));
      Alcotest.(check (list string)) "nothing created or removed"
        [ "snapshot.bin"; "wal.log" ] (listing dir);
      Alcotest.(check bool) "snapshot.bin byte-identical" true
        (read_bytes (Filename.concat dir "snapshot.bin") = snap);
      Alcotest.(check bool) "wal.log byte-identical" true
        (read_bytes (Filename.concat dir "wal.log") = wal))

let test_checkpointed_dir_layout () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      Alcotest.(check (list string)) "one layout" [ "LOCK"; "pages.db"; "wal.log" ]
        (listing dir);
      Db.close db;
      Alcotest.(check (list string)) "still one layout after close"
        [ "LOCK"; "pages.db"; "wal.log" ] (listing dir))

(* ---- tuples must fit one heap page ------------------------------------ *)

(* The record of a one-attribute tuple is 9 + 4 + label bytes, so this
   label is the longest whose tuple fits a page exactly. *)
let longest_label = Page_store.max_record_bytes - 13

let test_page_store_tuple_bound () =
  Alcotest.(check int) "record_bytes of one label" Page_store.max_record_bytes
    (Page_store.record_bytes [ String.make longest_label 'x' ]);
  let store_with label =
    with_temp_dir (fun dir ->
        let cat = Catalog.create () in
        (match
           Eval.run_script cat
             (Printf.sprintf
                "CREATE DOMAIN d; CREATE INSTANCE %s OF d; CREATE RELATION r (v: d); \
                 INSERT INTO r VALUES (+ %s);"
                label label)
         with
        | Ok _ -> ()
        | Error e -> failwith e);
        let s = Page_store.create (Filename.concat dir "pages.db") in
        Fun.protect
          ~finally:(fun () -> Page_store.close s)
          (fun () ->
            match Page_store.apply_catalog s cat with
            | () -> Ok (Page_store.oversize_tuple (Catalog.relation cat "r"))
            | exception Failure msg -> Error msg))
  in
  (match store_with (String.make longest_label 'x') with
  | Ok None -> ()
  | Ok (Some n) -> Alcotest.failf "a fitting tuple reported as %d bytes" n
  | Error msg -> Alcotest.failf "a tuple that fits was refused: %s" msg);
  match store_with (String.make (longest_label + 1) 'x') with
  | Ok _ -> Alcotest.fail "a tuple one byte past a page was stored"
  | Error msg ->
    Alcotest.(check bool) "the guard names the page capacity" true
      (Test_util.contains ~sub:"exceeds page capacity" msg)

let long_label = String.make 5000 'l'

let test_db_rejects_oversize_insert () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match
         Db.exec db
           (Printf.sprintf
              "CREATE DOMAIN d; CREATE INSTANCE %s OF d; CREATE RELATION r (v: d);"
              long_label)
       with
      | Ok _ -> ()
      | Error e -> failwith e);
      let logged = Db.lsn db in
      (match Db.exec db (Printf.sprintf "INSERT INTO r VALUES (+ %s);" long_label) with
      | Ok _ -> Alcotest.fail "an oversize tuple was accepted"
      | Error msg ->
        Alcotest.(check bool) "the error gives the bound" true
          (Test_util.contains ~sub:(string_of_int Page_store.max_record_bytes) msg));
      Alcotest.(check int) "not logged" logged (Db.lsn db);
      Alcotest.(check int) "catalog unchanged" 0
        (Relation.cardinality (Catalog.relation (Db.catalog db) "r"));
      (* the statement that would have killed it: the checkpoint *)
      Db.checkpoint db;
      Db.close db;
      let db = Db.open_dir dir in
      Alcotest.(check int) "reopens at the same LSN" logged (Db.lsn db);
      Db.close db)

(* LET and EXPLICATE compute their relation, so the bound is checked
   after evaluation and the previous binding put back. *)
let test_db_rejects_oversize_derived () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match
         Db.exec db
           (Printf.sprintf
              "CREATE DOMAIN d; CREATE CLASS c UNDER d; CREATE INSTANCE %s OF c; \
               CREATE RELATION r (v: d); INSERT INTO r VALUES (+ ALL c);"
              long_label)
       with
      | Ok _ -> ()
      | Error e -> failwith e);
      let logged = Db.lsn db in
      let before = Catalog.relation (Db.catalog db) "r" in
      (match Db.exec db "EXPLICATE r;" with
      | Ok _ -> Alcotest.fail "EXPLICATE stored an oversize tuple"
      | Error _ -> ());
      Alcotest.(check bool) "r restored" true
        (Catalog.relation (Db.catalog db) "r" == before);
      (match Db.exec db "LET s = EXPLICATED r;" with
      | Ok _ -> Alcotest.fail "LET stored an oversize tuple"
      | Error _ -> ());
      Alcotest.(check bool) "s not defined" true
        (Catalog.find_relation (Db.catalog db) "s" = None);
      Alcotest.(check int) "nothing logged" logged (Db.lsn db);
      Db.checkpoint db;
      Db.close db)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_snapshot_random_roundtrip;
    Alcotest.test_case "db runs the full paper script durably" `Quick
      test_db_full_paper_script;
    Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec truncation detected" `Quick test_codec_truncation_detected;
    Alcotest.test_case "crc32 test vector" `Quick test_crc32_known_value;
    Alcotest.test_case "snapshot round trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot corruption detected" `Quick test_snapshot_corruption_detected;
    Alcotest.test_case "wal append and replay" `Quick test_wal_append_replay;
    Alcotest.test_case "wal torn tail dropped" `Quick test_wal_torn_tail_dropped;
    Alcotest.test_case "wal missing file" `Quick test_wal_missing_file;
    Alcotest.test_case "db recovers from wal" `Quick test_db_recovers_from_wal;
    Alcotest.test_case "db checkpoint then recover" `Quick test_db_checkpoint_then_recover;
    Alcotest.test_case "db rejected update not logged" `Quick test_db_rejected_update_not_logged;
    Alcotest.test_case "db torn wal recovery" `Quick test_db_torn_wal_recovery;
    Alcotest.test_case "db reads not logged" `Quick test_db_reads_not_logged;
    Alcotest.test_case "db lock released on close" `Quick test_db_lock_released_on_close;
    Alcotest.test_case "incremental checkpoint cost tracks the delta" `Quick
      test_incremental_checkpoint_cost;
    Alcotest.test_case "storage metrics wired to the registry" `Quick
      test_storage_metrics_wired;
    Alcotest.test_case "bulk checkpoint writes only heap-side pages" `Quick
      test_bulk_checkpoint_writes_only_the_heap;
    Alcotest.test_case "version-1 store opens, upgrades at checkpoint" `Quick
      test_v1_store_opens;
    Alcotest.test_case "TIDs reused after tombstoning" `Quick test_tid_reuse_after_delete;
    Alcotest.test_case "data larger than the pager pool" `Quick test_data_larger_than_pool;
    Alcotest.test_case "kill -9 mid-checkpoint recovers exactly" `Quick
      test_kill_mid_checkpoint;
    Alcotest.test_case "pre-paged snapshot.bin dir refused untouched" `Quick
      test_pre_paged_dir_refused;
    Alcotest.test_case "checkpointed dir holds LOCK, pages.db, wal.log" `Quick
      test_checkpointed_dir_layout;
    Alcotest.test_case "page store tuple bound is exact" `Quick
      test_page_store_tuple_bound;
    Alcotest.test_case "oversize INSERT rejected before logging" `Quick
      test_db_rejects_oversize_insert;
    Alcotest.test_case "oversize EXPLICATE/LET rejected, binding kept" `Quick
      test_db_rejects_oversize_derived;
    Alcotest.test_case "randomized durability vs in-memory oracle" `Slow
      test_randomized_durability_vs_oracle;
  ]
