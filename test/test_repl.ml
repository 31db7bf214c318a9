(* Logical replication tests: LSN-addressed WAL, replication hooks in
   Db, the client timeout option, and the full primary/replica loop —
   snapshot bootstrap mid-workload, byte-identical flattened relations,
   backoff-reconnect across a primary kill, and the replica's serial
   batch apply. *)

module Wal = Hr_storage.Wal
module Db = Hr_storage.Db
module Server = Hr_server.Server
module Replica = Hr_repl.Replica
module Metrics = Hr_obs.Metrics
module Fsck = Hr_check.Fsck
module Wire = Hr_frames.Wire
module Apply = Hr_repl.Apply
module Traditional = Hr_flat.Traditional
module Flat_relation = Hr_flat.Flat_relation
open Hierel

let with_temp_dir f =
  let dir = Filename.temp_file "hrrepl" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let exec_ok db script =
  match Db.exec db script with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "exec %S: %s" script msg

(* The paper's yardstick: two catalogs agree iff every relation's
   equivalent flat relation is identical. Rendered to a string so the
   comparison is byte-for-byte. *)
let flat_fingerprint catalog =
  Catalog.relations catalog
  |> List.map (fun rel ->
         let schema = Relation.schema rel in
         let items =
           Flatten.extension_list rel |> List.map (Item.to_string schema)
         in
         Relation.name rel ^ ":\n" ^ String.concat "\n" items)
  |> List.sort compare
  |> String.concat "\n---\n"

(* ---- WAL: LSN addressing --------------------------------------------- *)

let test_wal_stream_from () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_ path in
      Wal.append w ~lsn:5 "CREATE DOMAIN a;";
      Wal.append w ~lsn:6 "CREATE DOMAIN b;";
      Wal.append w ~lsn:7 "CREATE DOMAIN c;";
      let lsns from = List.map (fun r -> r.Wal.lsn) (List.of_seq (Wal.stream_from w from)) in
      Alcotest.(check (list int)) "from 0" [ 5; 6; 7 ] (lsns 0);
      Alcotest.(check (list int)) "from 5" [ 6; 7 ] (lsns 5);
      Alcotest.(check (list int)) "from 7" [] (lsns 7);
      Wal.close w)

let test_wal_torn_tail_metrics () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_ path in
      Wal.append w ~lsn:1 "CREATE DOMAIN a;";
      Wal.append w ~lsn:2 "CREATE DOMAIN b;";
      Wal.close w;
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data - 3));
      close_out oc;
      let bytes_before = Metrics.counter_value "storage.wal.torn_tail_bytes" in
      let records_before = Metrics.counter_value "storage.wal.torn_tail_records" in
      let { Wal.records; tail = torn; _ } = Wal.recover path in
      Alcotest.(check (list int)) "intact prefix survives" [ 1 ]
        (List.map (fun r -> r.Wal.lsn) records);
      (match torn with
      | None -> Alcotest.fail "expected torn tail"
      | Some { Wal.dropped_bytes; dropped_records } ->
        Alcotest.(check int) "metric counts the bytes"
          (bytes_before + dropped_bytes)
          (Metrics.counter_value "storage.wal.torn_tail_bytes");
        Alcotest.(check int) "metric counts the records"
          (records_before + dropped_records)
          (Metrics.counter_value "storage.wal.torn_tail_records");
        Alcotest.(check int) "one torn record" 1 dropped_records))

(* ---- wire decoder: incremental feeds, no quadratic copying ------------ *)

let test_decoder_chunked () =
  let dec = Wire.Decoder.create () in
  let payload = String.init (300 * 1024) (fun i -> Char.chr (i mod 256)) in
  let data =
    Wire.frame "REPL_SNAPSHOT" payload
    ^ Wire.frame "OK" ""
    ^ Wire.frame "REPL_RECORD" "7\nCREATE DOMAIN d;"
  in
  let got = ref [] in
  let rec drain () =
    match Wire.Decoder.next dec with
    | Ok (Some frame) ->
      got := frame :: !got;
      drain ()
    | Ok None -> ()
    | Error msg -> Alcotest.failf "decode: %s" msg
  in
  (* feed in small chunks so every boundary (mid-header, mid-payload,
     frame-straddling) is exercised *)
  let total = String.length data in
  let off = ref 0 in
  while !off < total do
    let n = min 1000 (total - !off) in
    Wire.Decoder.feed dec (Bytes.of_string (String.sub data !off n)) n;
    drain ();
    off := !off + n
  done;
  match List.rev !got with
  | [ (t1, p1); (t2, p2); (t3, p3) ] ->
    Alcotest.(check string) "tag 1" "REPL_SNAPSHOT" t1;
    Alcotest.(check bool) "payload 1 intact" true (p1 = payload);
    Alcotest.(check string) "tag 2" "OK" t2;
    Alcotest.(check string) "payload 2 empty" "" p2;
    Alcotest.(check string) "tag 3" "REPL_RECORD" t3;
    Alcotest.(check string) "payload 3" "7\nCREATE DOMAIN d;" p3
  | frames -> Alcotest.failf "expected 3 frames, got %d" (List.length frames)

let test_decoder_byte_at_a_time () =
  let dec = Wire.Decoder.create () in
  let data = Wire.frame "OK" "abc" in
  let result = ref None in
  String.iter
    (fun c ->
      Wire.Decoder.feed dec (Bytes.make 1 c) 1;
      match Wire.Decoder.next dec with
      | Ok (Some frame) -> result := Some frame
      | Ok None -> ()
      | Error msg -> Alcotest.failf "decode: %s" msg)
    data;
  match !result with
  | Some (tag, payload) ->
    Alcotest.(check string) "tag" "OK" tag;
    Alcotest.(check string) "payload" "abc" payload
  | None -> Alcotest.fail "frame never completed"

(* ---- Wire.recv: peeked headers ----------------------------------------- *)

let wire_stream =
  [ ("OK", "abc"); ("REPL_RECORD", "7\nCREATE DOMAIN d;"); ("EXEC", ""); ("ERR", "x\ny") ]

let write_string fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let recv_stream ~ctx fd =
  List.iter
    (fun (tag, payload) ->
      match Wire.recv fd with
      | Ok (t, p) ->
        Alcotest.(check string) (ctx ^ ": tag") tag t;
        Alcotest.(check string) (ctx ^ ": payload") payload p
      | Error msg -> Alcotest.failf "%s: %s" ctx msg)
    wire_stream

(* A forked writer cuts the stream at every byte boundary in turn: the
   bytes before the cut, a pause, the rest. The reader decodes every
   frame each time, whether the cut falls in a header or a payload. *)
let test_wire_recv_split () =
  let data = String.concat "" (List.map (fun (t, p) -> Wire.frame t p) wire_stream) in
  let n = String.length data in
  let reader, writer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close reader;
    for cut = 1 to n - 1 do
      write_string writer (String.sub data 0 cut);
      Unix.sleepf 0.001;
      write_string writer (String.sub data cut (n - cut))
    done;
    Unix._exit 0
  | pid ->
    Unix.close writer;
    Fun.protect
      ~finally:(fun () ->
        Unix.close reader;
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        Unix.setsockopt_float reader Unix.SO_RCVTIMEO 5.0;
        for cut = 1 to n - 1 do
          recv_stream ~ctx:(Printf.sprintf "cut at byte %d" cut) reader
        done;
        Alcotest.check_raises "then EOF" Wire.Disconnected (fun () -> ignore (Wire.recv reader)))

(* A read deadline with nothing sent raises EAGAIN and consumes
   nothing; the frames sent afterwards decode, and a malformed header is
   an error that leaves the next frame readable. *)
let test_wire_recv_timeout_and_malformed () =
  let reader, writer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close reader;
      Unix.close writer)
    (fun () ->
      Unix.setsockopt_float reader Unix.SO_RCVTIMEO 0.05;
      (match Wire.recv reader with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | _ -> Alcotest.fail "expected a timeout");
      List.iter (fun (t, p) -> Wire.send writer t p) wire_stream;
      recv_stream ~ctx:"after a timeout" reader;
      Wire.send writer "EXEC" "SHOW RELATIONS;";
      Wire.send writer "BAD" "";
      write_string writer "EXEC abc\n";
      Wire.send writer "OK" "after";
      Alcotest.(check bool) "a frame" true (Wire.recv reader = Ok ("EXEC", "SHOW RELATIONS;"));
      Alcotest.(check bool) "an empty frame" true (Wire.recv reader = Ok ("BAD", ""));
      Alcotest.(check bool) "a malformed header" true (Result.is_error (Wire.recv reader));
      Alcotest.(check bool) "the next frame" true (Wire.recv reader = Ok ("OK", "after")))

(* ---- Db: LSN threading ------------------------------------------------ *)

let test_db_lsn_monotone () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      Alcotest.(check int) "fresh lsn" 0 (Db.lsn db);
      exec_ok db "CREATE DOMAIN d; CREATE INSTANCE x OF d;";
      Alcotest.(check int) "two statements" 2 (Db.lsn db);
      Alcotest.(check int) "no checkpoint yet" 0 (Db.base_lsn db);
      Db.checkpoint db;
      Alcotest.(check int) "base catches up" 2 (Db.base_lsn db);
      exec_ok db "CREATE RELATION r (v: d);";
      Alcotest.(check int) "keeps counting past checkpoints" 3 (Db.lsn db);
      let since = Db.records_since db 2 in
      Alcotest.(check (list int)) "wal holds base+1..lsn" [ 3 ]
        (List.map (fun r -> r.Wal.lsn) since);
      (* the in-memory tail keeps checkpointed records addressable, so a
         subscriber slightly behind the snapshot base still catches up
         without a bootstrap *)
      Alcotest.(check (list int)) "tail survives the checkpoint" [ 1; 2; 3 ]
        (List.map (fun r -> r.Wal.lsn) (Db.records_since db 0));
      Db.close db;
      (* reopen: LSN recovered from the page store + wal, not reset *)
      let db2 = Db.open_dir dir in
      Alcotest.(check int) "lsn survives reopen" 3 (Db.lsn db2);
      Alcotest.(check int) "base survives reopen" 2 (Db.base_lsn db2);
      Db.close db2)

let test_db_replication_hooks () =
  with_temp_dir (fun pdir ->
      with_temp_dir (fun rdir ->
          let primary = Db.open_dir pdir in
          exec_ok primary
            "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal; CREATE CLASS \
             penguin UNDER bird; CREATE INSTANCE paul OF penguin; CREATE RELATION \
             flies (c: animal); INSERT INTO flies VALUES (+ ALL bird), (- ALL \
             penguin);";
          let cut = Db.lsn primary in
          let image = Db.snapshot_image primary in
          exec_ok primary "INSERT INTO flies VALUES (+ paul);";
          (* replica: bootstrap from the image, then catch up record by record *)
          let replica = Db.open_dir rdir in
          (match Db.install_snapshot replica ~lsn:cut image with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "install: %s" msg);
          Alcotest.(check int) "image lsn installed" cut (Db.lsn replica);
          List.iter
            (fun { Wal.lsn; stmt } ->
              match Db.apply_replicated replica ~lsn stmt with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "apply %d: %s" lsn msg)
            (Db.records_since primary cut);
          Alcotest.(check int) "caught up" (Db.lsn primary) (Db.lsn replica);
          (* duplicates are refused *)
          (match Db.apply_replicated replica ~lsn:(Db.lsn replica) "CREATE DOMAIN dup;" with
          | Ok () -> Alcotest.fail "expected duplicate rejection"
          | Error _ -> ());
          Alcotest.(check string) "flat fingerprints agree"
            (flat_fingerprint (Db.catalog primary))
            (flat_fingerprint (Db.catalog replica));
          (* the replica's state is durable: reopen and re-compare *)
          Db.close replica;
          let replica2 = Db.open_dir rdir in
          Alcotest.(check string) "durable across reopen"
            (flat_fingerprint (Db.catalog primary))
            (flat_fingerprint (Db.catalog replica2));
          Db.close replica2;
          Db.close primary))

(* a crash after a checkpoint committed its pages but before the WAL
   was truncated leaves already-checkpointed records in the log; the
   reopen must skip them (the page store's base_lsn covers them)
   instead of double-applying, which would fail outright on the
   duplicate CREATEs *)
let test_reopen_after_interrupted_checkpoint () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      exec_ok db
        "CREATE DOMAIN d; CREATE INSTANCE x OF d; CREATE RELATION r (v: d); INSERT \
         INTO r VALUES (+ x);";
      Db.close db;
      let wal_path = Filename.concat dir "wal.log" in
      let ic = open_in_bin wal_path in
      let wal_bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let db = Db.open_dir dir in
      Db.checkpoint db;
      Db.close db;
      (* reconstruct the crash window: restore the pre-checkpoint log *)
      let oc = open_out_bin wal_path in
      output_string oc wal_bytes;
      close_out oc;
      let db = Db.open_dir dir in
      Alcotest.(check int) "lsn preserved" 4 (Db.lsn db);
      Alcotest.(check int) "stale records not re-applied" 0 (Db.wal_records db);
      (match Db.exec db "ASK r (x);" with
      | Ok [ out ] -> Alcotest.(check string) "state intact" "+ (by (x))" out
      | Ok _ | Error _ -> Alcotest.fail "ask after recovery failed");
      Db.close db)

(* lexically invalid input must surface as an Error everywhere the
   server feeds it attacker-controlled payloads — an escaping Lex_error
   would kill the whole event loop *)
let test_lex_error_is_contained () =
  let parses script = Result.is_ok (Hr_query.Eval.parse_script script) in
  Alcotest.(check bool) "garbage does not parse" false (parses "@");
  Alcotest.(check bool) "nor does a mutation behind garbage" false
    (parses "@; CREATE DOMAIN d");
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db "@" with
      | Error msg ->
        Alcotest.(check bool) "lex error is an Error reply" true
          (contains ~needle:"lex error" msg)
      | Ok _ -> Alcotest.fail "expected a lex error");
      Db.close db)

(* A ';' inside a comment separates nothing: the durable engine runs,
   logs and replays what the parser reads, as the in-memory one does. *)
let test_comment_semicolon () =
  Alcotest.(check (list string)) "no statement hides in a comment"
    [ "SHOW HIERARCHIES"; "-- a; CREATE DOMAIN q\nCREATE INSTANCE x OF d" ]
    (match Hr_query.Eval.parse_script "SHOW HIERARCHIES; -- a; CREATE DOMAIN q\nCREATE INSTANCE x OF d;" with
    | Ok pieces -> List.map (fun p -> p.Hr_query.Parser.source) pieces
    | Error m -> Alcotest.failf "parse: %s" m);
  let domains db =
    List.map
      (fun d -> Option.is_some (Catalog.find_hierarchy (Db.catalog db) d))
      [ "d"; "q" ]
  in
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      exec_ok db "CREATE DOMAIN d; -- not a statement; CREATE DOMAIN q\nCREATE INSTANCE x OF d;";
      Alcotest.(check (list bool)) "d defined, q not" [ true; false ] (domains db);
      Alcotest.(check int) "two statements logged" 2 (Db.lsn db);
      Db.close db;
      let db = Db.open_dir dir in
      Alcotest.(check (list bool)) "the log replays the same" [ true; false ] (domains db);
      Db.close db)

let test_auto_checkpoint () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir ~auto_checkpoint_every:5 dir in
      exec_ok db "CREATE DOMAIN d;";
      Alcotest.(check int) "below threshold: no checkpoint" 0 (Db.base_lsn db);
      exec_ok db
        "CREATE INSTANCE a OF d; CREATE INSTANCE b OF d; CREATE INSTANCE c OF d; \
         CREATE INSTANCE e OF d;";
      Alcotest.(check int) "threshold reached: checkpointed" 5 (Db.base_lsn db);
      Alcotest.(check int) "wal drained" 0 (Db.wal_records db);
      Alcotest.(check (list int)) "records stay addressable for catch-up" [ 3; 4; 5 ]
        (List.map (fun r -> r.Wal.lsn) (Db.records_since db 2));
      Db.close db)

(* ---- client timeouts -------------------------------------------------- *)

let test_client_timeout () =
  (* a listener that accepts but never replies *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 4;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      let conn = Server.Client.connect ~timeout:0.2 ~port () in
      let t0 = Unix.gettimeofday () in
      (match Server.Client.exec conn "SHOW RELATIONS;" with
      | Ok _ -> Alcotest.fail "expected a timeout"
      | Error msg ->
        Alcotest.(check bool) "timeout error mentions it" true
          (contains ~needle:"timed out" msg));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "came back promptly" true (elapsed < 5.0);
      Server.Client.close conn)

(* ---- backpressure: a stalled subscriber must not wedge the loop ------- *)

let test_stalled_subscriber_dropped () =
  with_temp_dir (fun dir ->
      let server = Server.create_durable ~port:0 ~max_backlog:1024 ~dir () in
      Fun.protect
        ~finally:(fun () -> Server.close server)
        (fun () ->
          let port = Server.port server in
          (* a subscriber that never reads, with a tiny receive window so
             the kernel absorbs as little as possible *)
          let sub = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt_int sub Unix.SO_RCVBUF 4096;
          Unix.connect sub (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          Wire.send sub Wire.repl_subscribe "0";
          for _ = 1 to 5 do
            ignore (Server.poll server 0.01)
          done;
          Alcotest.(check int) "subscribed" 1 (Metrics.gauge_value "repl.subscribers");
          let drops_before = Metrics.counter_value "repl.backlog_drops" in
          let client = Server.Client.connect ~timeout:5.0 ~port () in
          (* drive the server's own event loop from this thread: pump the
             request bytes non-blockingly (a multi-megabyte frame doesn't
             fit the socket buffer, and nobody else drains it), then poll
             until the reply arrives *)
          let exec_via_poll script =
            let fd = Server.Client.fd client in
            let frame = Wire.frame "EXEC" script in
            Unix.set_nonblock fd;
            let len = String.length frame in
            let off = ref 0 in
            while !off < len do
              match Unix.write_substring fd frame !off (len - !off) with
              | n -> off := !off + n
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ignore (Server.poll server 0.01)
            done;
            Unix.clear_nonblock fd;
            let deadline = Unix.gettimeofday () +. 10.0 in
            let rec await () =
              ignore (Server.poll server 0.01);
              match Unix.select [ Server.Client.fd client ] [] [] 0.0 with
              | [ _ ], _, _ -> Server.Client.recv client
              | _ ->
                if Unix.gettimeofday () > deadline then
                  Error "no reply (event loop wedged?)"
                else await ()
            in
            await ()
          in
          (* each INSERT is a ~2 MiB statement (its reply is one short
             line, so the client itself stays under the bound) shipped as
             a REPL_RECORD the subscriber never drains; with a 1 KiB
             backlog bound the subscriber must be cut off while EXECs
             keep answering *)
          let name = "inst_" ^ String.make 95 'x' in
          (match
             exec_via_poll
               (Printf.sprintf
                  "CREATE DOMAIN d; CREATE INSTANCE %s OF d; CREATE RELATION r (v: d);"
                  name)
           with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "setup under stalled subscriber: %s" msg);
          let big_insert =
            "INSERT INTO r VALUES "
            ^ String.concat ", " (List.init 20_000 (fun _ -> Printf.sprintf "(+ %s)" name))
            ^ ";"
          in
          for i = 1 to 3 do
            match exec_via_poll big_insert with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "exec %d under stalled subscriber: %s" i msg
          done;
          Alcotest.(check bool) "stalled subscriber was dropped" true
            (Metrics.counter_value "repl.backlog_drops" > drops_before);
          Alcotest.(check int) "no subscribers left" 0
            (Metrics.gauge_value "repl.subscribers");
          Server.Client.close client;
          Unix.close sub))

(* ---- end-to-end: snapshot bootstrap, mid-workload attach, kill and
   reconnect ------------------------------------------------------------ *)

(* Fork a multiplexed server over [dir] on [port] (0 = ephemeral).
   Returns (port, pid); the parent's copies of the listening socket and
   database are closed so the child is the only owner. *)
let spawn_primary ~dir ~port =
  let server = Server.create_durable ~port ~dir () in
  let bound = Server.port server in
  match Unix.fork () with
  | 0 ->
    (try Server.serve_forever server with _ -> ());
    Unix._exit 0
  | pid ->
    Server.close server;
    (bound, pid)

let rec drive replica ~deadline ~until =
  if until () then ()
  else if Unix.gettimeofday () > deadline then
    Alcotest.failf "replica did not converge (applied LSN %d)"
      (Replica.applied_lsn replica)
  else begin
    Replica.step replica 0.05;
    drive replica ~deadline ~until
  end

let workload_setup =
  "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal; CREATE CLASS penguin \
   UNDER bird; CREATE INSTANCE tweety OF bird; CREATE INSTANCE paul OF penguin; \
   CREATE RELATION flies (creature: animal); INSERT INTO flies VALUES (+ ALL \
   bird), (- ALL penguin);"

(* negated tuples, a preference edge, a consolidation — the paper's
   exception machinery, all statement-replayed on the replica *)
let workload_mid =
  "CREATE PREFERENCE penguin OVER bird; INSERT INTO flies VALUES (+ paul); \
   CONSOLIDATE flies; CREATE RELATION swims (creature: animal); INSERT INTO \
   swims VALUES (+ ALL penguin), (- tweety);"

let workload_after_restart =
  "INSERT INTO swims VALUES (+ paul); DELETE FROM swims VALUES (tweety); \
   CONSOLIDATE swims;"

let count_mutations script =
  String.split_on_char ';' script
  |> List.filter (fun s -> String.trim s <> "")
  |> List.length

let test_end_to_end () =
  with_temp_dir (fun pdir ->
      with_temp_dir (fun rdir ->
          (* seed + checkpoint first, so a fresh replica (LSN 0 < base)
             must bootstrap via REPL_SNAPSHOT *)
          let db = Db.open_dir pdir in
          exec_ok db workload_setup;
          Db.checkpoint db;
          let base = Db.lsn db in
          Db.close db;

          let port, pid = spawn_primary ~dir:pdir ~port:0 in
          let client = Server.Client.connect ~timeout:5.0 ~port () in
          let bootstraps_before = Metrics.counter_value "repl.snapshots_installed" in

          (* attach the replica mid-workload *)
          let replica =
            Replica.create
              (Replica.config ~primary_port:port ~dir:rdir ~backoff_min:0.02
                 ~backoff_max:0.2 ())
          in
          let expect1 = base + count_mutations workload_mid in
          (match Server.Client.exec client workload_mid with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "mid workload: %s" msg);
          drive replica
            ~deadline:(Unix.gettimeofday () +. 10.0)
            ~until:(fun () -> Replica.applied_lsn replica >= expect1);
          Alcotest.(check int) "bootstrapped via snapshot" (bootstraps_before + 1)
            (Metrics.counter_value "repl.snapshots_installed");

          (* the replica answers reads, refuses writes *)
          let rconn = Server.Client.connect ~timeout:5.0 ~port:(Replica.port replica) () in
          Server.Client.send rconn "EXEC" "ASK flies (paul);";
          let read_reply () =
            let deadline = Unix.gettimeofday () +. 10.0 in
            let rec loop () =
              Replica.step replica 0.05;
              match Unix.select [ Server.Client.fd rconn ] [] [] 0.0 with
              | [ _ ], _, _ -> Server.Client.recv rconn
              | _ ->
                if Unix.gettimeofday () > deadline then Error "no reply from replica"
                else loop ()
            in
            loop ()
          in
          (match read_reply () with
          | Ok out -> Alcotest.(check string) "read on replica" "+ (by (paul))" out
          | Error msg -> Alcotest.failf "replica read: %s" msg);
          Server.Client.send rconn "EXEC" "INSERT INTO flies VALUES (+ tweety);";
          (match read_reply () with
          | Ok _ -> Alcotest.fail "replica accepted a mutation"
          | Error msg ->
            Alcotest.(check bool) "clear read-only error" true
              (contains ~needle:"read-only replica" msg));
          (* a lexically invalid payload must come back as ERR — before
             the read-only guard caught Lex_error, this killed the whole
             replica process *)
          Server.Client.send rconn "EXEC" "@";
          (match read_reply () with
          | Ok _ -> Alcotest.fail "replica accepted garbage"
          | Error msg ->
            Alcotest.(check bool) "lex error reported over the wire" true
              (contains ~needle:"lex" msg));
          (* and the connection (and replica) survived it *)
          Server.Client.send rconn "EXEC" "ASK flies (paul);";
          (match read_reply () with
          | Ok out ->
            Alcotest.(check string) "replica still serving" "+ (by (paul))" out
          | Error msg -> Alcotest.failf "replica read after garbage: %s" msg);
          Server.Client.close rconn;

          (* kill the primary mid-stream; the replica must reconnect with
             backoff and resume from its durable offset *)
          Server.Client.close client;
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          let reconnects_before = Metrics.counter_value "repl.reconnects" in
          (* a few steps while the primary is down: backoff, no progress *)
          for _ = 1 to 5 do
            Replica.step replica 0.02
          done;
          Alcotest.(check bool) "down after kill" false (Replica.connected replica);

          let port', pid' = spawn_primary ~dir:pdir ~port in
          Alcotest.(check int) "rebound the same port" port port';
          let client' = Server.Client.connect ~timeout:5.0 ~port () in
          let expect2 = expect1 + count_mutations workload_after_restart in
          (match Server.Client.exec client' workload_after_restart with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "post-restart workload: %s" msg);
          drive replica
            ~deadline:(Unix.gettimeofday () +. 10.0)
            ~until:(fun () -> Replica.applied_lsn replica >= expect2);
          Alcotest.(check bool) "reconnect was counted" true
            (Metrics.counter_value "repl.reconnects" > reconnects_before);

          (* convergence: equivalent flat relations, byte-identical *)
          let replica_print = flat_fingerprint (Db.catalog (Replica.db replica)) in
          Server.Client.close client';
          Unix.kill pid' Sys.sigkill;
          ignore (Unix.waitpid [] pid');
          let pdb = Db.open_dir pdir in
          Alcotest.(check string) "flattened relations byte-identical"
            (flat_fingerprint (Db.catalog pdb))
            replica_print;
          Db.close pdb;

          (* the acceptance metrics moved *)
          Alcotest.(check bool) "records applied" true
            (Metrics.counter_value "repl.records_applied" > 0);
          Replica.close replica))

(* ---- crash window: kill -9 the primary under pipelined load ----------- *)

(* A primary killed while a pipelined client is mid-burst and a replica
   is chasing the stream must leave BOTH directories verifiable: the
   primary fsck-clean with every client-acked statement durable, and the
   replica a strict prefix of it (no divergence at the greatest common
   LSN) — the replica can never have applied a record the primary lost,
   because the primary ships nothing above its synced LSN and the
   replica syncs before acking. *)
let test_kill_during_pipelined_load () =
  with_temp_dir (fun pdir ->
      with_temp_dir (fun rdir ->
          let db = Db.open_dir pdir in
          exec_ok db workload_setup;
          let base = Db.lsn db in
          Db.close db;
          let port, pid = spawn_primary ~dir:pdir ~port:0 in
          let replica =
            Replica.create
              (Replica.config ~primary_port:port ~dir:rdir ~backoff_min:0.02
                 ~backoff_max:0.2 ())
          in
          (* pipeline a burst of durable mutations without awaiting acks *)
          let burst = 64 in
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let frame = Wire.frame "EXEC" "INSERT INTO flies VALUES (+ tweety);" in
          let bytes = String.concat "" (List.init burst (fun _ -> frame)) in
          let off = ref 0 in
          Unix.set_nonblock fd;
          (try
             while !off < String.length bytes do
               off := !off + Unix.write_substring fd bytes !off (String.length bytes - !off)
             done
           with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
          (* chase the stream briefly, counting acks as they land, then
             kill mid-load *)
          let dec = Wire.Decoder.create () in
          let acked = ref 0 in
          let buf = Bytes.create 65536 in
          let drain_acks () =
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
              Wire.Decoder.feed dec buf n;
              let rec loop () =
                match Wire.Decoder.next dec with
                | Ok (Some _) ->
                  incr acked;
                  loop ()
                | Ok None | Error _ -> ()
              in
              loop ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          in
          let deadline = Unix.gettimeofday () +. 2.0 in
          while Unix.gettimeofday () < deadline && !acked < burst / 2 do
            Replica.step replica 0.02;
            drain_acks ()
          done;
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Unix.close fd;
          Replica.close replica;
          (* both nodes verify; the cross-check finds no divergence *)
          let r = Fsck.run ~against:rdir pdir in
          Alcotest.(check (list string)) "both nodes fsck-clean, no divergence" []
            (List.map (fun f -> f.Fsck.code) r.Fsck.findings);
          (* every statement acked to the client survived the crash *)
          let pdb = Db.open_dir pdir in
          Alcotest.(check bool)
            (Printf.sprintf "acked statements durable (%d acked, head %d, base %d)"
               !acked (Db.lsn pdb) base)
            true
            (Db.lsn pdb >= base + !acked);
          Db.close pdb))

(* ---- replica apply: one serial path ----------------------------------- *)

let rcd lsn stmt = { Apply.lsn; stmt }

let flatten cat =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map
       (fun r -> (Relation.name r, Traditional.extension_relation r))
       (Catalog.relations cat))

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
    Alcotest.test_case "wire decoder across chunk boundaries" `Quick test_decoder_chunked;
    Alcotest.test_case "wire decoder byte at a time" `Quick test_decoder_byte_at_a_time;
    Alcotest.test_case "wire recv across split writes" `Quick test_wire_recv_split;
    Alcotest.test_case "wire recv timeout and malformed header" `Quick
      test_wire_recv_timeout_and_malformed;
    Alcotest.test_case "wal stream_from by lsn" `Quick test_wal_stream_from;
    Alcotest.test_case "wal torn tail is measured" `Quick test_wal_torn_tail_metrics;
    Alcotest.test_case "db lsn is monotone and durable" `Quick test_db_lsn_monotone;
    Alcotest.test_case "db snapshot/apply replication hooks" `Quick test_db_replication_hooks;
    Alcotest.test_case "reopen after interrupted checkpoint" `Quick
      test_reopen_after_interrupted_checkpoint;
    Alcotest.test_case "lex errors are contained" `Quick test_lex_error_is_contained;
    Alcotest.test_case "a ';' in a comment splits nothing" `Quick test_comment_semicolon;
    Alcotest.test_case "auto checkpoint bounds the wal" `Quick test_auto_checkpoint;
    Alcotest.test_case "client timeout" `Quick test_client_timeout;
    Alcotest.test_case "stalled subscriber is dropped, loop stays live" `Quick
      test_stalled_subscriber_dropped;
    Alcotest.test_case "bootstrap, catch-up, kill, reconnect, converge" `Quick
      test_end_to_end;
    Alcotest.test_case "kill -9 under pipelined load: both nodes verify" `Quick
      test_kill_during_pipelined_load;
    Alcotest.test_case "apply spawns no domain" `Quick test_apply_spawns_no_domain;
    Alcotest.test_case "apply batch error paths" `Quick test_apply_errors;
  ]
