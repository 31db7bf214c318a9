(* Network layer tests: a forked server process, a real TCP round trip. *)

module Server = Hr_server.Server

(* Fork a process running [server]'s event loop. Returns (port, pid);
   the parent's copies of the listening socket and database are closed
   so the child is the only owner. *)
let fork_server server =
  let port = Server.port server in
  match Unix.fork () with
  | 0 ->
    (* child: serve until killed, exit hard (no test-runner teardown) *)
    (try Server.serve_forever server with _ -> ());
    Unix._exit 0
  | pid ->
    Server.close server;
    (port, pid)

let spawn_server ?dir () =
  fork_server
    (match dir with
    | Some dir -> Server.create_durable ~port:0 ~dir ()
    | None -> Server.create_memory ~port:0 ())

(* Like [fork_server], but the server is made in the child: one with
   reader domains must not be made here, since OCaml refuses
   [Unix.fork] once the process has ever made a domain. The child
   reports its port through a pipe. *)
let spawn_in_child make =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (match make () with
    | exception _ -> Unix._exit 2
    | server ->
      let line = Printf.sprintf "%d\n" (Server.port server) in
      ignore (Unix.write_substring w line 0 (String.length line));
      Unix.close w;
      (try Server.serve_forever server with _ -> ());
      Unix._exit 0)
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let port = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    (int_of_string port, pid)

let with_temp_dir f =
  let dir = Filename.temp_file "hrsrv" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* Every reply was read before this is called, and acks are sent only
   after their commit is durable, so killing the server loses nothing. *)
let stop_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* Runs [f port] against a forked server and stops the server however
   [f] ends: a failed assertion must not leave the child serving with
   the runner's output open. *)
let with_server (port, pid) f = Fun.protect ~finally:(fun () -> stop_server pid) (fun () -> f port)

let test_round_trip () =
  with_server (spawn_server ()) @@ fun port ->
  let conn = Server.Client.connect ~timeout:10.0 ~port () in
  (match Server.Client.exec conn "CREATE DOMAIN d;" with
  | Ok out -> Alcotest.(check string) "created" "domain d created" out
  | Error e -> Alcotest.failf "exec: %s" e);
  (match Server.Client.exec conn "CREATE INSTANCE x OF d; CREATE RELATION r (v: d); INSERT INTO r VALUES (+ x);" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "multi: %s" e);
  (match Server.Client.exec conn "ASK r (x);" with
  | Ok out -> Alcotest.(check string) "verdict over the wire" "+ (by (x))" out
  | Error e -> Alcotest.failf "ask: %s" e);
  Server.Client.close conn

let test_errors_propagate () =
  with_server (spawn_server ()) @@ fun port ->
  let conn = Server.Client.connect ~timeout:10.0 ~port () in
  (match Server.Client.exec conn "SELECT * FROM nope;" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg -> Alcotest.(check bool) "message" true (String.length msg > 0));
  Server.Client.send conn "EFFECTS" "SELECT * FROM nope;";
  (match Server.Client.recv conn with
  | Ok _ -> Alcotest.fail "EFFECTS is not a request"
  | Error msg -> Alcotest.(check string) "unknown frame" "unknown request \"EFFECTS\"" msg);
  (* the connection survives an error *)
  (match Server.Client.exec conn "CREATE DOMAIN d;" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "after error: %s" e);
  Server.Client.close conn

let test_durable_backend () =
  with_temp_dir (fun dir ->
      (with_server (spawn_server ~dir ()) @@ fun port ->
       let conn = Server.Client.connect ~timeout:10.0 ~port () in
       (match
          Server.Client.exec conn
            "CREATE DOMAIN d; CREATE INSTANCE x OF d; CREATE RELATION r (v: d); INSERT INTO r VALUES (+ x);"
        with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "exec: %s" e);
       Server.Client.close conn);
      (* state survived in the directory: reopen directly *)
      let db = Hr_storage.Db.open_dir dir in
      (match Hr_storage.Db.exec db "ASK r (x);" with
      | Ok [ out ] -> Alcotest.(check string) "durable over the wire" "+ (by (x))" out
      | Ok _ | Error _ -> Alcotest.fail "reopen failed");
      Hr_storage.Db.close db)

(* A sharded front: a router over one shard, the server at
   [shard_port]. The parent's copy of the router is closed, as in
   [fork_server]. *)
let spawn_router shard_port =
  let map =
    match Hr_check.Shard_map.parse (Printf.sprintf "shard 0 127.0.0.1:%d\ndefault 0\n" shard_port) with
    | Ok map -> map
    | Error e -> Alcotest.failf "shard map: %s" e
  in
  let router = Hr_shard.Router.create ~port:0 ~timeout:5.0 ~map () in
  let port = Hr_shard.Router.port router in
  match Unix.fork () with
  | 0 ->
    (try Hr_shard.Router.serve_forever router with _ -> ());
    Unix._exit 0
  | pid ->
    Hr_shard.Router.close router;
    (port, pid)

(* The replies to [setup] and then each of [scripts], on one connection,
   from each path that can serve an EXEC: an in-memory server, a durable
   one, a durable one whose reads run on a reader domain, and a router
   in front of an in-memory shard. *)
let replies_on_every_path ~setup scripts =
  let replies port =
    let conn = Server.Client.connect ~timeout:10.0 ~port () in
    (match Server.Client.exec conn setup with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "setup: %s" e);
    let out =
      List.map
        (fun script ->
          match Server.Client.exec conn script with
          | Ok out -> "OK " ^ out
          | Error msg -> "ERR " ^ msg)
        scripts
    in
    Server.Client.close conn;
    out
  in
  [
    ("in-memory", with_server (spawn_server ()) replies);
    ("durable", with_temp_dir (fun dir -> with_server (spawn_server ~dir ()) replies));
    ( "reader-domain",
      with_temp_dir (fun dir ->
          with_server
            (spawn_in_child (fun () -> Server.create_durable ~reader_domains:1 ~port:0 ~dir ()))
            replies) );
    ( "sharded",
      with_server (spawn_server ()) @@ fun shard_port ->
      with_server (spawn_router shard_port) replies );
  ]

let check_every_path expected paths =
  List.iter (fun (path, replies) -> Alcotest.(check (list string)) (path ^ " replies") expected replies) paths

(* A failing EXEC gets one reply text whichever path serves it: each
   names the failing statement's line and column. *)
let test_error_text_on_every_path () =
  check_every_path
    [
      "ERR at line 2, column 1: unknown relation \"nosuch\"";
      "ERR at line 2, column 3: unknown relation \"nosuch\"";
      "ERR at line 2, column 1: unknown relation \"nosuch\"";
    ]
    (replies_on_every_path ~setup:"CREATE DOMAIN d; CREATE INSTANCE x OF d; CREATE RELATION r (v: d);"
       [
         "SELECT * FROM r;\nSELECT * FROM nosuch;";
         "SELECT * FROM r; -- the second statement is on the next line\n  ASK nosuch (x);";
         "INSERT INTO r VALUES (+ x);\nINSERT INTO nosuch VALUES (+ x);";
       ])

(* An EXEC frame is parsed whole before any of it runs: one whose second
   statement does not parse (or lex) creates nothing on any path, and
   every path names the same position in the frame. Pieces are read in
   order, so a parse error before a lex error is the one reported. *)
let test_unparsable_frame_runs_nothing () =
  check_every_path
    [
      "ERR parse error: CREATE: unexpected identifier \"NONSENSE\" at line 2, column 16";
      "ERR lex error: unexpected character '@' at line 3, column 3";
      "ERR parse error: CREATE: unexpected identifier \"NONSENSE\" at line 1, column 16";
      "OK domain d created";
    ]
    (replies_on_every_path ~setup:"SHOW HIERARCHIES;"
       [
         "CREATE DOMAIN d;\nCREATE NONSENSE;";
         "CREATE DOMAIN d;\n\n  @;";
         "CREATE NONSENSE;\n@;";
         "CREATE DOMAIN d;";
       ])

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_lint_over_the_wire () =
  with_server (spawn_server ()) @@ fun port ->
  let conn = Server.Client.connect ~timeout:10.0 ~port () in
  (match Server.Client.exec conn "CREATE DOMAIN d; CREATE INSTANCE x OF d; CREATE RELATION r (v: d); INSERT INTO r VALUES (+ x);" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup: %s" e);
  (* the analyzer sees the live catalog... *)
  (match Server.Client.lint conn "DELETE FROM r VALUES (x);" with
  | Ok payload -> Alcotest.(check string) "clean script" "[]\n" payload
  | Error e -> Alcotest.failf "lint: %s" e);
  (match Server.Client.lint conn "SELECT * FROM nosuch;" with
  | Ok payload ->
    Alcotest.(check bool) "diagnostic in payload" true
      (contains ~needle:"E001" payload)
  | Error e -> Alcotest.failf "lint: %s" e);
  (* ...but linting DROP RELATION must not have dropped anything *)
  (match Server.Client.lint conn "DROP RELATION r;" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "lint drop: %s" e);
  (match Server.Client.exec conn "ASK r (x);" with
  | Ok out -> Alcotest.(check string) "relation still there" "+ (by (x))" out
  | Error e -> Alcotest.failf "ask after lint: %s" e);
  Server.Client.close conn

let test_fsck_over_the_wire () =
  (* in-memory backends refuse the frame *)
  (with_server (spawn_server ()) @@ fun port ->
   let conn = Server.Client.connect ~timeout:10.0 ~port () in
   (match Server.Client.fsck conn with
   | Ok _ -> Alcotest.fail "memory backend should refuse FSCK"
   | Error msg -> Alcotest.(check bool) "says durable" true (contains ~needle:"durable" msg));
   Server.Client.close conn);
  (* a durable backend verifies its own directory *)
  with_temp_dir (fun dir ->
      with_server (spawn_server ~dir ()) @@ fun port ->
      let conn = Server.Client.connect ~timeout:10.0 ~port () in
      (match Server.Client.exec conn "CREATE DOMAIN d; CREATE INSTANCE x OF d;" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "setup: %s" e);
      (match Server.Client.fsck conn with
      | Ok body -> Alcotest.(check bool) "clean" true (contains ~needle:"clean" body)
      | Error e -> Alcotest.failf "fsck: %s" e);
      (match Server.Client.fsck ~json:true conn with
      | Ok body ->
        Alcotest.(check bool) "json clean" true
          (contains ~needle:"\"clean\":true" body)
      | Error e -> Alcotest.failf "fsck json: %s" e);
      Server.Client.close conn)

(* A counter from a STATS reply ("  <name>  <value>" lines). *)
let counter conn name =
  match Server.Client.stats conn with
  | Error e -> Alcotest.failf "stats: %s" e
  | Ok text ->
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ n; v ] when n = name -> int_of_string_opt v
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:0

(* Group commit: INSERTs from several clients that arrive inside one
   commit window share a WAL sync, every client is acked, and every row
   is durable. *)
let test_group_commit () =
  let clients = 6 in
  with_temp_dir (fun dir ->
      (with_server
         (fork_server
            (Server.create_durable ~group_commit_window:0.1 ~fsync:false ~port:0 ~dir ()))
       @@ fun port ->
          let admin = Server.Client.connect ~timeout:10.0 ~port () in
          (match
             Server.Client.exec admin
               (String.concat " "
                  ("CREATE DOMAIN d; CREATE RELATION r (v: d);"
                  :: List.init clients (Printf.sprintf "CREATE INSTANCE i%d OF d;")))
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "setup: %s" e);
          let appends0 = counter admin "storage.wal.appends"
          and batches0 = counter admin "storage.wal.sync_batches" in
          let conns =
            List.init clients (fun _ -> Server.Client.connect ~timeout:10.0 ~port ())
          in
          List.iteri
            (fun i c ->
              Server.Client.send c "EXEC" (Printf.sprintf "INSERT INTO r VALUES (+ i%d);" i))
            conns;
          List.iteri
            (fun i c ->
              match Server.Client.recv c with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "client %d: %s" i e)
            conns;
          let appends = counter admin "storage.wal.appends" - appends0
          and batches = counter admin "storage.wal.sync_batches" - batches0 in
          Alcotest.(check int) "one append per INSERT" clients appends;
          Alcotest.(check bool)
            (Printf.sprintf "%d sync batches < %d appends" batches appends)
            true (batches < appends);
          List.iter Server.Client.close (admin :: conns));
      let db = Hr_storage.Db.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Hr_storage.Db.close db)
        (fun () ->
          for i = 0 to clients - 1 do
            match Hr_storage.Db.exec db (Printf.sprintf "ASK r (i%d);" i) with
            | Ok [ out ] ->
              Alcotest.(check string) "row survived reopen"
                (Printf.sprintf "+ (by (i%d))" i) out
            | Ok _ | Error _ -> Alcotest.failf "ASK r (i%d) failed after reopen" i
          done))

(* Every frame is a whole request or reply, so Nagle's algorithm only
   adds a delayed-ACK wait. Sockets come from two places: [Conn.accept]
   (server and router clients, a primary's replication subscribers) and
   [Client.connect] (router-to-shard links, a replica's upstream). *)
let test_tcp_nodelay () =
  let module Conn = Hr_frames.Conn in
  let listener, port = Conn.listen ~host:"127.0.0.1" ~port:0 in
  let dialled = [ Server.Client.connect ~port (); Server.Client.connect ~timeout:5.0 ~port () ] in
  let rec accept_all tries acc =
    if List.length acc >= 2 || tries = 0 then acc
    else begin
      ignore (Unix.select [ listener ] [] [] 1.0);
      accept_all (tries - 1) (acc @ Conn.accept ~max_backlog:4096 listener)
    end
  in
  let served = accept_all 10 [] in
  Alcotest.(check int) "both accepted" 2 (List.length served);
  let nodelay fd = Unix.getsockopt fd Unix.TCP_NODELAY in
  List.iter (fun c -> Alcotest.(check bool) "accepted socket" true (nodelay (Conn.fd c))) served;
  List.iter
    (fun c -> Alcotest.(check bool) "dialled socket" true (nodelay (Server.Client.fd c)))
    dialled;
  List.iter Conn.close served;
  List.iter Server.Client.close dialled;
  Unix.close listener

let suite =
  [
    Alcotest.test_case "tcp round trip" `Quick test_round_trip;
    Alcotest.test_case "sockets set TCP_NODELAY" `Quick test_tcp_nodelay;
    Alcotest.test_case "errors propagate, connection survives" `Quick test_errors_propagate;
    Alcotest.test_case "durable backend over tcp" `Quick test_durable_backend;
    Alcotest.test_case "an EXEC error reads the same on every path" `Quick
      test_error_text_on_every_path;
    Alcotest.test_case "an unparsable EXEC frame runs nothing" `Quick
      test_unparsable_frame_runs_nothing;
    Alcotest.test_case "group commit shares one sync across clients" `Quick
      test_group_commit;
    Alcotest.test_case "lint over the wire" `Quick test_lint_over_the_wire;
    Alcotest.test_case "fsck over the wire" `Quick test_fsck_over_the_wire;
  ]
