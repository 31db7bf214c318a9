(* Randomized end-to-end soak test: a stream of structurally valid HRQL
   statements hammers a catalog; after every statement the catalog's
   relations must satisfy the ambiguity constraint (rejected updates
   included — rejection must leave no trace). Exercises the parser,
   evaluator, optimizer, transactions and integrity machinery together.

   The runs double as consistency checks of the metrics registry
   (lib/obs): statement and WAL counters must account for exactly the
   work submitted, the pager must read back at least what it wrote back,
   and a server must serve exactly as many frames as the client sent.

   The concurrent-reader arm of the soak lives in test_mc.ml ("soak with
   concurrent readers"): spawning an OCaml 5 domain forbids Unix.fork for
   the rest of the process, and suites registered after this one fork. *)

module Eval = Hr_query.Eval
module Prng = Hr_util.Prng
module Hierarchy = Hr_hierarchy.Hierarchy
module Metrics = Hr_obs.Metrics
open Hierel

type state = {
  cat : Catalog.t;
  g : Prng.t;
  mutable classes : string list;
  mutable instances : string list;
  mutable relations : string list;
  mutable executed : int;
  mutable rejected : int;
}

let fresh_name state prefix =
  Printf.sprintf "%s%d" prefix (Prng.int state.g 1_000_000_000)

let pick_opt state = function
  | [] -> None
  | xs -> Some (Prng.pick state.g (Array.of_list xs))

let random_value state =
  if Prng.bool state.g then
    Option.map (fun c -> "ALL " ^ c) (pick_opt state state.classes)
  else pick_opt state state.instances

let random_statement state =
  match Prng.int state.g 10 with
  | 0 ->
    let name = fresh_name state "c" in
    let parent = Option.value ~default:"soak" (pick_opt state state.classes) in
    state.classes <- name :: state.classes;
    Some (Printf.sprintf "CREATE CLASS %s UNDER %s;" name parent)
  | 1 ->
    let name = fresh_name state "i" in
    let parent = Option.value ~default:"soak" (pick_opt state state.classes) in
    state.instances <- name :: state.instances;
    Some (Printf.sprintf "CREATE INSTANCE %s OF %s;" name parent)
  | 2 ->
    let name = fresh_name state "r" in
    state.relations <- name :: state.relations;
    Some (Printf.sprintf "CREATE RELATION %s (v: soak);" name)
  | 3 | 4 | 5 -> (
    match pick_opt state state.relations, random_value state with
    | Some rel, Some v ->
      let sign = if Prng.bernoulli state.g 0.3 then "-" else "+" in
      Some (Printf.sprintf "INSERT INTO %s VALUES (%s %s);" rel sign v)
    | _ -> None)
  | 6 -> (
    match pick_opt state state.relations, pick_opt state state.instances with
    | Some rel, Some i -> Some (Printf.sprintf "ASK %s (%s);" rel i)
    | _ -> None)
  | 7 ->
    Option.map (fun rel -> Printf.sprintf "CONSOLIDATE %s;" rel)
      (pick_opt state state.relations)
  | 8 -> (
    match state.relations with
    | a :: b :: _ -> Some (Printf.sprintf "LET u%d = %s UNION %s;" (Prng.int state.g 1000) a b)
    | _ -> None)
  | _ ->
    Option.map (fun rel -> Printf.sprintf "CHECK %s;" rel)
      (pick_opt state state.relations)

let run_soak seed steps =
  let cat = Catalog.create () in
  (match Eval.run_script cat "CREATE DOMAIN soak;" with
  | Ok _ -> ()
  | Error e -> failwith e);
  let state =
    {
      cat;
      g = Prng.create (Int64.of_int seed);
      classes = [ "soak" ];
      instances = [];
      relations = [];
      executed = 0;
      rejected = 0;
    }
  in
  for _ = 1 to steps do
    match random_statement state with
    | None -> ()
    | Some stmt -> (
      match Eval.run_script state.cat stmt with
      | Ok _ -> state.executed <- state.executed + 1
      | Error _ ->
        (* duplicate names, direct contradictions, ambiguity rejections:
           all fine — but they must leave the catalog consistent *)
        state.rejected <- state.rejected + 1)
  done;
  state

let check_invariants state =
  List.iter
    (fun rel ->
      Alcotest.(check bool)
        (Printf.sprintf "%s satisfies the ambiguity constraint" (Relation.name rel))
        true
        (Integrity.is_consistent rel);
      (* consolidation remains extension-preserving on live data *)
      Alcotest.(check bool)
        (Printf.sprintf "%s consolidates without changing meaning" (Relation.name rel))
        true
        (Flatten.equal_extension rel (Consolidate.consolidate rel)))
    (Catalog.relations state.cat)

let test_soak_small () =
  let state = run_soak 42 150 in
  Alcotest.(check bool) "made progress" true (state.executed > 50);
  check_invariants state

let test_soak_negative_heavy () =
  let state = run_soak 1337 150 in
  check_invariants state

let test_soak_durable () =
  (* the same stream through the durable engine, with a mid-way
     checkpoint and a reopen at the end; the registry must account for
     exactly the statements submitted and the WAL discipline *)
  let dir = Filename.temp_file "hrsoak" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Metrics.with_enabled true (fun () ->
          let statements0 = Metrics.counter_value "storage.db.statements" in
          let appends0 = Metrics.counter_value "storage.wal.appends" in
          let fsyncs0 = Metrics.counter_value "storage.wal.fsyncs" in
          let checkpoints0 = Metrics.counter_value "storage.db.checkpoints" in
          let db = Hr_storage.Db.open_dir dir in
          (match Hr_storage.Db.exec db "CREATE DOMAIN soak;" with
          | Ok _ -> ()
          | Error e -> failwith e);
          let state =
            {
              cat = Hr_storage.Db.catalog db;
              g = Prng.create 777L;
              classes = [ "soak" ];
              instances = [];
              relations = [];
              executed = 0;
              rejected = 0;
            }
          in
          for step = 1 to 100 do
            (match random_statement state with
            | None -> ()
            | Some stmt -> (
              match Hr_storage.Db.exec db stmt with
              | Ok _ -> state.executed <- state.executed + 1
              | Error _ -> state.rejected <- state.rejected + 1));
            if step = 50 then Hr_storage.Db.checkpoint db
          done;
          (* end-of-run registry consistency: every submitted statement
             (accepted or rejected, plus the initial CREATE DOMAIN) was
             counted.  [Db.exec] syncs after every statement, so on this
             path each append gets its own fsync — the group-commit
             batching (fsyncs < appends) only appears under the server's
             event loop, and is asserted by test_server's "group commit
             shares one sync across clients". *)
          Alcotest.(check int) "storage.db.statements accounts for the run"
            (state.executed + state.rejected + 1)
            (Metrics.counter_value "storage.db.statements" - statements0);
          Alcotest.(check int) "one checkpoint recorded" 1
            (Metrics.counter_value "storage.db.checkpoints" - checkpoints0);
          let appends = Metrics.counter_value "storage.wal.appends" - appends0 in
          Alcotest.(check int) "per-statement exec: wal fsyncs = wal appends" appends
            (Metrics.counter_value "storage.wal.fsyncs" - fsyncs0);
          Alcotest.(check bool) "the run appended to the wal" true (appends > 0);
          let dump_before = Hr_query.Persist.dump_catalog (Hr_storage.Db.catalog db) in
          Hr_storage.Db.close db;
          let db2 = Hr_storage.Db.open_dir dir in
          Alcotest.(check string) "recovered state identical" dump_before
            (Hr_query.Persist.dump_catalog (Hr_storage.Db.catalog db2));
          Hr_storage.Db.close db2))

(* A controlled pager workload for which "pages read >= pages written
   back" is a hard invariant: every page becomes dirty only after being
   faulted in, is flushed exactly once, and is read back afterwards. *)
let test_pager_registry () =
  Metrics.with_enabled true (fun () ->
      let file = Filename.temp_file "hrsoakpager" ".pages" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          let reads0 = Metrics.counter_value "storage.pager.disk_reads" in
          let writebacks0 = Metrics.counter_value "storage.pager.writebacks" in
          let hits0 = Metrics.counter_value "storage.pager.pool_hits" in
          let module Pager = Hr_storage.Pager in
          let pager = Pager.create ~pool_pages:8 file in
          let pages = 20 (* > pool: forces real evictions and writebacks *) in
          let ids = List.init pages (fun _ -> Pager.allocate pager) in
          List.iteri
            (fun i id ->
              Pager.write_page pager id
                (Bytes.make Pager.page_size (Char.chr (65 + (i mod 26)))))
            ids;
          Pager.flush pager;
          List.iteri
            (fun i id ->
              Alcotest.(check char)
                (Printf.sprintf "page %d content survives" id)
                (Char.chr (65 + (i mod 26)))
                (Bytes.get (Pager.read_page pager id) 0))
            ids;
          (* an immediate re-read of the hottest page must hit the pool
             (the sequential scan above thrashes LRU by design) *)
          ignore (Pager.read_page pager (List.nth ids (pages - 1)));
          Pager.close pager;
          let reads = Metrics.counter_value "storage.pager.disk_reads" - reads0 in
          let writebacks = Metrics.counter_value "storage.pager.writebacks" - writebacks0 in
          Alcotest.(check int) "every page written back exactly once" pages writebacks;
          Alcotest.(check bool) "pages read >= pages written back" true
            (reads >= writebacks);
          Alcotest.(check bool) "the pool served some hits" true
            (Metrics.counter_value "storage.pager.pool_hits" > hits0)))

(* Frames served must equal requests sent. Single-threaded dance: the
   client connects (the handshake completes via the listen backlog),
   pipelines a handful of small frames into the socket buffer and
   half-closes; this thread then polls the server's event loop until it
   has closed the connection, and the client collects the buffered
   replies (small enough to fit the socket buffers) and the EOF. *)
let test_server_frames_registry () =
  let module Server = Hr_server.Server in
  Metrics.with_enabled true (fun () ->
      let server = Server.create_memory ~port:0 () in
      Fun.protect
        ~finally:(fun () -> Server.close server)
        (fun () ->
          let frames0 = Metrics.counter_value "server.frames_served" in
          let connections0 = Metrics.counter_value "server.connections" in
          let conn = Server.Client.connect ~timeout:10.0 ~port:(Server.port server) () in
          let requests =
            [
              ("EXEC", "CREATE DOMAIN srvsoak;");
              ("EXEC", "CREATE INSTANCE srvx OF srvsoak;");
              ("EXEC", "CREATE RELATION srvr (v: srvsoak);");
              ("EXEC", "INSERT INTO srvr VALUES (+ srvx);");
              ("EXEC", "ASK srvr (srvx);");
              ("EXEC", "EXPLAIN ANALYZE SELECT srvr WHERE v = srvx;");
              ("STATS", "");
              ("STATS", "json");
            ]
          in
          List.iter (fun (tag, payload) -> Server.Client.send conn tag payload) requests;
          Server.Client.shutdown_send conn;
          (* the server closes its end only after the EOF and after every
             reply was written, so a clean close shows the drop is done:
             the client's next recv after the replies must see EOF *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            Metrics.counter_value "server.frames_served" - frames0 < List.length requests
          do
            if Unix.gettimeofday () > deadline then Alcotest.fail "server stalled";
            ignore (Server.poll server 0.01)
          done;
          List.iter
            (fun (tag, payload) ->
              match Server.Client.recv conn with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "reply to %s %S: %s" tag payload e)
            requests;
          let rec await_close () =
            match Unix.select [ Server.Client.fd conn ] [] [] 0.0 with
            | [], _, _ ->
              if Unix.gettimeofday () > deadline then
                Alcotest.fail "server never closed the connection";
              ignore (Server.poll server 0.01);
              await_close ()
            | _ -> (
              match Server.Client.recv conn with
              | Error "server disconnected" -> ()
              | Ok _ | Error _ -> Alcotest.fail "a reply beyond the requests sent")
          in
          await_close ();
          Server.Client.close conn;
          Alcotest.(check int) "frames served = requests sent" (List.length requests)
            (Metrics.counter_value "server.frames_served" - frames0);
          Alcotest.(check int) "one connection counted" 1
            (Metrics.counter_value "server.connections" - connections0)))

let suite =
  [
    Alcotest.test_case "soak: 150 random statements" `Quick test_soak_small;
    Alcotest.test_case "soak: second seed" `Quick test_soak_negative_heavy;
    Alcotest.test_case "soak: durable engine with checkpoint + recovery" `Quick
      test_soak_durable;
    Alcotest.test_case "soak: pager registry consistency" `Quick test_pager_registry;
    Alcotest.test_case "soak: server frames = client requests" `Quick
      test_server_frames_registry;
  ]
