(* Multicore snapshot-isolation torture harness (docs/CONCURRENCY.md).

   A pool server ([reader_domains = K]) runs read-only frames on OCaml 5
   reader domains, each pinning the catalog version published at the
   last group commit. This harness races N reader connections against a
   writer replaying randomized mutation scripts and checks, for every
   single read reply, the strongest statement the design makes:

   - {b exact equality}: the reply must be byte-identical to a
     single-threaded replay of the WAL prefix [1..lsn] named by the
     reply's version tag, running the same read script;
   - {b no partial batches}: the pinned LSN must be a commit boundary —
     the WAL head as it stood after some whole writer script — never a
     mid-script LSN;
   - {b monotone pins}: version ids seen by one connection never go
     backwards;
   - {b durability floor}: a pinned LSN never exceeds the WAL head the
     writer has proven durable.

   The harness must also be able to {e fail}: with the deliberately
   seeded isolation bug ([~unsafe_publish:true] — the commit point
   publishes the live mutable catalog instead of a frozen snapshot) it
   has to detect a violation within a bounded number of rounds.

   Reproducibility: the random workload derives from one integer seed,
   printed in every failure message and overridable with
   [HRDB_TEST_SEED=n dune runtest]. *)

module Server = Hr_server.Server
module Client = Server.Client
module Eval = Hr_query.Eval
module Catalog = Hierel.Catalog
module Wal = Hr_storage.Wal

let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None ->
    (* varies run to run so CI keeps exploring; every failure message
       carries the value needed to replay it *)
    Int64.to_int (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let failf fmt =
  Printf.ksprintf
    (fun msg ->
      Alcotest.failf "%s\n(reproduce with HRDB_TEST_SEED=%d dune runtest)" msg seed)
    fmt

let with_temp_dir f =
  let dir = Filename.temp_file "hrmc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* ---- workload ---------------------------------------------------------- *)

let instances = Array.init 12 (fun i -> Printf.sprintf "i%d" i)
let relations = [| "r0"; "r1"; "r2" |]

let setup_script =
  String.concat " "
    ("CREATE DOMAIN d;"
     :: "CREATE CLASS c0 UNDER d; CREATE CLASS c1 UNDER d; CREATE CLASS c2 UNDER c0;"
     :: (Array.to_list instances
        |> List.mapi (fun i inst ->
               Printf.sprintf "CREATE INSTANCE %s OF c%d;" inst (i mod 3)))
    @ (Array.to_list relations
      |> List.map (fun r -> Printf.sprintf "CREATE RELATION %s (v: d);" r)))

let pick st arr = arr.(Random.State.int st (Array.length arr))

(* One writer script: a handful of signed-item inserts and deletes.
   Only instance-level items, and each (relation, instance) pair keeps
   one polarity forever, so statements never trip the contradiction
   checks: every one succeeds and is WAL-logged, which keeps commit
   boundaries exactly the per-script WAL heads the harness reads back. *)
let polarity rel inst = if Hashtbl.hash (rel, inst) land 1 = 0 then "+" else "-"

let gen_write st =
  let stmts = 2 + Random.State.int st 5 in
  String.concat " "
    (List.init stmts (fun _ ->
         let rel = pick st relations and inst = pick st instances in
         match Random.State.int st 3 with
         | 0 | 1 ->
           Printf.sprintf "INSERT INTO %s VALUES (%s %s);" rel (polarity rel inst) inst
         | _ -> Printf.sprintf "DELETE FROM %s VALUES (%s);" rel inst))

(* One read-only script (always offloaded on a pool server). *)
let gen_read st =
  match Random.State.int st 4 with
  | 0 -> Printf.sprintf "SELECT * FROM %s;" (pick st relations)
  | 1 -> Printf.sprintf "ASK %s (%s);" (pick st relations) (pick st instances)
  | 2 ->
    Printf.sprintf "SELECT * FROM %s WHERE v = %s;" (pick st relations)
      (pick st instances)
  | _ ->
    Printf.sprintf "SELECT * FROM %s; ASK %s (%s);" (pick st relations)
      (pick st relations) (pick st instances)

(* ---- driving the event loop from the test thread ---------------------- *)

(* The server runs in-process: the test thread pumps [Server.poll] (so
   mutations execute on this thread — the single writer) while the pool
   evaluates offloaded reads on its own domains. Client fds are checked
   with a zero-timeout select before a blocking recv. *)
let pump server = ignore (Server.poll server 0.002)

let readable fd = match Unix.select [ fd ] [] [] 0.0 with [ _ ], _, _ -> true | _ -> false

let await_replies server conns ~count ~what =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let replies = Array.make (Array.length conns) [] in
  let got = ref 0 in
  let want = Array.fold_left (fun acc c -> acc + count c) 0 conns in
  while !got < want do
    if Unix.gettimeofday () > deadline then
      failf "%s: only %d of %d replies after 30s (event loop wedged?)" what !got want;
    pump server;
    Array.iteri
      (fun i conn ->
        while
          List.length (replies.(i)) < count conn && readable (Client.fd conn)
        do
          match Client.recv_versioned conn with
          | Ok reply ->
            replies.(i) <- replies.(i) @ [ reply ];
            incr got
          | Error msg -> failf "%s: transport error: %s" what msg
        done)
      conns
  done;
  replies

(* ---- the oracle -------------------------------------------------------- *)

(* Single-threaded replay: a fresh catalog advanced strictly forward
   through the server's own WAL records. [advance_to oracle lsn] brings
   it to exactly the prefix [1..lsn]; reads are then answered by the
   very same [Eval.run_script] the reader domains use, so the expected
   reply is byte-comparable. *)
type oracle = { cat : Catalog.t; mutable at : int; mutable log : (int * string) list }
(* [log] is the not-yet-replayed WAL suffix, ascending. *)

let oracle_create () = { cat = Catalog.create (); at = 0; log = [] }

let oracle_refresh o dir =
  let records = (Wal.scan (Filename.concat dir "wal.log")).Wal.records in
  let fresh =
    List.filter_map
      (fun { Wal.lsn; stmt } -> if lsn > o.at then Some (lsn, stmt) else None)
      records
  in
  let known = match o.log with [] -> o.at | l -> fst (List.hd (List.rev l)) in
  List.iter (fun (lsn, stmt) -> if lsn > known then o.log <- o.log @ [ (lsn, stmt) ]) fresh

let advance_to o lsn =
  if lsn < o.at then failf "oracle asked to rewind: at %d, pinned %d" o.at lsn;
  let rec go () =
    match o.log with
    | (l, stmt) :: rest when l <= lsn ->
      (match Eval.run_script o.cat stmt with
      | Ok _ -> ()
      | Error msg -> failf "oracle replay of logged statement %d failed: %s" l msg);
      o.at <- l;
      o.log <- rest;
      go ()
    | _ -> ()
  in
  go ();
  if o.at < lsn then failf "oracle cannot reach lsn %d (WAL only covers %d)" lsn o.at

let expected o script =
  match Eval.run_script o.cat script with
  | Ok outputs -> (true, String.concat "\n" outputs)
  | Error msg -> (false, msg)

(* ---- the harness ------------------------------------------------------- *)

type violation = string option

(* Run [rounds] writer-vs-readers rounds against a pool server; returns
   [Some msg] on the first isolation violation (the unsafe arm wants
   one), [None] if every reply checked out. [check] failing hard is the
   safe arms' behavior; the unsafe arm collects instead. *)
let torture ~readers ~reader_domains ~rounds ~unsafe_publish () : violation =
  with_temp_dir (fun dir ->
      let server =
        Server.create_durable ~port:0 ~dir ~fsync:false ~reader_domains ~unsafe_publish ()
      in
      Fun.protect
        ~finally:(fun () -> Server.close server)
        (fun () ->
          let port = Server.port server in
          let st = Random.State.make [| seed; reader_domains; Bool.to_int unsafe_publish |] in
          let violation = ref None in
          let note_violation msg = if !violation = None then violation := Some msg in
          let check cond fmt =
            Printf.ksprintf (fun msg -> if not cond then note_violation msg) fmt
          in
          (* connect readers first, writer last: the event loop services
             newest connections first, so each round's mutation executes
             before the reads offload — the sharpest race against the
             just-published version *)
          let reader_conns =
            Array.init readers (fun _ ->
                let c = Client.connect ~timeout:30.0 ~port () in
                pump server;
                c)
          in
          let writer = Client.connect ~timeout:30.0 ~port () in
          Fun.protect
            ~finally:(fun () ->
              Array.iter Client.close reader_conns;
              Client.close writer)
            (fun () ->
              let oracle = oracle_create () in
              let boundaries = Hashtbl.create 64 in
              Hashtbl.replace boundaries 0 ();
              let wal_head () =
                List.fold_left
                  (fun acc { Wal.lsn; _ } -> max acc lsn)
                  0
                  ((Wal.scan (Filename.concat dir "wal.log")).Wal.records)
              in
              (* setup is itself a commit boundary *)
              Client.send writer "EXEC" setup_script;
              (match await_replies server [| writer |] ~count:(fun _ -> 1) ~what:"setup" with
              | [| [ (_, true, _) ] |] -> ()
              | [| [ (_, false, msg) ] |] -> failf "setup failed: %s" msg
              | _ -> failf "setup: unexpected replies");
              Hashtbl.replace boundaries (wal_head ()) ();
              let last_id = Array.make readers 0 in
              let reads_per_conn = 2 in
              for round = 1 to rounds do
                if !violation = None then begin
                  let wscript = gen_write st in
                  let rscripts =
                    Array.init readers (fun _ ->
                        Array.init reads_per_conn (fun _ -> gen_read st))
                  in
                  (* one burst: mutation + every read land in the same
                     event-loop tick whenever the kernel permits *)
                  Client.send writer "EXEC" wscript;
                  Array.iteri
                    (fun i conn ->
                      Array.iter (fun s -> Client.send conn "EXEC" s) rscripts.(i)
                      |> ignore;
                      ignore conn)
                    reader_conns;
                  (* writer ack first: once it arrives the batch is
                     synced, so the WAL covers every pin this round *)
                  (match
                     await_replies server [| writer |] ~count:(fun _ -> 1)
                       ~what:(Printf.sprintf "round %d writer" round)
                   with
                  | [| [ (_, true, _) ] |] -> ()
                  | [| [ (_, false, msg) ] |] ->
                    failf "round %d: writer script %S failed: %s" round wscript msg
                  | _ -> failf "round %d: unexpected writer replies" round);
                  let head = wal_head () in
                  Hashtbl.replace boundaries head ();
                  oracle_refresh oracle dir;
                  let replies =
                    await_replies server reader_conns
                      ~count:(fun _ -> reads_per_conn)
                      ~what:(Printf.sprintf "round %d readers" round)
                  in
                  (* verify in ascending pin order so the oracle only
                     ever replays forward *)
                  let tagged = ref [] in
                  Array.iteri
                    (fun i conn_replies ->
                      List.iteri
                        (fun j reply ->
                          match reply with
                          | Some (id, lsn), ok, body ->
                            tagged := (lsn, id, i, j, ok, body) :: !tagged
                          | None, _, _ ->
                            note_violation
                              (Printf.sprintf
                                 "round %d: reader %d reply %d was answered inline \
                                  (no version tag) on a pool server"
                                 round i j))
                        conn_replies)
                    replies;
                  List.iter
                    (fun (lsn, id, i, j, ok, body) ->
                      check (Hashtbl.mem boundaries lsn)
                        "round %d: reader %d pinned lsn %d which is not a commit \
                         boundary — a partially applied batch was visible"
                        round i lsn;
                      check (lsn <= head)
                        "round %d: reader %d pinned lsn %d beyond the durable head %d"
                        round i lsn head;
                      check (id >= last_id.(i))
                        "round %d: reader %d saw version id %d after %d — pins went \
                         backwards"
                        round i id last_id.(i);
                      last_id.(i) <- max last_id.(i) id;
                      if !violation = None then begin
                        advance_to oracle lsn;
                        let exp_ok, exp_body = expected oracle rscripts.(i).(j) in
                        check (ok = exp_ok && String.equal body exp_body)
                          "round %d: reader %d read %S at version lsn=%d diverged \
                           from single-threaded replay\n  expected (%s): %S\n  got      \
                           (%s): %S"
                          round i
                          rscripts.(i).(j)
                          lsn
                          (if exp_ok then "OK" else "ERR")
                          exp_body
                          (if ok then "OK" else "ERR")
                          body
                      end)
                    (List.sort compare !tagged)
                end
              done;
              !violation)))

(* ---- cases ------------------------------------------------------------- *)

let test_snapshot_isolation k () =
  match torture ~readers:3 ~reader_domains:k ~rounds:30 ~unsafe_publish:false () with
  | None -> ()
  | Some msg -> failf "%s" msg

(* The seeded-bug arm: with unsafe publication the harness must catch a
   violation within the time budget — if it cannot, the harness itself
   is too weak to trust. *)
let test_detects_seeded_bug () =
  let rec hunt attempts =
    if attempts = 0 then
      failf
        "unsafe_publish ran 5 x 40 rounds without a detected isolation violation — \
         the harness has lost its teeth";
    match torture ~readers:3 ~reader_domains:4 ~rounds:40 ~unsafe_publish:true () with
    | Some _ -> () (* caught, as required *)
    | None -> hunt (attempts - 1)
  in
  hunt 5

(* The PR 2 soak, extended with concurrent readers: a long run of the
   same torture harness — more readers than domains (so jobs queue), a
   longer script stream — checking every reply along the way. Lives here
   rather than in test_soak.ml because spawning a domain forbids
   [Unix.fork] for the rest of the process, and the suites after soak
   fork. The CI race lane stretches it via [HRDB_SOAK_ROUNDS]. *)
let test_soak_concurrent_readers () =
  let rounds =
    match Option.bind (Sys.getenv_opt "HRDB_SOAK_ROUNDS") int_of_string_opt with
    | Some n when n > 0 -> n
    | Some _ | None -> 60
  in
  match torture ~readers:5 ~reader_domains:2 ~rounds ~unsafe_publish:false () with
  | None -> ()
  | Some msg -> failf "soak (%d rounds): %s" rounds msg

(* Two domains evaluating the same frozen snapshot concurrently must
   answer byte-identically to a sequential run — the evaluator may keep
   no hidden mutable state that cross-domain interleaving could skew. *)
let test_domains_match_sequential () =
  let cat = Catalog.create () in
  (match Eval.run_script cat setup_script with
  | Ok _ -> ()
  | Error msg -> failf "setup: %s" msg);
  let st = Random.State.make [| seed; 77 |] in
  (match
     Eval.run_script cat
       (String.concat " "
          (List.init 30 (fun _ ->
               Printf.sprintf "INSERT INTO %s VALUES (+ %s);" (pick st relations)
                 (pick st instances))))
   with
  | Ok _ -> ()
  | Error msg -> failf "populate: %s" msg);
  Catalog.freeze cat;
  let snap = Catalog.snapshot cat in
  let scripts = Array.init 40 (fun _ -> gen_read st) in
  let run_all () =
    Array.map
      (fun s ->
        match Eval.run_script snap s with
        | Ok outs -> String.concat "\n" outs
        | Error msg -> "ERR " ^ msg)
      scripts
  in
  let sequential = run_all () in
  let d1 = Domain.spawn run_all and d2 = Domain.spawn run_all in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Array.iteri
    (fun i s ->
      if not (String.equal sequential.(i) r1.(i) && String.equal sequential.(i) r2.(i))
      then
        failf "read %S: concurrent domains diverged from sequential\n  seq: %S\n  d1: %S\n  d2: %S"
          s sequential.(i) r1.(i) r2.(i))
    scripts

let suite =
  [
    Alcotest.test_case "snapshot isolation, 1 reader domain" `Quick
      (test_snapshot_isolation 1);
    Alcotest.test_case "snapshot isolation, 2 reader domains" `Quick
      (test_snapshot_isolation 2);
    Alcotest.test_case "snapshot isolation, 4 reader domains" `Quick
      (test_snapshot_isolation 4);
    Alcotest.test_case "detects the seeded unsafe-publish bug" `Quick
      test_detects_seeded_bug;
    Alcotest.test_case "soak with concurrent readers" `Slow
      test_soak_concurrent_readers;
    Alcotest.test_case "two domains match sequential evaluation" `Quick
      test_domains_match_sequential;
  ]
