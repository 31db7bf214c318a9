(* Sharding tests: the shard map's cover rule, and a real 3-shard
   deployment — forked shard servers plus a forked router — checked for
   routing determinism, cross-subtree replication fan-out, byte-identity
   with a single-node server (also under injected shard faults), degraded
   reads after a shard dies, and the offline placement verifier
   ([hrdb fsck --against MAP], F020/F021). *)

module Server = Hr_server.Server
module Client = Server.Client
module Router = Hr_shard.Router
module Shard_map = Hr_check.Shard_map
module Fsck = Hr_check.Fsck
module Wire = Hr_frames.Wire
module Hierarchy = Hr_hierarchy.Hierarchy
module Eval = Hr_query.Eval
module Prng = Hr_util.Prng
open Hierel

(* Replay contract shared with test_fuzz: one integer seed
   drives the randomized byte-identity workload below; replay a failure
   exactly with [HRDB_TEST_SEED=n dune runtest]. *)
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
    "test_shard: workload RNG seed %d (replay with HRDB_TEST_SEED=%d)\n%!" seed
    seed

(* ---- shard map unit tests -------------------------------------------- *)

let sample_map =
  "# comment\n\
   shard 0 127.0.0.1:7800 /tmp/s0\n\
   shard 1 127.0.0.1:7801\n\
   shard 2 127.0.0.1:7802 /tmp/s2\n\
   subtree penguin 1\n\
   subtree sparrow 2\n\
   default 0\n"

let test_map_parse () =
  match Shard_map.parse sample_map with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok map ->
    Alcotest.(check (list int)) "ids" [ 0; 1; 2 ] (Shard_map.ids map);
    Alcotest.(check int) "default" 0 map.Shard_map.default;
    Alcotest.(check (list (pair string int)))
      "subtrees"
      [ ("penguin", 1); ("sparrow", 2) ]
      map.Shard_map.subtrees;
    (match Shard_map.shard map 1 with
    | Some s ->
      Alcotest.(check int) "port" 7801 s.Shard_map.port;
      Alcotest.(check bool) "no dir" true (s.Shard_map.dir = None)
    | None -> Alcotest.fail "shard 1 missing");
    (* render round-trips *)
    (match Shard_map.parse (Shard_map.render map) with
    | Ok map' ->
      Alcotest.(check string) "round trip" (Shard_map.render map)
        (Shard_map.render map')
    | Error e -> Alcotest.failf "re-parse: %s" e)

let test_map_rejects () =
  let bad text = match Shard_map.parse text with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "no shards" true (bad "default 0\n");
  Alcotest.(check bool) "dup id" true
    (bad "shard 0 h:1\nshard 0 h:2\n");
  Alcotest.(check bool) "undeclared subtree owner" true
    (bad "shard 0 h:1\nsubtree x 9\n");
  Alcotest.(check bool) "undeclared default" true (bad "shard 0 h:1\ndefault 9\n");
  Alcotest.(check bool) "garbage" true (bad "shard zero h:1\n")

let test_cover () =
  let cat = Catalog.create () in
  (match
     Eval.run_script cat
       "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
        CREATE CLASS penguin UNDER bird; CREATE CLASS sparrow UNDER bird;\n\
        CREATE INSTANCE tweety OF penguin; CREATE INSTANCE jack OF sparrow;\n\
        CREATE INSTANCE rex OF animal;"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed: %s" e);
  let h = Catalog.hierarchy cat "animal" in
  let map =
    match Shard_map.parse sample_map with
    | Ok m -> m
    | Error e -> Alcotest.failf "map: %s" e
  in
  let cover name = Shard_map.cover map h (Hierarchy.find_exn h name) in
  (* exception locality: subtree members live on exactly one shard *)
  Alcotest.(check (list int)) "tweety" [ 1 ] (cover "tweety");
  Alcotest.(check (list int)) "penguin" [ 1 ] (cover "penguin");
  Alcotest.(check (list int)) "jack" [ 2 ] (cover "jack");
  (* nothing subsumes rex: the default shard owns it *)
  Alcotest.(check (list int)) "rex" [ 0 ] (cover "rex");
  (* a cross-subtree generalization replicates everywhere it reaches *)
  Alcotest.(check (list int)) "bird" [ 0; 1; 2 ] (cover "bird");
  Alcotest.(check (list int)) "animal" [ 0; 1; 2 ] (cover "animal");
  (* determinism *)
  Alcotest.(check (list int)) "stable" (cover "bird") (cover "bird")

(* A DDL run is packed into as few frame-sized scripts as fit, in order. *)
let test_run_scripts () =
  let scripts = Hr_shard.Render.scripts in
  let a = "CREATE DOMAIN a;" and b = "CREATE DOMAIN b;" and c = "CREATE DOMAIN c;" in
  Alcotest.(check (list string)) "nothing" [] (scripts ~limit:100 []);
  Alcotest.(check (list string)) "one script" [ String.concat "\n" [ a; b; c ] ]
    (scripts ~limit:100 [ a; b; c ]);
  Alcotest.(check (list string)) "split at the limit"
    [ a ^ "\n" ^ b; c ] (scripts ~limit:33 [ a; b; c ]);
  Alcotest.(check (list string)) "an oversize statement stands alone" [ a; b; c ]
    (scripts ~limit:5 [ a; b; c ])

(* ---- forked 3-shard deployment --------------------------------------- *)

let spawn_server ?dir () =
  let server =
    match dir with
    | Some dir -> Server.create_durable ~port:0 ~dir ()
    | None -> Server.create_memory ~port:0 ()
  in
  let port = Server.port server in
  match Unix.fork () with
  | 0 ->
    (try Server.serve_forever server with _ -> ());
    Unix._exit 0
  | pid -> (port, pid)

let spawn_router map =
  let router = Router.create ~port:0 ~timeout:5.0 ~map () in
  let port = Router.port router in
  match Unix.fork () with
  | 0 ->
    (try Router.serve_forever router with _ -> ());
    Unix._exit 0
  | pid -> (port, pid)

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let temp_dir tag =
  let d = Filename.temp_file ("hrshard_" ^ tag) "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* A 3-shard deployment over the penguin/sparrow split. Returns
   (map, map_file, router port, shard ports, all pids, dirs). *)
let deploy ?(durable = false) () =
  let dirs =
    if durable then List.map temp_dir [ "s0"; "s1"; "s2" ] else []
  in
  let shards =
    if durable then List.map (fun d -> spawn_server ~dir:d ()) dirs
    else List.init 3 (fun _ -> spawn_server ())
  in
  let ports = List.map fst shards in
  let map_text =
    String.concat "\n"
      (List.concat
         [
           List.mapi
             (fun i p ->
               Printf.sprintf "shard %d 127.0.0.1:%d%s" i p
                 (if durable then " " ^ List.nth dirs i else ""))
             ports;
           [ "subtree penguin 1"; "subtree sparrow 2"; "default 0"; "" ];
         ])
  in
  let map =
    match Shard_map.parse map_text with
    | Ok m -> m
    | Error e -> Alcotest.failf "deploy map: %s" e
  in
  let map_file = Filename.temp_file "hrshard" ".map" in
  let oc = open_out map_file in
  output_string oc map_text;
  close_out oc;
  let rport, rpid = spawn_router map in
  (map, map_file, rport, ports, rpid :: List.map snd shards, dirs)

let ddl =
  "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
   CREATE CLASS penguin UNDER bird; CREATE CLASS sparrow UNDER bird;\n\
   CREATE INSTANCE tweety OF penguin; CREATE INSTANCE opus OF penguin;\n\
   CREATE INSTANCE jack OF sparrow; CREATE INSTANCE rex OF animal;\n\
   CREATE RELATION flies (who: animal);"

let exec_ok conn script =
  match Client.exec conn script with
  | Ok out -> out
  | Error e -> Alcotest.failf "exec %S: %s" script e

let contains haystack needle =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || find (i + 1))
  in
  find 0

(* The stored tuples of [rel] on one shard, via the router's own pull
   frame: "<sign> <comma-joined node ids>" lines, sorted. *)
let pull_tuples port rel =
  let conn = Client.connect ~timeout:10.0 ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      Client.send conn Wire.shard_pull rel;
      match Client.recv_any conn with
      | Error e -> Alcotest.failf "pull %s: %s" rel e
      | Ok (tag, payload) ->
        Alcotest.(check string) "pull reply tag" Wire.shard_part tag;
        let body =
          match String.index_opt payload '\n' with
          | Some i -> String.sub payload (i + 1) (String.length payload - i - 1)
          | None -> Alcotest.failf "pull %s: no LSN prefix in %S" rel payload
        in
        String.split_on_char '\n' body
        |> List.filter (fun l -> l <> "")
        |> List.sort compare)

(* A counter from a STATS reply ("  <name>  <value>" lines). *)
let counter port name =
  let conn = Client.connect ~timeout:10.0 ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      match Client.stats conn with
      | Error e -> Alcotest.failf "stats: %s" e
      | Ok text ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line |> List.filter (( <> ) "") with
            | [ n; v ] when n = name -> int_of_string_opt v
            | _ -> None)
          (String.split_on_char '\n' text)
        |> Option.value ~default:0)

(* The text a router error gives for shard [k] of [ports]. *)
let unreachable ports k =
  Printf.sprintf "shard %d (127.0.0.1:%d) unreachable" k (List.nth ports k)

let exec_on port script =
  let c = Client.connect ~timeout:10.0 ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> exec_ok c script)

(* A shard's SHARD_ACK names the INSERT rows it stored before the
   script, which the router's undo must leave in place. *)
let test_ack_names_held_rows () =
  let port, pid = spawn_server () in
  Fun.protect
    ~finally:(fun () -> kill pid)
    (fun () ->
      let conn = Client.connect ~timeout:10.0 ~port () in
      ignore (exec_ok conn ddl);
      let held script =
        Client.send conn Wire.shard_exec script;
        match Client.recv_any conn with
        | Ok (tag, payload) when tag = Wire.shard_ack -> (
          match
            Result.bind (Wire.parse_lsn_prefixed payload) (fun (_, body) ->
                Wire.held_rows body)
          with
          | Ok rows -> rows
          | Error e -> Alcotest.failf "ack of %S: %s" script e)
        | Ok (tag, payload) -> Alcotest.failf "%S answered %s %S" script tag payload
        | Error e -> Alcotest.failf "%S: %s" script e
      in
      Alcotest.(check (list int)) "nothing held" []
        (held "INSERT INTO flies VALUES (+ tweety);");
      Alcotest.(check (list int)) "row 2 held; row 3 repeats a row of this INSERT" [ 2 ]
        (held "INSERT INTO flies VALUES (+ jack), (+ tweety), (+ jack);");
      Alcotest.(check (list int)) "a DELETE holds nothing" []
        (held "DELETE FROM flies VALUES (tweety);");
      Alcotest.(check bool) "a malformed row list is refused" true
        (Result.is_error (Wire.held_rows "1,x\n1 tuple(s) inserted into flies"));
      (* a refusal names the refused row of the failing statement *)
      let refusal script =
        Client.send conn Wire.shard_exec script;
        match Client.recv_any conn with
        | Ok ("ERR", payload) -> (
          match Wire.rejected_row payload with
          | Ok (row, _) -> row
          | Error e -> Alcotest.failf "refusal of %S: %s" script e)
        | Ok (tag, payload) -> Alcotest.failf "%S answered %s %S" script tag payload
        | Error e -> Alcotest.failf "%S: %s" script e
      in
      Alcotest.(check (option int)) "row 2 contradicts a stored tuple" (Some 2)
        (refusal "INSERT INTO flies VALUES (+ opus), (- jack), (- opus);");
      Alcotest.(check (option int)) "row 3 contradicts row 1" (Some 3)
        (refusal "INSERT INTO flies VALUES (+ rex), (+ opus), (- rex);");
      Alcotest.(check (option int)) "an unknown relation names no row" None
        (refusal "INSERT INTO nosuch VALUES (+ rex);");
      Client.close conn)

(* A node id local to [ddl]'s hierarchy: ids are assigned in DDL order,
   so they agree with every server that ran [ddl]. *)
let ddl_node name =
  let cat = Catalog.create () in
  (match Eval.run_script cat ddl with Ok _ -> () | Error e -> Alcotest.failf "ddl: %s" e);
  Hierarchy.find_exn (Catalog.hierarchy cat "animal") name

(* A SHARD_PULL whose node line is not a node of the relation's first
   hierarchy, or names an unknown relation, gets one ERR; the shard
   keeps serving the same connection. *)
let test_malformed_pull () =
  let port, pid = spawn_server () in
  Fun.protect
    ~finally:(fun () -> kill pid)
    (fun () ->
      let conn = Client.connect ~timeout:10.0 ~port () in
      ignore (exec_ok conn ddl);
      ignore (exec_ok conn "INSERT INTO flies VALUES (+ tweety), (+ jack), (- ALL bird);");
      let pull payload =
        Client.send conn Wire.shard_pull payload;
        match Client.recv_any conn with
        | Ok reply -> reply
        | Error e -> Alcotest.failf "pull %S: %s" payload e
      in
      List.iter
        (fun payload ->
          match pull payload with
          | "ERR", _ -> ()
          | tag, body -> Alcotest.failf "pull %S answered %s %S" payload tag body)
        [ "flies\nabc"; "flies\n99999"; "flies\n-1"; "nosuch\n0" ];
      match pull (Printf.sprintf "flies\n%d" (ddl_node "tweety")) with
      | tag, payload when tag = Wire.shard_part -> (
        match Wire.parse_lsn_prefixed payload with
        | Ok (_, body) ->
          let line name sign = Printf.sprintf "%s %d" sign (ddl_node name) in
          Alcotest.(check (list string)) "tweety's meeting set, in structural order"
            [ line "bird" "-"; line "tweety" "+" ]
            (List.filter (( <> ) "") (String.split_on_char '\n' body))
        | Error e -> Alcotest.failf "part: %s" e)
      | tag, body -> Alcotest.failf "a well-formed pull answered %s %S" tag body)

let test_routing_and_fanout () =
  let _, _, rport, ports, pids, _ = deploy () in
  Fun.protect
    ~finally:(fun () -> List.iter kill pids)
    (fun () ->
      let conn = Client.connect ~timeout:10.0 ~port:rport () in
      ignore (exec_ok conn ddl);
      ignore (exec_ok conn "INSERT INTO flies VALUES (+ tweety);");
      ignore (exec_ok conn "INSERT INTO flies VALUES (+ jack);");
      ignore (exec_ok conn "INSERT INTO flies VALUES (+ rex);");
      ignore (exec_ok conn "INSERT INTO flies VALUES (- ALL bird);");
      Client.close conn;
      let t0, t1, t2 =
        match List.map (fun p -> pull_tuples p "flies") ports with
        | [ a; b; c ] -> (a, b, c)
        | _ -> assert false
      in
      (* exception locality: each instance tuple is stored on exactly
         the shard owning its subtree, nowhere else *)
      Alcotest.(check int) "default shard: rex + replica" 2 (List.length t0);
      Alcotest.(check int) "penguin shard: tweety + replica" 2 (List.length t1);
      Alcotest.(check int) "sparrow shard: jack + replica" 2 (List.length t2);
      (* the cross-subtree (- ALL bird) replicated to all three: its
         line is the one common to every shard *)
      let common =
        List.filter (fun l -> List.mem l t1 && List.mem l t2) t0
      in
      Alcotest.(check int) "one replicated tuple" 1 (List.length common);
      Alcotest.(check bool) "the replica is the negation" true
        (String.length (List.hd common) > 0 && (List.hd common).[0] = '-'))

(* Every statement answered by the router must be byte-identical to a
   single-node server running the same script — including errors,
   cross-subtree queries, and repartitioned LET/CONSOLIDATE results. *)
let test_byte_identity () =
  let _, _, rport, _, pids, _ = deploy () in
  let sport, spid = spawn_server () in
  Fun.protect
    ~finally:(fun () -> List.iter kill (spid :: pids))
    (fun () ->
      let r = Client.connect ~timeout:10.0 ~port:rport () in
      let s = Client.connect ~timeout:10.0 ~port:sport () in
      let statements =
        [
          ddl;
          (* a rejected multi-shard INSERT is undone on the shards that
             acked it, but only for rows they newly stored: the penguin
             shard already held (+ tweety) and must keep it, whether the
             INSERT is a frame of its own or the first statement of a
             script *)
          "INSERT INTO flies VALUES (+ tweety), (+ jack);";
          "INSERT INTO flies VALUES (+ tweety), (- jack);";
          "ASK flies (tweety);";
          "INSERT INTO flies VALUES (+ tweety), (- jack); ASK flies (jack);";
          "ASK flies (tweety);";
          "DELETE FROM flies VALUES (tweety), (jack);";
          "INSERT INTO flies VALUES (+ ALL bird), (+ rex);";
          "INSERT INTO flies VALUES (- tweety);";
          "SELECT * FROM flies;";
          "SELECT * FROM flies WHERE who = tweety;";
          "SELECT * FROM flies WHERE who = jack;";
          "SELECT * FROM flies WHERE who = ALL bird;";
          "ASK flies (tweety);";
          "ASK flies (opus);";
          "ASK flies (rex);";
          "EXPLAIN flies (tweety);";
          "CHECK flies;";
          "SHOW RELATIONS;";
          "SHOW HIERARCHY animal;";
          "LET grounded = SELECT flies WHERE who = ALL penguin;";
          "SELECT * FROM grounded;";
          "CONSOLIDATE flies;";
          "SELECT * FROM flies;";
          "EXPLICATE grounded;";
          "SELECT * FROM grounded;";
          "DELETE FROM flies VALUES (rex);";
          "SELECT * FROM flies WHERE who = rex;";
          "DROP RELATION grounded;";
          "SELECT * FROM nosuch;";
          "INSERT INTO flies VALUES (+ nope);";
          "EXPLAIN ESTIMATE flies;";
        ]
      in
      List.iter
        (fun stmt ->
          let got = Client.exec r stmt in
          let want = Client.exec s stmt in
          match (got, want) with
          | Ok g, Ok w ->
            Alcotest.(check string) (Printf.sprintf "OK %S" stmt) w g
          | Error g, Error w ->
            Alcotest.(check string) (Printf.sprintf "ERR %S" stmt) w g
          | Ok g, Error w ->
            Alcotest.failf "%S: router Ok %S, single node Error %S" stmt g w
          | Error g, Ok w ->
            Alcotest.failf "%S: router Error %S, single node Ok %S" stmt g w)
        statements;
      (* EXPLAIN ANALYZE is the one deliberate departure: the router
         appends its per-shard breakdown *)
      (match Client.exec r "EXPLAIN ANALYZE flies;" with
      | Ok out ->
        Alcotest.(check bool) "per-shard breakdown" true
          (contains out "per-shard breakdown")
      | Error e -> Alcotest.failf "analyze: %s" e);
      Client.close r;
      Client.close s)

(* An ASK routed to one shard merges only the stored tuples that meet
   its item, not the shard's whole slice. *)
let test_scoped_read_pulls_meeting_set () =
  let _, _, rport, _, pids, _ = deploy () in
  let sport, spid = spawn_server () in
  Fun.protect
    ~finally:(fun () -> List.iter kill (spid :: pids))
    (fun () ->
      let r = Client.connect ~timeout:10.0 ~port:rport () in
      let s = Client.connect ~timeout:10.0 ~port:sport () in
      List.iter
        (fun stmt ->
          Alcotest.(check string) stmt (exec_ok s stmt) (exec_ok r stmt))
        [
          ddl;
          "INSERT INTO flies VALUES (- ALL animal), (+ ALL bird), (- ALL penguin), \
           (+ tweety), (- opus), (+ jack), (+ rex);";
        ];
      let merged () = counter rport "shard.merged_tuples" in
      let before = merged () in
      Alcotest.(check string) "the answer is one node's" (exec_ok s "ASK flies (tweety);")
        (exec_ok r "ASK flies (tweety);");
      (* the penguin shard holds ALL animal, ALL bird, ALL penguin,
         tweety and opus; all but opus meet tweety *)
      Alcotest.(check int) "tuples meeting tweety" 4 (merged () - before);
      Client.close r;
      Client.close s)

(* Seeded differential of the scoped reads — ASK, EXPLAIN and SELECT on
   the first attribute, the reads a router narrows to the probed node's
   meeting set — against one node, over a random multi-parent hierarchy
   whose classes span the shard map's subtrees. [tint] has two
   attributes, and [amb] holds a conflict that DDL brought in after its
   tuples, so error texts are compared too. *)
let test_scoped_reads_match_one_node () =
  let _, _, rport, _, pids, _ = deploy () in
  let sport, spid = spawn_server () in
  Fun.protect
    ~finally:(fun () -> List.iter kill (spid :: pids))
    (fun () ->
      let r = Client.connect ~timeout:10.0 ~port:rport () in
      let s = Client.connect ~timeout:10.0 ~port:sport () in
      let rng = Prng.create (Int64.of_int (seed lxor 0x5C0)) in
      let show = function Ok g -> "Ok " ^ g | Error g -> "Error " ^ g in
      let differ stmt got want =
        Alcotest.failf "(seed %d) %S: router %s, single node %s" seed stmt (show got)
          (show want)
      in
      let same stmt =
        let got = Client.exec r stmt and want = Client.exec s stmt in
        if got <> want then differ stmt got want
      in
      (* The random writes only build the state the reads are checked
         on: each goes to the single node once the router took it, and
         must then be taken there too. (A router can refuse a write one
         node takes: a shard checks the ambiguity constraint over its
         whole slice, also at items outside its subtrees, whose
         resolving tuples live on other shards.) *)
      let write stmt =
        match Client.exec r stmt with
        | Ok _ as got ->
          let want = Client.exec s stmt in
          if got <> want then differ stmt got want
        | Error _ -> ()
      in
      let classes = ref [| "animal"; "bird"; "penguin"; "sparrow" |] in
      let instances = ref [||] in
      let colors = ref [| "color" |] and hues = ref [||] in
      let parents pool =
        let a = Prng.pick rng !pool in
        let b = Prng.pick rng !pool in
        if a = b || Prng.bernoulli rng 0.4 then a else a ^ ", " ^ b
      in
      same
        "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
         CREATE CLASS penguin UNDER bird; CREATE CLASS sparrow UNDER bird;\n\
         CREATE DOMAIN color;";
      for i = 1 to 6 do
        let c = Printf.sprintf "k%d" i in
        same (Printf.sprintf "CREATE CLASS %s UNDER %s;" c (parents classes));
        classes := Array.append !classes [| c |]
      done;
      for i = 1 to 10 do
        let n = Printf.sprintf "i%d" i in
        same (Printf.sprintf "CREATE INSTANCE %s OF %s;" n (parents classes));
        instances := Array.append !instances [| n |]
      done;
      for i = 1 to 2 do
        let c = Printf.sprintf "c%d" i in
        same (Printf.sprintf "CREATE CLASS %s UNDER color;" c);
        colors := Array.append !colors [| c |]
      done;
      for i = 1 to 4 do
        let n = Printf.sprintf "h%d" i in
        same (Printf.sprintf "CREATE INSTANCE %s OF %s;" n (parents colors));
        hues := Array.append !hues [| n |]
      done;
      same
        "CREATE RELATION flies (who: animal); CREATE RELATION amb (who: animal);\n\
         CREATE RELATION tint (who: animal, hue: color);";
      let value classes instances =
        if Prng.bernoulli rng 0.5 then "ALL " ^ Prng.pick rng classes
        else Prng.pick rng instances
      in
      let who () = value !classes !instances and hue () = value !colors !hues in
      let sign () = if Prng.bernoulli rng 0.6 then "+" else "-" in
      for _ = 1 to 30 do
        write (Printf.sprintf "INSERT INTO flies VALUES (%s %s);" (sign ()) (who ()));
        write (Printf.sprintf "INSERT INTO tint VALUES (%s %s, %s);" (sign ()) (who ()) (hue ()));
        if Prng.bernoulli rng 0.2 then
          write (Printf.sprintf "INSERT INTO amb VALUES (%s %s);" (sign ()) (who ()))
      done;
      (* two fresh classes in different subtrees, then an instance under
         both: [amb] conflicts there *)
      same
        "CREATE CLASS pa UNDER penguin; CREATE CLASS sb UNDER sparrow;\n\
         INSERT INTO amb VALUES (+ ALL pa), (- ALL sb);\n\
         CREATE INSTANCE both OF pa, sb;";
      classes := Array.append !classes [| "pa"; "sb" |];
      instances := Array.append !instances [| "both" |];
      let probes =
        Array.to_list (Array.map (fun c -> "ALL " ^ c) !classes)
        @ Array.to_list !instances
      in
      List.iter
        (fun v ->
          let name =
            match String.index_opt v ' ' with
            | Some i -> String.sub v (i + 1) (String.length v - i - 1)
            | None -> v
          in
          List.iter
            (fun (rel, args) ->
              same (Printf.sprintf "ASK %s (%s%s);" rel v args);
              same (Printf.sprintf "ASK %s (%s%s) UNDER ON-PATH;" rel v args);
              same (Printf.sprintf "EXPLAIN %s (%s%s);" rel v args);
              same (Printf.sprintf "SELECT * FROM %s WHERE who = %s;" rel name);
              same (Printf.sprintf "SELECT * FROM %s WHERE who = ALL %s;" rel name))
            [ ("flies", ""); ("amb", ""); ("tint", ", " ^ hue ()) ])
        probes;
      List.iter same
        [
          "ASK flies (nosuch);";
          "ASK nosuch (i1);";
          "EXPLAIN tint (i1, nosuch);";
          "EXPLAIN tint (nosuch, h1);";
          "SELECT * FROM flies WHERE who = nosuch;";
          "SELECT * FROM tint WHERE who = ALL nosuch;";
          "SELECT * FROM nosuch WHERE who = i1;";
          "SELECT * FROM flies WHERE nosuch = i1;";
          "ASK tint (i1);";
        ];
      Client.close r;
      Client.close s)

(* Where the randomized harness stands: every shard healthy, one
   shard's replica sign-flipped directly, or one shard killed. *)
type fault = Healthy | Flipped | Dead of int

(* Randomized byte-identity under client-pipelined writes, with faults
   injected between bursts. The client sends a burst of several
   mutations before reading any reply; the router answers it frame by
   frame, each write running to its last shard reply before the next
   starts, so any reordering or stale reply shows up as a divergence
   from the single node; the SELECT after every batch is compared too,
   so per-batch state is checked, not just the end state.

   Fault windows: a replicated tuple's sign flipped directly on one
   shard (which then also refuses writes), flipped back after one or two
   bursts; and, last, one shard killed. No router reply ever contains a
   protocol error, and [shard.dead] counts only the killed shard.
   Outside a window every reply equals the single node's. Inside one,
   the single node replays only what it can be compared on: a router
   [Ok] must equal the single node's reply; a refusal is not replayed,
   except that with a shard dead an error that does not name that shard
   as unreachable must be the single node's own error. Once the flip is
   repaired, the full extension matches the single node again. *)
let test_randomized_identity () =
  let _, _, rport, ports, pids, _ = deploy () in
  let sport, spid = spawn_server () in
  Fun.protect
    ~finally:(fun () -> List.iter kill (spid :: pids))
    (fun () ->
      let r = Client.connect ~timeout:10.0 ~port:rport () in
      let s = Client.connect ~timeout:10.0 ~port:sport () in
      let rng = Prng.create (Int64.of_int (seed lxor 0x5AD)) in
      let instances = ref [| "tweety"; "opus"; "jack"; "rex" |] in
      let classes = ref [| "bird"; "penguin"; "sparrow"; "animal" |] in
      let value () =
        if Prng.bernoulli rng 0.4 then "ALL " ^ Prng.pick rng !classes
        else Prng.pick rng !instances
      in
      let sign () = if Prng.bernoulli rng 0.7 then "+" else "-" in
      (* A DDL run, possibly with INSERTs between its statements and
         sometimes a statement both sides must reject (a duplicate
         name). Names are registered as generated: a rejected run's
         earlier statements apply on both sides, later ones on neither,
         so a name may be unknown later — also identically on both. *)
      let fresh = ref 0 in
      let ddl_frame () =
        let stmt () =
          incr fresh;
          match Prng.int rng 6 with
          | 0 | 1 ->
            let n = Printf.sprintf "n%d" !fresh in
            instances := Array.append !instances [| n |];
            Printf.sprintf "CREATE INSTANCE %s OF %s;" n (Prng.pick rng !classes)
          | 2 ->
            let c = Printf.sprintf "k%d" !fresh in
            classes := Array.append !classes [| c |];
            Printf.sprintf "CREATE CLASS %s UNDER %s;" c (Prng.pick rng !classes)
          | 3 | 4 -> Printf.sprintf "INSERT INTO flies VALUES (+ %s);" (Prng.pick rng !instances)
          | _ -> "CREATE INSTANCE tweety OF bird;"
        in
        String.concat " " (List.init (1 + Prng.int rng 4) (fun _ -> stmt ()))
      in
      (* Multi-row INSERTs name instances only, so the engine can refuse
         one only as a direct contradiction, at a row. *)
      let mutation () =
        if Prng.bernoulli rng 0.25 then Printf.sprintf "DELETE FROM flies VALUES (%s);" (value ())
        else if Prng.bernoulli rng 0.3 then
          Printf.sprintf "INSERT INTO flies VALUES %s;"
            (String.concat ", "
               (List.init (2 + Prng.int rng 2) (fun _ ->
                    Printf.sprintf "(%s %s)" (sign ()) (Prng.pick rng !instances))))
        else Printf.sprintf "INSERT INTO flies VALUES (%s %s);" (sign ()) (value ())
      in
      let fault = ref Healthy in
      let show = function
        | Ok g -> Printf.sprintf "Ok %S" g
        | Error g -> Printf.sprintf "Error %S" g
      in
      let mismatch stmt got want =
        Alcotest.failf "(seed %d) %S: router %s, single node %s" seed stmt (show got)
          (show want)
      in
      (* One burst of single-statement EXEC frames sent back-to-back
         before any reply is read; the router answers them in arrival
         order, one at a time, with no oracle admission. Returns the
         router's replies. *)
      let burst stmts =
        List.iter (fun stmt -> Client.send r "EXEC" stmt) stmts;
        if !fault = Healthy then List.iter (fun stmt -> Client.send s "EXEC" stmt) stmts;
        List.map
          (fun stmt ->
            let got = Client.recv r in
            (match got with
            | (Ok g | Error g) when contains g "protocol error" ->
              Alcotest.failf "(seed %d) %S: %s" seed stmt (show got)
            | _ -> ());
            (match (!fault, got) with
            | Healthy, _ ->
              let want = Client.recv s in
              if got <> want then mismatch stmt got want
            | Flipped, Error _ -> ()
            | Dead k, Error g when contains g (unreachable ports k) -> ()
            | (Flipped | Dead _), _ ->
              let want = Client.exec s stmt in
              if got <> want then mismatch stmt got want);
            got)
          stmts
      in
      let compare_exec stmt = List.hd (burst [ stmt ]) in
      let check_dead () =
        Alcotest.(check int)
          (Printf.sprintf "(seed %d) shard.dead counts only the killed shard" seed)
          (match !fault with Dead _ -> 1 | Healthy | Flipped -> 0)
          (counter rport "shard.dead")
      in
      (* Flip shard k's replica of [ALL c] (stored on every shard: both
         classes span the map); returns the repair. *)
      let flip () =
        let c = Prng.pick rng [| "bird"; "animal" |] in
        let stored =
          match compare_exec (Printf.sprintf "INSERT INTO flies VALUES (+ ALL %s);" c) with
          | Ok _ -> "+"
          | Error g when contains g "direct contradiction" -> "-"
          | Error g -> Alcotest.failf "(seed %d) planting ALL %s: %s" seed c g
        in
        let port = List.nth ports (Prng.int rng 3) in
        let rewrite sign =
          Printf.sprintf
            "DELETE FROM flies VALUES (ALL %s); INSERT INTO flies VALUES (%s ALL %s);" c
            sign c
        in
        let before = pull_tuples port "flies" in
        ignore (exec_on port (rewrite (if stored = "+" then "-" else "+")));
        let flipped = List.filter (fun l -> not (List.mem l before)) (pull_tuples port "flies") in
        Alcotest.(check int) "one tuple flipped" 1 (List.length flipped);
        fault := Flipped;
        fun () ->
          (* a routed DELETE inside the window may have removed it everywhere *)
          if List.mem (List.hd flipped) (pull_tuples port "flies") then
            ignore (exec_on port (rewrite stored));
          fault := Healthy;
          ignore (compare_exec "SELECT * FROM flies;")
      in
      ignore (compare_exec ddl);
      let flips = ref 0 and repair = ref None in
      for round = 1 to 12 do
        if !repair = None && round > 1 && (Prng.bernoulli rng 0.3 || (round = 6 && !flips = 0))
        then begin
          incr flips;
          repair := Some (1 + Prng.int rng 2, flip ())
        end;
        let healthy = !fault = Healthy in
        ignore
          (burst
             (List.init (2 + Prng.int rng 4) (fun _ ->
                  if healthy && Prng.bernoulli rng 0.2 then ddl_frame () else mutation ())));
        if healthy && Prng.bernoulli rng 0.5 then ignore (compare_exec (ddl_frame ()));
        ignore (compare_exec "SELECT * FROM flies;");
        check_dead ();
        match !repair with
        | Some (1, fix) ->
          repair := None;
          fix ()
        | Some (n, fix) -> repair := Some (n - 1, fix)
        | None -> ()
      done;
      ignore (compare_exec "SHOW HIERARCHY animal;");
      ignore (compare_exec "CONSOLIDATE flies;");
      ignore (compare_exec "SELECT * FROM flies;");
      (* last: one shard killed; the read that finds it dead names it *)
      let k = Prng.int rng 3 in
      kill (List.nth pids (k + 1));
      fault := Dead k;
      (match compare_exec "SELECT * FROM flies;" with
      | Error g when contains g (unreachable ports k) -> ()
      | got -> Alcotest.failf "(seed %d) read after killing shard %d: %s" seed k (show got));
      for _ = 1 to 3 do
        ignore (burst (List.init (2 + Prng.int rng 4) (fun _ -> mutation ())));
        ignore (compare_exec "SELECT * FROM flies;");
        check_dead ()
      done;
      Client.close r;
      Client.close s)

(* A frame's run of DDL reaches each shard as one SHARD_EXEC, so each
   shard publishes once for it. A run the router rejects at statement k
   is answered with a single node's exact error and leaves statements
   1..k-1 on every shard. *)
let test_ddl_run_is_one_broadcast () =
  let _, _, rport, ports, pids, _ = deploy () in
  let sport, spid = spawn_server () in
  Fun.protect
    ~finally:(fun () -> List.iter kill (spid :: pids))
    (fun () ->
      let r = Client.connect ~timeout:10.0 ~port:rport () in
      let s = Client.connect ~timeout:10.0 ~port:sport () in
      let broadcasts () = counter rport "shard.broadcasts" in
      let published () = List.map (fun p -> counter p "exec.published_versions") ports in
      let b0 = broadcasts () and p0 = published () in
      ignore (exec_ok r ddl);
      Alcotest.(check int) "one broadcast for nine statements" (b0 + 1) (broadcasts ());
      Alcotest.(check (list int)) "one publish per shard"
        (List.map succ p0) (published ());
      ignore (exec_ok s ddl);
      let frame =
        "CREATE CLASS fish UNDER animal; CREATE INSTANCE nemo OF fish;\n\
         CREATE INSTANCE eel OF nosuch; CREATE INSTANCE dory OF fish;"
      in
      let b1 = broadcasts () in
      (match (Client.exec r frame, Client.exec s frame) with
      | Error got, Error want -> Alcotest.(check string) "single node's error" want got
      | _ -> Alcotest.fail "the frame must fail on both sides");
      Alcotest.(check int) "the accepted prefix is one broadcast" (b1 + 1) (broadcasts ());
      let want = exec_ok s "SHOW HIERARCHY animal;" in
      List.iteri
        (fun i port ->
          let c = Client.connect ~timeout:10.0 ~port () in
          Alcotest.(check string)
            (Printf.sprintf "shard %d holds statements 1..k-1" i)
            want (exec_ok c "SHOW HIERARCHY animal;");
          Client.close c)
        ports;
      Alcotest.(check string) "router agrees" want (exec_ok r "SHOW HIERARCHY animal;");
      Client.close r;
      Client.close s)

(* A routed write is planned and sent, nothing more: a burst of
   single-row INSERT frames, single- and multi-shard, is answered frame
   by frame, each frame one routed write. *)
let test_write_takes_no_footprint () =
  let _, _, rport, _, pids, _ = deploy () in
  Fun.protect
    ~finally:(fun () -> List.iter kill pids)
    (fun () ->
      let r = Client.connect ~timeout:10.0 ~port:rport () in
      ignore (exec_ok r ddl);
      let writes =
        List.map
          (Printf.sprintf "INSERT INTO flies VALUES (+ %s);")
          [ "tweety"; "jack"; "rex"; "ALL bird"; "opus" ]
      in
      let routed () = counter rport "shard.mutations_routed" in
      let m0 = routed () in
      List.iter (Client.send r "EXEC") writes;
      List.iter
        (fun stmt ->
          match Client.recv r with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%S: %s" stmt e)
        writes;
      Alcotest.(check int) "every frame is one routed write"
        (m0 + List.length writes) (routed ());
      Client.close r)

(* ---- client connections: the EOF rule and framing errors ------------- *)

(* 80 birds x 40 colours under one stored tuple: the explicated
   extension renders as a reply of about 1 MB, cheap to compute and big
   enough that a few of them overflow the socket buffers. *)
let wide_ddl =
  let long = String.make 150 'x' in
  String.concat "\n"
    (ddl
     :: "CREATE DOMAIN color; CREATE RELATION tint (who: animal, hue: color);"
     :: List.init 40 (fun i ->
            Printf.sprintf
              "CREATE INSTANCE p%d%s OF penguin; CREATE INSTANCE s%d%s OF sparrow; \
               CREATE INSTANCE c%d%s OF color;"
              i long i long i long)
    @ [ "INSERT INTO tint VALUES (+ ALL bird, ALL color);" ])

let wide_select = "SELECT * FROM EXPLICATED tint;"

(* A raw client socket. A small receive buffer makes replies back up in
   the server's own output buffer instead of the kernel's. *)
let raw_connect ?rcvbuf port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  fd

(* Every frame the server sends until it closes the connection. *)
let frames_until_eof fd =
  let rec loop acc =
    match Wire.recv fd with
    | Ok frame -> loop (frame :: acc)
    | Error msg -> Alcotest.failf "protocol error after %d frames: %s" (List.length acc) msg
    | exception Wire.Disconnected -> List.rev acc
  in
  let frames = loop [] in
  Unix.close fd;
  frames

(* Pipeline, half-close, and read only after the server has seen the
   EOF: replies still queued in the server's output buffer at that
   moment must all be delivered before it closes. *)
let test_half_close_gets_every_reply () =
  let _, _, rport, _, pids, _ = deploy () in
  Fun.protect
    ~finally:(fun () -> List.iter kill pids)
    (fun () ->
      let conn = Client.connect ~timeout:10.0 ~port:rport () in
      ignore (exec_ok conn wide_ddl);
      let expected = exec_ok conn wide_select in
      Client.close conn;
      let n = 8 in
      let fd = raw_connect ~rcvbuf:4096 rport in
      for _ = 1 to n do
        Wire.send fd "EXEC" wide_select
      done;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      Unix.sleepf 0.5;
      let frames = frames_until_eof fd in
      Alcotest.(check int) "every pipelined reply arrives" n (List.length frames);
      List.iteri
        (fun i (tag, payload) ->
          Alcotest.(check string) (Printf.sprintf "reply %d tag" i) "OK" tag;
          Alcotest.(check bool) (Printf.sprintf "reply %d is the full extension" i) true
            (payload = expected))
        frames)

(* Framing lost: the router answers like a single node — frames before
   the bad header run, the header gets one ERR, then the connection
   closes. *)
let test_malformed_header () =
  let _, _, rport, _, pids, _ = deploy () in
  let sport, spid = spawn_server () in
  Fun.protect
    ~finally:(fun () -> List.iter kill (spid :: pids))
    (fun () ->
      let bytes = Wire.frame "EXEC" ddl ^ "EXEC notanumber\n" in
      let probe port =
        let fd = raw_connect port in
        ignore (Unix.write_substring fd bytes 0 (String.length bytes));
        frames_until_eof fd
      in
      let single = probe sport in
      let routed = probe rport in
      (match routed with
      | [ ("OK", _); ("ERR", msg) ] ->
        Alcotest.(check bool) ("names the bad header: " ^ msg) true
          (contains msg "malformed frame length")
      | frames ->
        Alcotest.failf "router sent %d frame(s): %s" (List.length frames)
          (String.concat ", " (List.map fst frames)));
      Alcotest.(check (list (pair string string))) "same frames as one node" single routed)

(* A burst and its half-close arrive together. The router must run every
   frame it received before the EOF — mutations, errors and replies too
   large for the socket buffers — and answer each exactly like a single
   node. *)
let test_burst_with_half_close () =
  let _, _, rport, _, pids, _ = deploy () in
  let sport, spid = spawn_server () in
  Fun.protect
    ~finally:(fun () -> List.iter kill (spid :: pids))
    (fun () ->
      List.iter
        (fun port ->
          let conn = Client.connect ~timeout:10.0 ~port () in
          ignore (exec_ok conn wide_ddl);
          Client.close conn)
        [ rport; sport ];
      let burst =
        String.concat ""
          (List.map (Wire.frame "EXEC")
             ([ "INSERT INTO flies VALUES (+ ALL bird), (+ rex);";
                "INSERT INTO flies VALUES (- tweety);";
                "SELECT * FROM flies;";
                "SELECT * FROM nosuch;" ]
             @ List.init 6 (fun _ -> wide_select)
             @ [ "DELETE FROM flies VALUES (rex);"; "ASK flies (rex);" ]))
      in
      let collect port =
        let fd = raw_connect ~rcvbuf:4096 port in
        ignore (Unix.write_substring fd burst 0 (String.length burst));
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        Unix.sleepf 0.5;
        frames_until_eof fd
      in
      let want = collect sport in
      let got = collect rport in
      Alcotest.(check int) "one node answers every frame" 12 (List.length want);
      Alcotest.(check int) "the router answers every frame" 12 (List.length got);
      List.iteri
        (fun i ((gt, gp), (wt, wp)) ->
          Alcotest.(check string) (Printf.sprintf "reply %d tag" i) wt gt;
          Alcotest.(check bool) (Printf.sprintf "reply %d byte-identical" i) true (gp = wp))
        (List.combine got want))

let test_degraded_reads () =
  let _, _, rport, _, pids, _ = deploy () in
  Fun.protect
    ~finally:(fun () -> List.iter kill pids)
    (fun () ->
      let conn = Client.connect ~timeout:10.0 ~port:rport () in
      ignore (exec_ok conn ddl);
      ignore (exec_ok conn "INSERT INTO flies VALUES (+ tweety), (+ jack);");
      (* kill the sparrow shard (index 2 of [router; s0; s1; s2]) *)
      kill (List.nth pids 3);
      (* the first write to it finds it dead: located, naming the shard,
         as every later write is *)
      (match Client.exec conn "INSERT INTO flies VALUES (+ jack);" with
      | Ok out -> Alcotest.failf "expected the dead shard's error, got %S" out
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "located, names shard 2: %s" msg)
          true
          (String.starts_with ~prefix:"at line 1, column 1: shard 2 (127.0.0.1:" msg
          && contains msg "unreachable"));
      (* reads confined to live shards keep answering *)
      Alcotest.(check bool) "penguin subtree still answers" true
        (contains (exec_ok conn "SELECT * FROM flies WHERE who = tweety;")
           "tweety");
      (* reads that need the dead shard fail loudly, naming it *)
      (match Client.exec conn "SELECT * FROM flies WHERE who = jack;" with
      | Ok out -> Alcotest.failf "expected degraded error, got %S" out
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "names the dead shard: %s" msg)
          true
          (contains msg "unreachable"));
      (* and writes to the surviving subtree still commit *)
      ignore (exec_ok conn "INSERT INTO flies VALUES (+ opus);");
      Alcotest.(check string) "write after partial failure"
        "+ (by (opus))"
        (exec_ok conn "ASK flies (opus);");
      Client.close conn)

(* ---- failed reads and rejected writes leave every shard in step ------- *)

(* A divergent read is reported once every shard's reply is in, so the
   next round on the other shards reads its own replies. *)
let test_divergent_read_keeps_shards_in_step () =
  let _, _, rport, ports, pids, _ = deploy () in
  Fun.protect
    ~finally:(fun () -> List.iter kill pids)
    (fun () ->
      let conn = Client.connect ~timeout:10.0 ~port:rport () in
      ignore (exec_ok conn ddl);
      ignore (exec_ok conn "INSERT INTO flies VALUES (+ ALL bird);");
      (* flip the penguin shard's replica directly *)
      ignore
        (exec_on (List.nth ports 1)
           "DELETE FROM flies VALUES (ALL bird); INSERT INTO flies VALUES (- ALL bird);");
      (match Client.exec conn "SELECT * FROM flies;" with
      | Ok out -> Alcotest.failf "expected the divergence, got %S" out
      | Error msg ->
        Alcotest.(check bool) ("reports the divergence: " ^ msg) true
          (contains msg "cross-shard divergence"));
      Alcotest.(check string) "the next write reaches the sparrow shard"
        "1 tuple(s) inserted into flies"
        (exec_ok conn "INSERT INTO flies VALUES (+ jack);");
      Alcotest.(check string) "and the default shard" "1 tuple(s) inserted into flies"
        (exec_ok conn "INSERT INTO flies VALUES (+ rex);");
      Alcotest.(check int) "no shard is down" 0 (counter rport "shard.dead");
      Client.close conn)

(* Rows rejected on several shards, or a row rejected before one that
   names nothing: the router reports the earliest, as one node does. *)
let test_earliest_rejected_row () =
  let _, _, rport, _, pids, _ = deploy () in
  let sport, spid = spawn_server () in
  Fun.protect
    ~finally:(fun () -> List.iter kill (spid :: pids))
    (fun () ->
      let r = Client.connect ~timeout:10.0 ~port:rport () in
      let s = Client.connect ~timeout:10.0 ~port:sport () in
      List.iter
        (fun stmt ->
          Alcotest.(check (result string string))
            stmt (Client.exec s stmt) (Client.exec r stmt))
        [
          ddl;
          "INSERT INTO flies VALUES (+ jack), (+ rex), (+ tweety);";
          "INSERT INTO flies VALUES (- jack), (- rex);";
          "INSERT INTO flies VALUES (- rex), (- jack);";
          "INSERT INTO flies VALUES (+ opus), (- tweety), (- jack);";
          (* a row that names nothing comes after one that contradicts *)
          "INSERT INTO flies VALUES (+ opus), (- rex), (+ nope);";
          "DELETE FROM flies VALUES (rex), (nope);";
          (* the default shard's commit-time ambiguity on polly names no
             row, so it ranks after the sparrow shard's row 3 *)
          "CREATE CLASS pet UNDER animal; CREATE INSTANCE polly OF pet, bird;";
          "INSERT INTO flies VALUES (+ ALL pet), (- ALL bird), (- jack);";
          "SELECT * FROM flies;";
        ];
      Client.close r;
      Client.close s)

(* A read during a one-shard outage fails naming the dead shard, and
   leaves the live shards' connections in step. *)
let test_read_during_outage () =
  let _, _, rport, ports, pids, _ = deploy () in
  Fun.protect
    ~finally:(fun () -> List.iter kill pids)
    (fun () ->
      let conn = Client.connect ~timeout:10.0 ~port:rport () in
      ignore (exec_ok conn ddl);
      kill (List.nth pids 3);
      let fails_on_shard_2 stmt =
        match Client.exec conn stmt with
        | Ok out -> Alcotest.failf "%S: expected the dead shard's error, got %S" stmt out
        | Error msg ->
          Alcotest.(check bool) (Printf.sprintf "%S names shard 2: %s" stmt msg) true
            (contains msg (unreachable ports 2))
      in
      fails_on_shard_2 "INSERT INTO flies VALUES (+ jack);";
      fails_on_shard_2 "SELECT * FROM flies;";
      Alcotest.(check string) "the default shard still commits"
        "1 tuple(s) inserted into flies"
        (exec_ok conn "INSERT INTO flies VALUES (+ rex);");
      Alcotest.(check string) "the penguin shard still commits"
        "1 tuple(s) inserted into flies"
        (exec_ok conn "INSERT INTO flies VALUES (+ tweety);");
      Alcotest.(check int) "only the killed shard is down" 1 (counter rport "shard.dead");
      Client.close conn)

(* Seeded misplacement: fsck in shard-map mode must pass on the healthy
   deployment and catch tuples planted on the wrong shard. *)
let test_fsck_placement () =
  let _, map_file, rport, ports, pids, dirs = deploy ~durable:true () in
  Fun.protect
    ~finally:(fun () -> List.iter kill pids)
    (fun () ->
      let conn = Client.connect ~timeout:10.0 ~port:rport () in
      ignore (exec_ok conn ddl);
      ignore (exec_ok conn "INSERT INTO flies VALUES (+ tweety), (+ jack), (+ rex);");
      ignore (exec_ok conn "INSERT INTO flies VALUES (+ ALL bird);");
      Client.close conn;
      let codes report =
        List.map (fun f -> f.Fsck.code) report.Fsck.findings
        |> List.sort_uniq compare
      in
      (* healthy: no placement findings *)
      let clean = Fsck.run ~against:map_file (List.hd dirs) in
      Alcotest.(check (list string)) "healthy deployment is clean" []
        (codes clean);
      (* plant a misplaced tuple: jack (sparrow subtree, shard 2) stored
         directly on shard 1, bypassing the router *)
      let s1 = Client.connect ~timeout:10.0 ~port:(List.nth ports 1) () in
      ignore (exec_ok s1 "INSERT INTO flies VALUES (+ jack);");
      Client.close s1;
      (* drop a replicated tuple on shard 0 only: the (+ ALL bird)
         replica set is now incomplete *)
      let s0 = Client.connect ~timeout:10.0 ~port:(List.hd ports) () in
      ignore (exec_ok s0 "DELETE FROM flies VALUES (ALL bird);");
      Client.close s0;
      let report = Fsck.run ~against:map_file (List.hd dirs) in
      let cs = codes report in
      Alcotest.(check bool) "F020 misplacement caught" true
        (List.mem "F020" cs);
      Alcotest.(check bool) "F021 divergence caught" true (List.mem "F021" cs);
      Alcotest.(check bool) "criticals" true (Fsck.has_critical report))

let test_fsck_map_errors () =
  let bad = Filename.temp_file "hrshard" ".map" in
  let oc = open_out bad in
  output_string oc "shard zero nonsense\n";
  close_out oc;
  let dir = temp_dir "fsck" in
  let report = Fsck.run ~against:bad dir in
  Alcotest.(check bool) "F022 on an unparsable map" true
    (List.exists (fun f -> f.Fsck.code = "F022") report.Fsck.findings)

let suite =
  [
    Alcotest.test_case "shard map parses and round-trips" `Quick test_map_parse;
    Alcotest.test_case "shard map rejects malformed input" `Quick test_map_rejects;
    Alcotest.test_case "cover rule: locality and replication" `Quick test_cover;
    Alcotest.test_case "a DDL run packs into frame-sized scripts" `Quick test_run_scripts;
    Alcotest.test_case "a shard's ack names the rows it already held" `Quick
      test_ack_names_held_rows;
    Alcotest.test_case "a malformed shard pull answers ERR" `Quick test_malformed_pull;
    Alcotest.test_case "routing and cross-subtree fan-out" `Quick
      test_routing_and_fanout;
    Alcotest.test_case "scatter-gather is byte-identical to one node" `Quick
      test_byte_identity;
    Alcotest.test_case "a scoped read pulls the probed node's meeting set" `Quick
      test_scoped_read_pulls_meeting_set;
    Alcotest.test_case "scoped reads match one node (random hierarchies)" `Quick
      test_scoped_reads_match_one_node;
    Alcotest.test_case "randomized pipelined writes match one node" `Quick
      test_randomized_identity;
    Alcotest.test_case "a DDL run is one broadcast" `Quick test_ddl_run_is_one_broadcast;
    Alcotest.test_case "a routed write takes no footprint" `Quick
      test_write_takes_no_footprint;
    Alcotest.test_case "half-closed client gets every reply" `Quick
      test_half_close_gets_every_reply;
    Alcotest.test_case "malformed header: one ERR, then EOF" `Quick
      test_malformed_header;
    Alcotest.test_case "burst + half-close matches one node" `Quick
      test_burst_with_half_close;
    Alcotest.test_case "degraded reads around a dead shard" `Quick
      test_degraded_reads;
    Alcotest.test_case "a divergent read leaves every shard in step" `Quick
      test_divergent_read_keeps_shards_in_step;
    Alcotest.test_case "the earliest rejected row is reported" `Quick
      test_earliest_rejected_row;
    Alcotest.test_case "a read during an outage spares live shards" `Quick
      test_read_during_outage;
    Alcotest.test_case "fsck --against map catches misplacement" `Quick
      test_fsck_placement;
    Alcotest.test_case "fsck --against rejects a bad map" `Quick
      test_fsck_map_errors;
  ]
