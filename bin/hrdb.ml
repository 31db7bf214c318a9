(* hrdb — an interactive shell (and script runner) for the hierarchical
   relational model, speaking HRQL.

   Usage:
     dune exec bin/hrdb.exe                   # in-memory REPL
     dune exec bin/hrdb.exe -- -d ./mydb      # durable: pages.db + WAL
     dune exec bin/hrdb.exe -- -f x.hrql      # run a script, then exit
     dune exec bin/hrdb.exe -- -f x.hrql -i   # run a script, then REPL
     dune exec bin/hrdb.exe -- lint x.hrql    # static analysis only
     dune exec bin/hrdb.exe -- exec -p 7799 'ASK r (x);'   # network client
     dune exec bin/hrdb.exe -- replica -P 7799 -d ./rep    # read-only replica *)

module Eval = Hr_query.Eval
module Persist = Hr_query.Persist
module Db = Hr_storage.Db
module Lint = Hr_analysis.Lint
module Diagnostic = Hr_analysis.Diagnostic
open Hierel

(* Installs the EXPLAIN ESTIMATE hook into Hr_query.Eval — the module
   must be referenced for its initializer to be linked. *)
let () = Hr_analysis.Estimate.ensure_registered ()

let banner durable =
  Printf.sprintf
    "hrdb — hierarchical relational database (Jagadish, SIGMOD 1989)%s\n\
     Type HRQL statements terminated by ';'. Try: SHOW RELATIONS;  \\h for help, \\q to quit.\n"
    (if durable then " [durable]" else "")

let help =
  {|Statements (see lib/query/parser.mli for the full grammar):
  CREATE DOMAIN d;                       CREATE CLASS c UNDER parent;
  CREATE INSTANCE i OF c;                CREATE ISA sub UNDER super;
  CREATE PREFERENCE a OVER b;            CREATE RELATION r (attr: domain, ...);
  INSERT INTO r VALUES (+ ALL c, x), (- y, z);
  DELETE FROM r VALUES (ALL c, x);
  SELECT * FROM r WHERE attr = v [WITH JUSTIFICATION];
  LET s = r UNION t;   (also INTERSECT, EXCEPT, JOIN, PROJECT..ON, RENAME..TO)
  ASK r (x, y) [UNDER OFF-PATH|ON-PATH|NO-PREEMPTION];
  CONSOLIDATE r;   EXPLICATE r [ON (attr)];   CHECK r;
  COUNT r [BY attr];   EXPLAIN PLAN <expr>;   EXPLAIN ANALYZE <expr>;
  EXPLAIN ESTIMATE <expr>;   price the plan statically, run nothing (docs/COST.md)
  SHOW HIERARCHY d;   SHOW RELATIONS;   SHOW HIERARCHIES;
  EXPLAIN r (x, y);   DROP RELATION r;
  STATS;   STATS JSON;   STATS RESET;     engine metrics (docs/OBSERVABILITY.md)
  LINT <statements...>;   statically check against the live catalog, run nothing
REPL commands:
  \save FILE     dump the whole catalog as an HRQL script
  \load FILE     replay an HRQL script into the catalog
  \checkpoint    write the changed pages, truncate the WAL (durable mode)
  \h             this help            \q   quit
|}

(* One backend interface over the in-memory and durable modes. *)
type backend = {
  run : string -> (string list, string) result;
  cat : unit -> Catalog.t;
  checkpoint : (unit -> unit) option;
  shutdown : unit -> unit;
}

let memory_backend () =
  let cat = Catalog.create () in
  {
    run = (fun input -> Eval.run_script cat input);
    cat = (fun () -> cat);
    checkpoint = None;
    shutdown = ignore;
  }

let durable_backend dir =
  let db = Db.open_dir dir in
  {
    run = (fun input -> Db.exec db input);
    cat = (fun () -> Db.catalog db);
    checkpoint = Some (fun () -> Db.checkpoint db);
    shutdown = (fun () -> Db.close db);
  }

(* [LINT <statements...>;] — check without running. Detected textually
   (case-insensitive first word) so lint requests never reach the
   evaluator's parser as statements. *)
let lint_request input =
  let t = String.trim input in
  if
    String.length t >= 4
    && String.lowercase_ascii (String.sub t 0 4) = "lint"
    && (String.length t = 4
       || match t.[4] with ' ' | '\t' | '\n' | '\r' | ';' -> true | _ -> false)
  then Some (String.sub t 4 (String.length t - 4))
  else None

let lint_against backend script =
  Lint.analyze_script ~catalog:(backend.cat ()) script

let run_input ?(strict = false) backend input =
  match lint_request input with
  | Some script ->
    if String.trim script = "" || String.trim script = ";" then
      print_endline "usage: LINT <statements...>;"
    else print_string (Diagnostic.render_text (lint_against backend script))
  | None ->
    let rejected =
      strict
      &&
      let diags = lint_against backend input in
      if diags <> [] then print_string (Diagnostic.render_text diags);
      if Diagnostic.has_errors diags then begin
        print_endline "rejected: lint errors (strict mode); nothing was executed";
        true
      end
      else false
    in
    if not rejected then
      match backend.run input with
      | Ok outputs -> List.iter print_endline outputs
      | Error msg -> Printf.printf "error: %s\n" msg

let strip_prefix ~prefix line =
  let n = String.length prefix in
  if String.length line > n && String.sub line 0 n = prefix then
    Some (String.trim (String.sub line n (String.length line - n)))
  else None

let repl ~strict backend durable =
  print_string (banner durable);
  let buffer = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buffer = 0 then "hrdb> " else "  ... ");
    match read_line () with
    | exception End_of_file -> print_endline "bye."
    | "\\q" | "\\quit" -> print_endline "bye."
    | "\\h" | "\\help" ->
      print_string help;
      loop ()
    | "\\checkpoint" ->
      (match backend.checkpoint with
      | Some f ->
        f ();
        print_endline "checkpoint written"
      | None -> print_endline "error: not in durable mode (start with -d DIR)");
      loop ()
    | line when strip_prefix ~prefix:"\\save " line <> None ->
      let path = Option.get (strip_prefix ~prefix:"\\save " line) in
      (try
         Persist.save (backend.cat ()) path;
         Printf.printf "catalog saved to %s\n" path
       with Sys_error e -> Printf.printf "error: %s\n" e);
      loop ()
    | line when strip_prefix ~prefix:"\\load " line <> None ->
      let path = Option.get (strip_prefix ~prefix:"\\load " line) in
      (try
         let ic = open_in path in
         let contents = really_input_string ic (in_channel_length ic) in
         close_in ic;
         run_input ~strict backend contents
       with Sys_error e -> Printf.printf "error: %s\n" e);
      loop ()
    | line ->
      Buffer.add_string buffer line;
      Buffer.add_char buffer '\n';
      if String.contains line ';' then begin
        let input = Buffer.contents buffer in
        Buffer.clear buffer;
        run_input ~strict backend input
      end;
      loop ()
  in
  loop ()

let main file interactive dir strict =
  let durable = Option.is_some dir in
  match (match dir with Some d -> durable_backend d | None -> memory_backend ()) with
  | exception Failure msg ->
    (* a locked directory, or one in a layout this build cannot open *)
    Printf.eprintf "hrdb: %s\n" msg;
    2
  | backend ->
    Fun.protect ~finally:backend.shutdown (fun () ->
        (match file with
        | Some path ->
          let ic = open_in path in
          let contents = really_input_string ic (in_channel_length ic) in
          close_in ic;
          run_input ~strict backend contents
        | None -> ());
        if interactive || file = None then repl ~strict backend durable);
    0

open Cmdliner

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"SCRIPT" ~doc:"Run the HRQL $(docv) before anything else.")

let interactive_arg =
  Arg.(
    value & flag
    & info [ "i"; "interactive" ]
        ~doc:"Start the REPL even when a script file was given.")

let dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "d"; "dir" ] ~docv:"DIR"
        ~doc:
          "Durable mode: keep the database in $(docv) (paged store pages.db \
           plus write-ahead log wal.log; state survives restarts).")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Pre-flight every input through the static analyzer: warnings and \
           hints are printed, and inputs with lint errors are rejected \
           without being executed.")

(* ---- the lint subcommand --------------------------------------------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_stdin () =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    let n = input stdin chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let lint_main pos_files opt_files strict format explain_code =
  match explain_code with
  | Some code -> (
    match Hr_analysis.Codes.find code with
    | Some entry ->
      print_string (Hr_analysis.Codes.render entry);
      0
    | None ->
      Printf.eprintf "hrdb lint: unknown diagnostic code %S\nKnown codes:\n" code;
      List.iter
        (fun (e : Hr_analysis.Codes.entry) ->
          Printf.eprintf "  %-5s %-13s %s\n" e.Hr_analysis.Codes.code
            ("(" ^ e.Hr_analysis.Codes.severity ^ ")")
            e.Hr_analysis.Codes.title)
        Hr_analysis.Codes.all;
      2)
  | None -> (
  match opt_files @ pos_files with
  | [] ->
    prerr_endline "hrdb lint: no script given (pass FILE, '-' for stdin, or -f FILE)";
    2
  | files -> (
    match List.filter (fun f -> f <> "-" && not (Sys.file_exists f)) files with
    | missing :: _ ->
      Printf.eprintf "hrdb lint: no such file %s\n" missing;
      2
    | [] ->
      let results =
        List.map
          (fun f ->
            if f = "-" then ("<stdin>", Lint.analyze_script (read_stdin ()))
            else (f, Lint.analyze_script (read_file f)))
          files
      in
      (match format with
      | `Text ->
        List.iter
          (fun (f, ds) ->
            if List.length files > 1 then Printf.printf "%s:\n" f;
            print_string (Diagnostic.render_text ds))
          results
      | `Sarif -> print_string (Hr_analysis.Sarif.render results)
      | `Json -> (
        match results with
        | [ (_, ds) ] -> print_string (Diagnostic.render_json ds)
        | results ->
          print_string
            ("["
            ^ String.concat ","
                (List.map
                   (fun (f, ds) ->
                     Printf.sprintf "{\"file\":%S,\"diagnostics\":%s}" f
                       (String.trim (Diagnostic.render_json ds)))
                   results)
            ^ "]\n")));
      if
        List.exists
          (fun (_, ds) ->
            Diagnostic.has_errors ds || (strict && Diagnostic.has_warnings ds))
          results
      then 1
      else 0))

let lint_pos_files =
  Arg.(value & pos_all string [] & info [] ~docv:"SCRIPT")

let lint_opt_files =
  Arg.(
    value
    & opt_all file []
    & info [ "f"; "file" ] ~docv:"SCRIPT" ~doc:"Also lint the HRQL $(docv).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,text) (human-readable), $(b,json), or \
           $(b,sarif) (SARIF 2.1.0, for CI annotation upload).")

let lint_strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Also fail (exit 1) when any warning-severity diagnostic is \
           reported. Hints and perf notes never affect the exit code.")

let explain_code_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"CODE"
        ~doc:
          "Explain a diagnostic code (e.g. $(b,W104), $(b,P301), \
           $(b,F010)): meaning, a triggering example, and the usual fix. \
           No script is linted.")

let lint_cmd =
  let doc = "statically check HRQL scripts without executing them" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses each script and dry-runs it: every DDL and DML statement \
         runs through the evaluator on a private fork of the catalog, so \
         an error is exactly a statement the evaluator rejects; queries \
         are type-checked, never evaluated, and no data is touched. \
         Diagnostics carry stable codes (see docs/LINT.md) and source \
         spans. A $(b,-) script reads from standard input.";
      `P
        "Exits 1 when any error-severity diagnostic is reported (with \
         $(b,--strict): also on warnings), 0 otherwise. Perf notes \
         (P3xx, docs/COST.md) are always advisory.";
    ]
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(
      const lint_main $ lint_pos_files $ lint_opt_files $ lint_strict_arg
      $ format_arg $ explain_code_arg)

(* ---- the fsck subcommand ---------------------------------------------- *)

(* SARIF output reuses the lint emitter: each finding becomes one
   result at a dummy span (fsck findings are about files and objects,
   not source lines), grouped by the file/object it concerns so the
   artifact URI is meaningful in CI annotations. *)
let fsck_sarif (report : Hr_check.Fsck.report) =
  let module Fsck = Hr_check.Fsck in
  let diag (f : Fsck.finding) =
    let mk =
      match f.Fsck.severity with
      | Fsck.Critical -> Diagnostic.error
      | Fsck.Warning -> Diagnostic.warning
    in
    (f.Fsck.where, mk ~code:f.Fsck.code Hr_query.Loc.dummy f.Fsck.message)
  in
  let by_where = List.map diag report.Fsck.findings in
  let files = List.sort_uniq String.compare (List.map fst by_where) in
  let results =
    List.map
      (fun w ->
        (w, List.filter_map (fun (w', d) -> if w' = w then Some d else None) by_where))
      files
  in
  Hr_analysis.Sarif.render ~tool:"hrdb-fsck" ~info_uri:"docs/FSCK.md" results

let fsck_main dir against format =
  let module Fsck = Hr_check.Fsck in
  let report = Fsck.run ?against dir in
  (match format with
  | `Text -> print_string (Fsck.render_text report)
  | `Json -> print_string (Fsck.render_json report)
  | `Sarif -> print_string (fsck_sarif report));
  if Fsck.has_critical report then 2 else if not (Fsck.clean report) then 1 else 0

let fsck_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"The database directory to verify.")

let fsck_against_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "against" ] ~docv:"DIR|MAP"
        ~doc:
          "With a directory: also verify this peer (e.g. a replica of the \
           first) and cross-check the two for divergence at their greatest \
           common LSN. With a regular file: load it as a shard map and \
           verify the whole sharded deployment's placement invariants \
           (docs/SHARDING.md).")

let fsck_cmd =
  let doc = "verify the durable invariants of a database directory" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Opens the directory read-only (no lock is taken, nothing is written) \
         and checks the pages.db page store (page seals, heap records, \
         free-space map), WAL framing and LSN continuity \
         from the store's base LSN, replay, hierarchy DAG acyclicity and \
         irredundancy, the ambiguity constraint, and — with \
         $(b,--against) — primary/replica convergence, or, when the \
         argument is a shard-map file, sharded placement (misplaced tuples, \
         cross-subtree replicas, DDL agreement). Finding codes \
         (F000..F029) are stable; see docs/FSCK.md.";
      `P
        "Exits 0 when the directory is clean, 1 when only warning-severity \
         findings were reported, 2 on any critical finding.";
    ]
  in
  Cmd.v
    (Cmd.info "fsck" ~doc ~man)
    Term.(const fsck_main $ fsck_dir_arg $ fsck_against_arg $ format_arg)

(* ---- the exec subcommand (network client) ----------------------------- *)

let exec_main host port timeout stats scripts =
  let module Client = Hr_server.Server.Client in
  let timeout = match timeout with Some s when s <= 0.0 -> None | t -> t in
  match Client.connect ~host ?timeout ~port () with
  | exception Failure msg ->
    Printf.eprintf "hrdb exec: %s\n" msg;
    2
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "hrdb exec: cannot reach %s:%d: %s\n" host port (Unix.error_message e);
    2
  | conn ->
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        let request () =
          if stats then Client.stats conn
          else Client.exec conn (String.concat " " scripts)
        in
        if (not stats) && scripts = [] then begin
          prerr_endline "hrdb exec: no script given (pass 'STATEMENTS;' or --stats)";
          2
        end
        else
          match request () with
          | Ok out ->
            if out <> "" then print_endline out;
            0
          | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1)

let exec_host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "H"; "host" ] ~docv:"HOST" ~doc:"Server address.")

let exec_port_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server TCP port.")

let exec_timeout_arg =
  Arg.(
    value
    & opt (some float) (Some 5.0)
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Bound the TCP connect and each reply read. Pass a non-positive \
           value to wait forever.")

let exec_stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Fetch the server's metrics snapshot instead of running a script.")

let exec_scripts_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"SCRIPT")

let exec_cmd =
  let doc = "run an HRQL script against a running server" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Connects to an hrdb_server (or a read-only hrdb_replica), sends the \
         script as one EXEC frame, and prints the reply. Exits 1 on a server \
         error, 2 on a connection failure.";
    ]
  in
  Cmd.v
    (Cmd.info "exec" ~doc ~man)
    Term.(
      const exec_main $ exec_host_arg $ exec_port_arg $ exec_timeout_arg
      $ exec_stats_arg $ exec_scripts_arg)

(* ---- the replica subcommand ------------------------------------------- *)

let replica_main primary_host primary_port dir port backoff_max checkpoint_every
    verify =
  let module Replica = Hr_repl.Replica in
  (* --verify: fsck the local directory before serving from it. A dir
     that does not hold a database yet (first bootstrap) is skipped. *)
  if verify && Sys.file_exists (Filename.concat dir "wal.log") then begin
    let report = Hr_check.Fsck.run dir in
    if not (Hr_check.Fsck.clean report) then
      print_string (Hr_check.Fsck.render_text report);
    if Hr_check.Fsck.has_critical report then begin
      prerr_endline
        "hrdb replica: --verify found critical findings; refusing to serve \
         from this directory";
      exit 2
    end
  end;
  let cfg =
    Replica.config ~primary_host ~primary_port ~dir ~port ~backoff_max
      ~checkpoint_every ()
  in
  let replica = Replica.create cfg in
  Printf.printf
    "hrdb replica listening on 127.0.0.1:%d (read-only; dir: %s; primary: %s:%d; \
     resume LSN %d)\n\
     %!"
    (Replica.port replica) dir primary_host primary_port
    (Replica.applied_lsn replica);
  Replica.run replica;
  0

let replica_primary_host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "H"; "primary-host" ] ~docv:"HOST" ~doc:"Primary's address.")

let replica_primary_port_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "P"; "primary-port" ] ~docv:"PORT" ~doc:"Primary's TCP port.")

let replica_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "d"; "dir" ] ~docv:"DIR"
        ~doc:"The replica's own database directory (pages.db + WAL + LSN).")

let replica_port_arg =
  Arg.(
    value & opt int 0
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"Local TCP port for read-only queries (0 = ephemeral).")

let replica_backoff_max_arg =
  Arg.(
    value & opt float 2.0
    & info [ "backoff-max" ] ~docv:"SECONDS"
        ~doc:"Reconnect backoff ceiling (doubles from 50ms).")

let replica_checkpoint_every_arg =
  Arg.(
    value & opt int 512
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint the local database every $(docv) applied records.")

let replica_verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Run $(b,hrdb fsck) over the local directory before serving from \
           it; refuse to start (exit 2) on any critical finding. A directory \
           holding no database yet is skipped.")

let replica_cmd =
  let doc = "run a read-only replica of a durable primary" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Subscribes to the primary's logical WAL stream (REPL_SUBSCRIBE with \
         the last durably applied LSN), bootstraps from a snapshot when too \
         far behind, applies records to its own directory, serves read-only \
         HRQL locally, and reconnects with exponential backoff. See \
         docs/REPLICATION.md.";
    ]
  in
  Cmd.v
    (Cmd.info "replica" ~doc ~man)
    Term.(
      const replica_main $ replica_primary_host_arg $ replica_primary_port_arg
      $ replica_dir_arg $ replica_port_arg $ replica_backoff_max_arg
      $ replica_checkpoint_every_arg $ replica_verify_arg)

let shell_term = Term.(const main $ file_arg $ interactive_arg $ dir_arg $ strict_arg)

let cmd =
  let doc = "interactive shell for the hierarchical relational model" in
  Cmd.group ~default:shell_term
    (Cmd.info "hrdb" ~version:"1.0.0" ~doc)
    [ lint_cmd; fsck_cmd; exec_cmd; replica_cmd ]

let () = exit (Cmd.eval' cmd)
