(* hrdb_replica — a read-only replica of an hrdb_server primary.

   Usage:
     dune exec bin/hrdb_server.exe  -- -p 7799 -d ./primary   # the primary
     dune exec bin/hrdb_replica.exe -- -P 7799 -d ./replica -p 7800

   The replica subscribes to the primary's logical WAL stream, applies
   it to its own durable directory, serves read-only HRQL on its own
   port, and reconnects with exponential backoff when the primary goes
   away (resuming from its last durably applied LSN). Protocol in
   docs/REPLICATION.md. *)

module Replica = Hr_repl.Replica

let main primary_host primary_port dir port backoff_max checkpoint_every verify
    (_apply_domains : int) =
  (* --verify: fsck the local directory before serving from it. A dir
     that does not hold a database yet (first bootstrap) is skipped. *)
  if verify && Sys.file_exists (Filename.concat dir "wal.log") then begin
    let report = Hr_check.Fsck.run dir in
    if not (Hr_check.Fsck.clean report) then
      print_string (Hr_check.Fsck.render_text report);
    if Hr_check.Fsck.has_critical report then begin
      prerr_endline
        "hrdb_replica: --verify found critical findings; refusing to serve \
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
    "hrdb_replica listening on 127.0.0.1:%d (read-only; dir: %s; primary: %s:%d; \
     resume LSN %d)\n\
     %!"
    (Replica.port replica) dir primary_host primary_port
    (Replica.applied_lsn replica);
  Replica.run replica

open Cmdliner

let primary_host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "H"; "primary-host" ] ~docv:"HOST" ~doc:"Primary's address.")

let primary_port_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "P"; "primary-port" ] ~docv:"PORT" ~doc:"Primary's TCP port.")

let dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "d"; "dir" ] ~docv:"DIR"
        ~doc:"The replica's own database directory (snapshot + WAL + LSN).")

let port_arg =
  Arg.(
    value & opt int 0
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"Local TCP port for read-only queries (0 = ephemeral).")

let backoff_max_arg =
  Arg.(
    value & opt float 2.0
    & info [ "backoff-max" ] ~docv:"SECONDS"
        ~doc:"Reconnect backoff ceiling (doubles from 50ms).")

let checkpoint_every_arg =
  Arg.(
    value & opt int 512
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint the local database every $(docv) applied records.")

let apply_domains_arg =
  Arg.(
    value & opt int 1
    & info [ "apply-domains" ] ~docv:"K"
        ~doc:
          "Ignored: records are always applied serially in LSN order. \
           Accepted so existing command lines keep working.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Run $(b,hrdb fsck) over the local directory before serving from \
           it; refuse to start (exit 2) on any critical finding. A directory \
           holding no database yet is skipped.")

let cmd =
  let doc = "read-only replica for the hierarchical relational model" in
  Cmd.v
    (Cmd.info "hrdb_replica" ~version:"1.0.0" ~doc)
    Term.(
      const main $ primary_host_arg $ primary_port_arg $ dir_arg $ port_arg
      $ backoff_max_arg $ checkpoint_every_arg $ verify_arg $ apply_domains_arg)

let () = exit (Cmd.eval cmd)
