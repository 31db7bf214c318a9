(* Replica WAL apply: each burst of primary records runs through
   [Db.apply_replicated] one record at a time, in the primary's LSN
   order, on the live catalog. Every record is already one checked
   commit on the primary, so replaying it is the whole job; no domain
   is spawned. *)

module Db = Hr_storage.Db

let m_batches = Hr_obs.Metrics.counter "repl.apply_batches"

type record = { lsn : int; stmt : string }

let apply_batch ~domains:_ db records =
  if records = [] then Ok ()
  else begin
    Hr_obs.Metrics.incr m_batches;
    let rec go = function
      | [] -> Ok ()
      | { lsn; stmt } :: rest -> (
        match Db.apply_replicated db ~lsn stmt with
        | Ok () -> go rest
        | Error msg -> Error (Printf.sprintf "LSN %d (%S): %s" lsn stmt msg))
    in
    go records
  end
