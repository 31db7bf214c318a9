(** Replica WAL apply: a burst of primary records is applied serially,
    in the primary's LSN order, through
    {!Hr_storage.Db.apply_replicated}. No domain is ever spawned, so the
    process may still [Unix.fork]. *)

type record = { lsn : int; stmt : string }

val apply_batch :
  domains:int -> Hr_storage.Db.t -> record list -> (unit, string) result
(** Apply one burst. [~domains] is ignored; it remains for callers
    written against the retired parallel apply. [Error] means
    divergence (some record failed to evaluate) and the caller should
    treat it as fatal; on error the records before the failing one stay
    applied. WAL appends are buffered — the caller must
    {!Hr_storage.Db.sync} before acknowledging upstream. *)
