(** A write-ahead log of HRQL statements, addressed by log sequence
    number.

    Each record is a 64-bit LSN, a length-prefixed HRQL statement string
    and a CRC-32 over both, appended to a single file. {!append} only
    buffers; {!sync} flushes the channel and [Unix.fsync]s the
    descriptor, so N appends between syncs share one write+fsync — the
    group-commit discipline. Callers must not acknowledge a statement as
    committed before the sync that covers it returns. LSNs are assigned by {!Db} and are monotone over the
    whole life of a database directory (they do not reset when the log
    is truncated at a checkpoint), which is what makes the log
    offset-addressable for replication: {!stream_from} replays exactly
    the records after a given LSN.

    Recovery replays records in order and stops at the first torn or
    corrupt record (a crash mid-append); the dropped tail is measured
    and reported rather than silently discarded. There is exactly one
    record reader — {!scan} — shared by recovery, replication streaming
    and [hrdb fsck], so the three cannot drift on framing or torn-tail
    handling. *)

type record = { lsn : int; stmt : string }

type torn_tail = {
  dropped_bytes : int;  (** trailing bytes not replayed *)
  dropped_records : int;
      (** structurally parseable records in the dropped tail (a torn
          final record counts as one) *)
}

type scan_result = {
  records : record list;  (** intact records, in append order *)
  ok_bytes : int;
      (** byte offset just past the last intact record — the safe
          truncation point for a torn tail *)
  total_bytes : int;  (** the file's size ([ok_bytes] when clean) *)
  tail : torn_tail option;  (** the dropped tail, if any *)
}

type t

val open_ : ?fsync:bool -> string -> t
(** Opens (creating if absent) the log file for appending. [~fsync:false]
    makes {!sync} skip the [Unix.fsync] (channel flush only) — an escape
    hatch for benchmarks; never use it where durability matters. Default
    [true]. *)

val append : t -> lsn:int -> string -> unit
(** Buffers one statement record. Not durable — not even visible to the
    OS — until the next {!sync}. *)

val sync : t -> unit
(** Makes every buffered append durable: flushes the channel, then
    [Unix.fsync] on the descriptor (unless the log was opened with
    [~fsync:false]). A no-op when nothing is buffered. Counts one
    [storage.wal.sync_batches] (and one [storage.wal.fsyncs] when a real
    fsync ran) and observes the batch size in
    [storage.wal.stmts_per_sync]. *)

val unsynced : t -> int
(** Appends buffered since the last {!sync}. *)

val close : t -> unit
(** Syncs, then closes. *)

val scan : string -> scan_result
(** The single shared record reader: every intact record in the file, in
    append order, plus the accounting of any torn or corrupt tail. Pure —
    touches no metrics. An absent file scans as empty. *)

val recover : string -> scan_result
(** {!scan}, plus the recovery-side metrics ([storage.wal.replayed],
    [storage.wal.torn_tail_*]). The open path uses this; read-only
    inspectors (fsck, streaming) use {!scan}. *)

val stream_from : t -> int -> record Seq.t
(** [stream_from t lsn] — the intact records with LSN strictly greater
    than [lsn], in order, re-read from the file after flushing buffered
    appends to the OS (visibility, not durability). The sequence is
    ephemeral: it reads the whole file once when forced. *)

val truncate : string -> unit
(** Empties the log (after a successful checkpoint). *)

val truncate_to : string -> int -> unit
(** Truncates the file to the given byte length — the recovery path's
    repair for a torn tail ({!scan_result.ok_bytes}), so the next append
    lands on a record boundary instead of after unreadable garbage. *)
