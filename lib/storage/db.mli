(** A durable database: paged tuple store + write-ahead log + HRQL.

    A database lives in a directory holding exactly [pages.db] (the
    {!Page_store}: shadow-paged slotted tuple pages, free-space map,
    DDL blob, and in its meta root the LSN the store is valid
    through), [wal.log] (statements applied since the last
    checkpoint, {!Wal} format) and [LOCK]. {!open_dir} loads the page
    store and replays the log onto it; {!exec} runs HRQL statements, appending each successful
    mutating statement to the log before acknowledging it (so
    acknowledged implies replayable — rejected updates are never logged
    and cannot poison recovery); {!checkpoint} writes only the pages
    dirtied since the previous checkpoint and truncates the log.
    Reopening after a crash (including one that tore the last log
    record, or one that died mid-checkpoint before the meta-root swap)
    recovers every acknowledged statement.

    Directories written by pre-paged builds ([snapshot.bin]) are not
    opened: see {!legacy_layout}. The {!Snapshot} codec survives only as
    the interchange format for replica bootstrap images.

    Every tuple must fit one heap page ({!Page_store.max_record_bytes});
    a statement that would store a larger one is rejected before it is
    logged, leaving the catalog unchanged.

    Every logged statement carries a {e log sequence number} (LSN):
    monotone from 1 over the whole life of the directory, never reset by
    checkpoints. [lsn t] is the last statement applied, [base_lsn t] the
    statement the page store covers through; the WAL holds exactly
    [base_lsn+1 .. lsn]. LSNs are the replication protocol's addresses
    (see [docs/REPLICATION.md]): {!records_since} serves a subscriber's
    catch-up, {!install_snapshot} and {!apply_replicated} are the
    replica-side application path, which preserves the primary's LSNs so
    a replica resumes from exactly where it durably stopped. *)

type t

val legacy_layout : string -> string option
(** [Some reason] when the directory holds [snapshot.bin] but no
    [pages.db]: the pre-paged layout, which this build neither reads
    nor migrates. The reason names the cut-off (docs/STORAGE.md). *)

val open_dir : ?auto_checkpoint_every:int -> ?fsync:bool -> string -> t
(** Creates the directory if needed; recovers existing state, or builds
    an empty store when there is no [pages.db]. Fails with [Failure],
    touching nothing, on a directory {!legacy_layout} refuses. Takes an
    advisory lock on [DIR/LOCK] — a second concurrent open of the same
    directory fails with [Failure] rather than corrupting the log. The
    lock is released by {!close} or process exit. If recovery dropped a
    torn WAL tail, a warning with the dropped byte/record counts is
    printed to stderr (and counted in [storage.wal.torn_tail_*]), and
    the log file is truncated back to the last intact record so
    subsequent appends land on a record boundary.
    Recovery replays only records with LSN past the page store's
    [base_lsn], so a crash between a checkpoint's page commit and its
    WAL truncation cannot double-apply.

    [auto_checkpoint_every] (default 10000, 0 to disable) caps the WAL:
    when {!exec} leaves at least that many logged statements pending, it
    checkpoints automatically so a long-lived primary's log does not
    grow without bound.

    [fsync] (default [true]) governs whether WAL syncs issue a real
    [Unix.fsync] — the [--no-fsync] escape hatch for benchmarks. With it
    off, "committed" means "flushed to the OS", not "on disk". *)

val replay :
  ?upto:int ->
  after:int ->
  Hierel.Catalog.t ->
  Wal.record list ->
  (unit, Wal.record * string) result
(** [replay ~after cat records] runs, in order, each record's statement
    whose LSN is past [after] (and at most [upto], default unbounded)
    onto [cat]. It stops at the first one that fails — an evaluator
    error or exception — and returns that record with the message.
    Recovery ({!open_dir}) and fsck's replays all go through it. *)

val catalog : t -> Hierel.Catalog.t

val dir : t -> string
(** The directory this database was opened on (for diagnostics and the
    server's [FSCK] endpoint). *)

val exec : t -> string -> (string list, string) result
(** Runs an HRQL script (one or more statements). The whole script is
    parsed first: one that does not parse runs nothing, and its error
    names a position in the whole script. Every successful
    statement that changes durable state (CREATE / DROP / INSERT /
    DELETE / LET / CONSOLIDATE / EXPLICATE) is logged under a fresh LSN,
    as the trimmed text between the separators around it; reads and
    rejected updates are not. On an evaluation error, statements before
    the failing one remain applied and logged (statement-level, not
    script-level, atomicity). A statement that would store a tuple
    larger than {!Page_store.max_record_bytes} fails with [Error] and
    changes nothing. Returns only after a WAL {!sync}: when
    this call comes back, every logged statement is durable. *)

(** {1 Group commit}

    The batched write path. [exec_buffered] appends to the WAL without
    syncing; the caller decides the commit point and must call {!sync}
    before acknowledging any of the batched statements as committed.
    The server's event loop uses this to make N statements from one
    select tick share a single write+fsync. *)

val exec_buffered :
  ?on_held:(int -> unit) ->
  ?on_refused:(int -> unit) ->
  t ->
  string ->
  (string list, string) result
(** {!exec} without the trailing sync. The returned [Ok] means "applied
    and staged", not "durable" — never surface it to a client before
    {!sync} returns. [on_held] is called with the number (from 1) of
    each [INSERT] row whose signed item was stored before the
    statement; [on_refused] with the number of the [INSERT] row refused
    as a direct contradiction. An evaluation error names the failing
    statement's line and column in [script], as
    {!Hr_query.Eval.run_script} does. *)

val exec_parsed :
  ?on_held:(int -> unit) ->
  ?on_refused:(int -> unit) ->
  t ->
  Hr_query.Parser.piece list ->
  (string list, string) result
(** {!exec_buffered} on a script already parsed
    ({!Hr_query.Eval.parse_script}): a server parses each frame once to
    tell reads from writes, then runs it. *)

val sync : t -> unit
(** Makes every buffered WAL append durable (one flush + fsync, unless
    the database was opened with [~fsync:false]). No-op when nothing is
    buffered. *)

val unsynced : t -> int
(** WAL appends staged since the last {!sync} — the server's window /
    max-batch bookkeeping reads this. *)

val synced_lsn : t -> int
(** The highest LSN covered by a completed sync ([lsn t] right after
    {!sync}). Replication must only ship records at or below this: a
    record a replica could ack before the primary made it durable would
    diverge the pair on a primary crash. *)

val checkpoint : t -> unit
(** Incremental page-level checkpoint: diffs each relation against its
    binding at the previous checkpoint (relations whose binding is
    physically unchanged are skipped without reading a tuple), applies
    the changed tuples to the page store, and commits only the dirty
    pages plus a fresh page table and meta root (write-new-then-swap-root
    — a crash at any point leaves the previous checkpoint intact).
    The new meta root records [base_lsn = lsn]; then [wal.log] is
    truncated. Cost is
    proportional to the data changed since the last checkpoint, not to
    the database size. *)

val last_checkpoint_pages : t -> int * int
(** [(pages_written, pages_total)] from the most recent {!checkpoint}
    (or [install_snapshot] commit) in this process — [(0, 0)]
    before the first. The bench harness and STATS read this to verify
    checkpoint cost tracks the delta. *)

val close : t -> unit

val wal_records : t -> int
(** Statements currently in the log (for tests and monitoring). *)

(** {1 Log sequence numbers and replication hooks} *)

val lsn : t -> int
(** The LSN of the last applied mutating statement (0 for a fresh
    database). Monotone across checkpoints and reopens. *)

val base_lsn : t -> int
(** The LSN the page store covers through (0 before the first
    checkpoint). *)

val records_since : t -> int -> Wal.record list
(** The logged statements with LSN strictly greater than the argument —
    the replication catch-up stream. Served from a bounded in-memory
    tail of recent records (falling back to a [wal.log] scan for older
    offsets the tail no longer covers), so per-commit shipping does not
    re-read the log file. Only meaningful for arguments [>= base_lsn t];
    older offsets need {!snapshot_image} first. *)

val snapshot_image : t -> string
(** The current catalog as a {!Snapshot} binary image (for bootstrapping
    a subscriber whose offset predates [base_lsn]). *)

val install_snapshot : t -> lsn:int -> string -> (unit, string) result
(** Replica bootstrap: replaces the whole catalog with the decoded
    image, rebuilds the paged store from it (valid through [lsn]), and
    truncates the local log. All previous local state is discarded. *)

val apply_replicated : t -> lsn:int -> string -> (unit, string) result
(** Replica apply: runs one logged statement from the primary and
    appends it to the local WAL under the {e primary's} LSN. The append
    is buffered — the replica must {!sync} before acking the batch's
    final LSN upstream. [Error]
    means divergence (a statement that replayed cleanly on the primary
    failed here) and the caller should treat it as fatal. Statements at
    or below the current {!lsn} are rejected as duplicates. *)
