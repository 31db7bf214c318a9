(** A TCP server speaking HRQL, with logical-replication endpoints.

    The wire protocol is deliberately dumb and robust — length-framed
    text ({!Hr_frames.Wire}), one round trip per script:

    {v
    client:  EXEC <payload-bytes>\n<payload>
    server:  OK <payload-bytes>\n<payload>      (outputs joined by \n)
          |  ERR <payload-bytes>\n<payload>     (error message)
    v}

    An [EXEC] script is parsed whole before any of it runs: one that
    does not parse runs nothing, and its error names a line and column
    in the whole script, on every backend.

    A [LINT] request has the same framing as [EXEC] but runs the static
    analyzer against a snapshot of the live catalog instead of executing
    the script; the [OK] payload is the diagnostics as a JSON array
    (possibly empty). Lint requests never mutate the database.

    An [ESTIMATE] request carries a single query expression (not a
    script); the server prices its optimized plan with the static cost
    model ({!Hr_analysis.Cost_model}) against the live catalog and
    returns the annotated plan — estimated rows and work units per node
    — as the [OK] payload. Like [LINT], nothing is executed or mutated:
    the frame is classified as non-mutating, so it is never WAL-logged
    and leaves every statement counter untouched.

    A [STATS] request returns a snapshot of the process-wide metrics
    registry ({!Hr_obs.Metrics}); a payload of ["json"] selects the JSON
    rendering, anything else the human-readable text table. The server
    also counts connections, frames and per-frame latency — metric names
    are catalogued in [docs/OBSERVABILITY.md].

    An [FSCK] request (durable backends only) runs {!Hr_check.Fsck.run}
    over the server's own database directory and returns the report — a
    payload of ["json"] selects the JSON rendering. The check is
    read-only and runs inside the event loop, so it can never race a
    checkpoint. In-memory backends answer [ERR].

    {b Sharding} (protocol in [docs/SHARDING.md]): every server also
    answers the two backend-shard frames a router
    ({!Hr_shard.Router} / [hrdb_server --router]) fans out.
    [SHARD_PULL] carries one relation name, optionally followed by a
    line naming a node of its first hierarchy, and answers [SHARD_PART]
    with the relation's stored tuple lines (with a node, only the
    tuples whose first coordinate meets it), LSN-prefixed with this
    shard's head, or [ERR] for an unknown relation or a bad node.
    [SHARD_EXEC] carries an HRQL script and answers [SHARD_ACK]
    (LSN-prefixed: the [INSERT] rows it already stored, then the
    evaluator reply) or [ERR] (the refused row's number, or an empty
    line, then the message; {!Hr_frames.Wire.rejected_row}). Both run
    inline on the event loop against the live catalog, and their
    replies obey the group-commit hold: a router never observes state
    that is not yet durable on the shard.

    {b Replication} (durable backends only; protocol and failure matrix
    in [docs/REPLICATION.md]): a [REPL_SUBSCRIBE] frame carrying the
    subscriber's last applied LSN turns its connection into a
    replication stream. If the requested LSN predates the primary's
    snapshot base, a [REPL_SNAPSHOT] bootstrap frame (catalog image plus
    its LSN) is sent first; then every logged statement after the
    subscriber's offset is shipped as a [REPL_RECORD] frame, and new
    statements are pushed as they commit. [REPL_ACK] frames from the
    subscriber update the primary's [repl.lag] gauge.

    {b Concurrency model} (details in [docs/CONCURRENCY.md]): the
    [select] event loop of {!serve_forever} is the {e single writer} —
    every mutating statement runs on it, strictly serialized. With
    [reader_domains = 0] (the default) it also runs every read, the
    historical single-threaded behavior. With [reader_domains = K > 0],
    read-only frames ([EXEC] with no mutating statement, [LINT],
    [ESTIMATE], [STATS]) are dispatched to a pool of K OCaml 5 reader
    domains. Each offloaded read pins the {e published version} current
    when it starts — an immutable, frozen snapshot of the catalog the
    commit point republishes after each group commit, tagged with the
    synced LSN — and evaluates lock-free against it. Readers therefore
    observe only whole committed-and-durable batches (snapshot
    isolation; visibility never outruns durability), writes never wait
    for reads, and replies still leave each connection in request order
    (offloaded replies are version-tagged [OKV] frames). A connection
    whose write is awaiting its group commit runs its reads inline so
    it always sees its own writes. Client sockets are accepted, read,
    buffered and closed by {!Hr_frames.Conn}, the same module the shard
    router uses: a client that pipelines requests and half-closes gets
    every reply before the connection closes. Backends: a plain
    in-memory catalog or a durable {!Hr_storage.Db} directory. *)

type t

val create_memory :
  ?host:string ->
  ?read_only:bool ->
  ?max_backlog:int ->
  ?group_commit_window:float ->
  ?max_batch:int ->
  ?reader_domains:int ->
  ?unsafe_publish:bool ->
  port:int ->
  unit ->
  t
(** Binds and listens; [port = 0] picks an ephemeral port (see {!port}).
    [host] defaults to 127.0.0.1. Statements run against a fresh
    in-memory catalog. [read_only] (default false) refuses mutating
    scripts with an error. [max_backlog] bounds the bytes of unsent
    output buffered per connection in the event loop (writes are
    non-blocking, so a stalled peer accumulates backlog instead of
    wedging the loop); a connection exceeding it is dropped and counted
    in [repl.backlog_drops]. The default is one maximum frame plus
    slack, so a snapshot bootstrap always fits.

    {b Group commit} (durable backends; the two knobs are accepted but
    inert on an in-memory catalog): each event-loop tick executes every
    complete frame from every readable connection, buffering the WAL
    appends and the clients' acks, then commits the whole batch with one
    shared write+fsync — only after that sync do acks drain and records
    ship to subscribers. [group_commit_window] (seconds, default 0.0)
    optionally holds the batch open across ticks, up to that long after
    the first buffered statement, so trickling clients can share a sync;
    [max_batch] (default 64) closes the window early once that many
    statements are buffered.

    {b Reader domains:} [reader_domains] (default 0 — fully
    single-threaded) spawns that many OCaml 5 domains that execute
    read-only frames against pinned published versions; see the
    concurrency model above. [unsafe_publish] (default false) is a
    {e deliberately broken} publication mode for the concurrency test
    harness: the commit point publishes the live mutable catalog
    instead of a frozen snapshot, so concurrent readers can observe
    partially applied batches under a stale version tag. It exists so
    [test/test_mc.ml] can prove it would catch an isolation bug; never
    set it outside tests. *)

val create_durable :
  ?host:string ->
  ?read_only:bool ->
  ?max_backlog:int ->
  ?group_commit_window:float ->
  ?max_batch:int ->
  ?reader_domains:int ->
  ?unsafe_publish:bool ->
  ?fsync:bool ->
  port:int ->
  dir:string ->
  unit ->
  t
(** Same, over a {!Hr_storage.Db} directory (WAL + snapshots).
    [fsync:false] (default true) is the benchmark escape hatch: commits
    flush to the OS but skip the real [Unix.fsync]. *)

val create_for_db :
  ?host:string ->
  ?read_only:bool ->
  ?max_backlog:int ->
  ?group_commit_window:float ->
  ?max_batch:int ->
  ?reader_domains:int ->
  ?unsafe_publish:bool ->
  port:int ->
  db:Hr_storage.Db.t ->
  unit ->
  t
(** Same, over an already-open database the caller owns; {!close} will
    {e not} close the database. The replica embeds its serving endpoint
    this way: the replication apply loop and the read path share one
    {!Hr_storage.Db}. *)

val port : t -> int

val poll : ?extra:Unix.file_descr list -> t -> float -> Unix.file_descr list
(** One event-loop iteration: waits up to the given number of seconds
    for traffic (less if an open group-commit window's deadline is
    nearer), accepts pending connections, drains and executes {e every}
    complete frame on every readable connection, then runs the
    end-of-tick commit point — shared WAL sync, coalesced shipping to
    subscribers, ack drain. Returns which of the [extra] descriptors
    were readable — the hook that lets an embedding process (the
    replica) multiplex its own upstream connection into the same
    [select]. *)

val serve_forever : t -> unit
(** The multiplexed event loop: {!poll} until the process dies. SIGPIPE
    is ignored (a vanished subscriber must not kill the primary).
    Intended for a dedicated process ([bin/hrdb_server.exe]). *)

val close : t -> unit

module Client : sig
  type conn

  val connect : ?host:string -> ?timeout:float -> port:int -> unit -> conn
  (** [timeout] (seconds) bounds both the TCP connect and every
      subsequent single-frame read on the connection; omitted, both
      block indefinitely (the historical behavior). A connect timeout
      raises [Failure]; a read timeout surfaces as [Error] from the
      request calls. The socket has [TCP_NODELAY] set; the router's
      shard connections and a replica's upstream are dialled here. *)

  val exec : conn -> string -> (string, string) result
  (** Sends one HRQL script; returns the server's combined output or the
      error message. *)

  val lint : conn -> string -> (string, string) result
  (** Sends one script for static analysis; returns the diagnostics as a
      JSON array ([[]] when the script is clean). *)

  val explain_estimate : conn -> string -> (string, string) result
  (** Sends one query expression to be priced statically against the
      live catalog; returns the annotated plan (estimated rows and work
      units per node). Nothing is executed. *)

  val stats : ?json:bool -> conn -> (string, string) result
  (** Fetches the server's metrics snapshot, as text or (with
      [~json:true]) as the documented JSON object. *)

  val fsck : ?json:bool -> conn -> (string, string) result
  (** Asks a durable server to verify its own database directory
      ({!Hr_check.Fsck}); returns the rendered report. In-memory
      backends answer [Error]. *)

  val send : conn -> string -> string -> unit
  (** Writes one raw request frame without waiting for the reply. Paired
      with {!recv}, this lets a test pipeline several requests on one
      connection. *)

  val recv : conn -> (string, string) result
  (** Reads one reply frame ([OK] payload or [ERR] message). A
      version-tagged [OKV] reply (from a server with reader domains) is
      transparently unwrapped to its body. *)

  val recv_versioned : conn -> ((int * int) option * bool * string, string) result
  (** Reads one reply frame keeping the version tag: [Ok (v, ok, body)]
      where [v] is [Some (version_id, lsn)] when the reply was computed
      on a reader domain against that pinned published version, [None]
      when the event loop answered inline; [ok] distinguishes the
      server's OK/ERR verdict. [Error] is a transport-level failure.
      The concurrency harness uses the tag to replay the WAL prefix
      [1..lsn] and demand byte equality. *)

  val recv_any : conn -> (string * string, string) result
  (** Reads one frame of any tag — the replication subscriber's read
      path ([REPL_SNAPSHOT] / [REPL_RECORD] arrive unprompted). *)

  val fd : conn -> Unix.file_descr
  (** The underlying descriptor, for callers that multiplex ([select])
      over several connections. *)

  val shutdown_send : conn -> unit
  (** Half-closes the connection: no more requests will follow, but
      replies can still be read. The server answers every request sent
      before the half-close, then closes the connection. *)

  val close : conn -> unit
end
