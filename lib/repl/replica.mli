(** A read-only replica: subscribes to a primary's logical WAL stream,
    applies it to its own durable {!Hr_storage.Db}, and serves read-only
    queries on its own port.

    One single-threaded [select] loop multiplexes three kinds of traffic
    — the upstream replication connection, the local listening socket,
    and local client connections — so the apply path and the read path
    share the catalog without locks. Protocol, LSN semantics and the
    failure matrix are specified in [docs/REPLICATION.md]; in short:

    - on (re)connect the replica sends [REPL_SUBSCRIBE] with its last
      {e durably applied} LSN (recovered from its own WAL), so a restart
      resumes exactly where it stopped;
    - a [REPL_SNAPSHOT] bootstrap replaces the local catalog wholesale
      (the primary sends one when its WAL no longer covers the
      requested offset);
    - each applied [REPL_RECORD] is logged locally under the primary's
      LSN before it is acknowledged, preserving the WAL discipline
      end-to-end;
    - a lost upstream connection is retried with exponential backoff
      ([backoff_min] doubling to [backoff_max]);
    - mutating scripts from local clients are refused with a clear
      error; reads, [LINT] and [STATS] are served normally.

    Statement replay is deterministic (same statements ⇒ same equivalent
    flat relations, exceptions and all), which is what makes logical
    shipping sufficient for convergence — tested byte-for-byte in
    [test/test_repl.ml]. *)

type config = {
  primary_host : string;
  primary_port : int;
  dir : string;  (** the replica's own database directory *)
  host : string;  (** local listen address *)
  port : int;  (** local listen port; 0 picks an ephemeral one *)
  backoff_min : float;  (** seconds; first retry delay *)
  backoff_max : float;  (** seconds; retry delay ceiling *)
  connect_timeout : float;  (** upstream TCP connect deadline *)
  checkpoint_every : int;
      (** checkpoint the local db whenever this many records have
          accumulated in its WAL (bounds recovery time) *)
}

val config :
  ?primary_host:string ->
  ?host:string ->
  ?port:int ->
  ?backoff_min:float ->
  ?backoff_max:float ->
  ?connect_timeout:float ->
  ?checkpoint_every:int ->
  primary_port:int ->
  dir:string ->
  unit ->
  config
(** Defaults: localhost both sides, ephemeral local port, backoff
    50ms → 2s, 5s connect timeout, checkpoint every 512 records. *)

type t

val create : config -> t
(** Opens (or recovers) the local database and binds the local port.
    The first upstream connection attempt happens on the first
    {!step}. *)

val port : t -> int
(** The bound local port (useful with [port = 0]). *)

val applied_lsn : t -> int
(** The last durably applied LSN (the subscribe/resume offset). *)

val connected : t -> bool
(** Whether the upstream connection is currently established. *)

val db : t -> Hr_storage.Db.t
(** The replica's database (reads only — mutating it directly would
    diverge from the primary). *)

val step : t -> float -> unit
(** One event-loop iteration, waiting at most the given number of
    seconds: retries the upstream connection when its backoff deadline
    has passed, applies any received replication frames, and serves
    local clients. Raises [Failure] on divergence (a primary record
    that fails to apply locally). *)

val run : t -> unit
(** {!step} until the process dies; SIGPIPE is ignored. *)

val close : t -> unit
