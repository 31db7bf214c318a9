(** Length-framed wire protocol shared by the server, the client library
    and the replication subsystem.

    One frame is a text header line followed by an opaque payload:

    {v
    <TAG> <payload-bytes>\n<payload>
    v}

    Request tags: [EXEC], [LINT], [STATS], [REPL_SUBSCRIBE], [REPL_ACK].
    Reply/stream tags: [OK], [ERR], [REPL_SNAPSHOT], [REPL_RECORD].
    The replication tags and their payloads are specified in
    [docs/REPLICATION.md]; the request/reply tags in
    [lib/server/server.mli].

    Two readers are provided: a blocking one ({!recv}) for clients, and
    an incremental {!Decoder} that {!Conn} feeds for the multiplexed
    event loops, which must parse frames out of whatever bytes
    [select]+[read] delivered. *)

exception Disconnected
(** The peer closed the connection (EOF mid-frame or between frames). *)

val max_frame : int
(** Upper bound on a payload (64 MiB — snapshot frames carry a whole
    catalog image). Anything larger is a protocol error. *)

(** {1 Replication frame tags} *)

val repl_subscribe : string
(** [REPL_SUBSCRIBE] (replica → primary): payload is the replica's last
    durably applied LSN as a decimal string; the primary answers with a
    {!repl_snapshot} bootstrap if the WAL no longer covers that offset,
    then streams {!repl_record} frames. *)

val repl_snapshot : string
(** [REPL_SNAPSHOT] (primary → replica): payload is
    ["<lsn>\n<snapshot-image>"] — a binary {!Hr_storage.Snapshot}
    catalog image valid through [lsn] (the primary's head LSN at the
    moment the image was taken); the record stream resumes after it. *)

val repl_record : string
(** [REPL_RECORD] (primary → replica): payload is ["<lsn>\n<statement>"],
    one logged HRQL statement to apply. *)

val repl_ack : string
(** [REPL_ACK] (replica → primary): payload is the highest durably
    applied LSN as a decimal string. *)

(** {1 Sharding frame tags}

    The router ↔ shard protocol (see [docs/SHARDING.md]). Replies carry
    the answering shard's head LSN so the router can tag per-shard
    progress ([shard.<id>.lsn] gauges) and fsck can correlate. *)

val shard_pull : string
(** [SHARD_PULL] (router → shard): payload is one relation name,
    optionally followed by ["\n<node id>"], a node of the relation's
    first hierarchy. The shard answers {!shard_part} with that
    relation's stored tuples — with a node id, only those whose first
    coordinate meets the node (its meeting set). An unknown relation,
    or a node id that is not an integer naming a node of that
    hierarchy, answers [ERR]. *)

val shard_part : string
(** [SHARD_PART] (shard → router): payload is
    ["<lsn>\n<tuple-lines>"] — the shard's head LSN, then one line per
    stored tuple: [+] or [-], a space, and the comma-joined decimal
    node ids of the item's coordinates. Sent only once every statement
    the shard acknowledged is durable. An unknown relation answers
    [ERR]. *)

val shard_exec : string
(** [SHARD_EXEC] (router → shard): payload is an HRQL script to apply;
    the shard answers {!shard_ack}, or [ERR] with payload
    ["<row>\n<message>"] on failure: the number (from 1) of the row of
    the failing statement that the engine refused, empty when the
    refusal names no row (e.g. a commit-time ambiguity conflict), then
    the evaluator's message. *)

val shard_ack : string
(** [SHARD_ACK] (shard → router): payload is ["<lsn>\n<held>\n<reply>"]
    — the shard's head LSN after applying; the comma-joined numbers
    (from 1) of the [INSERT] rows the shard stored before the script,
    which a router's undo must not delete (empty when none); then the
    evaluator's reply lines. Like {!shard_part}, withheld until the
    covering fsync. *)

(** {1 Blocking I/O} *)

val frame : string -> string -> string
(** [frame tag payload] is the encoded bytes of one frame — for callers
    that stage output in their own buffers ({!Conn}'s non-blocking
    writer) instead of writing directly. *)

val send : Unix.file_descr -> string -> string -> unit
(** [send fd tag payload] writes one whole frame. *)

val recv : Unix.file_descr -> (string * string, string) result
(** Reads one whole frame, blocking. [Error] is a protocol error (bad
    header, oversized length); EOF raises {!Disconnected}. [fd] must be
    a socket: the header is peeked ([MSG_PEEK]) and then the header and
    payload are read together, so a small frame takes two system calls
    and nothing past the frame is consumed. Another descriptor raises
    [Unix_error (ENOTSOCK, _, _)]. A read timeout on the socket
    ([SO_RCVTIMEO]) raises [Unix_error (EAGAIN, _, _)]. *)

(** {1 Incremental decoding} *)

module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> unit
  (** Appends the first [n] bytes of the buffer to the undecoded input. *)

  val next : t -> ((string * string) option, string) result
  (** Pops the next complete frame, [Ok None] when more bytes are
      needed, [Error] on a malformed header (the stream is then
      unrecoverable and the connection should be dropped). *)
end

(** {1 Payload helpers} *)

val lsn_payload : int -> string
val parse_lsn : string -> (int, string) result
(** Decimal LSN payloads ([REPL_SUBSCRIBE] / [REPL_ACK]). *)

val lsn_prefixed : int -> string -> string
val parse_lsn_prefixed : string -> (int * string, string) result
(** ["<lsn>\n<rest>"] payloads ([REPL_SNAPSHOT] / [REPL_RECORD] and the
    [SHARD_*] replies). *)

val ack_body : held:int list -> string list -> string
val held_rows : string -> (int list, string) result
(** A {!shard_ack} body (after its LSN prefix): the held row numbers,
    then the reply lines. *)

val reject_body : row:int option -> string -> string
val rejected_row : string -> (int option * string, string) result
(** The [ERR] payload answering a {!shard_exec}: the refused row, then
    the evaluator's message. *)
