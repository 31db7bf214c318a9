(** One served client socket: the only code that accepts, reads, buffers,
    writes and closes a connection a client opened to a server or a
    router.

    A [Conn.t] pairs a non-blocking descriptor with an incremental
    {!Wire.Decoder} for input and a byte buffer for output. Event loops
    ([Hr_server.Server.poll], [Hr_shard.Router.poll]) [select] on
    {!wants_read} / {!wants_write}, call {!read} then {!next} until it
    runs dry, stage replies with {!append} and push them with {!flush}.
    What a frame means — group commit, reader offload, scatter-gather —
    is the loop's policy; the byte handling is the same everywhere.

    {b EOF rule.} A peer that half-closes after pipelining requests gets
    every reply: frames that arrived before the EOF stay available from
    {!next}, and the connection is {!finished} only once its output has
    drained. A malformed frame header ends the input the same way: {!next}
    reports it once (the owner answers one [ERR] with the message), no
    further frames are decoded, and the connection closes after that
    reply drains. *)

type t

val listen : host:string -> port:int -> Unix.file_descr * int
(** A non-blocking listening socket bound to [host:port] ([port = 0]
    picks an ephemeral port), and the port actually bound. *)

val default_max_backlog : int
(** One maximum frame ({!Wire.max_frame}) plus slack: a bound below one
    frame could never ship a snapshot bootstrap. *)

val accept : max_backlog:int -> Unix.file_descr -> t list
(** Every connection pending on the listening socket, oldest first, each
    non-blocking and with [TCP_NODELAY] set. [max_backlog] bounds its unsent output
    ({!over_backlog}). *)

val fd : t -> Unix.file_descr

val read : t -> unit
(** Feeds whatever the kernel has buffered into the decoder — at most
    16 reads of one shared 64 KiB chunk, so one firehose client cannot
    starve a tick. Records EOF; a hard socket error closes the
    connection. *)

val next : t -> ((string * string) option, string) result
(** Pops the next complete [(tag, payload)] frame; [Ok None] when more
    bytes are needed (or the input has ended). [Error msg] reports a
    malformed header exactly once and ends the input. *)

val append : t -> string -> string -> unit
(** [append c tag payload] stages one frame for output. *)

val flush : t -> unit
(** Writes as much staged output as the kernel takes now, never
    blocking. A hard socket error ([EPIPE], [ECONNRESET], ...) closes
    the connection and discards the output. *)

val backlog : t -> int
(** Staged bytes not yet taken by the kernel. *)

val over_backlog : t -> bool
(** [backlog] exceeds the [max_backlog] given at {!accept}: the owner
    should drop the peer rather than buffer without bound. *)

val wants_read : t -> bool
(** Open and still accepting input (no EOF, no malformed header). *)

val wants_write : t -> bool
(** Open with staged output. *)

val eof : t -> bool
(** No more input will be read: the peer sent EOF, or framing was lost. *)

val closed : t -> bool

val finished : t -> bool
(** Closed, or input ended and every staged byte was written — the owner
    can {!close} it and forget it. An owner with replies still being
    computed must also wait for those. *)

val close : t -> unit
(** Idempotent. Every other operation on a closed connection is a
    no-op, so a stale handle can never touch a reused descriptor. *)
