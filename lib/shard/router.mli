(** The shard router: hierarchy-partitioned writes, scatter-gather reads.

    A router is the client-facing front of a sharded deployment
    ([hrdb_server --router --shard-map FILE]). It speaks the ordinary
    client protocol ([EXEC] / [LINT] / [ESTIMATE] / [STATS] frames,
    {!Hr_server.Server}) but stores no tuples itself: it owns the
    hierarchy DAG (every DDL statement applies locally {e and} is
    replicated to all shards, so node ids agree everywhere) and a
    {!Hr_check.Shard_map} assigning each subtree root to a backend
    shard — an ordinary [hrdb_server].

    {b Writes.} Each [INSERT] / [DELETE] row is routed by the cover of
    its first coordinate ({!Hr_check.Shard_map.cover}): exceptions land
    on exactly one shard (the paper's locality argument — an exception
    clusters near its subtree), cross-subtree generalizations (e.g.
    [∀Bird] when [Penguin] and [Sparrow] live on different shards)
    replicate to every covered shard. There is one write path: each
    routed write is planned once (a sub-statement per covered shard)
    and runs as one shard round (below), so its covered shards commit
    concurrently; the write is answered only once every reply is in. A
    write some shard rejects is undone at once on the shards that acked
    it, deleting only the rows each newly stored (a shard's ack names
    the rows it already held). Its error is a single node's: a shard's
    refusal names the row it refused, and the statement's earliest
    refused row is the one reported.

    {b Shard rounds.} The router talks to shards only in rounds, through
    one send/collect pair: every frame of a round ([SHARD_PULL] or
    [SHARD_EXEC]) goes out before any reply is read, and every reply
    owed is read before any failure is raised, so each shard
    connection's reply FIFO stays in step whatever the round's outcome.

    {b Reads.} Every query statement gathers the stored tuples of the
    relations it mentions in one [SHARD_PULL] round, merges them with
    exact-identity dedup — a replica pair diverging in sign is reported
    as a cross-shard divergence error, never silently resolved — and
    evaluates the statement locally on the merged catalog. A point
    read — a [SELECT] whose plan selects on a relation's first
    attribute, or [ASK] / [EXPLAIN] at an item — pulls only from the
    cover of the probed node, and only that node's meeting set (the
    tuples whose first coordinate meets it): its answer depends on no
    other tuple ([docs/SEMANTICS.md] §3, Lemma E). Every other read
    pulls whole relations from every shard. The output is
    byte-identical to a single-node server on the same script. A failed
    read reports the first unreachable or refusing shard in send order,
    else the divergence, and leaves every shard in step for the next
    round. [EXPLAIN ANALYZE] appends a per-shard breakdown (tuples
    pulled, head LSN per shard). [LET] / [CONSOLIDATE] / [EXPLICATE]
    gather, compute locally, and repartition the result back to the
    shards.

    {b Failure.} Backend connections are opened with
    [Client.connect ~timeout], so a dead shard can never block the
    router indefinitely: any statement that needs an unreachable shard
    answers [ERR "at line L, column C: shard N (host:port) unreachable:
    ..."] while statements confined to live shards keep working
    (degraded reads), the statement right after a failed fan-out read
    included. DDL and repartitions require every shard up before
    starting. Divergence the failure windows can leave behind is the
    offline verifier's job: [hrdb fsck DIR --against MAP] (codes
    F020–F024).

    {b Client sockets} are handled by {!Hr_frames.Conn}, exactly as in
    a single-node server: a client that pipelines and half-closes gets
    every reply before the socket closes, and a malformed frame header
    gets one [ERR] and then a close. *)

type t

val create :
  ?host:string ->
  ?timeout:float ->
  ?max_backlog:int ->
  port:int ->
  map:Hr_check.Shard_map.t ->
  unit ->
  t
(** Binds the listening socket ([port = 0] picks an ephemeral port) and
    eagerly dials every shard ([timeout] per attempt, default 5s;
    unreachable shards are retried lazily with a 1s throttle). *)

val port : t -> int

val poll : ?timeout:float -> t -> unit
(** One event-loop tick: accept clients, read frames, answer every
    complete frame in arrival order — one at a time, each running to
    its last shard reply before the next starts — and close the clients
    that are finished (input ended and replies drained). *)

val serve_forever : t -> 'a
(** {!poll} until the process dies. SIGPIPE is ignored: a client or
    shard that vanishes mid-write must not kill the router. *)

val close : t -> unit
