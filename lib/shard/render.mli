(** Rendering HRQL statements back to source text.

    The router parses each incoming script once, decides where every
    statement (or row) belongs, and re-renders exactly the fragment
    each shard must apply. The renderer emits the same surface grammar
    the parser accepts ([lib/query/lexer.mli]), so a rendered statement
    round-trips: shards evaluate it with ordinary {!Hr_query.Eval} and
    produce byte-identical reply strings. *)

val value : Hr_query.Ast.value -> string
(** [ALL name] or the bare name. *)

val statement : Hr_query.Ast.statement -> string
(** One statement as HRQL source, [;]-terminated, on one line. Supports
    exactly the statements a router forwards — DDL
    ([CREATE ...]/[DROP RELATION]) and row mutations
    ([INSERT]/[DELETE]). Raises [Invalid_argument] on anything else
    (queries are never forwarded as text: the router gathers tuples and
    evaluates locally). *)

val insert :
  string -> (Hierel.Types.sign * Hr_query.Ast.value list) list -> string
(** [insert rel rows] is an [INSERT INTO] statement for an explicit row
    subset — the router's partitioned-write and rebuild primitive. The
    row list must be non-empty. *)

val delete : string -> Hr_query.Ast.value list list -> string

val rebuild :
  Hierel.Relation.t -> present:bool ->
  only:(Hierel.Relation.tuple -> bool) -> string
(** [rebuild rel ~present ~only] is the script that reconstructs, on
    one shard, the slice of [rel] selected by [only]: a
    [DROP RELATION] when [present], a [CREATE RELATION] from [rel]'s
    schema, and one [INSERT] with the selected tuples (omitted when the
    slice is empty). Tuples render by node label — classes as
    [ALL name], instances bare — so the shard re-resolves them in its
    own hierarchy. Used after [LET] / [CONSOLIDATE] / [EXPLICATE], whose
    results are computed on the router and repartitioned. *)

val scripts : limit:int -> string list -> string list
(** [scripts ~limit stmts] packs rendered statements, in order, into
    as few newline-joined scripts as fit [limit] bytes each — how the
    router sends a run of DDL as few [SHARD_EXEC] frames as
    {!Hr_frames.Wire.max_frame} allows. A statement longer than [limit]
    forms a script of its own. *)
