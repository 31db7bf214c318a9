(** Recursive-descent parser for HRQL.

    Grammar sketch (keywords capitalised, [;] terminates statements):

    {v
    stmt   ::= CREATE DOMAIN id
             | CREATE CLASS id [UNDER id {, id}]
             | CREATE INSTANCE id [OF id {, id}]
             | CREATE ISA id UNDER id
             | CREATE PREFERENCE id OVER id
             | CREATE RELATION id ( id : id {, id : id} )
             | DROP RELATION id
             | INSERT INTO id VALUES row {, row}
             | DELETE FROM id VALUES ( value {, value} ) {, ...}
             | SELECT * FROM expr [WHERE id = value] [WITH JUSTIFICATION]
             | LET id = expr
             | ASK id ( value {, value} ) [UNDER semantics]
             | CONSOLIDATE id
             | EXPLICATE id [ON ( id {, id} )]
             | CHECK id
             | SHOW HIERARCHY id | SHOW RELATIONS | SHOW HIERARCHIES
             | EXPLAIN id ( value {, value} )
    row    ::= ( sign value {, value} )
    sign   ::= + | -
    value  ::= ALL id | id
    expr   ::= term { (UNION|INTERSECT|EXCEPT|JOIN) term }
    term   ::= id
             | ( expr )
             | SELECT expr WHERE id = value
             | PROJECT expr ON ( id {, id} )
             | RENAME expr id TO id
             | CONSOLIDATED expr
             | EXPLICATED expr [ON ( id {, id} )]
    semantics ::= OFF-PATH | ON-PATH | NO-PREEMPTION
    v}

    Set operators associate left and have equal precedence; parenthesize
    to disambiguate. Every parsed statement and expression node carries
    the source span it was read from. *)

exception Parse_error of { msg : string; loc : Loc.t }
(** [msg] already names the line and column; [loc] carries them
    structurally for diagnostics. *)

type piece = {
  source : string;
      (** the text between the separators around the statement, trimmed:
          what a write-ahead log records for it *)
  stmt : Ast.located_statement;
}

val parse_pieces : string -> piece list
(** The statements of a script with their sources, cut where
    {!Lexer.split_statements} cuts. Each piece is tokenized and parsed
    in turn, so the first piece that fails names the error, whether it
    fails to lex or to parse; spans and error positions are the whole
    script's. Raises {!Parse_error} or {!Lexer.Lex_error}. *)

val parse : string -> Ast.located_statement list
(** The statements of {!parse_pieces}: every path that reads a script
    (a server, a router, lint) reads and rejects it alike. *)

val parse_statement : string -> Ast.located_statement
(** Parses exactly one statement (the trailing [;] is optional). *)
