(** Tokenizer for HRQL.

    Surface syntax summary (case-insensitive keywords, [--] line
    comments):

    {v
    CREATE DOMAIN animal;
    CREATE CLASS bird UNDER animal;
    CREATE CLASS galapagos_penguin UNDER penguin;
    CREATE INSTANCE tweety OF canary;
    CREATE ISA amazing_flying_penguin UNDER penguin;
    CREATE PREFERENCE royal_elephant OVER indian_elephant;
    CREATE RELATION flies (creature: animal);
    INSERT INTO flies VALUES (+ ALL bird), (- ALL penguin), (+ peter);
    DELETE FROM flies VALUES (ALL bird);
    SELECT * FROM flies WHERE creature = tweety WITH JUSTIFICATION;
    LET grumpy = flies EXCEPT likes;
    ASK flies (patricia);
    ASK flies (patricia) UNDER ON-PATH;
    CONSOLIDATE respects;
    EXPLICATE flies;  EXPLICATE colors ON (animal);
    CHECK respects;
    SHOW HIERARCHY animal;  SHOW RELATIONS;  SHOW HIERARCHIES;
    EXPLAIN flies (patricia);
    v} *)

type token =
  | Ident of string
  | Kw of string  (** upper-cased keyword *)
  | Lparen
  | Rparen
  | Comma
  | Semicolon
  | Colon
  | Equals
  | Plus
  | Minus
  | Star

val keywords : string list
(** The reserved words, upper-cased. A word lexes as [Kw] iff its
    upper-cased spelling is one of them. *)

exception Lex_error of { msg : string; loc : Loc.t }
(** [msg] already names the line and column; [loc] carries them
    structurally for diagnostics. *)

val tokenize_range : string -> off:int -> len:int -> start:Loc.pos -> (token * Loc.t) list
(** The tokens of the [len] bytes at [off], stamped with their source
    spans, counted as if the bytes began at [start]: a piece of a script
    keeps the script's line and column numbers. Raises {!Lex_error} on
    an unexpected character. *)

val tokenize : string -> token list
(** The tokens of a whole input, without spans. *)

val split_statements : string -> (int * string) list
(** The input cut at every ';' that {!tokenize} reads as a [Semicolon]
    (not one inside a [--] comment), the ';' dropped: each piece with its
    byte offset, in order, empty pieces included. *)

val pp_token : Format.formatter -> token -> unit
