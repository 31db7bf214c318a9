(** Structured diagnostics emitted by the static analyzer.

    Every diagnostic carries a stable code (e.g. [E001], [W102]), a
    severity, the source span it points at, a human message, and zero or
    more related notes. Codes are documented in [docs/LINT.md]; their
    meaning never changes across releases, so scripts and CI can match
    on them.

    Severity encodes what execution would do: [Error] — the statement
    would be rejected (or crash) by the evaluator; [Warning] — the
    statement executes but almost certainly not as intended; [Hint] — a
    stylistic or clarity nudge; [Perf] — the statement is correct but
    the cost model ({!Cost_model}) predicts it is needlessly expensive.
    Perf notes are always advisory: like hints, they never affect exit
    codes, even under [--strict]. *)

type severity = Error | Warning | Hint | Perf

type t = {
  code : string;
  severity : severity;
  loc : Hr_query.Loc.t;
  message : string;
  related : string list;
}

val error : ?related:string list -> code:string -> Hr_query.Loc.t -> string -> t
val warning : ?related:string list -> code:string -> Hr_query.Loc.t -> string -> t
val hint : ?related:string list -> code:string -> Hr_query.Loc.t -> string -> t

val errorf :
  ?related:string list ->
  code:string ->
  Hr_query.Loc.t ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val warningf :
  ?related:string list ->
  code:string ->
  Hr_query.Loc.t ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val hintf :
  ?related:string list ->
  code:string ->
  Hr_query.Loc.t ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val perf : ?related:string list -> code:string -> Hr_query.Loc.t -> string -> t

val perff :
  ?related:string list ->
  code:string ->
  Hr_query.Loc.t ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val of_rejection :
  ?verb:string -> Hr_query.Loc.t -> Hr_query.Eval.reason * string -> t
(** The engine's rejection of a statement ({!Hr_query.Eval.attempt}),
    under its stable code: E001–E005 and E008–E010 carry the engine's
    message; a direct contradiction or an ambiguity-constraint
    rejection is W104, whose conflict text starts with [verb] (default
    ["insert"]). The one table from engine rejections to codes. *)

val severity_label : severity -> string

val compare : t -> t -> int
(** By location, then severity (errors first), then code. *)

val sort : t list -> t list

val has_errors : t list -> bool
val has_warnings : t list -> bool

val pp : Format.formatter -> t -> unit
(** One line per diagnostic — [3:8-3:13 error[E001] unknown relation
    "fliez"] — followed by indented related notes. *)

val to_json : t -> string

val render_text : t list -> string
(** All diagnostics plus a one-line summary ("2 errors, 1 warning").
    Empty input renders as "no issues". *)

val render_json : t list -> string
(** A JSON array of diagnostic objects. *)
