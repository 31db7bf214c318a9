(** Abstract syntax of HRQL, the query language over the hierarchical
    relational model. One statement per [;]. See [lexer.mli] for the
    surface syntax summary and [eval.ml] for the semantics of each
    statement.

    Every expression node and statement carries the source span the
    parser consumed for it, so error messages and static diagnostics can
    point into the script. Nodes built programmatically (tests, the
    optimizer's rewrites) use {!Loc.dummy} or inherit the span of the
    node they replace. *)

type value =
  | All of string  (** [ALL name] — a universally quantified class value *)
  | Atom of string  (** a bare class or instance name *)

(* [All] and [Atom] resolve to the same node; the distinction is kept so
   the evaluator can reject [ALL] on instances and warn the other way,
   mirroring the paper's V-prefix notation. *)

type signed_row = { sign : Hierel.Types.sign; values : value list }

type query_expr = { expr : expr_node; eloc : Loc.t }

and expr_node =
  | Rel of string  (** a stored relation *)
  | Select of query_expr * string * value  (** WHERE attr = value *)
  | Project of query_expr * string list
  | Join of query_expr * query_expr
  | Union of query_expr * query_expr
  | Intersect of query_expr * query_expr
  | Except of query_expr * query_expr
  | Rename of query_expr * string * string
  | Consolidated of query_expr
  | Explicated of query_expr * string list option  (** [None] = all attrs *)

type statement =
  | Create_domain of string
  | Create_class of { name : string; parents : string list }
  | Create_instance of { name : string; parents : string list }
  | Create_isa of { sub : string; super : string }
  | Create_preference of { weaker : string; stronger : string }
  | Create_relation of { name : string; attrs : (string * string) list }
      (** attribute name, domain name *)
  | Drop_relation of string
  | Insert of { rel : string; rows : signed_row list }
  | Delete of { rel : string; rows : value list list }
  | Select_query of { expr : query_expr; justified : bool }
  | Let_binding of { name : string; expr : query_expr }
  | Ask of { rel : string; values : value list; semantics : Hierel.Types.semantics option }
  | Consolidate of string  (** in place, via the catalog *)
  | Explicate of { rel : string; over : string list option }
  | Check of string
  | Show_hierarchy of string
  | Show_relations
  | Show_hierarchies
  | Explain of { rel : string; values : value list }
  | Explain_plan of query_expr
  | Explain_analyze of query_expr
      (** run the optimized plan with per-node counters and timings *)
  | Explain_estimate of query_expr
      (** price the optimized plan statically — per-node estimated rows
          and cost, no evaluation *)
  | Count of { expr : query_expr; by : string option }
  | Diff of { prev : query_expr; next : query_expr }
  | Stats of { json : bool }  (** snapshot of the metrics registry *)
  | Stats_reset

type located_statement = { stmt : statement; sloc : Loc.t }

let value_name = function All s | Atom s -> s

(* Whether executing the statement can change durable catalog state:
   the WAL-logging predicate, shared by storage, the server and lint. *)
let mutating = function
  | Create_domain _ | Create_class _ | Create_instance _ | Create_isa _
  | Create_preference _ | Create_relation _ | Drop_relation _ | Insert _
  | Delete _ | Let_binding _ | Consolidate _ | Explicate _ ->
    true
  | Select_query _ | Ask _ | Check _ | Show_hierarchy _ | Show_relations
  | Show_hierarchies | Explain _ | Explain_plan _ | Explain_analyze _
  | Explain_estimate _ | Count _ | Diff _ | Stats _ | Stats_reset ->
    false

(* The relations a statement reads, each once, in order of first
   mention: every relation its expressions scan, and the relation an
   ASK, EXPLAIN, CHECK, CONSOLIDATE or EXPLICATE reads whole. The target
   of an INSERT or DELETE is written, not read. *)
let relations_read stmt =
  let rec scan acc e =
    match e.expr with
    | Rel name -> if List.mem name acc then acc else name :: acc
    | Select (e, _, _)
    | Project (e, _)
    | Rename (e, _, _)
    | Consolidated e
    | Explicated (e, _) ->
      scan acc e
    | Join (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b) -> scan (scan acc a) b
  in
  match stmt with
  | Select_query { expr; _ } | Let_binding { expr; _ } | Count { expr; _ }
  | Explain_plan expr | Explain_analyze expr | Explain_estimate expr ->
    List.rev (scan [] expr)
  | Diff { prev; next } -> List.rev (scan (scan [] prev) next)
  | Ask { rel; _ } | Explain { rel; _ } | Check rel | Consolidate rel | Explicate { rel; _ } ->
    [ rel ]
  | Create_domain _ | Create_class _ | Create_instance _ | Create_isa _
  | Create_preference _ | Create_relation _ | Drop_relation _ | Insert _ | Delete _
  | Show_hierarchy _ | Show_relations | Show_hierarchies | Stats _ | Stats_reset ->
    []

let at ?(loc = Loc.dummy) expr = { expr; eloc = loc }
(** Wrap an expression node, defaulting to an unknown span — the
    programmatic constructor for rewrites and tests. *)

let with_expr e expr = { e with expr }
(** Replace a node, keeping the original source span. *)
