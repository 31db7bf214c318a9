(** `EXPLAIN ESTIMATE`: static plan pricing, rendered like the output of
    [EXPLAIN ANALYZE] but with estimated rows and cumulative cost per
    node. Registers itself as the {!Hr_query.Eval} estimator at
    module-init time, so any executable linking this library evaluates
    [EXPLAIN ESTIMATE <expr>;] with no execution side effects. *)

val render : Cost_model.node -> string
(** The indented per-node tree (no [plan:] header). *)

val explain :
  Hierel.Catalog.t -> Hr_query.Ast.query_expr -> (string, string) result
(** Full report: [plan:] header, per-node tree, total cost footer — the
    registered hook. *)

val ensure_registered : unit -> unit
(** No-op whose call forces this module to be linked (and therefore the
    estimator hook installed) in executables that would otherwise not
    reference it. *)
