(** Hierarchy-aware cardinality and cost model for optimized HRQL plans.

    Prices a plan {e statically} — no operator is evaluated, no tuple
    materialized. Statistics come from a catalog — the live one, or the
    fork a lint runs its script on: per-class extension counts,
    exception counts and cone sizes read straight from the stored
    relations and hierarchies, plus actual row counts fed back by
    [EXPLAIN ANALYZE] ({!Hierel.Catalog.observed_stat}). Costs are
    abstract work units: 1 unit ≈ one tuple visit or one closure-index
    probe. See [docs/COST.md]. *)

(** {1 Primitive statistics} *)

val extension_count : Hr_hierarchy.Hierarchy.t -> Hr_hierarchy.Hierarchy.node -> int
(** Atomic extension size: 1 for an instance, the leaf count of the cone
    for a class ({!Hr_hierarchy.Hierarchy.instance_count}). *)

val cone_size : Hr_hierarchy.Hierarchy.t -> Hr_hierarchy.Hierarchy.node -> int
(** Nodes isa-reachable from the node, inclusive. *)

val extension_rows : ?over:string list -> Hierel.Relation.t -> int
(** Estimated flat cardinality of [EXPLICATE rel]: per stored tuple, the
    product of the flattened coordinates' atomic extensions; negated
    tuples subtract. Exact when the relation is flat; an upper bound
    when cones overlap. *)

(** {1 The annotated plan} *)

type node = {
  n_label : string;  (** same operator vocabulary as [EXPLAIN ANALYZE] *)
  n_loc : Hr_query.Loc.t;
  n_rows : float;  (** estimated output rows *)
  n_cost : float;  (** cumulative work units, inclusive of children *)
  n_exact : bool;  (** the row estimate is provably exact *)
  n_kind : kind;
  n_children : node list;
}

and kind =
  | Scan of string
  | Selection of { selectivity : float }
  | Joining of { cartesian : bool }
  | Flatten of { expansion : float }
  | Opaque

val plan :
  Hierel.Catalog.t ->
  Hr_query.Ast.query_expr ->
  (Hr_query.Ast.query_expr * node, string) result
(** Optimize the expression ({!Hr_query.Optimizer.optimize}) and price
    the optimized plan. Returns the optimized plan alongside the
    annotated root so callers can pair estimate nodes with the plan (or
    with [EXPLAIN ANALYZE] output, which optimizes identically).
    [Error] names an unknown relation. Never evaluates the plan. *)

(** {1 Lint thresholds} (P300/P301/P303; documented in [docs/COST.md]) *)

val cartesian_rows_threshold : float
val explicate_cone_threshold : float
val rederive_cost_threshold : float
