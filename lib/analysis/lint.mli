(** The HRQL static analyzer ("hrdb lint").

    Checks a parsed script by a dry run: every mutating statement runs
    through the engine ({!Hr_query.Eval.attempt}) on a private
    {!Hierel.Catalog.fork}, so the engine alone decides whether it is
    accepted, and a rejection is reported under a stable code
    ({!Diagnostic.of_rejection}). Read-only statements are never run:
    their expressions are typed against the fork ({!Expr_check}), for
    the sub-expression spans of E006/E007/E008/W105/H202. A lint costs
    at most the script's own mutations, and the catalog it starts from
    is never touched. Every problem is reported as a {!Diagnostic} with
    a stable code and a source span.

    Codes: E000 syntax error, E001 unknown relation, E002 arity
    mismatch, E003 domain mismatch, E004 ALL on an instance, E005 isa
    cycle, E006 incompatible schemas, E007 join on disjoint domains,
    E008 unknown name, E009 duplicate definition, E010 invalid
    hierarchy edit / ambiguous name, W101 redundant isa edge, W102 dead
    row, W103 shadowed negation, W104 ambiguity conflict, W105
    unsatisfiable selection, H201 bare class value, H202 projection
    drops exceptions. [docs/LINT.md] documents each with a minimal
    trigger.

    The {e dataflow} checks follow the rows the script itself asserts,
    their signs and the hierarchy edits across the whole script: W106
    dead write — a row the script asserts and then unconditionally
    destroys (exact [DELETE] or [DROP RELATION]) before any statement
    reads the relation; W107 no-op under flattening — an insert whose
    every atom already receives the same sign from the stored tuples (a
    patchwork of narrower rows or an exact duplicate; W102's
    single-generalization case is reported as W102); W108
    cross-statement contradiction — a rejected row whose item an
    earlier statement asserted with the opposite sign; W109 exception
    erasing its generalization — a negation covering the {e entire}
    extension of a stored positive class tuple; H203 replica replay
    advisory — [CONSOLIDATE]/[EXPLICATE] are logged as source text and
    re-derived on replicas (verify with [hrdb fsck --against]); W110
    order-sensitive row pair — two statements write rows of one
    relation whose items overlap with neither subsuming the other, with
    opposite signs or a [DELETE] on either side. W106, W108 and W110
    only ever fire on rows the analyzed script itself wrote, never on
    pre-existing catalog data. *)

val analyze_script : ?catalog:Hierel.Catalog.t -> string -> Diagnostic.t list
(** Lex, parse and check a whole script. A lex/parse failure yields a
    single E000 diagnostic. When [catalog] is given, the script runs on
    a {!Hierel.Catalog.fork} of it — the catalog itself, its relation
    values, hierarchies and observed statistics are never changed;
    otherwise on an empty catalog. Diagnostics are sorted by location,
    then severity, then code. The analyzer never raises: statements
    whose checking fails internally produce an E999 diagnostic. *)
