(* The one table every surface reads: [hrdb lint --explain CODE], the
   SARIF rule metadata, and the docs generator all quote these entries,
   so a code's meaning is written down exactly once. Codes are stable
   across releases (docs/LINT.md, docs/FSCK.md, docs/COST.md). *)

type entry = {
  code : string;
  title : string;
  severity : string;
  meaning : string;
  example : string;  (* an HRQL script triggering it; "" when none applies *)
  fix : string;
}

let e code title meaning example fix =
  { code; title; severity = "error"; meaning; example; fix }

let w code title meaning example fix =
  { code; title; severity = "warning"; meaning; example; fix }

let h code title meaning example fix =
  { code; title; severity = "hint"; meaning; example; fix }

let p code title meaning example fix =
  { code; title; severity = "perf"; meaning; example; fix }

let fc code title meaning fix =
  { code; title; severity = "fsck critical"; meaning; example = ""; fix }

let fw code title meaning fix =
  { code; title; severity = "fsck warning"; meaning; example = ""; fix }

let all =
  [
    (* ---- errors ------------------------------------------------------ *)
    e "E000" "syntax error"
      "The script does not lex or parse. Reported at the offending token; \
       nothing after it is checked."
      "CREATE NONSENSE;"
      "Fix the syntax; docs/HRQL.md has the full grammar.";
    e "E001" "unknown relation"
      "A statement or expression names a relation the script (or seeded \
       catalog) never defined."
      "SELECT * FROM nosuch;"
      "Define the relation first, or fix the name.";
    e "E002" "arity mismatch"
      "An INSERT/DELETE/ASK/EXPLAIN row has a different number of values \
       than the relation has attributes."
      "CREATE DOMAIN d; CREATE INSTANCE x OF d;\n\
       CREATE RELATION r (v: d);\n\
       INSERT INTO r VALUES (+ x, x);"
      "Give exactly one value per attribute, in schema order.";
    e "E003" "domain mismatch"
      "A value (or isa/preference endpoint) exists, but in a different \
       domain hierarchy than the attribute it is used under."
      "CREATE DOMAIN animal; CREATE INSTANCE tweety OF animal;\n\
       CREATE DOMAIN place;  CREATE INSTANCE antarctica OF place;\n\
       CREATE RELATION flies (who: animal);\n\
       INSERT INTO flies VALUES (+ antarctica);"
      "Use a member of the attribute's own domain hierarchy.";
    e "E004" "ALL on an instance"
      "ALL x universally quantifies over the members of a class; an \
       instance has no members, so the evaluator rejects the quantifier."
      "CREATE DOMAIN animal; CREATE INSTANCE tweety OF animal;\n\
       CREATE RELATION flies (who: animal);\n\
       INSERT INTO flies VALUES (+ ALL tweety);"
      "Drop the ALL (for the single instance) or quantify over a class.";
    e "E005" "isa cycle"
      "The edge would make a class transitively a subclass of itself, \
       violating the type-irredundancy constraint (paper, section 3.1)."
      "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
       CREATE ISA animal UNDER bird;"
      "Remove the back edge; isa must stay a DAG.";
    e "E006" "incompatible schemas"
      "UNION / INTERSECT / EXCEPT / DIFF operands must have identical \
       schemas (same attribute names, domains, and order); also raised \
       when a RENAME collides with an existing attribute."
      "CREATE DOMAIN d; CREATE RELATION a (v: d); CREATE RELATION b (v: d, w: d);\n\
       SELECT * FROM a UNION b;"
      "PROJECT/RENAME the operands to a common schema first.";
    e "E007" "join on disjoint domains"
      "The operands share an attribute name whose domains are different \
       hierarchies: the equi-join on it is always empty."
      "CREATE DOMAIN animal; CREATE DOMAIN place;\n\
       CREATE RELATION flies (who: animal);\n\
       CREATE RELATION guards (who: place);\n\
       SELECT * FROM flies JOIN guards;"
      "RENAME one side's attribute if a cartesian product was meant.";
    e "E008" "unknown name"
      "An attribute, class, instance, or domain that is defined nowhere: \
       a selection/projection/rename on a missing attribute, an insert of \
       an unknown value, a relation over an unknown domain."
      "CREATE DOMAIN d; CREATE RELATION r (v: d);\n\
       SELECT * FROM r WHERE nope = x;"
      "Define the name first, or fix the spelling.";
    e "E009" "duplicate definition"
      "Redefining an existing relation or domain, reusing a class or \
       instance name, or declaring (or projecting) the same attribute \
       twice."
      "CREATE DOMAIN d; CREATE RELATION r (v: d);\n\
       CREATE RELATION r (v: d);"
      "Drop the old definition first, or pick a fresh name.";
    e "E010" "invalid hierarchy edit / ambiguous name"
      "A structurally invalid hierarchy operation the other codes do not \
       cover: children under an instance, a member name ambiguous across \
       hierarchies, an invalid preference edge."
      "CREATE DOMAIN animal; CREATE INSTANCE tweety OF animal;\n\
       CREATE CLASS chick UNDER tweety;"
      "Only classes can have children; qualify ambiguous names.";
    e "E999" "internal analyzer error"
      "A check failed unexpectedly; reported instead of crashing so a \
       lint run always completes. Never expected in practice."
      ""
      "Please report scripts that trigger it.";
    (* ---- warnings ---------------------------------------------------- *)
    w "W101" "redundant isa edge"
      "The new edge is implied by an existing path. Legal, but it changes \
       off-path preemption results (paper, appendix, footnote 7)."
      "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
       CREATE CLASS penguin UNDER bird;\n\
       CREATE ISA penguin UNDER animal;"
      "Remove the redundant edge; the path already implies it.";
    w "W102" "dead row"
      "The inserted row is already implied by a more general stored row \
       of the same sign, and no opposite-sign row intersects it, so it \
       can neither change a verdict nor disambiguate a conflict."
      "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
       CREATE INSTANCE tweety OF bird;\n\
       CREATE RELATION flies (who: animal);\n\
       INSERT INTO flies VALUES (+ ALL bird);\n\
       INSERT INTO flies VALUES (+ tweety);"
      "Drop the row, or keep it only to pre-empt a planned negation.";
    w "W103" "shadowed negation"
      "Every instance the negated row covers is re-asserted by a strictly \
       more specific positive row, so under off-path preemption the \
       negation never wins anywhere."
      "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
       CREATE CLASS penguin UNDER bird; CREATE INSTANCE opus OF penguin;\n\
       CREATE RELATION flies (who: animal);\n\
       INSERT INTO flies VALUES (+ opus);\n\
       INSERT INTO flies VALUES (- ALL penguin);"
      "Negate a narrower class, or remove the shadowing positives.";
    w "W104" "ambiguity conflict"
      "The insert (or delete) leaves the relation violating the ambiguity \
       constraint (paper, section 3.1): some item has incomparable \
       strongest binders of opposite sign, or a row directly contradicts \
       a stored tuple. The evaluator rejects the statement."
      "CREATE DOMAIN animal;\n\
       CREATE CLASS bird UNDER animal;  CREATE CLASS swimmer UNDER animal;\n\
       CREATE CLASS penguin UNDER bird; CREATE ISA penguin UNDER swimmer;\n\
       CREATE RELATION eats (who: animal);\n\
       INSERT INTO eats VALUES (+ ALL bird);\n\
       INSERT INTO eats VALUES (- ALL swimmer);"
      "Add a preference edge or a more specific tie-breaking row.";
    w "W105" "unsatisfiable selection"
      "ANDed selections constrain the same attribute to values that are \
       disjoint under the paper's optimistic intersection rule: the \
       result is always empty."
      "CREATE DOMAIN animal;\n\
       CREATE INSTANCE rex OF animal; CREATE INSTANCE tweety OF animal;\n\
       CREATE RELATION flies (who: animal);\n\
       SELECT * FROM flies WHERE who = rex AND who = tweety;"
      "Drop one conjunct, or select on a shared ancestor class.";
    w "W106" "dead write"
      "A row this script asserts is unconditionally destroyed (by an \
       exact DELETE of the same item or DROP RELATION) before any later \
       statement reads the relation."
      "CREATE DOMAIN place; CREATE INSTANCE antarctica OF place;\n\
       CREATE RELATION guards (where_at: place);\n\
       INSERT INTO guards VALUES (+ antarctica);\n\
       DELETE FROM guards VALUES (antarctica);"
      "Remove the pointless insert (or the delete).";
    w "W107" "insert is a no-op under flattening"
      "Every atomic instance the inserted row covers already receives the \
       same sign from the stored tuples: flattening yields the same \
       extension with or without the row."
      "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
       CREATE CLASS penguin UNDER bird; CREATE INSTANCE tweety OF bird;\n\
       CREATE RELATION swims (who: animal);\n\
       INSERT INTO swims VALUES (+ ALL penguin), (+ tweety);\n\
       INSERT INTO swims VALUES (+ ALL bird);"
      "Drop the row; the more specific rows already cover it.";
    w "W108" "contradictory sign assertions across statements"
      "The row asserts the opposite sign on the exact item a previous \
       statement of this script asserted. A stored sign is never \
       overwritten: the evaluator rejects the statement (W104)."
      "CREATE DOMAIN animal; CREATE INSTANCE rex OF animal;\n\
       CREATE RELATION eats (who: animal);\n\
       INSERT INTO eats VALUES (+ rex);\n\
       INSERT INTO eats VALUES (- rex);"
      "Delete the earlier assertion explicitly if the flip is intended.";
    w "W109" "exception erases the entire parent extension"
      "The inserted negation is carved as an exception to a stored \
       positive generalization but covers every instance of it — the \
       positive assertion no longer holds anywhere."
      "CREATE DOMAIN water; CREATE CLASS fish UNDER water;\n\
       CREATE INSTANCE nemo OF fish;\n\
       CREATE RELATION dives (who: water);\n\
       INSERT INTO dives VALUES (+ ALL fish);\n\
       INSERT INTO dives VALUES (- nemo);"
      "Negate a strict subset, or delete the positive row instead.";
    w "W110" "conflicting statement pair"
      "Two statements write rows of the same relation whose items \
       overlap on every coordinate while neither subsumes the other, \
       with opposite signs or a DELETE on either side: on the shared \
       items the outcome depends on statement order (ambiguity \
       acceptance is order-sensitive). \
       Subsumption-related overlaps — the paper's exception idiom, a \
       negation carved under its generalization — and same-sign \
       inserts are not reported."
      "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
       CREATE CLASS swimmer UNDER animal;\n\
       CREATE CLASS penguin UNDER bird;\n\
       CREATE ISA penguin UNDER swimmer;\n\
       CREATE RELATION dives (who: animal);\n\
       INSERT INTO dives VALUES (+ ALL swimmer);\n\
       INSERT INTO dives VALUES (- ALL bird);"
      "Make the intended order explicit (keep the statements adjacent), \
       or disambiguate the shared cone with a preference edge.";
    (* ---- hints ------------------------------------------------------- *)
    h "H201" "bare class value"
      "An insert row uses a class name without ALL. The row applies to \
       every member of the class exactly as if ALL had been written."
      "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
       CREATE RELATION flies (who: animal);\n\
       INSERT INTO flies VALUES (+ bird);"
      "Write ALL c to make the quantification visible, or pick an \
       instance if one element was meant.";
    h "H202" "projection drops the exception-carrying attribute"
      "The projection removes an attribute on which the relation carves \
       an exception with a negated class tuple; projection resolves the \
       collisions in favour of the positive tuple (paper, Fig. 11c), so \
       the exception structure is silently lost."
      "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;\n\
       CREATE CLASS penguin UNDER bird;\n\
       CREATE DOMAIN place; CREATE INSTANCE antarctica OF place;\n\
       CREATE RELATION lives (who: animal, where_at: place);\n\
       INSERT INTO lives VALUES (+ ALL bird, antarctica);\n\
       INSERT INTO lives VALUES (- ALL penguin, antarctica);\n\
       SELECT * FROM PROJECT lives ON (where_at);"
      "Keep the exception-carrying attribute in the projection, or \
       EXPLICATE first if flat semantics are wanted.";
    h "H203" "replica-replay advisory"
      "CONSOLIDATE and EXPLICATE rewrite stored tuples, but the WAL logs \
       only their source text: a replica re-derives the contents at \
       apply time. Deterministic, so advisory only."
      "CREATE DOMAIN animal; CREATE RELATION flies (who: animal);\n\
       CONSOLIDATE flies;"
      "Confirm convergence with hrdb fsck --against (docs/FSCK.md).";
    (* ---- perf notes (docs/COST.md) ----------------------------------- *)
    p "P300" "cartesian blowup"
      "A join whose operands share no attribute combines every pair of \
       tuples; the cost model estimates the product exceeds the \
       cartesian threshold (16 rows). Always advisory, like every P \
       code: exit codes are unaffected even under --strict."
      "CREATE DOMAIN a; CREATE DOMAIN b;\n\
       CREATE RELATION r (x: a); CREATE RELATION s (y: b);\n\
       SELECT * FROM r JOIN s;"
      "Share an attribute name to join on, or restrict the operands \
       first so the product stays small.";
    p "P301" "EXPLICATE over a large cone"
      "EXPLICATE (or an EXPLICATED expression) with no restricting \
       predicate materializes the whole atomic extension; the cost model \
       estimates it above the cone threshold (64 rows)."
      "-- with a class of many instances under d:\n\
       CREATE RELATION r (x: d, y: d);\n\
       INSERT INTO r VALUES (+ ALL d, ALL d);\n\
       EXPLICATE r;"
      "Select first (the optimizer pushes selections below the flatten), \
       or restrict with EXPLICATE r ON (class).";
    p "P302" "unselective conjunct evaluated first"
      "In WHERE a = v AND b = w the first conjunct is evaluated \
       innermost; the cost model estimates it keeps far more rows than \
       the later, more selective one, so the intermediate is needlessly \
       large."
      "-- x = d keeps everything, x = i1 keeps one row:\n\
       SELECT * FROM r WHERE x = d AND x = i1;"
      "Reorder the conjuncts so the most selective one comes first.";
    p "P303" "repeated re-derivation"
      "An identical subplan is computed more than once within one \
       expression and each derivation costs at least 8 work units."
      "LET v = (SELECT r WHERE x = a1) UNION (SELECT r WHERE x = a1);"
      "Bind the subexpression once with LET, or CONSOLIDATE the stored \
       relation so the derivation is cached.";
    p "P304" "self-join"
      "The same stored relation appears on both sides of a join — a \
       recursive pattern the optimizer cannot reorder or push \
       selections through."
      "SELECT * FROM r JOIN r;"
      "RENAME one side's attributes (making the intent explicit), and \
       restrict each side before joining.";
    p "P305" "unrouted scan under sharding"
      "The query selects a relation, but never on its first attribute — \
       the sharding key. A sharded router (docs/SHARDING.md) can restrict \
       its scatter only when the plan selects on the first attribute, so \
       this query fans out to every shard. Advisory, and meaningless on \
       single-node deployments."
      "CREATE DOMAIN animal; CREATE DOMAIN place;\n\
       CREATE INSTANCE rex OF animal; CREATE INSTANCE zoo OF place;\n\
       CREATE RELATION lives (who: animal, where_at: place);\n\
       SELECT * FROM lives WHERE where_at = zoo;"
      "Select on the first attribute too when possible, or order the \
       schema so the most-selected attribute comes first.";
    (* ---- fsck findings (docs/FSCK.md) -------------------------------- *)
    (* Retired codes, never reused. With the pre-paged files they
       checked: F002 (meta), F003/F004 (snapshot.bin), F014/F015
       (graphs.bin), F019 (meta's published_lsn); with the coordinate
       B-tree, F026 (dangling TID), F027 (duplicate TID) and F028
       (B-tree order); and with the router's pipelined write run, lint
       code P306 (a run of pairwise-commuting mutations the router would
       overlap). *)
    fc "F000" "internal fsck error"
      "A check raised; never expected." "Please report the directory layout that triggers it.";
    fc "F001" "not a database directory"
      "The path is not a directory, or holds the pre-paged snapshot.bin \
       layout (no pages.db) that this build cannot open."
      "Point fsck at an hrdb data directory; migrate a pre-paged one by \
       opening it once with an older build (docs/STORAGE.md).";
    fw "F005" "torn WAL tail"
      "At most one trailing record is incomplete; repaired on next open."
      "Open the database normally; the tail is truncated.";
    fc "F006" "mid-log corruption"
      "Intact records follow a corrupt one." "Recover from a replica; the local WAL is untrustworthy.";
    fc "F007" "non-monotone WAL LSNs"
      "Record LSNs are not contiguous and increasing." "Recover from a replica or the last good checkpoint.";
    fw "F008" "stale WAL records"
      "Records at or below base_lsn are dead weight." "Checkpoint to truncate the log.";
    fc "F009" "base_lsn disagreement"
      "The first live WAL record is not the page store's base_lsn + 1: \
       the records in between are missing."
      "Recover from a replica or the last good checkpoint.";
    fc "F010" "WAL replay fails"
      "A logged statement no longer applies on top of the page store."
      "Recover from a replica or the last good checkpoint.";
    fc "F011" "hierarchy DAG cycle"
      "A stored isa graph has a cycle." "Restore from backup; the store violates its invariant.";
    fw "F012" "redundant isa edge"
      "A stored edge violates type-irredundancy." "Drop the redundant edge (it changes preemption).";
    fc "F013" "closure index mismatch"
      "The transitive-closure index disagrees with a naive DFS."
      "Report it: the index is rebuilt from the stored DAG on every open, \
       so a mismatch is a bug in the closure code, not in the files.";
    fc "F016" "peer divergence"
      "Two databases disagree at their greatest common LSN."
      "Rebuild the replica from a fresh snapshot of the primary.";
    fw "F017" "peers cannot be compared"
      "For example, a checkpoint discarded the common prefix, or a relation is \
       conflicted and has no extension to compare."
      "Compare from a fresh base snapshot; repair a conflicted relation (F018) first.";
    fw "F018" "ambiguity constraint violated"
      "A stored relation has an item with incomparable opposite-sign binders."
      "Add a preference edge or a disambiguating row, then re-store.";
    fc "F020" "misplaced tuple"
      "A stored tuple's first coordinate routes to other shard(s) under the \
       shard map; routed reads that restrict their scatter would miss it."
      "Re-insert the tuple through the router, then delete the stray copy.";
    fc "F021" "cross-subtree replica missing or sign-flipped"
      "A tuple whose cover spans several shards is absent, or stored with \
       the opposite sign, on a covered shard."
      "Re-apply the tuple on the lagging shard (a crash window between \
       per-shard commits can leave this behind).";
    fc "F022" "shard map does not load"
      "The --against file looks like a shard map but does not parse."
      "Fix the map (format in docs/SHARDING.md).";
    fc "F023" "shard directory unavailable"
      "A shard's data directory is missing, unreadable, or does not \
       materialize (warning when the map simply lists none)."
      "Point the map's shard line at the shard's data directory.";
    fc "F024" "shards disagree on DDL"
      "Hierarchies or relation schemas differ across shards; the router \
       replicates every DDL statement, so a shard missed one."
      "Replay the missing DDL on the lagging shard, or rebuild it.";
    fc "F025" "page seal violation"
      "A pages.db page fails its CRC or header seal, a live heap record \
       does not decode, the meta roots do not decode, or the file has a partial trailing page (warning: a \
       crash mid-extension leaves one, no committed state can reference \
       it, and it is overwritten by the next extension)."
      "Restore from a replica or a snapshot image; the shadow-paged \
       commit never overwrites the previous root, so the prior epoch \
       may still open.";
    fw "F029" "free-space map inaccurate"
      "A free-space map entry disagrees with the page it describes; \
       placement may waste space or retry, but stored data is intact."
      "Harmless to data; re-checkpoint after the next mutation of the \
       affected page, or rebuild to repack.";
  ]

let find code =
  let target = String.uppercase_ascii code in
  List.find_opt (fun entry -> entry.code = target) all

let render entry =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s — %s (%s)\n\n%s\n" entry.code entry.title entry.severity
    entry.meaning;
  if entry.example <> "" then begin
    Buffer.add_string b "\nexample:\n";
    String.split_on_char '\n' entry.example
    |> List.iter (fun line -> Printf.bprintf b "  %s\n" line)
  end;
  if entry.fix <> "" then Printf.bprintf b "\nfix: %s\n" entry.fix;
  Buffer.contents b
