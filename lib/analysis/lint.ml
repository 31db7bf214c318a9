module Ast = Hr_query.Ast
module Eval = Hr_query.Eval
module Loc = Hr_query.Loc
module Lexer = Hr_query.Lexer
module Parser = Hr_query.Parser
open Hierel

(* ---- provenance (W106 / W108) ----------------------------------------- *)

(* Which statement of the script asserted which stored tuple, and when
   each relation was last read. Only rows the script itself asserted
   have a record, so these checks never fire on pre-existing data. *)
type write = { w_item : Item.t; w_sign : Types.sign; w_loc : Loc.t; w_stmt : int }

type provenance = {
  mutable stmt : int;  (* the statement being checked, from 1 *)
  writes : (string, write list) Hashtbl.t;  (* per relation *)
  reads : (string, int) Hashtbl.t;  (* relation -> last statement reading it *)
}

let writes_of p rel = Option.value ~default:[] (Hashtbl.find_opt p.writes rel)
let find_write p rel item = List.find_opt (fun w -> Item.equal w.w_item item) (writes_of p rel)

let forget_write p rel item =
  Hashtbl.replace p.writes rel
    (List.filter (fun w -> not (Item.equal w.w_item item)) (writes_of p rel))

let record_write p rel item sign loc =
  forget_write p rel item;
  Hashtbl.replace p.writes rel
    (writes_of p rel @ [ { w_item = item; w_sign = sign; w_loc = loc; w_stmt = p.stmt } ])

(* W106: a row this script asserted is unconditionally destroyed (exact
   DELETE, or the whole relation dropped) with no read of the relation in
   between — the write could not have been observed. Reported at the
   write's own span so the fix (delete the insert) is where the cursor
   lands; the destroying statement is the related note. *)
let dead_write p ~emit rel schema ~verb ~at w =
  let last_read = Option.value ~default:0 (Hashtbl.find_opt p.reads rel) in
  if w.w_stmt < p.stmt && last_read < w.w_stmt then
    emit
      (Diagnostic.warningf ~code:"W106"
         ~related:[ Format.asprintf "%s at %a" verb Loc.pp at ]
         w.w_loc "dead write: %a %s is asserted here but %s before %s is ever read"
         Types.pp_sign w.w_sign
         (Item.to_string schema w.w_item)
         verb rel)

(* W108: the rejected row contradicts a tuple an earlier statement of
   this script asserted. *)
let contradicted p ~emit loc rel ~row item sign =
  match find_write p (Relation.name rel) item with
  | Some w when w.w_stmt < p.stmt ->
    emit
      (Diagnostic.warningf ~code:"W108"
         ~related:[ Format.asprintf "the contradicted assertion is at %a" Loc.pp w.w_loc ]
         loc
         "row %d asserts %a %s, contradicting the %a asserted earlier in this \
          script; a stored sign is never overwritten, so the statement is rejected"
         row Types.pp_sign sign
         (Item.to_string (Relation.schema rel) item)
         Types.pp_sign w.w_sign)
  | _ -> ()

(* ---- one statement ----------------------------------------------------- *)

let replay_hint ~emit loc verb rel =
  emit
    (Diagnostic.hintf ~code:"H203" loc
       "%s is logged as its source text: a replica re-derives the rewritten \
        contents of %s at apply time; verify convergence with hrdb fsck --against"
       verb rel)

(* An accepted mutation: the advisory passes, which compare the fork
   with [before] (the relations as the statement found them) and with
   [issues] (the edited hierarchy's [validate] report before an ISA
   edge), and the provenance it leaves. *)
let accepted p ~before ~issues cat ~emit loc stmt =
  match stmt with
  | Ast.Create_isa { super; _ } ->
    Advisory.redundant_isa ~emit loc ~before:issues (Eval.hierarchy_containing cat super)
  | Ast.Insert { rel; rows } ->
    let r = Catalog.relation before rel in
    let schema = Relation.schema r in
    let rows =
      List.map
        (fun (row : Ast.signed_row) -> (row, Eval.resolve_values schema row.values))
        rows
    in
    Advisory.insert_rows ~emit loc r rows;
    List.iter (fun ({ Ast.sign; _ }, item) -> record_write p rel item sign loc) rows
  | Ast.Delete { rel; rows } ->
    let schema = Relation.schema (Catalog.relation before rel) in
    List.iter
      (fun values ->
        let item = Eval.resolve_values schema values in
        Option.iter
          (dead_write p ~emit rel schema ~verb:"deleted" ~at:loc)
          (find_write p rel item);
        forget_write p rel item)
      rows
  | Ast.Drop_relation rel ->
    let schema = Relation.schema (Catalog.relation before rel) in
    List.iter
      (dead_write p ~emit rel schema ~verb:"the relation is dropped" ~at:loc)
      (writes_of p rel);
    Hashtbl.remove p.writes rel
  | Ast.Let_binding { name; _ } -> Hashtbl.remove p.writes name
  | Ast.Consolidate rel -> replay_hint ~emit loc "CONSOLIDATE" rel
  | Ast.Explicate { rel; _ } ->
    replay_hint ~emit loc "EXPLICATE" rel;
    Hashtbl.remove p.writes rel
  | _ -> ()

let mutation p cat ~emit loc stmt =
  (* DDL may edit a hierarchy in place, so what W101 compares with is
     taken now; relation values are immutable, so a snapshot keeps them *)
  let before = Catalog.snapshot cat in
  let issues =
    match stmt with
    | Ast.Create_isa { super; _ } -> (
      try Hr_hierarchy.Hierarchy.validate (Eval.hierarchy_containing cat super)
      with Eval.Rejected _ -> [])
    | _ -> []
  in
  (* A LET's expression is typed for spans; when typing already reports
     an error, the engine's rejection of the same expression is not
     repeated. *)
  let typed = ref false in
  (match stmt with
  | Ast.Let_binding { expr; _ } ->
    ignore
      (Expr_check.infer cat expr ~emit:(fun d ->
           typed := !typed || d.Diagnostic.severity = Diagnostic.Error;
           emit d))
  | _ -> ());
  match Eval.attempt cat stmt with
  | Ok _ -> accepted p ~before ~issues cat ~emit loc stmt
  | Error rejection ->
    let verb = match stmt with Ast.Delete _ -> "delete" | _ -> "insert" in
    if not !typed then emit (Diagnostic.of_rejection ~verb loc rejection);
    match rejection with
    | Eval.Contradiction { rel; row; item; sign }, _ ->
      contradicted p ~emit loc rel ~row item sign
    | _ -> ()

let read_only cat ~emit loc stmt =
  let engine f = ignore (Expr_check.engine ~emit loc f) in
  let infer e = Expr_check.infer cat ~emit e in
  match stmt with
  | Ast.Select_query { expr; _ } | Ast.Explain_analyze expr | Ast.Explain_estimate expr ->
    ignore (infer expr)
  | Ast.Count { expr; by } -> (
    match (infer expr, by) with
    | Some attrs, Some attr when Option.is_none (Expr_check.find_attr attrs attr) ->
      emit
        (Diagnostic.errorf ~code:"E008" loc "COUNT BY unknown attribute %S (schema is %s)"
           attr (Expr_check.pp_schema attrs))
    | _ -> ())
  | Ast.Diff { prev; next } -> (
    match (infer prev, infer next) with
    | Some sp, Some sn when not (Expr_check.compatible sp sn) ->
      emit
        (Diagnostic.errorf ~code:"E006" loc
           "DIFF operands must have identical schemas: %s vs %s" (Expr_check.pp_schema sp)
           (Expr_check.pp_schema sn))
    | _ -> ())
  | Ast.Ask { rel; values; _ } | Ast.Explain { rel; values } ->
    engine (fun () ->
        let schema = Relation.schema (Eval.relation cat rel) in
        ignore (Eval.resolve_values ~cat ~rel schema values);
        Advisory.bare_classes ~emit loc schema values)
  | Ast.Check rel -> engine (fun () -> ignore (Eval.relation cat rel))
  | Ast.Show_hierarchy name -> engine (fun () -> ignore (Eval.domain cat name))
  (* EXPLAIN PLAN only prints the plan: the engine accepts it whatever
     it names. *)
  | _ -> ()

(* Every diagnostic of one statement, in emission order; all internal
   failures become diagnostics — the analyzer must never raise, whatever
   the script or catalog looks like. *)
let check_statement p cat ({ Ast.stmt; sloc = loc } as lstmt) =
  p.stmt <- p.stmt + 1;
  (* a read makes every earlier write to the relation observable, which
     keeps W106 (dead write) from firing on rows a query in between
     actually used *)
  List.iter (fun rel -> Hashtbl.replace p.reads rel p.stmt) (Ast.relations_read stmt);
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  (* Performance lints (P3xx) price the statement against the catalog it
     runs on, and are dropped when the statement has errors. *)
  let perf = ref [] in
  (try Perf_check.check cat ~emit:(fun d -> perf := d :: !perf) lstmt
   with _ -> () (* advisory only: never let pricing break the lint *));
  (try
     if Ast.mutating stmt then mutation p cat ~emit loc stmt
     else read_only cat ~emit loc stmt
   with exn ->
     emit
       (Diagnostic.errorf ~code:"E999" loc "internal analyzer error: %s"
          (Printexc.to_string exn)));
  let ds = List.rev !acc in
  if Diagnostic.has_errors ds then ds else ds @ List.rev !perf

(* ---- whole-script pass (W110) ---------------------------------------- *)

(* One INSERT or DELETE row, resolved against the fork before its
   statement runs: a node per coordinate, with the hierarchy it was
   found in, and the sign ([None] for a DELETE row). A row whose
   relation, arity or some value does not resolve is not kept: nothing
   can be said about what it reaches, so it is never reported. *)
type row = {
  r_rel : string;
  r_sign : Types.sign option;
  r_coords : (Hr_hierarchy.Hierarchy.t * Hr_hierarchy.Hierarchy.node) array;
}

let resolve_rows cat stmt =
  let resolve rel r_sign values =
    match Catalog.find_relation cat rel with
    | Some r when List.length values = Schema.arity (Relation.schema r) ->
      let coord i v =
        let h = Schema.hierarchy (Relation.schema r) i in
        Option.map (fun n -> (h, n)) (Hr_hierarchy.Hierarchy.find h (Ast.value_name v))
      in
      let coords = List.mapi coord values in
      if List.for_all Option.is_some coords then
        Some { r_rel = rel; r_sign; r_coords = Array.of_list (List.map Option.get coords) }
      else None
    | _ -> None
  in
  match stmt with
  | Ast.Insert { rel; rows } ->
    List.filter_map (fun { Ast.sign; values } -> resolve rel (Some sign) values) rows
  | Ast.Delete { rel; rows } -> List.filter_map (resolve rel None) rows
  | _ -> []

(* [a]'s item covers [b]'s, coordinate by coordinate. *)
let covers a b =
  Array.for_all2
    (fun (h, n) (_, m) -> Hr_hierarchy.Hierarchy.subsumes h n m)
    a.r_coords b.r_coords

(* Two rows whose order matters: the same relation, every coordinate
   provably intersecting, neither item covering the other, and opposite
   signs or a DELETE on either side. Coordinates are compared only when
   both were found in the same hierarchy value: a DDL that copied the
   domain in between leaves nothing provable. Subsumption-related
   overlaps are the paper's exception idiom, and same-sign inserts over
   incomparable items flatten identically in either order; both stay
   silent. *)
let order_sensitive a b =
  a.r_rel = b.r_rel
  && Array.length a.r_coords = Array.length b.r_coords
  && Array.for_all2
       (fun (h1, n1) (h2, n2) -> h1 == h2 && Hr_hierarchy.Hierarchy.intersects h1 n1 n2)
       a.r_coords b.r_coords
  && (not (covers a b))
  && (not (covers b a))
  && match (a.r_sign, b.r_sign) with Some sa, Some sb -> sa <> sb | _ -> true

(* W110: at most one per statement pair, at the later statement, with
   the earlier one as the related note. *)
let rec conflict_pairs = function
  | [] -> []
  | (l1, rows1) :: rest ->
    List.filter_map
      (fun (l2, rows2) ->
        List.find_opt (fun a -> List.exists (order_sensitive a) rows2) rows1
        |> Option.map (fun a ->
               Diagnostic.warningf ~code:"W110"
                 ~related:
                   [ Format.asprintf "conflicts with the statement at %a" Loc.pp l1.Ast.sloc ]
                 l2.Ast.sloc
                 "statement writes a cone of %s that overlaps an earlier statement's write \
                  but subsumes neither way: the outcome depends on statement order"
                 a.r_rel))
      rest
    @ conflict_pairs rest

let analyze_script ?catalog input =
  match Parser.parse input with
  | exception Parser.Parse_error { msg; loc } ->
    [ Diagnostic.error ~code:"E000" loc ("syntax error: " ^ msg) ]
  | exception Lexer.Lex_error { msg; loc } ->
    [ Diagnostic.error ~code:"E000" loc ("syntax error: " ^ msg) ]
  | stmts ->
    let cat = match catalog with Some c -> Catalog.fork c | None -> Catalog.create () in
    let p = { stmt = 0; writes = Hashtbl.create 8; reads = Hashtbl.create 8 } in
    let written, diags =
      List.fold_left
        (fun (written, diags) lstmt ->
          (* rows first: the statement itself then advances the fork *)
          let rows = try resolve_rows cat lstmt.Ast.stmt with _ -> [] in
          let ds = check_statement p cat lstmt in
          (* a statement with an error never pairs for W110, accepted by
             the engine or not *)
          let written =
            if rows = [] || Diagnostic.has_errors ds then written
            else (lstmt, rows) :: written
          in
          (written, ds :: diags))
        ([], []) stmts
    in
    let diags = List.concat (List.rev diags) in
    (* the whole-script pass is advisory; never let it break a lint run *)
    let pair_diags = try conflict_pairs (List.rev written) with _ -> [] in
    Diagnostic.sort (diags @ pair_diags)
