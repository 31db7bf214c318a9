module Hierarchy = Hr_hierarchy.Hierarchy
module Loc = Hr_query.Loc
module Lexer = Hr_query.Lexer
module Parser = Hr_query.Parser
open Hierel

(* One statement, all internal failures converted to diagnostics: the
   analyzer must never raise, whatever the script or catalog looks
   like. Model/hierarchy errors this deep mean a check above missed a
   precondition the simulated operation enforces — still worth
   reporting, at the statement's span. *)
let analyze_statement sim (lstmt : Hr_query.Ast.located_statement) =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  (try Stmt_check.check sim ~emit lstmt with
  | Types.Model_error msg | Hierarchy.Error msg | Failure msg ->
    emit (Diagnostic.errorf ~code:"E010" lstmt.Hr_query.Ast.sloc "%s" msg)
  | exn ->
    emit
      (Diagnostic.errorf ~code:"E999" lstmt.Hr_query.Ast.sloc
         "internal analyzer error: %s" (Printexc.to_string exn)));
  (* Performance lints (P3xx) run after the correctness checks so the
     cost model prices the statement against the post-statement sim; a
     statement that already failed to check is skipped rather than
     priced on garbage. *)
  (if not (Diagnostic.has_errors !acc) then
     try Perf_check.check sim ~emit lstmt
     with _ -> () (* advisory only: never let pricing break the lint *));
  Diagnostic.sort (List.rev !acc)

(* ---- whole-script effect pass (W110 / P306) --------------------------- *)

(* Footprints are taken against the sim {e before} each statement runs
   (so an INSERT's cones resolve against the world it executes in), and
   compared after the walk. Comparing across a DDL boundary is safe:
   DDL footprints are opaque, and every oracle answer involving an
   opaque footprint is [Unknown] — never reported, never pipelined. *)

(* Only pairs whose order provably matters: opposite signs (which of
   the incomparable cones wins on their intersection flips), or a
   delete against a write. Same-sign inserts over incomparable cones
   conflict for the oracle (replay acceptance is order-sensitive) but
   flatten identically either way — warning on them would be noise. *)
let order_sensitive (a : Footprint.atom) (b : Footprint.atom) =
  match (a.Footprint.sign, b.Footprint.sign) with
  | Some sa, Some sb -> sa <> sb
  | None, _ | _, None -> true

let write_write_incomparable overlaps =
  List.exists
    (fun (o : Effect.overlap) ->
      o.Effect.o_incomparable
      && o.Effect.o_left.Footprint.mode = Footprint.Write
      && o.Effect.o_right.Footprint.mode = Footprint.Write
      && order_sensitive o.Effect.o_left o.Effect.o_right)
    overlaps

(* W110: a later statement provably conflicts with an earlier one on
   incomparable write cones. Subsumption-related overlaps are the
   paper's exception idiom and stay silent. *)
let conflict_pairs muts =
  let rec pairs acc = function
    | [] -> List.rev acc
    | (l1, fp1) :: rest ->
      let acc =
        List.fold_left
          (fun acc (l2, fp2) ->
            match Effect.commutes_fp fp1 fp2 with
            | Effect.Conflict overlaps when write_write_incomparable overlaps ->
              let rel =
                match
                  List.find_opt
                    (fun (o : Effect.overlap) ->
                      o.Effect.o_incomparable
                      && order_sensitive o.Effect.o_left o.Effect.o_right)
                    overlaps
                with
                | Some o -> o.Effect.o_rel
                | None -> "?"
              in
              Diagnostic.warningf ~code:"W110"
                ~related:
                  [
                    Format.asprintf "conflicts with the statement at %a"
                      Hr_query.Loc.pp l1.Hr_query.Ast.sloc;
                  ]
                l2.Hr_query.Ast.sloc
                "statement writes a cone of %s that overlaps an earlier \
                 statement's write but subsumes neither way: the outcome \
                 depends on statement order"
                rel
              :: acc
            | _ -> acc)
          acc rest
      in
      pairs acc rest
  in
  pairs [] muts

(* P306: a maximal run of >= 2 consecutive mutating statements that
   pairwise commute; relation-level grouping gives the degree of
   parallelism a replica would get. *)
let commuting_runs stmts_fps =
  let diags = ref [] in
  let flush run =
    match List.rev run with
    | (first, _) :: _ :: _ as members ->
      let rels =
        List.sort_uniq String.compare
          (List.concat_map
             (fun (_, fp) -> Option.value ~default:[] (Footprint.relations fp))
             members)
      in
      let last, _ = List.nth members (List.length members - 1) in
      diags :=
        Diagnostic.perff ~code:"P306"
          ~related:
            [
              Format.asprintf "run ends at %a" Hr_query.Loc.pp
                last.Hr_query.Ast.sloc;
            ]
          first.Hr_query.Ast.sloc
          "%d consecutive statements provably commute (%d independent \
           relation group%s): the shard router overlaps them, and \
           batching them loses nothing"
          (List.length members) (List.length rels)
          (if List.length rels = 1 then "" else "s")
        :: !diags
    | _ -> ()
  in
  let run =
    List.fold_left
      (fun run (lstmt, fp) ->
        let opaque = match fp with Footprint.Opaque _ -> true | _ -> false in
        if (not (Hr_query.Ast.mutating lstmt.Hr_query.Ast.stmt)) || opaque then begin
          flush run;
          []
        end
        else if
          List.for_all
            (fun (_, fp') -> Effect.commutes_fp fp' fp = Effect.Commute)
            run
        then (lstmt, fp) :: run
        else begin
          flush run;
          [ (lstmt, fp) ]
        end)
      [] stmts_fps
  in
  flush run;
  !diags

let effect_pass stmts_fps =
  let muts =
    List.filter
      (fun (l, _) -> Hr_query.Ast.mutating l.Hr_query.Ast.stmt)
      stmts_fps
  in
  conflict_pairs muts @ commuting_runs stmts_fps

let analyze_script ?catalog input =
  match Parser.parse input with
  | exception Parser.Parse_error { msg; loc } ->
    [ Diagnostic.error ~code:"E000" loc ("syntax error: " ^ msg) ]
  | exception Lexer.Lex_error { msg; loc } ->
    [ Diagnostic.error ~code:"E000" loc ("syntax error: " ^ msg) ]
  | stmts ->
    let sim =
      match catalog with
      | Some cat -> Sim_catalog.of_catalog cat
      | None -> Sim_catalog.empty ()
    in
    let find name =
      Option.map
        (fun (e : Sim_catalog.entry) -> e.Sim_catalog.rel)
        (Sim_catalog.find_relation sim name)
    in
    let stmts_fps, diags =
      List.fold_left
        (fun (fps, diags) lstmt ->
          (* footprint first: the statement itself then advances the sim *)
          let fp =
            try Effect.footprint ~find lstmt.Hr_query.Ast.stmt
            with _ -> Footprint.Opaque "footprint analysis failed"
          in
          let ds = analyze_statement sim lstmt in
          (* a statement the analyzer already rejects never executes, so
             it neither joins a commuting run nor pairs for W110 — treat
             it as a barrier instead of reasoning about its footprint *)
          let fp =
            if List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds
            then Footprint.Opaque "statement has error diagnostics"
            else fp
          in
          ((lstmt, fp) :: fps, ds :: diags))
        ([], []) stmts
    in
    let stmts_fps = List.rev stmts_fps in
    let diags = List.concat (List.rev diags) in
    let effect_diags =
      (* the whole-script effect pass is advisory; never let it break a
         lint run *)
      try effect_pass stmts_fps with _ -> []
    in
    Diagnostic.sort (diags @ effect_diags)
