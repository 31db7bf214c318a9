open Lexer

exception Parse_error of { msg : string; loc : Loc.t }

(* A tiny mutable token cursor over span-stamped tokens. [last] is the
   span of the most recently consumed token, so a production's span is
   the merge of its first token's span with [last] when it finishes. *)
type cursor = { mutable toks : (token * Loc.t) list; mutable last : Loc.t }

let fail c fmt =
  let loc = match c.toks with (_, l) :: _ -> l | [] -> c.last in
  Format.kasprintf
    (fun s ->
      raise
        (Parse_error
           { msg = Format.asprintf "%s at %a" s Loc.pp_prose loc; loc }))
    fmt

let peek c = match c.toks with [] -> None | (t, _) :: _ -> Some t

(* The span the next production will start at. *)
let next_loc c = match c.toks with (_, l) :: _ -> l | [] -> c.last

let advance c =
  match c.toks with
  | [] -> fail c "unexpected end of input"
  | (t, l) :: rest ->
    c.toks <- rest;
    c.last <- l;
    t

let expect c tok =
  let got = advance c in
  if got <> tok then fail c "expected %a but found %a" pp_token tok pp_token got

let expect_kw c kw =
  match advance c with
  | Kw k when k = kw -> ()
  | got -> fail c "expected keyword %s but found %a" kw pp_token got

let ident c =
  match advance c with
  | Ident s -> s
  | got -> fail c "expected an identifier but found %a" pp_token got

let comma_sep c parse_one =
  let rec rest acc =
    match peek c with
    | Some Comma ->
      ignore (advance c);
      rest (parse_one c :: acc)
    | _ -> List.rev acc
  in
  rest [ parse_one c ]

let value c =
  match peek c with
  | Some (Kw "ALL") ->
    ignore (advance c);
    Ast.All (ident c)
  | _ -> Ast.Atom (ident c)

let paren_values c =
  expect c Lparen;
  let vs = comma_sep c value in
  expect c Rparen;
  vs

let signed_row c =
  expect c Lparen;
  let sign =
    match advance c with
    | Plus -> Hierel.Types.Pos
    | Minus -> Hierel.Types.Neg
    | got -> fail c "expected '+' or '-' but found %a" pp_token got
  in
  let values = comma_sep c value in
  expect c Rparen;
  { Ast.sign; values }

let attr_list c =
  expect c Lparen;
  let one c =
    let name = ident c in
    expect c Colon;
    let domain = ident c in
    (name, domain)
  in
  let attrs = comma_sep c one in
  expect c Rparen;
  attrs

let semantics_of_kw = function
  | "OFF-PATH" -> Some Hierel.Types.Off_path
  | "ON-PATH" -> Some Hierel.Types.On_path
  | "NO-PREEMPTION" -> Some Hierel.Types.No_preemption
  | _ -> None

(* Builds a located node spanning from [start] to the last consumed
   token. *)
let mk c start node = { Ast.expr = node; eloc = Loc.merge start c.last }

let rec expr c =
  let start = next_loc c in
  let lhs = term c in
  let rec ops lhs =
    match peek c with
    | Some (Kw "UNION") ->
      ignore (advance c);
      ops (mk c start (Ast.Union (lhs, term c)))
    | Some (Kw "INTERSECT") ->
      ignore (advance c);
      ops (mk c start (Ast.Intersect (lhs, term c)))
    | Some (Kw "EXCEPT") ->
      ignore (advance c);
      ops (mk c start (Ast.Except (lhs, term c)))
    | Some (Kw "JOIN") ->
      ignore (advance c);
      ops (mk c start (Ast.Join (lhs, term c)))
    | _ -> lhs
  in
  ops lhs

and term c =
  let start = next_loc c in
  match peek c with
  | Some Lparen ->
    ignore (advance c);
    let e = expr c in
    expect c Rparen;
    e
  | Some (Kw "SELECT") ->
    ignore (advance c);
    let e = term c in
    expect_kw c "WHERE";
    let rec conds e =
      let attr = ident c in
      expect c Equals;
      let v = value c in
      let e = mk c start (Ast.Select (e, attr, v)) in
      match peek c with
      | Some (Kw "AND") ->
        ignore (advance c);
        conds e
      | _ -> e
    in
    conds e
  | Some (Kw "PROJECT") ->
    ignore (advance c);
    let e = term c in
    expect_kw c "ON";
    expect c Lparen;
    let attrs = comma_sep c ident in
    expect c Rparen;
    mk c start (Ast.Project (e, attrs))
  | Some (Kw "RENAME") ->
    ignore (advance c);
    let e = term c in
    let old_name = ident c in
    expect_kw c "TO";
    let new_name = ident c in
    mk c start (Ast.Rename (e, old_name, new_name))
  | Some (Kw "CONSOLIDATED") ->
    ignore (advance c);
    mk c start (Ast.Consolidated (term c))
  | Some (Kw "EXPLICATED") ->
    ignore (advance c);
    let e = term c in
    (match peek c with
    | Some (Kw "ON") ->
      ignore (advance c);
      expect c Lparen;
      let attrs = comma_sep c ident in
      expect c Rparen;
      mk c start (Ast.Explicated (e, Some attrs))
    | _ -> mk c start (Ast.Explicated (e, None)))
  | Some (Ident _) -> mk c start (Ast.Rel (ident c))
  | Some got -> fail c "expected a relation expression but found %a" pp_token got
  | None -> fail c "expected a relation expression but found end of input"

let create_stmt c =
  match advance c with
  | Kw "DOMAIN" -> Ast.Create_domain (ident c)
  | Kw "CLASS" ->
    let name = ident c in
    let parents =
      match peek c with
      | Some (Kw "UNDER") ->
        ignore (advance c);
        comma_sep c ident
      | _ -> fail c "CREATE CLASS %s: missing UNDER <parent>" name
    in
    Ast.Create_class { name; parents }
  | Kw "INSTANCE" ->
    let name = ident c in
    let parents =
      match peek c with
      | Some (Kw "OF") ->
        ignore (advance c);
        comma_sep c ident
      | _ -> fail c "CREATE INSTANCE %s: missing OF <class>" name
    in
    Ast.Create_instance { name; parents }
  | Kw "ISA" ->
    let sub = ident c in
    expect_kw c "UNDER";
    let super = ident c in
    Ast.Create_isa { sub; super }
  | Kw "PREFERENCE" ->
    let stronger = ident c in
    expect_kw c "OVER";
    let weaker = ident c in
    Ast.Create_preference { weaker; stronger }
  | Kw "RELATION" ->
    let name = ident c in
    let attrs = attr_list c in
    Ast.Create_relation { name; attrs }
  | got -> fail c "CREATE: unexpected %a" pp_token got

let statement c =
  match advance c with
  | Kw "CREATE" -> create_stmt c
  | Kw "DROP" ->
    expect_kw c "RELATION";
    Ast.Drop_relation (ident c)
  | Kw "INSERT" ->
    expect_kw c "INTO";
    let rel = ident c in
    expect_kw c "VALUES";
    let rows = comma_sep c signed_row in
    Ast.Insert { rel; rows }
  | Kw "DELETE" ->
    expect_kw c "FROM";
    let rel = ident c in
    expect_kw c "VALUES";
    let rows = comma_sep c paren_values in
    Ast.Delete { rel; rows }
  | Kw "SELECT" ->
    expect c Star;
    expect_kw c "FROM";
    let start = next_loc c in
    let e = expr c in
    let e =
      match peek c with
      | Some (Kw "WHERE") ->
        ignore (advance c);
        let rec conds e =
          let attr = ident c in
          expect c Equals;
          let v = value c in
          let e = mk c start (Ast.Select (e, attr, v)) in
          match peek c with
          | Some (Kw "AND") ->
            ignore (advance c);
            conds e
          | _ -> e
        in
        conds e
      | _ -> e
    in
    let justified =
      match peek c with
      | Some (Kw "WITH") ->
        ignore (advance c);
        expect_kw c "JUSTIFICATION";
        true
      | _ -> false
    in
    Ast.Select_query { expr = e; justified }
  | Kw "LET" ->
    let name = ident c in
    expect c Equals;
    Ast.Let_binding { name; expr = expr c }
  | Kw "ASK" ->
    let rel = ident c in
    let values = paren_values c in
    let semantics =
      match peek c with
      | Some (Kw "UNDER") ->
        ignore (advance c);
        (match advance c with
        | Kw k -> (
          match semantics_of_kw k with
          | Some s -> Some s
          | None -> fail c "unknown semantics %s" k)
        | got -> fail c "expected a semantics name but found %a" pp_token got)
      | _ -> None
    in
    Ast.Ask { rel; values; semantics }
  | Kw "CONSOLIDATE" -> Ast.Consolidate (ident c)
  | Kw "EXPLICATE" ->
    let rel = ident c in
    let over =
      match peek c with
      | Some (Kw "ON") ->
        ignore (advance c);
        expect c Lparen;
        let attrs = comma_sep c ident in
        expect c Rparen;
        Some attrs
      | _ -> None
    in
    Ast.Explicate { rel; over }
  | Kw "CHECK" -> Ast.Check (ident c)
  | Kw "SHOW" -> (
    match advance c with
    | Kw "HIERARCHY" -> Ast.Show_hierarchy (ident c)
    | Kw "RELATIONS" -> Ast.Show_relations
    | Kw "HIERARCHIES" -> Ast.Show_hierarchies
    | got -> fail c "SHOW: unexpected %a" pp_token got)
  | Kw "EXPLAIN" -> (
    match peek c with
    | Some (Kw "PLAN") ->
      ignore (advance c);
      Ast.Explain_plan (expr c)
    | Some (Kw "ANALYZE") ->
      ignore (advance c);
      Ast.Explain_analyze (expr c)
    | Some (Kw "ESTIMATE") ->
      ignore (advance c);
      Ast.Explain_estimate (expr c)
    | _ ->
      let rel = ident c in
      let values = paren_values c in
      Ast.Explain { rel; values })
  | Kw "DIFF" ->
    let prev = term c in
    let next = term c in
    Ast.Diff { prev; next }
  | Kw "STATS" -> (
    match peek c with
    | Some (Kw "JSON") ->
      ignore (advance c);
      Ast.Stats { json = true }
    | Some (Kw "RESET") ->
      ignore (advance c);
      Ast.Stats_reset
    | _ -> Ast.Stats { json = false })
  | Kw "COUNT" ->
    let e = expr c in
    let by =
      match peek c with
      | Some (Kw "BY") ->
        ignore (advance c);
        Some (ident c)
      | _ -> None
    in
    Ast.Count { expr = e; by }
  | got -> fail c "unexpected %a at start of statement" pp_token got

let parse_tokens toks =
  let c = { toks; last = Loc.dummy } in
  let rec loop acc =
    match peek c with
    | None -> List.rev acc
    | Some Semicolon ->
      ignore (advance c);
      loop acc
    | Some _ ->
      let start = next_loc c in
      let s = statement c in
      let sloc = Loc.merge start c.last in
      (match peek c with
      | Some Semicolon -> ignore (advance c)
      | None -> ()
      | Some got -> fail c "expected ';' but found %a" pp_token got);
      loop ({ Ast.stmt = s; sloc } :: acc)
  in
  loop []

type piece = { source : string; stmt : Ast.located_statement }

(* Each piece is lexed in place with the ';' that ends it, from the
   line and column it starts at, so it reads, and fails, as it does in
   the whole script; and no token list of the whole script is held.
   A piece holds at most one statement, since ';' ends one. *)
let parse_pieces input =
  let n = String.length input in
  let line = ref 1 and bol = ref 0 and scanned = ref 0 in
  let start_of off =
    for i = !scanned to off - 1 do
      if input.[i] = '\n' then begin
        incr line;
        bol := i + 1
      end
    done;
    scanned := off;
    { Loc.line = !line; col = off - !bol + 1 }
  in
  List.filter_map
    (fun (off, text) ->
      let len = min (n - off) (String.length text + 1) in
      match parse_tokens (tokenize_range input ~off ~len ~start:(start_of off)) with
      | [] -> None
      | stmt :: _ -> Some { source = String.trim text; stmt })
    (split_statements input)

let parse input = List.map (fun p -> p.stmt) (parse_pieces input)

let parse_statement input =
  let c = { toks = []; last = Loc.dummy } in
  match parse input with
  | [ s ] -> s
  | [] -> fail c "empty input"
  | _ -> fail c "expected exactly one statement"
