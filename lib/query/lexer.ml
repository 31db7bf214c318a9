type token =
  | Ident of string
  | Kw of string
  | Lparen
  | Rparen
  | Comma
  | Semicolon
  | Colon
  | Equals
  | Plus
  | Minus
  | Star

exception Lex_error of { msg : string; loc : Loc.t }

let lex_error loc fmt =
  Format.kasprintf (fun msg -> raise (Lex_error { msg; loc })) fmt

let keywords =
  [
    "CREATE"; "DOMAIN"; "CLASS"; "INSTANCE"; "ISA"; "PREFERENCE"; "OVER";
    "RELATION"; "UNDER"; "OF"; "INSERT"; "INTO"; "VALUES"; "DELETE"; "FROM";
    "SELECT"; "WHERE"; "WITH"; "JUSTIFICATION"; "ALL"; "LET"; "JOIN"; "UNION";
    "INTERSECT"; "EXCEPT"; "PROJECT"; "ON"; "RENAME"; "TO"; "AS"; "ASK";
    "CONSOLIDATE"; "EXPLICATE"; "CHECK"; "SHOW"; "HIERARCHY"; "HIERARCHIES";
    "RELATIONS"; "EXPLAIN"; "DROP"; "OFF-PATH"; "ON-PATH"; "NO-PREEMPTION";
    "CONSOLIDATED"; "EXPLICATED"; "COUNT"; "PLAN"; "BY"; "AND"; "DIFF";
    "ANALYZE"; "ESTIMATE"; "STATS"; "JSON"; "RESET";
  ]

let keyword_table =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k ()) keywords;
  t

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '&' || c = '-'

(* The scanner tracks the current line and column alongside the byte
   offset; a token's span covers [start, just-past-end). *)
type scan = { mutable i : int; mutable line : int; mutable col : int }

let tokenize_range input ~off ~len ~start =
  let n = off + len in
  let s = { i = off; line = start.Loc.line; col = start.Loc.col } in
  let pos () = { Loc.line = s.line; col = s.col } in
  let bump () =
    (if input.[s.i] = '\n' then begin
       s.line <- s.line + 1;
       s.col <- 1
     end
     else s.col <- s.col + 1);
    s.i <- s.i + 1
  in
  let rec skip () =
    if s.i < n then
      match input.[s.i] with
      | ' ' | '\t' | '\n' | '\r' ->
        bump ();
        skip ()
      | '-' when s.i + 1 < n && input.[s.i + 1] = '-' ->
        while s.i < n && input.[s.i] <> '\n' do
          bump ()
        done;
        skip ()
      | _ -> ()
  in
  let rec loop acc =
    skip ();
    if s.i >= n then List.rev acc
    else begin
      let lo = pos () in
      let single tok =
        bump ();
        (tok, Loc.make ~lo ~hi:(pos ()))
      in
      match input.[s.i] with
      | '(' -> loop (single Lparen :: acc)
      | ')' -> loop (single Rparen :: acc)
      | ',' -> loop (single Comma :: acc)
      | ';' -> loop (single Semicolon :: acc)
      | ':' -> loop (single Colon :: acc)
      | '=' -> loop (single Equals :: acc)
      | '+' -> loop (single Plus :: acc)
      | '*' -> loop (single Star :: acc)
      | '-' when s.i + 1 >= n || not (is_ident_char input.[s.i + 1]) ->
        loop (single Minus :: acc)
      | c when is_ident_char c || c = '-' ->
        let start = s.i in
        while s.i < n && is_ident_char input.[s.i] do
          bump ()
        done;
        let word = String.sub input start (s.i - start) in
        let upper = String.uppercase_ascii word in
        let tok = if Hashtbl.mem keyword_table upper then Kw upper else Ident word in
        loop ((tok, Loc.make ~lo ~hi:(pos ())) :: acc)
      | c ->
        let loc = Loc.make ~lo ~hi:{ lo with Loc.col = lo.Loc.col + 1 } in
        lex_error loc "unexpected character %C at line %d, column %d" c lo.Loc.line
          lo.Loc.col
    end
  in
  loop []

let tokenize input =
  List.map fst
    (tokenize_range input ~off:0 ~len:(String.length input) ~start:{ Loc.line = 1; col = 1 })

(* A comment starts at [--] wherever a token could start, that is not
   after an identifier character ([-] is one: [a--b] is a name), and
   runs to the end of its line; every other ';' is a Semicolon. *)
let split_statements input =
  let n = String.length input in
  let rec scan acc start i =
    if i >= n then List.rev ((start, String.sub input start (n - start)) :: acc)
    else
      match input.[i] with
      | ';' -> scan ((start, String.sub input start (i - start)) :: acc) (i + 1) (i + 1)
      | '-' when i + 1 < n && input.[i + 1] = '-' && not (i > 0 && is_ident_char input.[i - 1]) ->
        scan acc start (Option.value ~default:n (String.index_from_opt input i '\n'))
      | _ -> scan acc start (i + 1)
  in
  scan [] 0 0

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "identifier %S" s
  | Kw s -> Format.fprintf ppf "keyword %s" s
  | Lparen -> Format.pp_print_string ppf "'('"
  | Rparen -> Format.pp_print_string ppf "')'"
  | Comma -> Format.pp_print_string ppf "','"
  | Semicolon -> Format.pp_print_string ppf "';'"
  | Colon -> Format.pp_print_string ppf "':'"
  | Equals -> Format.pp_print_string ppf "'='"
  | Plus -> Format.pp_print_string ppf "'+'"
  | Minus -> Format.pp_print_string ppf "'-'"
  | Star -> Format.pp_print_string ppf "'*'"
