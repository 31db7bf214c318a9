module Loc = Hr_query.Loc

type severity = Error | Warning | Hint | Perf

type t = {
  code : string;
  severity : severity;
  loc : Loc.t;
  message : string;
  related : string list;
}

let make ?(related = []) severity ~code loc message =
  { code; severity; loc; message; related }

let error ?related ~code loc message = make ?related Error ~code loc message
let warning ?related ~code loc message = make ?related Warning ~code loc message
let hint ?related ~code loc message = make ?related Hint ~code loc message

let errorf ?related ~code loc fmt =
  Format.kasprintf (error ?related ~code loc) fmt

let warningf ?related ~code loc fmt =
  Format.kasprintf (warning ?related ~code loc) fmt

let hintf ?related ~code loc fmt = Format.kasprintf (hint ?related ~code loc) fmt
let perf ?related ~code loc message = make ?related Perf ~code loc message
let perff ?related ~code loc fmt = Format.kasprintf (perf ?related ~code loc) fmt

(* The one classification of the engine's rejections: each reason has
   one stable code, and an error carries the engine's own message. The
   two rejections the ambiguity constraint makes (paper, §3.1) are W104
   warnings that name the row or the conflict. *)
let of_rejection ?(verb = "insert") loc (reason, msg) =
  let open Hierel in
  let err code = error ~code loc msg in
  match reason with
  | Hr_query.Eval.Unknown_relation -> err "E001"
  | Arity -> err "E002"
  | Foreign_value -> err "E003"
  | All_on_instance -> err "E004"
  | Cycle -> err "E005"
  | Unknown_name -> err "E008"
  | Duplicate -> err "E009"
  | Invalid -> err "E010"
  | Contradiction { rel; row; item; sign = _ } ->
    warningf ~code:"W104" loc
      "row %d directly contradicts a stored tuple: %s is already asserted with the \
       opposite sign in %s"
      row
      (Item.to_string (Relation.schema rel) item)
      (Relation.name rel)
  | Ambiguity { rel; conflict } ->
    warningf ~code:"W104" loc "%s leaves %s ambiguous: %s" verb (Relation.name rel)
      (Format.asprintf "%a" (Integrity.pp_conflict (Relation.schema rel)) conflict)

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"
  | Perf -> "perf"

let severity_rank = function Error -> 0 | Warning -> 1 | Hint -> 2 | Perf -> 3

let compare a b =
  match Loc.compare a.loc b.loc with
  | 0 -> (
    match Int.compare (severity_rank a.severity) (severity_rank b.severity) with
    | 0 -> String.compare a.code b.code
    | c -> c)
  | c -> c

let sort ds = List.stable_sort compare ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds
let has_warnings ds = List.exists (fun d -> d.severity = Warning) ds

let pp ppf d =
  Format.fprintf ppf "%a %s[%s] %s" Loc.pp d.loc (severity_label d.severity)
    d.code d.message;
  List.iter (fun note -> Format.fprintf ppf "@.  note: %s" note) d.related

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  let { Loc.lo; hi } = d.loc in
  Printf.sprintf
    "{\"code\":\"%s\",\"severity\":\"%s\",\"loc\":{\"line\":%d,\"col\":%d,\"end_line\":%d,\"end_col\":%d},\"message\":\"%s\",\"related\":[%s]}"
    (json_escape d.code)
    (severity_label d.severity)
    lo.Loc.line lo.Loc.col hi.Loc.line hi.Loc.col (json_escape d.message)
    (String.concat "," (List.map (fun r -> "\"" ^ json_escape r ^ "\"") d.related))

let render_text ds =
  match ds with
  | [] -> "no issues\n"
  | ds ->
    let buf = Buffer.create 256 in
    List.iter (fun d -> Buffer.add_string buf (Format.asprintf "%a@." pp d)) ds;
    let count sev = List.length (List.filter (fun d -> d.severity = sev) ds) in
    let plural n noun = Printf.sprintf "%d %s%s" n noun (if n = 1 then "" else "s") in
    let parts =
      List.filter_map
        (fun (sev, noun) ->
          let n = count sev in
          if n = 0 then None else Some (plural n noun))
        [ (Error, "error"); (Warning, "warning"); (Hint, "hint"); (Perf, "perf note") ]
    in
    Buffer.add_string buf (String.concat ", " parts);
    Buffer.add_char buf '\n';
    Buffer.contents buf

let render_json ds =
  "[" ^ String.concat "," (List.map to_json ds) ^ "]\n"
