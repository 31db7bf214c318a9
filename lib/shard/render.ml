module Ast = Hr_query.Ast
module Hierarchy = Hr_hierarchy.Hierarchy
open Hierel

let value = function Ast.All s -> "ALL " ^ s | Ast.Atom s -> s
let values vs = String.concat ", " (List.map value vs)

let sign = function Types.Pos -> "+" | Types.Neg -> "-"

let signed_row (s, vs) = Printf.sprintf "(%s %s)" (sign s) (values vs)

let insert rel rows =
  if rows = [] then invalid_arg "Render.insert: empty row list";
  Printf.sprintf "INSERT INTO %s VALUES %s;" rel
    (String.concat ", " (List.map signed_row rows))

let delete rel rows =
  if rows = [] then invalid_arg "Render.delete: empty row list";
  Printf.sprintf "DELETE FROM %s VALUES %s;" rel
    (String.concat ", " (List.map (fun vs -> "(" ^ values vs ^ ")") rows))

let statement = function
  | Ast.Create_domain name -> Printf.sprintf "CREATE DOMAIN %s;" name
  | Ast.Create_class { name; parents } ->
    Printf.sprintf "CREATE CLASS %s UNDER %s;" name (String.concat ", " parents)
  | Ast.Create_instance { name; parents } ->
    Printf.sprintf "CREATE INSTANCE %s OF %s;" name (String.concat ", " parents)
  | Ast.Create_isa { sub; super } ->
    Printf.sprintf "CREATE ISA %s UNDER %s;" sub super
  | Ast.Create_preference { weaker; stronger } ->
    Printf.sprintf "CREATE PREFERENCE %s OVER %s;" stronger weaker
  | Ast.Create_relation { name; attrs } ->
    Printf.sprintf "CREATE RELATION %s (%s);" name
      (String.concat ", " (List.map (fun (a, d) -> a ^ ": " ^ d) attrs))
  | Ast.Drop_relation name -> Printf.sprintf "DROP RELATION %s;" name
  | Ast.Insert { rel; rows } ->
    insert rel (List.map (fun { Ast.sign; values } -> (sign, values)) rows)
  | Ast.Delete { rel; rows } -> delete rel rows
  | _ -> invalid_arg "Render.statement: not a forwardable statement"

(* A stored coordinate back to surface syntax: classes carry the
   universal marker so the shard's resolver treats them identically. *)
let coord_value h node =
  let name = Hierarchy.node_label h node in
  if Hierarchy.is_class h node then Ast.All name else Ast.Atom name

let rebuild rel ~present ~only =
  let schema = Relation.schema rel in
  let name = Relation.name rel in
  let b = Buffer.create 256 in
  if present then Buffer.add_string b (Printf.sprintf "DROP RELATION %s; " name);
  Buffer.add_string b
    (Printf.sprintf "CREATE RELATION %s (%s);" name
       (String.concat ", "
          (List.map
             (fun (a : Schema.attr) ->
               Printf.sprintf "%s: %s" (Hr_util.Symbol.name a.Schema.name)
                 (Hr_util.Symbol.name (Hierarchy.domain a.Schema.hierarchy)))
             (Array.to_list (Schema.attrs schema)))));
  let rows =
    List.filter_map
      (fun (t : Relation.tuple) ->
        if not (only t) then None
        else
          Some
            ( t.Relation.sign,
              List.init (Schema.arity schema) (fun i ->
                  coord_value (Schema.hierarchy schema i)
                    (Item.coord t.Relation.item i)) ))
      (Relation.tuples rel)
  in
  if rows <> [] then Buffer.add_string b (" " ^ insert name rows);
  Buffer.contents b

(* Greedy, in order: a script is closed when the next statement would
   push it past [limit]. A statement alone over [limit] still gets its
   own script — splitting cannot shrink it. *)
let scripts ~limit stmts =
  let close cur acc = if cur = [] then acc else String.concat "\n" (List.rev cur) :: acc in
  let rec go cur len acc = function
    | [] -> List.rev (close cur acc)
    | s :: rest ->
      let len' = if cur = [] then String.length s else len + 1 + String.length s in
      if cur <> [] && len' > limit then go [ s ] (String.length s) (close cur acc) rest
      else go (s :: cur) len' acc rest
  in
  go [] 0 [] stmts
