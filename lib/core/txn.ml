module Symbol = Hr_util.Symbol

let m_unverified = Hr_obs.Metrics.counter "core.integrity.unverified_commits"

type violation = { relation_name : string; conflicts : Integrity.conflict list }

(* One staged relation: the catalog value it was derived from, the
   current staged value, and every item an insert or delete named. *)
type entry = { base : Relation.t; mutable rel : Relation.t; mutable touched : Item.t list }

type t = { catalog : Catalog.t; staged : entry Symbol.Tbl.t }

let begin_ catalog = { catalog; staged = Symbol.Tbl.create 8 }

let current t name =
  match Symbol.Tbl.find_opt t.staged (Symbol.intern name) with
  | Some e -> e.rel
  | None -> Catalog.relation t.catalog name

let update t name item f =
  let key = Symbol.intern name in
  match Symbol.Tbl.find_opt t.staged key with
  | Some e ->
    e.rel <- f e.rel;
    e.touched <- item :: e.touched
  | None ->
    let base = Catalog.relation t.catalog name in
    Symbol.Tbl.replace t.staged key { base; rel = f base; touched = [ item ] }

let insert_item t ~rel sign item = update t rel item (fun r -> Relation.add r item sign)
let delete_item t ~rel item = update t rel item (fun r -> Relation.remove r item)

let insert t ~rel sign names =
  insert_item t ~rel sign (Item.of_names (Relation.schema (current t rel)) names)

let delete t ~rel names =
  delete_item t ~rel (Item.of_names (Relation.schema (current t rel)) names)

let staged t = Symbol.Tbl.fold (fun _ e acc -> e.rel :: acc) t.staged []

let conflicts t ?semantics name = Integrity.check ?semantics (current t name)

(* A verified base lets the sweep visit only the pairs the delta can
   break; otherwise every tuple is affected — the whole-relation sweep. *)
let consistent { base; rel; touched } =
  let affected =
    if Relation.verified base then
      Some (Integrity.affected rel (Integrity.delta ~base rel touched))
    else begin
      Hr_obs.Metrics.incr m_unverified;
      None
    end
  in
  Option.is_none (Integrity.sweep ?affected rel)

let commit t =
  let violations =
    Symbol.Tbl.fold
      (fun _ e acc ->
        if consistent e then acc
        else { relation_name = Relation.name e.rel; conflicts = Integrity.check e.rel } :: acc)
      t.staged []
  in
  match violations with
  | [] ->
    Symbol.Tbl.iter
      (fun _ e -> Catalog.replace_relation t.catalog (Relation.mark_verified e.rel))
      t.staged;
    Symbol.Tbl.reset t.staged;
    Ok ()
  | _ :: _ -> Error violations

let abort t = Symbol.Tbl.reset t.staged
