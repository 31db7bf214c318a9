module Hierarchy = Hr_hierarchy.Hierarchy
module Symbol = Hr_util.Symbol

(* The maps are persistent (Symbol.Map): the catalog's mutable fields
   are just roots, and {!snapshot} captures them in O(1). A snapshot
   shares all structure with the live catalog, but the writer's
   subsequent updates rebind the roots to {e new} maps, so a captured
   version never changes — the foundation of snapshot-isolated reads
   (docs/CONCURRENCY.md). Relations are immutable values already;
   hierarchies are mutable, so sharing one across a snapshot boundary
   is only safe once it is {!Hierarchy.freeze}d ({!freeze} seals every
   hierarchy; {!update_hierarchy} is the writer's copy-on-write way to
   change one afterwards). *)

(* The observed-statistics store is deliberately {e not} versioned: it
   is advisory feedback for the cost estimator ((relation, label) ->
   last actual row count from EXPLAIN ANALYZE), never query-visible
   data, and snapshots share it with the live catalog so actuals
   measured on a reader domain still teach the estimator. The mutex
   makes cross-domain access safe; [label] is ["*"] for the whole
   stored extension or ["attr=value"] for a selection. *)
type observed = {
  obs_mu : Mutex.t;
  obs_tbl : (string * string, int) Hashtbl.t;
}

(* [owned] says which hierarchies this value may edit in place while
   they are unfrozen: all of them ([None]) for a catalog made by
   {!create}, only those it defined or copied itself for a {!fork}. *)
type t = {
  mutable hiers : Hierarchy.t Symbol.Map.t;
  mutable rels : Relation.t Symbol.Map.t;
  observed : observed;
  mutable owned : Hierarchy.t list option;
}

let create () =
  {
    hiers = Symbol.Map.empty;
    rels = Symbol.Map.empty;
    observed = { obs_mu = Mutex.create (); obs_tbl = Hashtbl.create 16 };
    owned = None;
  }

let snapshot t = { hiers = t.hiers; rels = t.rels; observed = t.observed; owned = t.owned }

(* Shares every binding, like [snapshot], but owns no hierarchy, so its
   first edit of each one copies it ([update_hierarchy]), and keeps its
   own copy of the observed statistics. *)
let fork t =
  let o = t.observed in
  Mutex.lock o.obs_mu;
  let tbl = Hashtbl.copy o.obs_tbl in
  Mutex.unlock o.obs_mu;
  {
    hiers = t.hiers;
    rels = t.rels;
    observed = { obs_mu = Mutex.create (); obs_tbl = tbl };
    owned = Some [];
  }

let owns t h = match t.owned with None -> true | Some l -> List.memq h l
let take t h = match t.owned with None -> () | Some l -> t.owned <- Some (h :: l)

let same_bindings a b = a.hiers == b.hiers && a.rels == b.rels

let freeze t = Symbol.Map.iter (fun _ h -> Hierarchy.freeze h) t.hiers

let define_hierarchy t h =
  let key = Hierarchy.domain h in
  if Symbol.Map.mem key t.hiers then
    Types.model_error "hierarchy %a already defined" Symbol.pp key;
  take t h;
  t.hiers <- Symbol.Map.add key h t.hiers

let find_hierarchy t name = Symbol.Map.find_opt (Symbol.intern name) t.hiers

let hierarchy t name =
  match find_hierarchy t name with
  | Some h -> h
  | None -> Types.model_error "no hierarchy %S" name

let hierarchies t = Symbol.Map.fold (fun _ h acc -> h :: acc) t.hiers []

(* Copy-on-write mutation of a registered hierarchy. Unfrozen and owned
   (REPL, WAL replay, tests — no snapshot or fork shares it), the
   mutation runs in place, exactly the historical behavior and cost.
   Frozen (the server has published a version pinning it), or not owned
   (a fork shares it with its parent), the mutation runs on a private
   {!Hierarchy.copy}; on success the copy replaces the original in the
   hierarchy map {e and} in the schema of every relation bound to the
   original (same node ids, so bodies carry over untouched). Published
   snapshots and the fork's parent keep the original. If [f] raises,
   nothing is swapped. *)
let update_hierarchy t h f =
  if (not (Hierarchy.frozen h)) && owns t h then f h
  else begin
    let h' = Hierarchy.copy h in
    let result = f h' in
    (* Replace under whatever key currently binds this object — the
       registration key, which [rename_node] on the root cannot move. *)
    t.hiers <-
      Symbol.Map.map (fun existing -> if existing == h then h' else existing) t.hiers;
    t.rels <-
      Symbol.Map.map
        (fun rel ->
          let s = Relation.schema rel in
          if Schema.references s h then
            Relation.with_schema rel (Schema.rebind s ~old_h:h ~new_h:h')
          else rel)
        t.rels;
    take t h';
    result
  end

let define_relation ?(check = true) t r =
  let key = Symbol.intern (Relation.name r) in
  if Symbol.Map.mem key t.rels then
    Types.model_error "relation %a already defined" Symbol.pp key;
  let r =
    if not check then r
    else
      match Integrity.first_conflict r with
      | None -> Relation.mark_verified r
      | Some c ->
        Types.model_error "initial contents of %S are inconsistent: %a" (Relation.name r)
          (Integrity.pp_conflict (Relation.schema r))
          c
  in
  t.rels <- Symbol.Map.add key r t.rels

let find_relation t name = Symbol.Map.find_opt (Symbol.intern name) t.rels

let relation t name =
  match find_relation t name with
  | Some r -> r
  | None -> Types.model_error "no relation %S" name

let relations t = Symbol.Map.fold (fun _ r acc -> r :: acc) t.rels []

let replace_relation t r =
  let key = Symbol.intern (Relation.name r) in
  if not (Symbol.Map.mem key t.rels) then
    Types.model_error "no relation %S" (Relation.name r);
  t.rels <- Symbol.Map.add key r t.rels

let drop_relation t name =
  t.rels <- Symbol.Map.remove (Symbol.intern name) t.rels;
  let o = t.observed in
  Mutex.lock o.obs_mu;
  Hashtbl.iter
    (fun ((rel, _) as key) _ -> if rel = name then Hashtbl.remove o.obs_tbl key)
    (Hashtbl.copy o.obs_tbl);
  Mutex.unlock o.obs_mu

let record_stat t ~rel ~label count =
  let o = t.observed in
  Mutex.lock o.obs_mu;
  Hashtbl.replace o.obs_tbl (rel, label) count;
  Mutex.unlock o.obs_mu

let observed_stat t ~rel ~label =
  let o = t.observed in
  Mutex.lock o.obs_mu;
  let v = Hashtbl.find_opt o.obs_tbl (rel, label) in
  Mutex.unlock o.obs_mu;
  v

let observed_stats t =
  let o = t.observed in
  Mutex.lock o.obs_mu;
  let l = Hashtbl.fold (fun key count acc -> ((key, count) : _ * int) :: acc) o.obs_tbl [] in
  Mutex.unlock o.obs_mu;
  List.sort compare l
