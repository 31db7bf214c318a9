module Symbol = Hr_util.Symbol
module Dag = Hr_graph.Dag

type node = int

(* Closure-index hits vs builds expose the cost of [invalidate]:
   a schema change after heavy querying shows up as an extra build. *)
let m_subsumption = Hr_obs.Metrics.counter "hierarchy.subsumption_checks"
let m_binding = Hr_obs.Metrics.counter "hierarchy.binding_checks"
let m_index_builds = Hr_obs.Metrics.counter "hierarchy.index_builds"
let m_index_hits = Hr_obs.Metrics.counter "hierarchy.index_hits"
let m_mcd = Hr_obs.Metrics.counter "hierarchy.mcd_calls"

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type t = {
  graph : Dag.t;
  by_name : node Symbol.Tbl.t;
  mutable names : Symbol.t array; (* indexed by node id *)
  mutable instance : bool array; (* indexed by node id *)
  root : node;
  mutable isa_index : Dag.Reach.t option; (* descendants over isa edges *)
  mutable bind_index : Dag.Reach.t option; (* descendants over isa + preference *)
  (* Memoized [ancestors] results. The binding index probes ancestors of
     every coordinate of every probed item; uncached, each probe pays a
     full DFS whose cost tracks the hierarchy's shape (the PR 2 bench's
     "100 tuples slower than 400" anomaly was exactly this). Cleared
     with the closure indexes on every mutation. *)
  anc_cache : (node, node list) Hashtbl.t;
  (* Same memo for [descendants]: maximal-common-descendant computation
     (the integrity check's inner loop) probes it repeatedly for the
     same classes. *)
  desc_cache : (node, node list) Hashtbl.t;
  (* Pairwise memo for [maximal_common_descendants]: the integrity sweep
     asks about every opposite-sign tuple pair, and coordinates draw from
     far fewer distinct classes than there are pairs. *)
  mcd_cache : (node * node, node list) Hashtbl.t;
  (* A frozen hierarchy is immutable and safe to read from any number of
     domains concurrently: the closure indexes are prebuilt, the
     ancestor/descendant memos are fully populated (so lookups never
     write), and every mutator refuses. The writer mutates via
     copy-on-write ({!Catalog.update_hierarchy}): [copy] always yields
     an unfrozen, privately owned value. *)
  mutable frozen : bool;
  (* Identifies this value's current state: drawn from a process-wide
     counter at [create] and [copy] and again on every mutation, so two
     observations are equal only if they saw the same hierarchy object
     in the same state. Consistency stamps on relation values
     ({!Hierel.Relation.verified}) are keyed to it. *)
  mutable generation : int;
}

let generations = Atomic.make 0
let fresh_generation () = Atomic.fetch_and_add generations 1 + 1
let generation h = h.generation

let invalidate h =
  h.generation <- fresh_generation ();
  h.isa_index <- None;
  h.bind_index <- None;
  Hashtbl.reset h.anc_cache;
  Hashtbl.reset h.desc_cache;
  Hashtbl.reset h.mcd_cache

let frozen h = h.frozen

let check_mutable h =
  if h.frozen then
    error "hierarchy %s is frozen (a published snapshot shares it); mutate through the catalog's copy-on-write path"
      (Symbol.name h.names.(h.root))

let create domain_name =
  let graph = Dag.create () in
  let root = Dag.add_node graph in
  let sym = Symbol.intern domain_name in
  let by_name = Symbol.Tbl.create 64 in
  Symbol.Tbl.add by_name sym root;
  {
    graph;
    by_name;
    names = [| sym |];
    instance = [| false |];
    root;
    isa_index = None;
    bind_index = None;
    anc_cache = Hashtbl.create 64;
    desc_cache = Hashtbl.create 64;
    mcd_cache = Hashtbl.create 64;
    frozen = false;
    generation = fresh_generation ();
  }

(* Node ids survive the copy ([Dag.copy] preserves them), so items in
   relations over the original remain valid over the copy. The copy is
   always unfrozen: it is a new private value the caller may mutate. *)
let copy h =
  {
    graph = Dag.copy h.graph;
    by_name = Symbol.Tbl.copy h.by_name;
    names = Array.copy h.names;
    instance = Array.copy h.instance;
    root = h.root;
    isa_index = h.isa_index;
    bind_index = h.bind_index;
    anc_cache = Hashtbl.copy h.anc_cache;
    desc_cache = Hashtbl.copy h.desc_cache;
    mcd_cache = Hashtbl.copy h.mcd_cache;
    frozen = false;
    generation = fresh_generation ();
  }

let domain h = h.names.(h.root)
let root h = h.root

let find h name = Symbol.Tbl.find_opt h.by_name (Symbol.intern name)

let find_exn h name =
  match find h name with
  | Some v -> v
  | None -> error "unknown class or instance %S in domain %a" name Symbol.pp (domain h)

let mem h name = Option.is_some (find h name)

let check_node h v =
  if not (Dag.is_alive h.graph v) then error "node %d is not part of the hierarchy" v

let node_name h v =
  check_node h v;
  h.names.(v)

let node_label h v = Symbol.name (node_name h v)
let is_instance h v = check_node h v; h.instance.(v)
let is_class h v = not (is_instance h v)

let grow_meta h v =
  let cap = Array.length h.names in
  if v >= cap then begin
    let cap' = max 8 (2 * cap) in
    let names = Array.make cap' h.names.(h.root) in
    let instance = Array.make cap' false in
    Array.blit h.names 0 names 0 cap;
    Array.blit h.instance 0 instance 0 cap;
    h.names <- names;
    h.instance <- instance
  end

let add_named h ~instance ~parents name =
  check_mutable h;
  let sym = Symbol.intern name in
  if Symbol.Tbl.mem h.by_name sym then error "name %S already defined" name;
  let parent_nodes =
    match parents with
    | [] -> [ h.root ]
    | ps -> List.map (find_exn h) ps
  in
  List.iter
    (fun p ->
      if h.instance.(p) then
        error "cannot place %S under instance %S" name (node_label h p))
    parent_nodes;
  let v = Dag.add_node h.graph in
  grow_meta h v;
  h.names.(v) <- sym;
  h.instance.(v) <- instance;
  Symbol.Tbl.add h.by_name sym v;
  List.iter (fun p -> Dag.add_edge h.graph p v) parent_nodes;
  invalidate h;
  v

let add_class h ?(parents = []) name = add_named h ~instance:false ~parents name
let add_instance h ?(parents = []) name = add_named h ~instance:true ~parents name

let add_isa h ~sub ~super =
  check_mutable h;
  let sub_node = find_exn h sub and super_node = find_exn h super in
  if h.instance.(super_node) then
    error "cannot place %S under instance %S" sub super;
  if sub_node = super_node then error "isa self-loop on %S" sub;
  if Dag.reachable h.graph sub_node super_node then
    error "isa edge %S -> %S would create a cycle" super sub;
  Dag.add_edge h.graph super_node sub_node;
  invalidate h

let add_preference h ~weaker ~stronger =
  check_mutable h;
  let w = find_exn h weaker and s = find_exn h stronger in
  if w = s then error "preference self-loop on %S" weaker;
  if Dag.reachable h.graph s w then
    error "preference edge %S -> %S would create a cycle" weaker stronger;
  Dag.add_edge h.graph ~kind:Dag.Preference w s;
  invalidate h

let node_count h = Dag.live_count h.graph
let nodes h = Dag.live_nodes h.graph
let instances h = List.filter (fun v -> h.instance.(v)) (nodes h)
let classes h = List.filter (fun v -> not h.instance.(v)) (nodes h)

let isa_kind = function Dag.Isa -> true | Dag.Preference -> false

let parents h v =
  check_node h v;
  Dag.preds_ordered h.graph ~kinds:isa_kind v

let children h v =
  check_node h v;
  Dag.succs_ordered h.graph ~kinds:isa_kind v

let pref_kind = function Dag.Isa -> false | Dag.Preference -> true

let preference_edges h =
  List.concat_map
    (fun w -> List.map (fun s -> (w, s)) (Dag.succs_ordered h.graph ~kinds:pref_kind w))
    (nodes h)

let isa_index h =
  match h.isa_index with
  | Some idx ->
    Hr_obs.Metrics.incr m_index_hits;
    idx
  | None ->
    Hr_obs.Metrics.incr m_index_builds;
    let idx = Dag.Reach.create ~kinds:isa_kind h.graph in
    h.isa_index <- Some idx;
    idx

(* Without preference edges the binding order is the isa order, so the
   isa closure index serves both and a second O(V·E) build is skipped. *)
let bind_index h =
  match h.bind_index with
  | Some idx ->
    Hr_obs.Metrics.incr m_index_hits;
    idx
  | None ->
    let idx =
      if preference_edges h = [] then isa_index h
      else begin
        Hr_obs.Metrics.incr m_index_builds;
        Dag.Reach.create h.graph
      end
    in
    h.bind_index <- Some idx;
    idx

let subsumes h a b =
  Hr_obs.Metrics.incr m_subsumption;
  check_node h a;
  check_node h b;
  Dag.Reach.mem (isa_index h) a b

let strictly_subsumes h a b = a <> b && subsumes h a b

let binds_below h a b =
  Hr_obs.Metrics.incr m_binding;
  check_node h a;
  check_node h b;
  Dag.Reach.mem (bind_index h) a b

(* On a frozen hierarchy the memo tables are fully populated (every live
   node was forced by [freeze]) and never written again, so concurrent
   lookups from reader domains are safe. A miss can only happen
   unfrozen; writing to the cache then is fine because an unfrozen
   hierarchy is owned by a single domain (the writer). *)
let descendants h v =
  check_node h v;
  match Hashtbl.find_opt h.desc_cache v with
  | Some l -> l
  | None ->
    let l = Dag.descendants h.graph ~kinds:isa_kind v in
    if not h.frozen then Hashtbl.add h.desc_cache v l;
    l

let ancestors h v =
  check_node h v;
  match Hashtbl.find_opt h.anc_cache v with
  | Some l -> l
  | None ->
    let l = Dag.ancestors h.graph ~kinds:isa_kind v in
    if not h.frozen then Hashtbl.add h.anc_cache v l;
    l

let leaves_under h v = List.filter (fun w -> h.instance.(w)) (descendants h v)

let common_descendants h a b =
  let da = descendants h a in
  let idx = isa_index h in
  List.filter (fun w -> Dag.Reach.mem idx b w) da

let intersects h a b = common_descendants h a b <> []

(* Descendant sets are down-closed, so their intersection is down-closed:
   a common descendant has a strict ancestor in the set iff one of its
   immediate [isa] parents is in the set. *)
let maximal_common_descendants h a b =
  Hr_obs.Metrics.incr m_mcd;
  if subsumes h a b then [ b ]
  else if subsumes h b a then [ a ]
  else
    (* Symmetric, so normalize the key. *)
    let key = if a <= b then (a, b) else (b, a) in
    match Hashtbl.find_opt h.mcd_cache key with
    | Some l -> l
    | None ->
      let common = common_descendants h a b in
      let in_common = Hashtbl.create 16 in
      List.iter (fun w -> Hashtbl.replace in_common w ()) common;
      let l =
        List.filter
          (fun w -> not (List.exists (Hashtbl.mem in_common) (parents h w)))
          common
      in
      (* The pairwise memo stays lazy (quadratic to precompute), so a
         frozen hierarchy recomputes misses instead of caching. A served
         catalog is frozen at its first publish, so commit-time
         integrity sweeps there never fill the memo; they stay cheap by
         visiting only the pairs a transaction's delta can break
         ({!Hierel.Integrity.sweep}). *)
      if not h.frozen then Hashtbl.add h.mcd_cache key l;
      l

(* Make every read path pure: build both closure indexes and force the
   ancestor/descendant memo for every live node, then seal the value.
   After this, [subsumes]/[binds_below] probe immutable bitsets,
   [ancestors]/[descendants]/[leaves_under] hit the fully populated
   memos, and [maximal_common_descendants] recomputes misses without
   caching — no read ever writes, so any number of domains may query a
   frozen hierarchy while holding no lock. O(V·E) once per publish of a
   mutated hierarchy; untouched hierarchies stay frozen across
   publishes and pay nothing. *)
let freeze h =
  if not h.frozen then begin
    ignore (isa_index h);
    ignore (bind_index h);
    List.iter
      (fun v ->
        ignore (descendants h v);
        ignore (ancestors h v))
      (nodes h);
    h.frozen <- true
  end

type issue = Redundant_isa_edge of node * node

let validate h =
  List.map (fun (u, v) -> Redundant_isa_edge (u, v)) (Dag.redundant_edges h.graph)

let reduce h =
  check_mutable h;
  Dag.transitive_reduction h.graph;
  invalidate h

let rename_node h ~old_name ~new_name =
  check_mutable h;
  let v = find_exn h old_name in
  let new_sym = Symbol.intern new_name in
  if Symbol.Tbl.mem h.by_name new_sym then error "name %S already defined" new_name;
  Symbol.Tbl.remove h.by_name h.names.(v);
  Symbol.Tbl.add h.by_name new_sym v;
  h.names.(v) <- new_sym;
  h.generation <- fresh_generation ()

let eliminate h ~on_path v =
  check_mutable h;
  check_node h v;
  if v = h.root then error "cannot eliminate the domain root";
  if h.instance.(v) then error "cannot eliminate instance %S" (node_label h v);
  Symbol.Tbl.remove h.by_name h.names.(v);
  Dag.eliminate_node h.graph ~on_path v;
  invalidate h

let pp ppf h =
  let seen = Hashtbl.create 64 in
  let rec walk depth v =
    let expanded = Hashtbl.mem seen v in
    Format.fprintf ppf "%s%s%s%s@."
      (String.make (2 * depth) ' ')
      (node_label h v)
      (if h.instance.(v) then " (instance)" else "")
      (if expanded then " *" else "");
    if not expanded then begin
      Hashtbl.add seen v ();
      List.iter (walk (depth + 1)) (children h v)
    end
  in
  walk 0 h.root

let to_dot h = Dag.to_dot ~label:(node_label h) h.graph
