module Symbol = Hr_util.Symbol
module Dag = Hr_graph.Dag

type node = int

(* [index_builds] counts full rebuilds of the ancestor arrays: a leaf
   insertion extends them instead, so only edits that move edges between
   existing nodes show up here (docs/OBSERVABILITY.md). *)
let m_subsumption = Hr_obs.Metrics.counter "hierarchy.subsumption_checks"
let m_binding = Hr_obs.Metrics.counter "hierarchy.binding_checks"
let m_index_builds = Hr_obs.Metrics.counter "hierarchy.index_builds"
let m_mcd = Hr_obs.Metrics.counter "hierarchy.mcd_calls"
let m_cone = Hr_obs.Metrics.counter "hierarchy.cone_nodes"

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Node [v]'s isa descendants, itself included, are [ids.(start.(v))]
   to [ids.(start.(v + 1) - 1)], ascending: two flat arrays, not one per
   node. [instances.(v)] counts the instances among them. *)
type descendant_index = { start : int array; ids : node array; instances : int array }

type t = {
  graph : Dag.t;
  (* Persistent, so [copy] shares it: a copy-on-write edit of a large
     hierarchy must not pay for a name-table copy. *)
  mutable by_name : node Symbol.Map.t;
  mutable names : Symbol.t array; (* indexed by node id *)
  mutable instance : bool array; (* indexed by node id *)
  root : node;
  (* Per node, its isa ancestors, itself included ({!Dag.Ancestry});
     [Dag.Ancestry.empty] for removed ids. The outer array is private to
     this value, the sets are immutable, so [copy] shares them by
     pointer. *)
  mutable isa_anc : Dag.Ancestry.set array;
  (* Binding ancestors (isa + preference), kept only while the
     hierarchy has preference edges; without them the binding order is
     the isa order and [isa_anc] serves both. *)
  mutable bind_anc : Dag.Ancestry.set array option;
  (* An edit that moved edges between existing nodes (ISA, PREFERENCE,
     elimination, reduction) leaves the arrays to be rebuilt in one
     topological pass. A new leaf never sets this: its array is the
     merge of its parents' and no other node's array changes. *)
  mutable stale : bool;
  (* The inversion of [isa_anc]. Never mutated in place, so [copy]
     shares it whole; every edit drops it to [None], and it is rebuilt
     on the next read or at [freeze]. *)
  mutable desc : descendant_index option;
  (* Pairwise memo for [maximal_common_descendants]: the integrity sweep
     asks about every opposite-sign tuple pair, and coordinates draw from
     far fewer distinct classes than there are pairs. *)
  mcd_cache : (node * node, node list) Hashtbl.t;
  (* A frozen hierarchy is immutable and safe to read from any number of
     domains concurrently: the ancestor arrays and descendant index are
     built, so lookups never write, and every mutator refuses. The
     writer mutates via copy-on-write ({!Catalog.update_hierarchy}):
     [copy] always yields an unfrozen, privately owned value. *)
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

(* Every edit: a new state, so memoized MCDs and the descendant index
   are stale. *)
let touched h =
  h.generation <- fresh_generation ();
  Hashtbl.reset h.mcd_cache;
  h.desc <- None

(* An edit that moved edges: the ancestor arrays are stale too. *)
let restructured h =
  touched h;
  h.stale <- true

let frozen h = h.frozen

let check_mutable h =
  if h.frozen then
    error "hierarchy %s is frozen (a published snapshot shares it); mutate through the catalog's copy-on-write path"
      (Symbol.name h.names.(h.root))

let create domain_name =
  let graph = Dag.create () in
  let root = Dag.add_node graph in
  let sym = Symbol.intern domain_name in
  {
    graph;
    by_name = Symbol.Map.singleton sym root;
    names = [| sym |];
    instance = [| false |];
    root;
    isa_anc = [| Dag.Ancestry.extend [] root |];
    bind_anc = None;
    stale = false;
    desc = None;
    mcd_cache = Hashtbl.create 64;
    frozen = false;
    generation = fresh_generation ();
  }

(* Node ids survive the copy ([Dag.copy] preserves them), so items in
   relations over the original remain valid over the copy. The copy is
   always unfrozen: it is a new private value the caller may mutate. It
   shares the per-node ancestor arrays and the descendant index, which
   are never mutated in place, and starts with an empty MCD memo. *)
let copy h =
  {
    graph = Dag.copy h.graph;
    by_name = h.by_name;
    names = Array.copy h.names;
    instance = Array.copy h.instance;
    root = h.root;
    isa_anc = Array.copy h.isa_anc;
    bind_anc = Option.map Array.copy h.bind_anc;
    stale = h.stale;
    desc = h.desc;
    mcd_cache = Hashtbl.create 64;
    frozen = false;
    generation = fresh_generation ();
  }

let domain h = h.names.(h.root)
let root h = h.root

let find h name = Symbol.Map.find_opt (Symbol.intern name) h.by_name

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

(* Per-node arrays grow independently: a rebuild sizes the ancestor
   arrays to the graph, not to [names]. *)
let grow_meta h v =
  let fit a fill =
    if v < Array.length a then a
    else begin
      let a' = Array.make (max 8 (2 * v)) fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    end
  in
  h.names <- fit h.names h.names.(h.root);
  h.instance <- fit h.instance false;
  h.isa_anc <- fit h.isa_anc Dag.Ancestry.empty;
  h.bind_anc <- Option.map (fun a -> fit a Dag.Ancestry.empty) h.bind_anc

let add_named h ~instance ~parents name =
  check_mutable h;
  let sym = Symbol.intern name in
  if Symbol.Map.mem sym h.by_name then error "name %S already defined" name;
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
  h.by_name <- Symbol.Map.add sym v h.by_name;
  List.iter (fun p -> Dag.add_edge h.graph p v) parent_nodes;
  (* A new node is a leaf, so no existing node gains an ancestor: only
     [v]'s own arrays are new. *)
  if not h.stale then begin
    let extend anc = Dag.Ancestry.extend (List.map (fun p -> anc.(p)) parent_nodes) v in
    h.isa_anc.(v) <- extend h.isa_anc;
    Option.iter (fun anc -> anc.(v) <- extend anc) h.bind_anc
  end;
  touched h;
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
  restructured h

let add_preference h ~weaker ~stronger =
  check_mutable h;
  let w = find_exn h weaker and s = find_exn h stronger in
  if w = s then error "preference self-loop on %S" weaker;
  if Dag.reachable h.graph s w then
    error "preference edge %S -> %S would create a cycle" weaker stronger;
  Dag.add_edge h.graph ~kind:Dag.Preference w s;
  restructured h

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

(* One topological pass per closure; the binding closure only exists
   while some preference edge does. *)
let rebuild h =
  Hr_obs.Metrics.incr m_index_builds;
  h.isa_anc <- Dag.Ancestry.build ~kinds:isa_kind h.graph;
  h.bind_anc <-
    (if preference_edges h = [] then None else Some (Dag.Ancestry.build h.graph));
  h.stale <- false

(* On a frozen hierarchy nothing is stale ([freeze] rebuilt it), so
   these reads write nothing. *)
let isa_anc h =
  if h.stale then rebuild h;
  h.isa_anc

let bind_anc h =
  if h.stale then rebuild h;
  match h.bind_anc with Some anc -> anc | None -> h.isa_anc

let subsumes h a b =
  Hr_obs.Metrics.incr m_subsumption;
  check_node h a;
  check_node h b;
  Dag.Ancestry.mem (isa_anc h).(b) a

let strictly_subsumes h a b = a <> b && subsumes h a b

let binds_below h a b =
  Hr_obs.Metrics.incr m_binding;
  check_node h a;
  check_node h b;
  Dag.Ancestry.mem (bind_anc h).(b) a

(* Inverting the ancestor arrays, O(V + sum of ancestor-set sizes). *)
let descendant_index h =
  match h.desc with
  | Some d -> d
  | None ->
    let start, ids = Dag.Ancestry.invert (isa_anc h) (Dag.capacity h.graph) in
    let instances =
      Array.init (Array.length start - 1) (fun v ->
          let n = ref 0 in
          for k = start.(v) to start.(v + 1) - 1 do
            if h.instance.(ids.(k)) then incr n
          done;
          !n)
    in
    let d = { start; ids; instances } in
    h.desc <- Some d;
    d

(* The descendants of [v] that satisfy [keep], ascending. *)
let filter_descendants h v keep =
  let { start; ids; _ } = descendant_index h in
  let acc = ref [] in
  for i = start.(v + 1) - 1 downto start.(v) do
    if keep ids.(i) then acc := ids.(i) :: !acc
  done;
  !acc

let descendants h v =
  check_node h v;
  filter_descendants h v (fun _ -> true)

let ancestors h v =
  check_node h v;
  Dag.Ancestry.to_list (isa_anc h).(v)

let fold_ancestors ?(binding = false) h v f acc =
  check_node h v;
  Dag.Ancestry.fold f (if binding then bind_anc h else isa_anc h).(v) acc

let leaves_under h v =
  check_node h v;
  filter_descendants h v (fun w -> h.instance.(w))

let instance_count h v =
  check_node h v;
  (descendant_index h).instances.(v)

(* The common descendants of [a] and [b] are the members of the shorter
   descendant range that lie under the other node; both ranges ascend,
   so either one filtered yields the same list. *)
let shorter_first h a b =
  let { start; _ } = descendant_index h in
  let count v = start.(v + 1) - start.(v) in
  if count a <= count b then (a, b) else (b, a)

let common_descendants h a b =
  let keep, other = shorter_first h a b and anc = isa_anc h in
  filter_descendants h keep (fun w -> Dag.Ancestry.mem anc.(w) other)

(* [common_descendants h a b <> []], stopping at the first witness. *)
let intersects h a b =
  check_node h a;
  check_node h b;
  let keep, other = shorter_first h a b and anc = isa_anc h in
  let { start; ids; _ } = descendant_index h in
  let rec scan k = k < start.(keep + 1) && (Dag.Ancestry.mem anc.(ids.(k)) other || scan (k + 1)) in
  scan start.(keep)

(* Two nodes intersect iff one is an ancestor of a descendant of the
   other, so mark [v]'s descendants and climb isa parents from them.
   Stop once more than [limit] nodes are marked: the work is bounded by
   the marked nodes and their parent edges, never by the hierarchy. *)
let intersecting h v ~limit =
  check_node h v;
  let { start; ids; _ } = descendant_index h in
  if start.(v + 1) - start.(v) > limit then None
  else begin
    let seen = Hashtbl.create 16 in
    for k = start.(v) to start.(v + 1) - 1 do
      Hashtbl.replace seen ids.(k) ()
    done;
    let exception Over in
    let rec climb w =
      if not (Hashtbl.mem seen w) then begin
        Hashtbl.replace seen w ();
        if Hashtbl.length seen > limit then raise Over;
        List.iter climb (Dag.preds h.graph ~kinds:isa_kind w)
      end
    in
    let walked =
      match
        for k = start.(v) to start.(v + 1) - 1 do
          List.iter climb (Dag.preds h.graph ~kinds:isa_kind ids.(k))
        done
      with
      | () -> Some (List.sort Int.compare (Hashtbl.fold (fun w () acc -> w :: acc) seen []))
      | exception Over -> None
    in
    Hr_obs.Metrics.add m_cone (Hashtbl.length seen);
    walked
  end

let buckets_meeting ?keys h v buckets =
  let limit = match keys with Some k -> Array.length k | None -> Hashtbl.length buckets in
  match intersecting h v ~limit with
  | Some nodes -> List.filter_map (Hashtbl.find_opt buckets) nodes
  | None -> (
    match keys with
    | None ->
      Hashtbl.fold (fun node b acc -> if intersects h node v then b :: acc else acc) buckets []
    | Some keys ->
      Array.fold_left
        (fun acc node -> if intersects h node v then Hashtbl.find buckets node :: acc else acc)
        [] keys)

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

(* Make every read path pure: rebuild the ancestor arrays if an edit
   left them stale, invert them into the descendant index, then seal
   the value. After leaf insertions only the inversion runs, O(V + sum
   of ancestor-set sizes); nothing V²-sized is ever allocated. After
   this, [subsumes]/[binds_below] search immutable arrays,
   [ancestors]/[descendants]/[leaves_under] read built values, and
   [maximal_common_descendants] recomputes misses without caching — no
   read ever writes, so any number of domains may query a frozen
   hierarchy while holding no lock. Untouched hierarchies stay frozen
   across publishes and pay nothing. *)
let freeze h =
  if not h.frozen then begin
    ignore (descendant_index h);
    h.frozen <- true
  end

type issue = Redundant_isa_edge of node * node

let validate h =
  List.map (fun (u, v) -> Redundant_isa_edge (u, v)) (Dag.redundant_edges h.graph)

let reduce h =
  check_mutable h;
  Dag.transitive_reduction h.graph;
  restructured h

let rename_node h ~old_name ~new_name =
  check_mutable h;
  let v = find_exn h old_name in
  let new_sym = Symbol.intern new_name in
  if Symbol.Map.mem new_sym h.by_name then error "name %S already defined" new_name;
  h.by_name <- Symbol.Map.add new_sym v (Symbol.Map.remove h.names.(v) h.by_name);
  h.names.(v) <- new_sym;
  h.generation <- fresh_generation ()

let eliminate h ~on_path v =
  check_mutable h;
  check_node h v;
  if v = h.root then error "cannot eliminate the domain root";
  if h.instance.(v) then error "cannot eliminate instance %S" (node_label h v);
  h.by_name <- Symbol.Map.remove h.names.(v) h.by_name;
  Dag.eliminate_node h.graph ~on_path v;
  restructured h

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
