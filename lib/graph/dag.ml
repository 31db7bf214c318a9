type edge_kind = Isa | Preference

(* Observability: reachability work is the engine's inner loop, so the
   counters distinguish on-demand DFS walks from ancestor-array probes
   (see docs/OBSERVABILITY.md). *)
let m_reachable = Hr_obs.Metrics.counter "graph.dag.reachable_calls"
let m_closure = Hr_obs.Metrics.counter "graph.dag.closure_walks"
let m_reach_queries = Hr_obs.Metrics.counter "graph.reach.queries"

let kind_equal a b =
  match a, b with
  | Isa, Isa | Preference, Preference -> true
  | Isa, Preference | Preference, Isa -> false

type t = {
  mutable succ : (int * edge_kind) list array;
  mutable pred : (int * edge_kind) list array;
  mutable alive : bool array;
  mutable n : int; (* number of allocated ids *)
}

let create () = { succ = [||]; pred = [||]; alive = [||]; n = 0 }

let copy g =
  { succ = Array.copy g.succ; pred = Array.copy g.pred; alive = Array.copy g.alive; n = g.n }

let grow g =
  let cap = Array.length g.alive in
  if g.n >= cap then begin
    let cap' = max 8 (2 * cap) in
    let succ = Array.make cap' [] in
    let pred = Array.make cap' [] in
    let alive = Array.make cap' false in
    Array.blit g.succ 0 succ 0 cap;
    Array.blit g.pred 0 pred 0 cap;
    Array.blit g.alive 0 alive 0 cap;
    g.succ <- succ;
    g.pred <- pred;
    g.alive <- alive
  end

let add_node g =
  grow g;
  let id = g.n in
  g.n <- g.n + 1;
  g.alive.(id) <- true;
  g.succ.(id) <- [];
  g.pred.(id) <- [];
  id

let capacity g = g.n
let is_alive g v = v >= 0 && v < g.n && g.alive.(v)

let live_nodes g =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (if g.alive.(i) then i :: acc else acc) in
  loop (g.n - 1) []

let live_count g =
  let c = ref 0 in
  for i = 0 to g.n - 1 do
    if g.alive.(i) then incr c
  done;
  !c

let check_endpoint g v =
  if not (is_alive g v) then invalid_arg "Dag: dead or unknown node"

let mem_edge g ?(kind = Isa) u v =
  is_alive g u && is_alive g v
  && List.exists (fun (w, k) -> w = v && kind_equal k kind) g.succ.(u)

let add_edge g ?(kind = Isa) u v =
  check_endpoint g u;
  check_endpoint g v;
  if u = v then invalid_arg "Dag.add_edge: self loop";
  if not (mem_edge g ~kind u v) then begin
    g.succ.(u) <- (v, kind) :: g.succ.(u);
    g.pred.(v) <- (u, kind) :: g.pred.(v)
  end

let remove_edge g ?(kind = Isa) u v =
  if is_alive g u && is_alive g v then begin
    g.succ.(u) <- List.filter (fun (w, k) -> not (w = v && kind_equal k kind)) g.succ.(u);
    g.pred.(v) <- List.filter (fun (w, k) -> not (w = u && kind_equal k kind)) g.pred.(v)
  end

let all_kinds (_ : edge_kind) = true

let neighbors adj g kinds v =
  check_endpoint g v;
  List.filter_map
    (fun (w, k) -> if kinds k && g.alive.(w) then Some w else None)
    adj.(v)
  |> List.sort_uniq Int.compare

let succs g ?(kinds = all_kinds) v = neighbors g.succ g kinds v
let preds g ?(kinds = all_kinds) v = neighbors g.pred g kinds v

let neighbors_ordered adj g kinds v =
  check_endpoint g v;
  (* adjacency lists are built by prepending; reversing restores edge
     insertion order, with duplicates (same target, other kind) removed *)
  let rec dedup seen = function
    | [] -> []
    | (w, k) :: rest ->
      if kinds k && g.alive.(w) && not (List.mem w seen) then w :: dedup (w :: seen) rest
      else dedup seen rest
  in
  dedup [] (List.rev adj.(v))

let succs_ordered g ?(kinds = all_kinds) v = neighbors_ordered g.succ g kinds v
let preds_ordered g ?(kinds = all_kinds) v = neighbors_ordered g.pred g kinds v

let remove_node g v =
  check_endpoint g v;
  List.iter
    (fun (w, _) ->
      if g.alive.(w) then g.pred.(w) <- List.filter (fun (u, _) -> u <> v) g.pred.(w))
    g.succ.(v);
  List.iter
    (fun (w, _) ->
      if g.alive.(w) then g.succ.(w) <- List.filter (fun (u, _) -> u <> v) g.succ.(w))
    g.pred.(v);
  g.succ.(v) <- [];
  g.pred.(v) <- [];
  g.alive.(v) <- false

(* Walks mark what they visit in a table sized by the walk, not an
   n-slot array: [redundant_edges] runs one walk per edge and sibling,
   and most walks touch a handful of nodes of a large graph. *)
let reachable g ?(kinds = all_kinds) u v =
  Hr_obs.Metrics.incr m_reachable;
  check_endpoint g u;
  check_endpoint g v;
  if u = v then true
  else begin
    let seen = Hashtbl.create 8 in
    let rec dfs x =
      x = v
      || (not (Hashtbl.mem seen x))
         && begin
              Hashtbl.add seen x ();
              List.exists (fun (w, k) -> kinds k && g.alive.(w) && dfs w) g.succ.(x)
            end
    in
    Hashtbl.add seen u ();
    List.exists (fun (w, k) -> kinds k && g.alive.(w) && dfs w) g.succ.(u)
  end

let closure adj g kinds v =
  Hr_obs.Metrics.incr m_closure;
  check_endpoint g v;
  let seen = Hashtbl.create 8 in
  let rec dfs x acc =
    if Hashtbl.mem seen x then acc
    else begin
      Hashtbl.add seen x ();
      List.fold_left
        (fun acc (w, k) -> if kinds k && g.alive.(w) then dfs w acc else acc)
        (x :: acc) adj.(x)
    end
  in
  List.sort Int.compare (dfs v [])

let descendants g ?(kinds = all_kinds) v = closure g.succ g kinds v
let ancestors g ?(kinds = all_kinds) v = closure g.pred g kinds v

(* Kahn's algorithm over live nodes, all edge kinds. Returns ancestors
   first. *)
let topo_sort g =
  let indeg = Array.make (max 1 g.n) 0 in
  let lives = live_nodes g in
  List.iter (fun v -> indeg.(v) <- List.length (preds g v)) lives;
  let queue = Queue.create () in
  List.iter (fun v -> if indeg.(v) = 0 then Queue.add v queue) lives;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr count;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      (succs g v)
  done;
  if !count <> List.length lives then invalid_arg "Dag.topo_sort: graph has a cycle";
  List.rev !order

(* [u -> v] is redundant if some other path u ->* v of live edges exists.
   We test by searching from u's other successors. *)
let edge_redundant g u v =
  List.exists
    (fun (w, _) -> w <> v && g.alive.(w) && reachable g w v)
    g.succ.(u)

let redundant_edges g =
  List.concat_map
    (fun u ->
      List.filter_map
        (fun (v, k) ->
          match k with
          | Preference -> None
          | Isa -> if g.alive.(v) && edge_redundant g u v then Some (u, v) else None)
        g.succ.(u))
    (live_nodes g)

let transitive_reduction g =
  (* Removing one redundant edge can never make another redundant edge
     necessary (in a DAG, a redundant edge is witnessed by a path that uses
     no redundant edge of maximal length), so a single sweep suffices as
     long as each removal is checked against the current graph. *)
  List.iter
    (fun u ->
      List.iter
        (fun (v, k) ->
          match k with
          | Preference -> ()
          | Isa -> if g.alive.(v) && edge_redundant g u v then remove_edge g u v)
        g.succ.(u))
    (live_nodes g)

(* A node with no predecessor or no successor has no bypass edge to
   add, so it is removed without ordering the graph. Otherwise each
   predecessor [j] walks what it reaches once and grows that set with
   every bypass edge it gains, instead of one reachability walk per
   (predecessor, successor) pair: the same test against the same graph,
   linear rather than quadratic in the successors of a node under a
   wide class. *)
let eliminate_node g ~on_path v =
  check_endpoint g v;
  let ps = preds g v in
  let ks = succs g v in
  if ps = [] || ks = [] then remove_node g v
  else begin
    let order = topo_sort g in
    let position = Array.make (max 1 g.n) 0 in
    List.iteri (fun i x -> position.(x) <- i) order;
    remove_node g v;
    let ps = List.sort (fun a b -> Int.compare position.(b) position.(a)) ps in
    let ks = List.sort (fun a b -> Int.compare position.(a) position.(b)) ks in
    List.iter
      (fun j ->
        if on_path then List.iter (add_edge g j) ks
        else begin
          let reached = Hashtbl.create 16 in
          let rec mark x =
            if not (Hashtbl.mem reached x) then begin
              Hashtbl.add reached x ();
              List.iter (fun (w, _) -> if g.alive.(w) then mark w) g.succ.(x)
            end
          in
          mark j;
          List.iter
            (fun k ->
              if not (Hashtbl.mem reached k) then begin
                add_edge g j k;
                mark k
              end)
            ks
        end)
      ps
  end

let to_dot ?(label = string_of_int) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph g {\n";
  List.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf "  n%d [label=%S];\n" v (label v)))
    (live_nodes g);
  List.iter
    (fun u ->
      List.iter
        (fun (v, k) ->
          if g.alive.(v) then
            let style = match k with Isa -> "" | Preference -> " [style=dashed]" in
            Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" u v style))
        g.succ.(u))
    (live_nodes g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

module Ancestry = struct
  type dag = t

  (* [signature] is a one-word filter over [ids]: bit [u mod 62] is set
     for every member [u], so most non-members are rejected with one
     load and no search. *)
  type set = { signature : int; ids : int array }

  let bit u = 1 lsl (u mod 62)
  let empty = { signature = 0; ids = [||] }

  (* Sorted, duplicate-free union of two ascending arrays. *)
  let union a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else begin
      let out = Array.make (la + lb) 0 in
      let rec go i j k =
        if i = la then begin
          Array.blit b j out k (lb - j);
          k + lb - j
        end
        else if j = lb then begin
          Array.blit a i out k (la - i);
          k + la - i
        end
        else
          let x = a.(i) and y = b.(j) in
          if x < y then (out.(k) <- x; go (i + 1) j (k + 1))
          else if y < x then (out.(k) <- y; go i (j + 1) (k + 1))
          else (out.(k) <- x; go (i + 1) (j + 1) (k + 1))
      in
      let n = go 0 0 0 in
      if n = la + lb then out else Array.sub out 0 n
    end

  let extend parents v =
    {
      signature = List.fold_left (fun m p -> m lor p.signature) (bit v) parents;
      ids = List.fold_left (fun acc p -> union acc p.ids) [| v |] parents;
    }

  let build ?(kinds = all_kinds) (g : dag) =
    let sets = Array.make g.n empty in
    (* Topological order: a node's predecessors are complete before
       their sets are merged into its own. *)
    List.iter
      (fun v -> sets.(v) <- extend (List.map (fun p -> sets.(p)) (preds g ~kinds v)) v)
      (topo_sort g);
    sets

  (* A loop, not a local recursive function: this is the innermost
     probe of every subsumption test, and a closure would be allocated
     per call. *)
  let mem s u =
    Hr_obs.Metrics.incr m_reach_queries;
    s.signature land bit u <> 0
    &&
    let a = s.ids in
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get a mid < u then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length a && Array.unsafe_get a !lo = u

  (* Count each node's members into [start], turn the counts into range
     ends, then fill every range from its end while walking the sets in
     descending order, so each range ascends and each end slides back to
     its range's start. *)
  let invert sets n =
    let start = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      let ids = sets.(v).ids in
      for i = 0 to Array.length ids - 1 do
        let u = ids.(i) in
        start.(u) <- start.(u) + 1
      done
    done;
    for u = 1 to n do
      start.(u) <- start.(u) + start.(u - 1)
    done;
    let out = Array.make start.(n) 0 in
    for v = n - 1 downto 0 do
      let ids = sets.(v).ids in
      for i = 0 to Array.length ids - 1 do
        let u = ids.(i) in
        start.(u) <- start.(u) - 1;
        out.(start.(u)) <- v
      done
    done;
    (start, out)

  let to_list s = Array.to_list s.ids

  let fold f s acc =
    let acc = ref acc in
    for k = 0 to Array.length s.ids - 1 do
      acc := f s.ids.(k) !acc
    done;
    !acc
end
