module Hierarchy = Hr_hierarchy.Hierarchy

type tuple = { item : Item.t; sign : Types.sign }

module Item_map = Map.Make (Item)
module Int_set = Set.Make (Int)

let m_index_builds = Hr_obs.Metrics.counter "core.binding.index_builds"

(* The binding index. [base] is built from a whole body in one pass: per
   attribute, hierarchy node -> the tuples whose item carries that node
   in that coordinate, as codes: position in [tuples] (structural item
   order) shifted left one bit, the low bit set for a negative tuple, so
   a bucket ascends by position and a probe for one sign reads the
   buckets it shares with the other. [pos_keys]/[neg_keys] list, per
   attribute, the nodes whose bucket holds a tuple of that sign. A
   version that [add], [set] or [remove] derives from an indexed one
   carries the same base plus an overlay: [added] holds the tuples the
   base lacks (new items and flipped signs), [gone] the base positions
   the body no longer holds. Probes read the base's buckets, drop
   [gone], and test the few [added] tuples directly. Nothing is mutated
   once built: the tables are only read after [build_base] returns and
   the overlay is persistent, so any number of versions and reader
   domains share one base. A version's index is published through an
   [Atomic.t]: built lazily on its first probe, or set at derivation. *)
type base = {
  tuples : tuple array;
  buckets : (Hierarchy.node, int array) Hashtbl.t array;
  pos_keys : Hierarchy.node array array;
  neg_keys : Hierarchy.node array array;
}

let negative_bit sign = if Types.bool_of_sign sign then 0 else 1

type index = { base : base; added : Types.sign Item_map.t; gone : Int_set.t }

(* [stamp] is the consistency stamp: the generations of the schema's
   hierarchies at the moment this body was found to satisfy the
   ambiguity constraint. Any body or schema change drops it. *)
type t = {
  name : string;
  schema : Schema.t;
  body : Types.sign Item_map.t;
  ix : index option Atomic.t;
  stamp : int array option;
}

let empty ?(name = "r") schema =
  { name; schema; body = Item_map.empty; ix = Atomic.make None; stamp = None }

let name r = r.name
let with_name r name = { r with name }
let schema r = r.schema

(* Items order by raw node-id arrays (not through the schema), so a
   schema swap never reorders the body map — and node ids are preserved
   by Schema.rebind, so the shared memoized index stays valid too. *)
let with_schema r schema = { r with schema; stamp = None }
let cardinality r = Item_map.cardinal r.body
let is_empty r = Item_map.is_empty r.body

let check_item r item =
  if Item.arity item <> Schema.arity r.schema then
    Types.model_error "item arity %d does not match relation %S" (Item.arity item) r.name

let with_body r body = { r with body; ix = Atomic.make None; stamp = None }

(* The overlay grows by one per changed item; past [overlay_limit] the
   derived version drops the index and its first probe rebuilds a base,
   O(N). sqrt N balances the two costs: a probe scans up to sqrt N added
   tuples, and a rebuild comes at most once per sqrt N changes. *)
let overlay_limit base = max 16 (int_of_float (sqrt (float_of_int (Array.length base.tuples))))

let base_position base item =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Item.compare base.tuples.(mid).item item in
      if c = 0 then Some mid else if c < 0 then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length base.tuples)

(* [ix] updated for [body], which differs from the body [ix] indexed
   only at [item], or [None] once the overlay outgrows its limit. An item
   back in the base's state leaves the overlay. *)
let carry ix body item =
  let base = ix.base in
  let sign = Item_map.find_opt item body in
  let at = base_position base item in
  let restored =
    match sign, at with
    | Some s, Some p -> Types.sign_equal base.tuples.(p).sign s
    | _ -> false
  in
  let added =
    match sign with
    | Some s when not restored -> Item_map.add item s ix.added
    | _ -> Item_map.remove item ix.added
  in
  let gone =
    match at with
    | None -> ix.gone
    | Some p -> if restored then Int_set.remove p ix.gone else Int_set.add p ix.gone
  in
  if Item_map.cardinal added + Int_set.cardinal gone > overlay_limit base then None
  else Some { ix with added; gone }

(* One item changed: an indexed parent's index carries over. An
   unchanged body is the parent itself, stamp and index included. An
   unindexed parent allocates nothing beyond what [with_body] does, so
   a bulk construction pays no upkeep. *)
let derive r body item =
  if body == r.body then r
  else
    let ix = match Atomic.get r.ix with None -> None | Some ix -> carry ix body item in
    { r with body; ix = Atomic.make ix; stamp = None }

let generations schema =
  Array.init (Schema.arity schema) (fun i -> Hierarchy.generation (Schema.hierarchy schema i))

let mark_verified r = { r with stamp = Some (generations r.schema) }

let verified r =
  match r.stamp with
  | None -> false
  | Some gens -> gens = generations r.schema

let set r item sign =
  check_item r item;
  derive r (Item_map.add item sign r.body) item

let add r item sign =
  check_item r item;
  match Item_map.find_opt item r.body with
  | None -> derive r (Item_map.add item sign r.body) item
  | Some existing ->
    if Types.sign_equal existing sign then r
    else
      Types.model_error "direct contradiction in %S on item %s" r.name
        (Item.to_string r.schema item)

let remove r item = derive r (Item_map.remove item r.body) item

let add_named r sign names = add r (Item.of_names r.schema names) sign

let find r item = Item_map.find_opt item r.body
let mem r item = Item_map.mem item r.body

let tuples r = Item_map.fold (fun item sign acc -> { item; sign } :: acc) r.body [] |> List.rev
let items r = List.map (fun t -> t.item) (tuples r)

let fold f r init = Item_map.fold (fun item sign acc -> f { item; sign } acc) r.body init
let iter f r = Item_map.iter (fun item sign -> f { item; sign }) r.body

let filter p r =
  let body = Item_map.filter (fun item sign -> p { item; sign }) r.body in
  if body == r.body then r else with_body r body

(* Per node while building: its codes, descending, and which signs it
   has seen. *)
type filling = { mutable codes : int list; mutable pos_seen : bool; mutable neg_seen : bool }

let build_base r =
  Hr_obs.Metrics.incr m_index_builds;
  let arity = Schema.arity r.schema in
  let tuples = Array.of_list (tuples r) in
  let acc = Array.init arity (fun _ -> Hashtbl.create 64) in
  let pos_keys = Array.make arity [] and neg_keys = Array.make arity [] in
  for p = Array.length tuples - 1 downto 0 do
    let t = tuples.(p) in
    let code = (p lsl 1) lor negative_bit t.sign in
    for i = 0 to arity - 1 do
      let node = Item.coord t.item i in
      let f =
        match Hashtbl.find_opt acc.(i) node with
        | Some f -> f
        | None ->
          let f = { codes = []; pos_seen = false; neg_seen = false } in
          Hashtbl.add acc.(i) node f;
          f
      in
      f.codes <- code :: f.codes;
      if Types.bool_of_sign t.sign then begin
        if not f.pos_seen then pos_keys.(i) <- node :: pos_keys.(i);
        f.pos_seen <- true
      end
      else begin
        if not f.neg_seen then neg_keys.(i) <- node :: neg_keys.(i);
        f.neg_seen <- true
      end
    done
  done;
  let buckets =
    Array.map
      (fun tbl ->
        let frozen = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
        Hashtbl.iter (fun node f -> Hashtbl.add frozen node (Array.of_list f.codes)) tbl;
        frozen)
      acc
  in
  {
    tuples;
    buckets;
    pos_keys = Array.map Array.of_list pos_keys;
    neg_keys = Array.map Array.of_list neg_keys;
  }

let index r =
  match Atomic.get r.ix with
  | Some ix -> ix
  | None ->
    let ix = { base = build_base r; added = Item_map.empty; gone = Int_set.empty } in
    (* A racing builder may overwrite with its own equivalent copy; the
       loser's work is wasted, never wrong. *)
    Atomic.set r.ix (Some ix);
    ix

(* The tuples the buckets [hits] hold (of sign [only], when given),
   minus [gone], merged in item order with the [added] tuples that
   satisfy [keep]. A bucket ascends; merge sort is about twice as fast
   here as [Array.sort]'s heap sort. *)
let collect ?only ix hits keep =
  let codes =
    match hits with
    | [ a ] -> a
    | _ ->
      let all = Array.concat hits in
      Array.stable_sort Int.compare all;
      all
  in
  let from_base =
    Array.fold_right
      (fun c acc ->
        let p = c lsr 1 in
        match only with
        | Some sign when c land 1 <> negative_bit sign -> acc
        | _ -> if Int_set.mem p ix.gone then acc else ix.base.tuples.(p) :: acc)
      codes []
  in
  if Item_map.is_empty ix.added then from_base
  else
    let extra =
      Item_map.fold
        (fun item sign acc ->
          let t = { item; sign } in
          if keep t then t :: acc else acc)
        ix.added []
    in
    let rec merge acc a b =
      match a, b with
      | [], l | l, [] -> List.rev_append acc l
      | x :: a', y :: b' ->
        if Item.compare x.item y.item < 0 then merge (x :: acc) a' b else merge (y :: acc) a b'
    in
    merge [] from_base (List.rev extra)

(* [probe i] is the bucket hits at coordinate [i] and their total size;
   the coordinate with the fewest wins, and a total of zero ends the
   search. *)
let shortest arity probe =
  let rec go i ((_, _, n) as best) =
    if i >= arity || n = 0 then best
    else
      let hits, m = probe i in
      go (i + 1) (if m < n then (i, hits, m) else best)
  in
  let hits, n = probe 0 in
  go 1 (0, hits, n)

let add_hit hits n a =
  hits := a :: !hits;
  n := !n + Array.length a

let candidates ?(binding = false) r item =
  check_item r item;
  let arity = Schema.arity r.schema in
  if arity = 0 then tuples r
  else begin
    let ix = index r in
    (* Coordinate i of a subsuming (binding-above) tuple must be an
       ancestor (inclusive) of the query's coordinate i in that order;
       probe only the cheapest attribute and leave the rest to the
       caller's full test. A tuple sits in exactly one bucket per
       attribute, so the candidate list is duplicate-free. *)
    let probe i =
      let hits = ref [] and n = ref 0 in
      Hierarchy.fold_ancestors ~binding (Schema.hierarchy r.schema i) (Item.coord item i)
        (fun node () ->
          match Hashtbl.find_opt ix.base.buckets.(i) node with
          | Some a -> add_hit hits n a
          | None -> ())
        ();
      (!hits, !n)
    in
    let best, hits, _ = shortest arity probe in
    let h = Schema.hierarchy r.schema best and v = Item.coord item best in
    let above = if binding then Hierarchy.binds_below else Hierarchy.subsumes in
    collect ix hits (fun t -> above h (Item.coord t.item best) v)
  end

let meeting r i v =
  let ix = index r in
  let h = Schema.hierarchy r.schema i in
  collect ix
    (Hierarchy.buckets_meeting h v ix.base.buckets.(i))
    (fun t -> Hierarchy.intersects h (Item.coord t.item i) v)

let partners r t =
  let arity = Schema.arity r.schema in
  if arity = 0 then []
  else begin
    let ix = index r in
    let opposite = Types.negate t.sign in
    let keys = if Types.bool_of_sign opposite then ix.base.pos_keys else ix.base.neg_keys in
    (* The walk over the keys, when the cone is the larger side, visits
       only the nodes that hold a tuple of the opposite sign. A bucket's
       size counts both signs, so it only bounds the partners it holds. *)
    let probe i =
      let hits = ref [] and n = ref 0 in
      List.iter (add_hit hits n)
        (Hierarchy.buckets_meeting ~keys:keys.(i) (Schema.hierarchy r.schema i)
           (Item.coord t.item i) ix.base.buckets.(i));
      (!hits, !n)
    in
    let best, hits, _ = shortest arity probe in
    let h = Schema.hierarchy r.schema best and v = Item.coord t.item best in
    collect ~only:opposite ix hits (fun u ->
        Types.sign_equal u.sign opposite && Hierarchy.intersects h (Item.coord u.item best) v)
  end

let of_map ?name schema body =
  let r = empty ?name schema in
  Item_map.iter (fun item _ -> check_item r item) body;
  { r with body }

let of_tuples ?name schema rows =
  List.fold_left
    (fun r (sign, names) -> add r (Item.of_names schema names) sign)
    (empty ?name schema) rows

let equal a b =
  Schema.equal a.schema b.schema && Item_map.equal Types.sign_equal a.body b.body

let to_rows r =
  List.map
    (fun { item; sign } ->
      let cells =
        List.init (Schema.arity r.schema) (fun i ->
            let h = Schema.hierarchy r.schema i in
            let v = Item.coord item i in
            if Hierarchy.is_class h v then "V " ^ Hierarchy.node_label h v
            else Hierarchy.node_label h v)
      in
      Format.asprintf "%a" Types.pp_sign sign :: cells)
    (tuples r)

let pp ppf r =
  let headers = "" :: Schema.names r.schema in
  Format.fprintf ppf "%s" (Hr_util.Texttable.render_rows ~headers (to_rows r))
