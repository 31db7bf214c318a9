module Hierarchy = Hr_hierarchy.Hierarchy

type tuple = { item : Item.t; sign : Types.sign }

module Item_map = Map.Make (Item)

(* Memoized binding index: per attribute, hierarchy node -> positions
   (ascending) of tuples whose item carries that node in that coordinate.
   Built lazily on the first [candidates] probe and published through an
   [Atomic.t] so concurrent reader domains share one build; the structure
   is plain arrays and a hashtable that is never mutated after publication,
   so cross-domain sharing is safe. Every body-changing constructor
   allocates a fresh cell — values are persistent, so an index never goes
   stale, it just belongs to the version that built it. *)
type index = { ix_tuples : tuple array; ix_buckets : (int, int array) Hashtbl.t array }

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

let generations schema =
  Array.init (Schema.arity schema) (fun i -> Hierarchy.generation (Schema.hierarchy schema i))

let mark_verified r = { r with stamp = Some (generations r.schema) }

let verified r =
  match r.stamp with
  | None -> false
  | Some gens -> gens = generations r.schema

let set r item sign =
  check_item r item;
  with_body r (Item_map.add item sign r.body)

let add r item sign =
  check_item r item;
  match Item_map.find_opt item r.body with
  | None -> with_body r (Item_map.add item sign r.body)
  | Some existing ->
    if Types.sign_equal existing sign then r
    else
      Types.model_error "direct contradiction in %S on item %s" r.name
        (Item.to_string r.schema item)

let remove r item = with_body r (Item_map.remove item r.body)

let add_named r sign names = add r (Item.of_names r.schema names) sign

let find r item = Item_map.find_opt item r.body
let mem r item = Item_map.mem item r.body

let tuples r = Item_map.fold (fun item sign acc -> { item; sign } :: acc) r.body [] |> List.rev
let items r = List.map (fun t -> t.item) (tuples r)

let fold f r init = Item_map.fold (fun item sign acc -> f { item; sign } acc) r.body init
let iter f r = Item_map.iter (fun item sign -> f { item; sign }) r.body

let filter p r = with_body r (Item_map.filter (fun item sign -> p { item; sign }) r.body)

let build_index r =
  let arity = Schema.arity r.schema in
  let ix_tuples = Array.of_list (tuples r) in
  let acc = Array.init arity (fun _ -> Hashtbl.create 64) in
  Array.iteri
    (fun pos t ->
      for i = 0 to arity - 1 do
        let node = Item.coord t.item i in
        match Hashtbl.find_opt acc.(i) node with
        | Some l -> l := pos :: !l
        | None -> Hashtbl.add acc.(i) node (ref [ pos ])
      done)
    ix_tuples;
  let ix_buckets =
    Array.map
      (fun tbl ->
        let frozen = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
        Hashtbl.iter (fun node l -> Hashtbl.add frozen node (Array.of_list (List.rev !l))) tbl;
        frozen)
      acc
  in
  { ix_tuples; ix_buckets }

let index r =
  match Atomic.get r.ix with
  | Some ix -> ix
  | None ->
    let ix = build_index r in
    (* A racing builder may overwrite with its own equivalent copy; the
       loser's work is wasted, never wrong. *)
    Atomic.set r.ix (Some ix);
    ix

let candidates r item =
  check_item r item;
  let arity = Schema.arity r.schema in
  if arity = 0 then tuples r
  else begin
    let ix = index r in
    (* Coordinate i of a subsuming tuple must be an ancestor (inclusive)
       of the query's coordinate i; probe only the cheapest attribute and
       leave the rest to the caller's full subsumption test. A tuple sits
       in exactly one bucket per attribute, so the candidate list is
       duplicate-free. *)
    let ancestors =
      Array.init arity (fun i ->
          Hierarchy.ancestors (Schema.hierarchy r.schema i) (Item.coord item i))
    in
    let count i =
      List.fold_left
        (fun acc node ->
          match Hashtbl.find_opt ix.ix_buckets.(i) node with
          | Some a -> acc + Array.length a
          | None -> acc)
        0 ancestors.(i)
    in
    let best = ref 0 in
    let best_n = ref (count 0) in
    for i = 1 to arity - 1 do
      let n = count i in
      if n < !best_n then begin
        best := i;
        best_n := n
      end
    done;
    if !best_n = 0 then []
    else
      List.concat_map
        (fun node ->
          match Hashtbl.find_opt ix.ix_buckets.(!best) node with
          | Some a -> Array.to_list a
          | None -> [])
        ancestors.(!best)
      |> List.sort Int.compare
      |> List.map (fun pos -> ix.ix_tuples.(pos))
  end

let meeting r i v =
  let h = Schema.hierarchy r.schema i in
  let ix = index r in
  let hits = Hierarchy.buckets_meeting h v ix.ix_buckets.(i) in
  let positions = Array.concat hits in
  (* Merge sort: about twice as fast here as [Array.sort]'s heap sort. *)
  Array.stable_sort Int.compare positions;
  Array.fold_right (fun pos acc -> ix.ix_tuples.(pos) :: acc) positions []

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
