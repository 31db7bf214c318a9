module Hierarchy = Hr_hierarchy.Hierarchy

let m_verdicts = Hr_obs.Metrics.counter "core.binding.verdicts"
let m_index_probes = Hr_obs.Metrics.counter "core.binding.index_probes"

type verdict =
  | Asserted of Types.sign * Relation.tuple list
  | Unasserted
  | Conflict of { positive : Relation.tuple list; negative : Relation.tuple list }

(* Strictly-subsuming tuples via the relation's memoized bucket index
   ({!Relation.candidates}) rather than a full-body scan; candidates come
   back in structural order, so filtering preserves the order the old
   linear scan produced. *)
let relevant rel item =
  Hr_obs.Metrics.incr m_index_probes;
  let schema = Relation.schema rel in
  List.filter
    (fun (t : Relation.tuple) -> Item.strictly_subsumes schema t.item item)
    (Relation.candidates rel item)

(* Off-path binders: minimal relevant tuples under the binding order
   (isa + preference reachability). *)
let off_path_binders schema (tuples : Relation.tuple list) =
  List.filter
    (fun (t : Relation.tuple) ->
      not
        (List.exists
           (fun (t' : Relation.tuple) ->
             (not (Item.equal t'.item t.item))
             && Item.binds_below schema t.item t'.item)
           tuples))
    tuples

(* Is there a directed isa-path in the (lazy) product item hierarchy from
   [src] down to [dst] that visits no item in [avoid]? All intermediate
   nodes necessarily lie in the interval [dst, src], so successors are
   pruned to items still subsuming [dst]. *)
let path_avoiding schema ~src ~dst ~avoid =
  let arity = Item.arity src in
  let avoid_tbl = Hashtbl.create 8 in
  List.iter (fun i -> Hashtbl.replace avoid_tbl (i : Item.t) ()) avoid;
  let visited = Hashtbl.create 64 in
  let rec dfs (cur : Item.t) =
    if Item.equal cur dst then true
    else if Hashtbl.mem visited cur then false
    else begin
      Hashtbl.add visited cur ();
      let step i =
        let h = Schema.hierarchy schema i in
        let next_of child =
          let candidate = Item.substitute cur i child in
          (not (Hashtbl.mem avoid_tbl candidate))
          && Item.subsumes schema candidate dst
          && dfs candidate
        in
        List.exists next_of (Hierarchy.children h (Item.coord cur i))
      in
      let rec try_coord i = i < arity && (step i || try_coord (i + 1)) in
      try_coord 0
    end
  in
  (not (Hashtbl.mem avoid_tbl src)) && dfs src

let on_path_binders schema item (tuples : Relation.tuple list) =
  let preempted (t : Relation.tuple) =
    List.exists
      (fun (t' : Relation.tuple) ->
        (not (Item.equal t'.item t.item))
        && not (path_avoiding schema ~src:t.item ~dst:item ~avoid:[ t'.item ]))
      tuples
  in
  List.filter (fun t -> not (preempted t)) tuples

let split_signs (binders : Relation.tuple list) =
  List.partition (fun (t : Relation.tuple) -> Types.bool_of_sign t.sign) binders

let decide ?(semantics = Types.Off_path) schema item ~exact ~relevant =
  match exact with
  | Some sign -> Asserted (sign, [ { Relation.item; sign } ])
  | None -> (
    match relevant with
    | [] -> Unasserted
    | tuples ->
      let binders =
        match semantics with
        | Types.Off_path -> off_path_binders schema tuples
        | Types.On_path -> on_path_binders schema item tuples
        | Types.No_preemption -> tuples
      in
      let positive, negative = split_signs binders in
      (match positive, negative with
      | _ :: _, [] -> Asserted (Types.Pos, positive)
      | [], _ :: _ -> Asserted (Types.Neg, negative)
      | [], [] ->
        (* On-path can preempt every tuple only if tuples mutually shadow
           each other, which cannot happen on a DAG: a minimal relevant
           tuple always has an avoiding path. *)
        assert false
      | _ :: _, _ :: _ -> Conflict { positive; negative }))

(* [decide] answers a stored item from its own tuple, so the index is
   probed only for an item that is not stored. *)
let verdict ?semantics rel item =
  Hr_obs.Metrics.incr m_verdicts;
  let exact = Relation.find rel item in
  let relevant = match exact with Some _ -> [] | None -> relevant rel item in
  decide ?semantics (Relation.schema rel) item ~exact ~relevant

let truth ?semantics rel item =
  match verdict ?semantics rel item with
  | Asserted (sign, _) -> sign
  | Unasserted -> Types.Neg
  | Conflict _ ->
    Types.model_error "conflict at item %s in relation %S"
      (Item.to_string (Relation.schema rel) item)
      (Relation.name rel)

let holds ?semantics rel item = Types.bool_of_sign (truth ?semantics rel item)

let justification rel item =
  let exact =
    match Relation.find rel item with
    | Some sign -> [ { Relation.item; sign } ]
    | None -> []
  in
  exact @ relevant rel item

type graph = {
  nodes : Relation.tuple array;
  item_node : int;
  edges : (int * int) list;
}

let binding_graph rel item =
  let schema = Relation.schema rel in
  let nodes = Array.of_list (justification rel item) in
  let n = Array.length nodes in
  let item_node = n in
  let stronger i j =
    (* j binds at least as strongly as i (i's item is above j's). *)
    Item.binds_below schema nodes.(i).Relation.item nodes.(j).Relation.item
  in
  let strictly_stronger i j = i <> j && stronger i j && not (stronger j i) in
  let immediate i j =
    strictly_stronger i j
    && not
         (List.exists
            (fun k -> k <> i && k <> j && strictly_stronger i k && strictly_stronger k j)
            (List.init n Fun.id))
  in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if immediate i j then edges := (i, j) :: !edges
    done;
    (* Edge into the item from tuples with no stronger tuple below them. *)
    if
      not
        (List.exists
           (fun k -> strictly_stronger i k)
           (List.init n Fun.id))
      && not (Item.equal nodes.(i).Relation.item item)
    then edges := (i, item_node) :: !edges
  done;
  (* The exact-match tuple (item equal to the query) is drawn on the item
     itself; it gets the incoming edges instead. *)
  { nodes; item_node; edges = List.rev !edges }

let pp_verdict schema ppf = function
  | Asserted (sign, binders) ->
    Format.fprintf ppf "%a (by %a)" Types.pp_sign sign
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (t : Relation.tuple) -> Item.pp schema ppf t.item))
      binders
  | Unasserted -> Format.pp_print_string ppf "unasserted"
  | Conflict { positive; negative } ->
    Format.fprintf ppf "CONFLICT (+: %d tuples, -: %d tuples)" (List.length positive)
      (List.length negative)
