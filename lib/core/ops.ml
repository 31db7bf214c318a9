module Hierarchy = Hr_hierarchy.Hierarchy
module Item_set = Set.Make (Item)

(* Per-operator call and output-row counters. Handles are registered
   once here, so the per-call cost is two field updates. *)
let op_counters op =
  ( Hr_obs.Metrics.counter (Printf.sprintf "core.ops.%s.calls" op),
    Hr_obs.Metrics.counter (Printf.sprintf "core.ops.%s.rows_out" op) )

let c_select = op_counters "select"
let c_project = op_counters "project"
let c_join = op_counters "join"
let c_union = op_counters "union"
let c_inter = op_counters "inter"
let c_diff = op_counters "diff"
let c_rename = op_counters "rename"

(* Tuples the binding index handed a selection: compare with its
   [rows_out] and with the operand's size. *)
let c_select_candidates = Hr_obs.Metrics.counter "core.ops.select.candidates"

let tally (calls, rows_out) rel =
  Hr_obs.Metrics.incr calls;
  Hr_obs.Metrics.add rows_out (Relation.cardinality rel);
  rel

(* Pair tests made by the closure: compare with the number of items it
   accepts. *)
let c_closure_pairs = Hr_obs.Metrics.counter "core.ops.closure.pairs"

(* Close a candidate item set under maximal common descendants of
   incomparable intersecting pairs. Worklist: each accepted item is filed
   under its node in one bucket table per coordinate. An item can only
   intersect items whose every coordinate meets its own, so a popped item
   is paired only with the buckets that meet it on one coordinate
   ([Hierarchy.buckets_meeting]), the coordinate that yields the shortest
   list; every pair of accepted items is still tested once, when the
   later of the two is popped. An atomic item is accepted but neither
   filed nor popped: it meets only the items that subsume it, so it has
   no incomparable intersecting partner (docs/SEMANTICS.md §3). *)
let close_under_mcd schema seeds =
  let arity = Schema.arity schema in
  let accepted = ref Item_set.empty in
  let buckets = Array.init arity (fun _ -> Hashtbl.create 64) in
  let queue = Queue.create () in
  let enqueue item =
    if not (Item_set.mem item !accepted) then begin
      accepted := Item_set.add item !accepted;
      if not (Item.is_atomic schema item) then begin
        Array.iteri
          (fun i tbl ->
            let c = Item.coord item i in
            Hashtbl.replace tbl c (item :: Option.value (Hashtbl.find_opt tbl c) ~default:[]))
          buckets;
        Queue.add item queue
      end
    end
  in
  let meeting item i =
    let hits =
      Hierarchy.buckets_meeting (Schema.hierarchy schema i) (Item.coord item i) buckets.(i)
    in
    (hits, List.fold_left (fun n b -> n + List.length b) 0 hits)
  in
  (* The item itself is always on the list, so a list of one is as short
     as it gets. *)
  let rec shortest item i ((_, n) as best) =
    if i >= arity || n <= 1 then fst best
    else
      let (_, m) as here = meeting item i in
      shortest item (i + 1) (if m < n then here else best)
  in
  List.iter enqueue seeds;
  while not (Queue.is_empty queue) do
    (* Only non-atomic items are queued, so the arity is at least 1. *)
    let item = Queue.pop queue in
    let hits = shortest item 1 (meeting item 0) in
    List.iter
      (List.iter (fun other ->
           if not (Item.equal item other) then begin
             Hr_obs.Metrics.incr c_closure_pairs;
             if (not (Item.comparable schema item other)) && Item.intersects schema item other
             then List.iter enqueue (Item.maximal_common_descendants schema item other)
           end))
      hits
  done;
  Item_set.elements !accepted

let refine ?(name = "q") ?(consolidate = true) schema eval seeds =
  let items = close_under_mcd schema seeds in
  let rel =
    List.fold_left (fun r item -> Relation.set r item (eval item)) (Relation.empty ~name schema) items
  in
  if consolidate then Relation.with_name (Consolidate.consolidate rel) name else rel

let consolidated rel =
  refine ~name:(Relation.name rel) (Relation.schema rel) (Binding.truth rel) (Relation.items rel)

let require_equal_schemas a b =
  if not (Schema.equal (Relation.schema a) (Relation.schema b)) then
    Types.model_error "schemas of %S and %S differ" (Relation.name a) (Relation.name b)

let combine ?name op a b =
  require_equal_schemas a b;
  let schema = Relation.schema a in
  let seeds = Relation.items a @ Relation.items b in
  let eval item =
    Types.sign_of_bool
      (op
         (Types.bool_of_sign (Binding.truth a item))
         (Types.bool_of_sign (Binding.truth b item)))
  in
  refine ?name schema eval seeds

let union ?(name = "union") a b = tally c_union (combine ~name ( || ) a b)
let inter ?(name = "inter") a b = tally c_inter (combine ~name ( && ) a b)
let diff ?(name = "diff") a b = tally c_diff (combine ~name (fun x y -> x && not y) a b)

(* Only the tuples whose coordinate [i] meets [v] yield seeds — one
   per maximal common descendant — and the binding index finds them
   without a scan. *)
let select_with ~name rel ~attr ~value =
  let schema = Relation.schema rel in
  let i = Schema.index_of schema attr in
  let h = Schema.hierarchy schema i in
  let v = Hierarchy.find_exn h value in
  let applicable = Relation.meeting rel i v in
  Hr_obs.Metrics.add c_select_candidates (List.length applicable);
  let seeds =
    List.fold_left
      (fun acc (t : Relation.tuple) ->
        let meets = Hierarchy.maximal_common_descendants h (Item.coord t.Relation.item i) v in
        List.fold_left (fun acc m -> Item.substitute t.Relation.item i m :: acc) acc meets)
      [] applicable
  in
  (tally c_select (refine ~name schema (Binding.truth rel) seeds), applicable)

let select ?(name = "select") rel ~attr ~value = fst (select_with ~name rel ~attr ~value)
let select_justified ?(name = "select") rel ~attr ~value = select_with ~name rel ~attr ~value

let project ?(name = "project") rel attrs =
  let schema = Relation.schema rel in
  let positions = List.map (Schema.index_of schema) attrs in
  let out_schema = Schema.project schema positions in
  Relation.fold
    (fun (t : Relation.tuple) acc ->
      let item = Item.project t.Relation.item positions in
      match Relation.find acc item with
      | None -> Relation.set acc item t.Relation.sign
      | Some existing ->
        (* existential semantics: a positive witness dominates *)
        if Types.sign_equal existing Types.Neg && Types.sign_equal t.Relation.sign Types.Pos
        then Relation.set acc item Types.Pos
        else acc)
    rel
    (Relation.empty ~name out_schema)
  |> tally c_project

let join ?(name = "join") a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let shared =
    List.filter_map
      (fun nm ->
        match Schema.find_index sb nm with
        | Some j ->
          let i = Schema.index_of sa nm in
          if Schema.hierarchy sa i != Schema.hierarchy sb j then
            Types.model_error "shared attribute %S uses different hierarchies" nm;
          Some (i, j)
        | None -> None)
      (Schema.names sa)
  in
  let b_only =
    List.filter
      (fun j -> not (List.exists (fun (_, j') -> j = j') shared))
      (List.init (Schema.arity sb) Fun.id)
  in
  let out_schema = Schema.concat sa (Schema.project sb b_only) in
  let arity_a = Schema.arity sa in
  (* Candidate items: for every tuple pair, every choice of per-shared-
     attribute maximal common descendant. *)
  let seeds =
    Relation.fold
      (fun (ta : Relation.tuple) acc ->
        Relation.fold
          (fun (tb : Relation.tuple) acc ->
            let choices =
              List.map
                (fun (i, j) ->
                  let h = Schema.hierarchy sa i in
                  ( i,
                    Hierarchy.maximal_common_descendants h
                      (Item.coord ta.Relation.item i)
                      (Item.coord tb.Relation.item j) ))
                shared
            in
            if List.exists (fun (_, mcds) -> mcds = []) choices then acc
            else
              let rec assign chosen = function
                | [] ->
                  let a_part =
                    Array.init arity_a (fun i ->
                        match List.assoc_opt i chosen with
                        | Some v -> v
                        | None -> Item.coord ta.Relation.item i)
                  in
                  let b_part =
                    Array.of_list (List.map (fun j -> Item.coord tb.Relation.item j) b_only)
                  in
                  [ Item.make out_schema (Array.append a_part b_part) ]
                | (i, mcds) :: rest ->
                  List.concat_map (fun v -> assign ((i, v) :: chosen) rest) mcds
              in
              assign [] choices @ acc)
          b acc)
      a []
  in
  let eval item =
    let a_item =
      Item.make sa (Array.init arity_a (fun i -> Item.coord item i))
    in
    let b_item =
      Item.make sb
        (Array.init (Schema.arity sb) (fun j ->
             match List.find_opt (fun (_, j') -> j = j') shared with
             | Some (i, _) -> Item.coord item i
             | None ->
               let rank =
                 let rec idx k = function
                   | [] -> assert false
                   | j' :: rest -> if j = j' then k else idx (k + 1) rest
                 in
                 idx 0 b_only
               in
               Item.coord item (arity_a + rank)))
    in
    Types.sign_of_bool (Binding.holds a a_item && Binding.holds b b_item)
  in
  tally c_join (refine ~name out_schema eval seeds)

let rename ?name rel ~old_name ~new_name =
  let out_schema = Schema.rename (Relation.schema rel) ~old_name ~new_name in
  let out_name = Option.value name ~default:(Relation.name rel) in
  Relation.fold
    (fun (t : Relation.tuple) acc ->
      Relation.set acc (Item.make out_schema (Item.coords t.Relation.item)) t.Relation.sign)
    rel
    (Relation.empty ~name:out_name out_schema)
  |> tally c_rename
