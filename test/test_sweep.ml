(* The ambiguity sweep through the binding index, differentially:

   - [Integrity.check], [Integrity.first_conflict] and [Integrity.sweep]
     take each tuple's pair partners from the binding index
     ([Relation.partners]); here they are checked against the pairwise
     scan kept below, which pairs every affected tuple with every tuple,
     for the same verdict, the same first conflict and the same conflict
     list, in the same order;
   - [Integrity.affected] reads the tuples a deletion exposes from the
     index's binding-order candidates, one probe per exposing deletion;
     it is checked against a fold over the whole relation. Every
     conflicting pair a scan finds for a probe must be among the
     partners the index gives it, the sweep must report the first
     conflict of the pairs those partners make, and it must reach the
     whole check's verdict;
   - the on-path and no-preemption checks take their maximal-common-
     descendant candidates from the same probe; they are checked against
     the enumeration over all n² tuple pairs;
   - a version derived by [add], [set] or [remove] carries its parent's
     index plus an overlay; its probes are checked against a scan;
   - fixed cases pin the three ways a probe can lose a pair: a key walk
     (the cone of a node near the root is larger than the keys), a node
     that meets another without being its ancestor or descendant, and a
     tuple exposed through a preference edge only;
   - on a relation shaped like the benchmark's [hb] (9,016 tuples), a
     one-row INSERT and a one-row DELETE each make no more pair tests
     than the opposite-sign tuples that meet the probed items, and
     neither the commit nor the reads after it build an index;
   - on one shaped like [xr], deleting a negated instance walks that
     instance's ancestors, not the cone of the class it exposes.

   Schemas have arity 1-3 over random DAG hierarchies (multi-parent
   nodes, some with preference edges). The random part is replayable:
   [HRDB_TEST_SEED=n dune runtest]; seed 1 always runs too. *)

module Workload = Hr_workload.Workload
module Prng = Hr_util.Prng
module Hierarchy = Hr_hierarchy.Hierarchy
module Metrics = Hr_obs.Metrics
open Hierel
module Item_set = Set.Make (Item)

let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None -> Int64.to_int (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let () =
  Printf.eprintf "test_sweep: differential seed %d (replay with HRDB_TEST_SEED=%d)\n%!" seed seed

(* ---- the oracles ----------------------------------------------------- *)

(* The opposite-sign tuples [a] and [b] as a conflict: their items are
   incomparable, and its witnesses are the maximal common descendants
   whose verdict is a conflict, of which there is one at least. *)
let conflict_of rel (a : Relation.tuple) (b : Relation.tuple) =
  let schema = Relation.schema rel in
  let pos, neg = if Types.bool_of_sign a.Relation.sign then (a, b) else (b, a) in
  if Item.comparable schema pos.Relation.item neg.Relation.item then None
  else
    match
      List.filter
        (fun w ->
          match Binding.verdict rel w with
          | Binding.Conflict _ -> true
          | Binding.Asserted _ | Binding.Unasserted -> false)
        (Item.maximal_common_descendants schema pos.Relation.item neg.Relation.item)
    with
    | [] -> None
    | witnesses -> Some { Integrity.pos; neg; witnesses }

(* Every opposite-sign pair (i, j), i < j, in structural order, with a
   member in [affected] (every tuple when [None]) and a conflict. *)
let pairwise_sweep ?affected ~first rel =
  let tuples = Array.of_list (Relation.tuples rel) in
  let n = Array.length tuples in
  let in_a =
    match affected with
    | None -> Array.make n true
    | Some a ->
      let a = Item_set.of_list (List.map (fun (t : Relation.tuple) -> t.Relation.item) a) in
      Array.map (fun (t : Relation.tuple) -> Item_set.mem t.Relation.item a) tuples
  in
  let found = ref [] in
  let exception Stop in
  (try
     for i = 0 to n - 1 do
       for j = i + 1 to n - 1 do
         let ti = tuples.(i) and tj = tuples.(j) in
         if (in_a.(i) || in_a.(j)) && not (Types.sign_equal ti.Relation.sign tj.Relation.sign)
         then
           match conflict_of rel ti tj with
           | None -> ()
           | Some c ->
             found := c :: !found;
             if first then raise Stop
       done
     done
   with Stop -> ());
  List.rev !found

(* One probe per surviving tuple a deleted tuple lay below in the
   binding order, at the deleted item, by a fold over the whole
   relation: deletions in [deleted]'s order, tuples ascending. *)
let folded_exposed rel { Integrity.inserted; deleted } =
  let schema = Relation.schema rel in
  let fresh = Item_set.of_list (List.map (fun (t : Relation.tuple) -> t.Relation.item) inserted) in
  List.concat_map
    (fun (d : Relation.tuple) ->
      List.filter_map
        (fun (t : Relation.tuple) ->
          if
            (not (Item_set.mem t.Relation.item fresh))
            && Item.binds_below schema t.Relation.item d.Relation.item
          then Some { Integrity.tuple = t; at = d.Relation.item }
          else None)
        (Relation.tuples rel))
    deleted

(* The stricter semantics' candidates from all n² pairs. *)
let pairwise_exhaustive ~semantics rel =
  let schema = Relation.schema rel in
  let tuples = Relation.tuples rel in
  let candidates = ref Item_set.empty in
  let add it = candidates := Item_set.add it !candidates in
  List.iter
    (fun (t : Relation.tuple) ->
      add t.Relation.item;
      if Types.sign_equal t.Relation.sign Types.Neg then
        List.iter add (Item.atomic_extension schema t.Relation.item))
    tuples;
  List.iter
    (fun (a : Relation.tuple) ->
      List.iter
        (fun (b : Relation.tuple) ->
          if
            (not (Types.sign_equal a.Relation.sign b.Relation.sign))
            && not (Item.comparable schema a.Relation.item b.Relation.item)
          then
            List.iter add
              (Item.maximal_common_descendants schema a.Relation.item b.Relation.item))
        tuples)
    tuples;
  List.filter_map
    (fun w ->
      match Binding.verdict ~semantics rel w with
      | Binding.Conflict { positive; negative } ->
        Some { Integrity.pos = List.hd positive; neg = List.hd negative; witnesses = [ w ] }
      | Binding.Asserted _ | Binding.Unasserted -> None)
    (Item_set.elements !candidates)

(* ---- comparing ------------------------------------------------------- *)

let render schema conflicts =
  String.concat "\n" (List.map (Format.asprintf "%a" (Integrity.pp_conflict schema)) conflicts)

let same_conflicts ~ctx schema ~probed ~reference =
  let p = render schema probed and r = render schema reference in
  if p <> r then Alcotest.failf "%s: the probe reports\n%s\nthe pairwise scan reports\n%s" ctx p r

let first = function [] -> [] | c :: _ -> [ c ]

let tuple_equal (a : Relation.tuple) (b : Relation.tuple) =
  Item.equal a.Relation.item b.Relation.item && Types.sign_equal a.Relation.sign b.Relation.sign

let show schema ts =
  String.concat ", "
    (List.map
       (fun (t : Relation.tuple) ->
         Format.asprintf "%a%a" Types.pp_sign t.Relation.sign (Item.pp schema) t.Relation.item)
       ts)

let same_tuples ~ctx schema probed reference =
  if not (List.equal tuple_equal probed reference) then
    Alcotest.failf "%s: the probe gives [%s], the scan [%s]" ctx (show schema probed)
      (show schema reference)

(* The whole check, the first conflict and the stricter semantics. *)
let check_whole ~ctx rel =
  let schema = Relation.schema rel in
  let reference = pairwise_sweep ~first:false rel in
  same_conflicts ~ctx:(ctx ^ ", check") schema ~probed:(Integrity.check rel) ~reference;
  same_conflicts ~ctx:(ctx ^ ", first conflict") schema
    ~probed:(Option.to_list (Integrity.first_conflict rel))
    ~reference:(first reference);
  List.iter
    (fun semantics ->
      same_conflicts ~ctx:(ctx ^ ", stricter semantics") schema
        ~probed:(Integrity.check ~semantics rel)
        ~reference:(pairwise_exhaustive ~semantics rel))
    [ Types.On_path; Types.No_preemption ];
  reference <> []

let show_probes schema probes =
  String.concat ", "
    (List.map
       (fun { Integrity.tuple; at } ->
         Format.asprintf "%s at %a" (show schema [ tuple ]) (Item.pp schema) at)
       probes)

let opposite (a : Relation.tuple) (b : Relation.tuple) =
  not (Types.sign_equal a.Relation.sign b.Relation.sign)

(* A delta's affected set and the sweep over it. The probes must be the
   fold's. Each probe's conflicting pairs, by a scan of the opposite-sign
   tuples that intersect the probed item, must be among the partners the
   index gives it. The sweep must report the first conflict, in scan
   order, of the pairs those partners make, each pair once; and it must
   reach the whole check's verdict. *)
let check_delta ~ctx ~base staged touched =
  let schema = Relation.schema staged in
  let d = Integrity.delta ~base staged touched in
  let a = Integrity.affected staged d in
  let exposed = List.filteri (fun i _ -> i >= List.length d.inserted) a in
  let reference = folded_exposed staged d in
  if
    not
      (List.equal
         (fun (p : Integrity.probe) (q : Integrity.probe) ->
           tuple_equal p.tuple q.tuple && Item.equal p.at q.at)
         exposed reference)
  then
    Alcotest.failf "%s, exposed: the probe gives [%s], the scan [%s]" ctx
      (show_probes schema exposed) (show_probes schema reference);
  let read ({ Integrity.tuple; at } as probe) =
    let partners = Relation.partners staged { tuple with Relation.item = at } in
    List.iter
      (fun (o : Relation.tuple) ->
        if
          opposite tuple o
          && Item.intersects schema o.Relation.item at
          && Option.is_some (conflict_of staged tuple o)
          && not (List.exists (tuple_equal o) partners)
        then
          Alcotest.failf "%s, probe %s: the index misses its conflicting partner %s" ctx
            (show_probes schema [ probe ]) (show schema [ o ]))
      (Relation.tuples staged);
    List.filter_map
      (fun o -> if opposite tuple o then conflict_of staged tuple o else None)
      partners
  in
  let position (c : Integrity.conflict) =
    let a = c.pos.Relation.item and b = c.neg.Relation.item in
    if Item.compare a b < 0 then (a, b) else (b, a)
  in
  let by_position c c' =
    let i, j = position c and i', j' = position c' in
    match Item.compare i i' with 0 -> Item.compare j j' | n -> n
  in
  let probed = Option.to_list (Integrity.sweep ~affected:a staged) in
  same_conflicts ~ctx:(ctx ^ ", delta sweep") schema ~probed
    ~reference:(first (List.sort_uniq by_position (List.concat_map read a)));
  let whole = pairwise_sweep ~first:false staged in
  if (probed = []) <> (whole = []) then
    Alcotest.failf "%s, delta verdict: the probe reports\n%s\nthe whole scan reports\n%s" ctx
      (render schema probed) (render schema whole);
  exposed <> []

(* A version's probes against a scan of its tuples: [meeting] exactly,
   [candidates] and [partners] once cut down by the full test. *)
let check_probes ~ctx g rel =
  let schema = Relation.schema rel in
  let arity = Schema.arity schema in
  let tuples = Relation.tuples rel in
  let random_item () =
    Item.make schema
      (Array.init arity (fun i ->
           Prng.pick g (Array.of_list (Hierarchy.nodes (Schema.hierarchy schema i)))))
  in
  for _ = 1 to 4 do
    let item = random_item () in
    List.iter
      (fun (binding, above) ->
        let keep = List.filter (fun (t : Relation.tuple) -> above schema t.Relation.item item) in
        same_tuples ~ctx:(ctx ^ ", candidates") schema
          (keep (Relation.candidates ~binding rel item))
          (keep tuples))
      [ (false, Item.subsumes); (true, Item.binds_below) ];
    let i = Prng.int g arity in
    let h = Schema.hierarchy schema i and v = Item.coord item i in
    same_tuples ~ctx:(ctx ^ ", meeting") schema (Relation.meeting rel i v)
      (List.filter
         (fun (t : Relation.tuple) -> Hierarchy.intersects h (Item.coord t.Relation.item i) v)
         tuples)
  done;
  List.iter
    (fun (t : Relation.tuple) ->
      let keep =
        List.filter (fun (u : Relation.tuple) ->
            (not (Types.sign_equal u.Relation.sign t.Relation.sign))
            && Item.intersects schema u.Relation.item t.Relation.item)
      in
      same_tuples ~ctx:(ctx ^ ", partners") schema (keep (Relation.partners rel t)) (keep tuples))
    tuples

(* ---- random worlds --------------------------------------------------- *)

let random_hierarchy g name =
  let h =
    Workload.random_hierarchy g
      {
        Workload.name;
        classes = 4 + Prng.int g 8;
        instances = 6 + Prng.int g 12;
        multi_parent_prob = 0.4;
      }
  in
  if Prng.bool g then begin
    let classes =
      Array.of_list (List.filter (fun v -> v <> Hierarchy.root h) (Hierarchy.classes h))
    in
    for _ = 1 to 1 + Prng.int g 3 do
      let w = Prng.pick g classes and s = Prng.pick g classes in
      try
        Hierarchy.add_preference h ~weaker:(Hierarchy.node_label h w)
          ~stronger:(Hierarchy.node_label h s)
      with Hierarchy.Error _ -> ()
    done
  end;
  h

let random_schema g round =
  let arity = 1 + Prng.int g 3 in
  Schema.make
    (List.init arity (fun i ->
         let name = Printf.sprintf "sw%d_%d_%d" seed round i in
         (Printf.sprintf "a%d" i, random_hierarchy g name)))

let spec g round =
  {
    Workload.rel_name = Printf.sprintf "sw%d" round;
    tuples = 4 + Prng.int g 16;
    neg_fraction = 0.4;
    instance_fraction = 0.3;
  }

let random_change g rel =
  let schema = Relation.schema rel in
  let existing = Array.of_list (Relation.tuples rel) in
  let sign () = if Prng.bool g then Types.Pos else Types.Neg in
  match Prng.int g 3 with
  | 0 when Array.length existing > 0 ->
    let t = Prng.pick g existing in
    (Relation.remove rel t.Relation.item, t.Relation.item)
  | 1 when Array.length existing > 0 ->
    let t = Prng.pick g existing in
    (Relation.set rel t.Relation.item (Types.negate t.Relation.sign), t.Relation.item)
  | _ ->
    let item =
      Item.make schema
        (Array.init (Schema.arity schema) (fun i ->
             Prng.pick g (Array.of_list (Hierarchy.nodes (Schema.hierarchy schema i)))))
    in
    (Relation.set rel item (sign ()), item)

type tally = { mutable conflicted : int; mutable exposing : int }

let differential seed =
  let g = Prng.create (Int64.of_int seed) in
  let tally = { conflicted = 0; exposing = 0 } in
  for round = 1 to 30 do
    let schema = random_schema g round in
    let ctx = Printf.sprintf "seed %d round %d" seed round in
    (* possibly conflicted: the whole check *)
    let rel = Workload.random_relation g schema (spec g round) in
    if check_whole ~ctx rel then tally.conflicted <- tally.conflicted + 1;
    (* a consistent base and a chain of versions carrying its index;
       past 16 changed items the overlay is dropped and rebuilt *)
    let base = Workload.consistent_random_relation g schema (spec g round) in
    ignore (Relation.meeting base 0 (Hierarchy.root (Schema.hierarchy schema 0)));
    let staged = ref base and touched = ref [] in
    for step = 1 to 24 do
      let rel, item = random_change g !staged in
      staged := rel;
      touched := item :: !touched;
      let ctx = Printf.sprintf "%s step %d" ctx step in
      if check_delta ~ctx ~base !staged !touched then tally.exposing <- tally.exposing + 1;
      check_probes ~ctx g !staged;
      (* an arbitrary affected set, probing at its own items *)
      let some = List.filter (fun _ -> Prng.bool g) (Relation.tuples !staged) in
      same_conflicts ~ctx:(ctx ^ ", arbitrary affected set") schema
        ~probed:(Option.to_list (Integrity.sweep ~affected:(List.map Integrity.own some) !staged))
        ~reference:(pairwise_sweep ~affected:some ~first:true !staged)
    done;
    ignore (check_whole ~ctx:(ctx ^ " after the changes") !staged)
  done;
  tally

let random_worlds () =
  List.iter
    (fun s ->
      let t = differential s in
      Alcotest.(check bool) (Printf.sprintf "seed %d: some conflicted relations" s) true
        (t.conflicted > 0);
      Alcotest.(check bool) (Printf.sprintf "seed %d: some deletions exposed tuples" s) true
        (t.exposing > 0))
    (List.sort_uniq compare [ 1; seed ])

(* ---- fixed cases ----------------------------------------------------- *)

let hierarchy name ~classes ~instances =
  let h = Hierarchy.create name in
  List.iter (fun (c, parents) -> ignore (Hierarchy.add_class h ~parents c)) classes;
  List.iter (fun (i, parents) -> ignore (Hierarchy.add_instance h ~parents i)) instances;
  h

let conflict_text rel =
  match Integrity.first_conflict rel with
  | None -> "consistent"
  | Some c -> Format.asprintf "%a" (Integrity.pp_conflict (Relation.schema rel)) c

(* kd_a and kd_b meet only in kd_x, an instance of both: neither is an
   ancestor or a descendant of the other. Each has a cone of four nodes
   (itself, kd_x, the other and the root). The relation has three
   negative coordinates, so (+ ALL kd_a) takes its partners from a walk
   over those keys, and four positive ones, so (- ALL kd_b) reads the
   buckets of its cone; only the whole cone, not kd_b's ancestors and
   descendants, holds kd_a. *)
let diamond_conflict () =
  let h =
    hierarchy "kd"
      ~classes:[ ("kd_a", []); ("kd_b", []) ]
      ~instances:
        [
          ("kd_x", [ "kd_a"; "kd_b" ]); ("kd_i1", []); ("kd_i2", []); ("kd_j1", []);
          ("kd_j2", []); ("kd_j3", []);
        ]
  in
  let schema = Schema.make [ ("v", h) ] in
  let rel =
    Relation.of_tuples ~name:"kd_r" schema
      [
        (Types.Pos, [ "kd_a" ]); (Types.Neg, [ "kd_b" ]); (Types.Neg, [ "kd_i1" ]);
        (Types.Neg, [ "kd_i2" ]); (Types.Pos, [ "kd_j1" ]); (Types.Pos, [ "kd_j2" ]);
        (Types.Pos, [ "kd_j3" ]);
      ]
  in
  Alcotest.(check string) "the whole check" "conflict between +(V kd_a) and -(V kd_b) at:\n(kd_x)"
    (conflict_text rel);
  let a = Item.of_names schema [ "kd_a" ] and b = Item.of_names schema [ "kd_b" ] in
  let from item =
    let sign = Option.get (Relation.find rel item) in
    Option.to_list (Integrity.sweep ~affected:[ Integrity.own { Relation.item; sign } ] rel)
  in
  Alcotest.(check int) "affected (+ ALL kd_a): the key walk" 1 (List.length (from a));
  Alcotest.(check int) "affected (- ALL kd_b): the cone" 1 (List.length (from b));
  ignore (check_whole ~ctx:"diamond" rel)

(* pf_s is preferred to pf_w, and pf_x sits under both: a tuple on
   pf_s binds more strongly at pf_x than one on pf_w, though pf_w is not
   an isa ancestor of pf_s. Deleting (+ ALL pf_s) exposes (- ALL pf_w)
   to (+ ALL pf_p), which it used to preempt at pf_x. *)
let preference_exposure () =
  let h =
    hierarchy "pf"
      ~classes:[ ("pf_w", []); ("pf_s", []); ("pf_p", []) ]
      ~instances:[ ("pf_x", [ "pf_w"; "pf_s"; "pf_p" ]) ]
  in
  Hierarchy.add_preference h ~weaker:"pf_w" ~stronger:"pf_s";
  Hierarchy.add_preference h ~weaker:"pf_p" ~stronger:"pf_s";
  let schema = Schema.make [ ("v", h) ] in
  let base =
    Relation.of_tuples ~name:"pf_r" schema
      [ (Types.Neg, [ "pf_w" ]); (Types.Pos, [ "pf_s" ]); (Types.Pos, [ "pf_p" ]) ]
  in
  Alcotest.(check string) "the base is consistent" "consistent" (conflict_text base);
  let s = Item.of_names schema [ "pf_s" ] in
  let staged = Relation.remove base s in
  let d = Integrity.delta ~base staged [ s ] in
  Alcotest.(check (list string)) "the exposed tuples" [ "-(V pf_w)"; "+(V pf_p)" ]
    (List.map
       (fun (t : Relation.tuple) ->
         Format.asprintf "%a%a" Types.pp_sign t.Relation.sign (Item.pp schema) t.Relation.item)
       (List.sort (fun (a : Relation.tuple) b -> Item.compare a.Relation.item b.Relation.item)
          (List.map (fun (p : Integrity.probe) -> p.tuple) (Integrity.affected staged d))));
  Alcotest.(check bool) "the delta sweep finds the conflict" true
    (Option.is_some (Integrity.sweep ~affected:(Integrity.affected staged d) staged));
  ignore (check_delta ~ctx:"preference" ~base staged [ s ])

(* ---- cost on an hb-shaped relation ----------------------------------- *)

(* The benchmark's hb: hr is 4 -> 16 -> 64 -> 256 classes -> 4,096
   instances, hw 32 values; four nested exception chains on (class, hw)
   and 9,000 positive (instance, value) tuples. *)
let hb () =
  let hr = Hierarchy.create "cost_hr" and hw = Hierarchy.create "cost_hw" in
  for k = 0 to 31 do
    ignore (Hierarchy.add_instance hw (Printf.sprintf "cost_w%d" k))
  done;
  let level name n parent =
    for k = 0 to n - 1 do
      let parents =
        match parent with None -> [] | Some (p, m) -> [ Printf.sprintf "%s%d" p (k mod m) ]
      in
      ignore (Hierarchy.add_class hr ~parents (Printf.sprintf "%s%d" name k))
    done
  in
  level "cost_a" 4 None;
  level "cost_b" 16 (Some ("cost_a", 4));
  level "cost_c" 64 (Some ("cost_b", 16));
  level "cost_d" 256 (Some ("cost_c", 64));
  for j = 0 to 4095 do
    ignore
      (Hierarchy.add_instance hr ~parents:[ Printf.sprintf "cost_d%d" (j mod 256) ]
         (Printf.sprintf "cost_i%d" j))
  done;
  Hierarchy.freeze hr;
  Hierarchy.freeze hw;
  let schema = Schema.make [ ("v", hr); ("w", hw) ] in
  let g = Prng.create 12L in
  let body = ref Relation.Item_map.empty in
  let put sign names = body := Relation.Item_map.add (Item.of_names schema names) sign !body in
  for k = 0 to 3 do
    List.iter
      (fun (sign, level) -> put sign [ Printf.sprintf "cost_%s%d" level k; "cost_hw" ])
      [ (Types.Pos, "a"); (Types.Neg, "b"); (Types.Pos, "c"); (Types.Neg, "d") ]
  done;
  while Relation.Item_map.cardinal !body < 9_016 do
    put Types.Pos
      [ Printf.sprintf "cost_i%d" (Prng.int g 4096); Printf.sprintf "cost_w%d" (Prng.int g 32) ]
  done;
  (hr, hw, Relation.of_map ~name:"cost_hb" schema !body)

(* The opposite-sign tuples that meet the probed item on the coordinate
   where fewest do, by a scan: what a probe may read. *)
let meeting_set rel { Integrity.tuple; at } =
  let schema = Relation.schema rel in
  let opposite =
    List.filter
      (fun (t : Relation.tuple) -> not (Types.sign_equal t.Relation.sign tuple.Relation.sign))
      (Relation.tuples rel)
  in
  List.fold_left min max_int
    (List.init (Schema.arity schema) (fun i ->
         let h = Schema.hierarchy schema i in
         List.length
           (List.filter
              (fun (t : Relation.tuple) ->
                Hierarchy.intersects h (Item.coord t.Relation.item i) (Item.coord at i))
              opposite)))

let hb_write_cost () =
  Metrics.with_enabled true (fun () ->
      let hr, hw, rel = hb () in
      let cat = Catalog.create () in
      Catalog.define_hierarchy cat hr;
      Catalog.define_hierarchy cat hw;
      Catalog.define_relation cat rel;
      let schema = Relation.schema rel in
      (* cost_i0 sits under cost_d0, so all four tuples of chain 0 bind
         above it: deleting an exception there exposes them all *)
      let w =
        List.find
          (fun w -> not (Relation.mem rel (Item.of_names schema [ "cost_i0"; w ])))
          (List.init 32 (Printf.sprintf "cost_w%d"))
      in
      let item = Item.of_names schema [ "cost_i0"; w ] in
      let commit what stage =
        let base = Catalog.relation cat "cost_hb" in
        let txn = Txn.begin_ cat in
        stage txn;
        let staged = Txn.current txn "cost_hb" in
        let affected = Integrity.affected staged (Integrity.delta ~base staged [ item ]) in
        let bound = List.fold_left (fun n a -> n + meeting_set staged a) 0 affected in
        let pairs0 = Metrics.counter_value "core.integrity.pairs"
        and builds0 = Metrics.counter_value "core.binding.index_builds" in
        (match Txn.commit txn with Ok () -> () | Error _ -> Alcotest.failf "%s rejected" what);
        let committed = Catalog.relation cat "cost_hb" in
        ignore (Binding.verdict committed item);
        let pairs = Metrics.counter_value "core.integrity.pairs" - pairs0 in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d pair tests <= %d, the meeting sets of %d affected tuple(s)" what
             pairs bound (List.length affected))
          true (pairs <= bound);
        Alcotest.(check int) (what ^ ": no index built") 0
          (Metrics.counter_value "core.binding.index_builds" - builds0);
        List.length affected
      in
      ignore (Binding.verdict (Catalog.relation cat "cost_hb") item);
      let inserted =
        commit "one-row INSERT" (fun txn -> Txn.insert_item txn ~rel:"cost_hb" Types.Neg item)
      in
      Alcotest.(check int) "the INSERT affects one tuple" 1 inserted;
      let deleted = commit "one-row DELETE" (fun txn -> Txn.delete_item txn ~rel:"cost_hb" item) in
      Alcotest.(check int) "the DELETE exposes chain 0" 4 deleted)

(* The benchmark's xr: domain xw -> 16 classes -> 128 leaf classes ->
   5,000 instances, one in ten under a second leaf of another subtree;
   (+ ALL leaf) for every leaf and 96 negated instances. *)
let xr () =
  let h = Hierarchy.create "cone_xw" in
  for m = 0 to 15 do
    ignore (Hierarchy.add_class h (Printf.sprintf "cone_m%d" m))
  done;
  for l = 0 to 127 do
    ignore
      (Hierarchy.add_class h ~parents:[ Printf.sprintf "cone_m%d" (l mod 16) ]
         (Printf.sprintf "cone_l%d" l))
  done;
  for j = 0 to 4999 do
    let l = j mod 128 in
    let parents =
      Printf.sprintf "cone_l%d" l
      :: (if j / 128 mod 10 = 0 then [ Printf.sprintf "cone_l%d" ((l + 17) mod 128) ] else [])
    in
    ignore (Hierarchy.add_instance h ~parents (Printf.sprintf "cone_i%d" j))
  done;
  Hierarchy.freeze h;
  let schema = Schema.make [ ("v", h) ] in
  let rel =
    Relation.of_tuples ~name:"cone_xr" schema
      (List.init 128 (fun l -> (Types.Pos, [ Printf.sprintf "cone_l%d" l ]))
      @ List.init 96 (fun k -> (Types.Neg, [ Printf.sprintf "cone_i%d" (k * 52) ])))
  in
  (h, rel)

(* Deleting a negated instance exposes the (+ ALL leaf) tuples above it.
   Each probes at the deleted instance, so the commit marks only the
   instance and its ancestors once per exposed tuple, not a leaf's cone
   (about 45 nodes). *)
let xr_delete_cone () =
  Metrics.with_enabled true (fun () ->
      let h, rel = xr () in
      let cat = Catalog.create () in
      Catalog.define_hierarchy cat h;
      Catalog.define_relation cat rel;
      List.iter
        (fun (name, leaves) ->
          let item = Item.of_names (Relation.schema rel) [ name ] in
          let v = Item.coord item 0 in
          Alcotest.(check int) (name ^ " sits under its leaves") leaves
            (List.length (Hierarchy.parents h v));
          let bound = leaves * List.length (Hierarchy.ancestors h v) in
          let marked0 = Metrics.counter_value "hierarchy.cone_nodes" in
          let txn = Txn.begin_ cat in
          Txn.delete_item txn ~rel:"cone_xr" item;
          (match Txn.commit txn with Ok () -> () | Error _ -> Alcotest.failf "%s rejected" name);
          let marked = Metrics.counter_value "hierarchy.cone_nodes" - marked0 in
          Alcotest.(check bool)
            (Printf.sprintf "deleting %s marks %d <= %d nodes" name marked bound)
            true (marked <= bound))
        [ ("cone_i260", 1); ("cone_i0", 2) ])

let suite =
  [
    Alcotest.test_case "probed sweep = pairwise scan on random DAG relations" `Quick random_worlds;
    Alcotest.test_case "diamond: key walk and cone both find the pair" `Quick diamond_conflict;
    Alcotest.test_case "a deletion exposes through a preference edge" `Quick preference_exposure;
    Alcotest.test_case "hb-shaped one-row writes cost their meeting sets" `Quick hb_write_cost;
    Alcotest.test_case "an xr-shaped DELETE walks the deleted item's cone" `Quick xr_delete_cone;
  ]
