(* Seeded inputs for the four workloads. Every hierarchy, relation and op
   stream is a function of the seed alone; the servers only ever see the
   statements generated here. Shapes (node counts, tuple counts, mix
   shares) are fixed so that seeds vary placement, not size. *)

module P = Hr_util.Prng

type kind = Write | Read

type op = { kind : kind; stmt : string }

let prng seed salt = P.create (Int64.of_int ((seed * 1_000_003) + salt))

(* Pops a uniformly chosen element from a set kept as a dense array. *)
module Bag = struct
  type t = { items : int array; mutable len : int; pos : int array }

  let create universe = { items = Array.make universe 0; len = 0; pos = Array.make universe (-1) }
  let mem t x = t.pos.(x) >= 0

  let add t x =
    if not (mem t x) then begin
      t.items.(t.len) <- x;
      t.pos.(x) <- t.len;
      t.len <- t.len + 1
    end

  let remove t x =
    let i = t.pos.(x) in
    if i >= 0 then begin
      let last = t.items.(t.len - 1) in
      t.items.(i) <- last;
      t.pos.(last) <- i;
      t.pos.(x) <- -1;
      t.len <- t.len - 1
    end

  let pick t g = t.items.(P.int g t.len)
end

(* Index skewed towards 0: u^3 puts half the draws in the first 1/8. *)
let skewed g n =
  let u = P.float g 1.0 in
  min (n - 1) (int_of_float (float_of_int n *. u *. u *. u))

(* A seeded permutation of 0 .. n-1. Generators place item [j] by
   [perm.(j)] so that every class gets the same number of members
   whatever the seed: seeds then vary which items share a class, not how
   big the classes are, and runs with different seeds cost the same. *)
let permutation g n =
  let a = Array.init n Fun.id in
  P.shuffle g a;
  a

let rows sign names = String.concat ", " (List.map (fun v -> Printf.sprintf "(%s %s)" sign v) names)

(* ---- exception_write ---------------------------------------------------

   domain xw -> 16 classes -> 128 leaf classes -> 5000 instances, 39 or
   40 per leaf; four in every leaf also sit under a second leaf in
   another subtree. Relation xr holds
   +ALL on every leaf plus [exceptions] negated instances. The stream
   alternates an INSERT of a fresh exception with a DELETE of an existing
   one, so the relation size stays within one tuple of its start, and
   follows every write with an ASK on the instance just written. *)
module Xw = struct
  let mids = 16
  let leaves = 128
  let instances = 5000
  let exceptions = 96
  let inst j = Printf.sprintf "xw_i%d" j

  let ddl seed =
    let g = prng seed 1 in
    let b = Buffer.create (instances * 40) in
    Buffer.add_string b "CREATE DOMAIN xw;\n";
    for m = 0 to mids - 1 do
      Printf.bprintf b "CREATE CLASS xw_m%d UNDER xw;\n" m
    done;
    for l = 0 to leaves - 1 do
      Printf.bprintf b "CREATE CLASS xw_l%d UNDER xw_m%d;\n" l (l mod mids)
    done;
    let perm = permutation g instances in
    for j = 0 to instances - 1 do
      let l = perm.(j) mod leaves in
      if perm.(j) / leaves mod 10 = 0 then
        let other = (l + 1 + P.int g (leaves - 1)) mod leaves in
        let other = if other mod mids = l mod mids then (other + 1) mod leaves else other in
        Printf.bprintf b "CREATE INSTANCE %s OF xw_l%d, xw_l%d;\n" (inst j) l other
      else Printf.bprintf b "CREATE INSTANCE %s OF xw_l%d;\n" (inst j) l
    done;
    Buffer.add_string b "CREATE RELATION xr (v: xw);\n";
    Buffer.contents b

  let initial seed =
    let g = prng seed 2 in
    let bag = Bag.create instances in
    while bag.Bag.len < exceptions do
      Bag.add bag (P.int g instances)
    done;
    bag

  let load seed =
    let bag = initial seed in
    Printf.sprintf "INSERT INTO xr VALUES %s, %s;"
      (rows "+" (List.init leaves (Printf.sprintf "ALL xw_l%d")))
      (rows "-" (List.map inst (List.sort compare (Array.to_list (Array.sub bag.Bag.items 0 bag.Bag.len)))))

  (* The op stream: write, ASK, write, ASK, ... *)
  let stream seed =
    let g = prng seed 3 in
    let bag = initial seed in
    let pending = ref None in
    let inserting = ref true in
    fun () ->
      match !pending with
      | Some j ->
        pending := None;
        { kind = Read; stmt = Printf.sprintf "ASK xr (%s);" (inst j) }
      | None ->
        let j, stmt =
          if !inserting then begin
            let rec fresh () =
              let j = P.int g instances in
              if Bag.mem bag j then fresh () else j
            in
            let j = fresh () in
            Bag.add bag j;
            (j, Printf.sprintf "INSERT INTO xr VALUES (- %s);" (inst j))
          end
          else begin
            let j = Bag.pick bag g in
            Bag.remove bag j;
            (j, Printf.sprintf "DELETE FROM xr VALUES (%s);" (inst j))
          end
        in
        inserting := not !inserting;
        pending := Some j;
        { kind = Write; stmt }
end

(* ---- hier_read ---------------------------------------------------------

   domain hr, five levels: 4 -> 16 -> 64 -> 256 classes -> 4096
   instances, crossed with a flat domain hw of 32 values. Relation hb is
   bulk-loaded with [tuples] positive instance tuples plus four nested
   exception chains (+ALL a, -ALL b, +ALL c, -ALL d down one branch
   each), large enough that its checkpointed heap exceeds the page
   store's 256-page pool. Reads hit skewed (repeating) items: 64% ASK at
   instances, 12% SELECT and 4% COUNT ... BY under a deepest-level
   class. The other 20% toggle an exception in the 16-tuple side
   relation hs, so the write path has a number without hb ever being
   rewritten. Slow reads (SELECT, COUNT) are a fifth of the reads, so
   read_p90 falls inside them rather than on the edge between fast and
   slow. *)
module Hr = struct
  let l1 = 4
  let l2 = 16
  let l3 = 64
  let l4 = 256
  let instances = 4096
  let values = 32
  let tuples = 9_000
  let side_exceptions = 12
  let inst j = Printf.sprintf "hr_i%d" j

  (* Every deepest class holds the same number of instances, so which
     classes the seed makes popular does not change what a read costs. *)
  let ddl () =
    let b = Buffer.create (instances * 40) in
    Buffer.add_string b "CREATE DOMAIN hr;\nCREATE DOMAIN hw;\n";
    for k = 0 to values - 1 do
      Printf.bprintf b "CREATE INSTANCE hw_%d OF hw;\n" k
    done;
    for k = 0 to l1 - 1 do
      Printf.bprintf b "CREATE CLASS hr_a%d UNDER hr;\n" k
    done;
    for k = 0 to l2 - 1 do
      Printf.bprintf b "CREATE CLASS hr_b%d UNDER hr_a%d;\n" k (k mod l1)
    done;
    for k = 0 to l3 - 1 do
      Printf.bprintf b "CREATE CLASS hr_c%d UNDER hr_b%d;\n" k (k mod l2)
    done;
    for k = 0 to l4 - 1 do
      Printf.bprintf b "CREATE CLASS hr_d%d UNDER hr_c%d;\n" k (k mod l3)
    done;
    for j = 0 to instances - 1 do
      Printf.bprintf b "CREATE INSTANCE %s OF hr_d%d;\n" (inst j) (j mod l4)
    done;
    Buffer.add_string b "CREATE RELATION hb (v: hr, w: hw);\nCREATE RELATION hs (v: hr);\n";
    Buffer.contents b

  (* Chain k runs down hr_a(k) -> hr_b(k) -> hr_c(k) -> hr_d(k): class
     k at each level sits under class k mod (size above), so the four
     chains are nested and pairwise disjoint. *)
  let chains =
    List.concat_map
      (fun k ->
        [
          ("+", Printf.sprintf "hr_a%d" k);
          ("-", Printf.sprintf "hr_b%d" k);
          ("+", Printf.sprintf "hr_c%d" k);
          ("-", Printf.sprintf "hr_d%d" k);
        ])
      (List.init l1 Fun.id)

  (* (sign, [v; w]) rows of hb, as bare node names (a class name stands
     for the whole class): the chains, then distinct instance pairs. *)
  let big_rows seed =
    let g = prng seed 12 in
    let seen = Hashtbl.create tuples in
    let acc = ref [] in
    while Hashtbl.length seen < tuples do
      let j = P.int g instances and w = P.int g values in
      if not (Hashtbl.mem seen (j, w)) then begin
        Hashtbl.add seen (j, w) ();
        acc := ("+", [ inst j; Printf.sprintf "hw_%d" w ]) :: !acc
      end
    done;
    List.map (fun (s, v) -> (s, [ v; "hw" ])) chains @ List.rev !acc

  let side_initial seed =
    let g = prng seed 13 in
    let bag = Bag.create instances in
    while bag.Bag.len < side_exceptions do
      Bag.add bag (P.int g instances)
    done;
    bag

  let side_load seed =
    let bag = side_initial seed in
    Printf.sprintf "INSERT INTO hs VALUES %s, %s;"
      (rows "+" (List.init l1 (Printf.sprintf "ALL hr_a%d")))
      (rows "-" (List.map inst (List.sort compare (Array.to_list (Array.sub bag.Bag.items 0 bag.Bag.len)))))

  let stream seed =
    let g = prng seed 14 in
    let bag = side_initial seed in
    let inserting = ref true in
    (* a fixed popularity order over instances and classes *)
    let hot_inst = Array.init instances Fun.id in
    P.shuffle g hot_inst;
    let hot_class = Array.init l4 Fun.id in
    P.shuffle g hot_class;
    fun () ->
      let r = P.int g 200 in
      if r < 40 then begin
        let stmt =
          if !inserting then begin
            let rec fresh () =
              let j = P.int g instances in
              if Bag.mem bag j then fresh () else j
            in
            let j = fresh () in
            Bag.add bag j;
            Printf.sprintf "INSERT INTO hs VALUES (- %s);" (inst j)
          end
          else begin
            let j = Bag.pick bag g in
            Bag.remove bag j;
            Printf.sprintf "DELETE FROM hs VALUES (%s);" (inst j)
          end
        in
        inserting := not !inserting;
        { kind = Write; stmt }
      end
      else if r < 168 then
        {
          kind = Read;
          stmt =
            Printf.sprintf "ASK hb (%s, hw_%d);"
              (inst hot_inst.(skewed g instances))
              (P.int g values);
        }
      else if r < 192 then
        {
          kind = Read;
          stmt = Printf.sprintf "SELECT * FROM hb WHERE v = hr_d%d;" hot_class.(skewed g l4);
        }
      else
        {
          kind = Read;
          stmt = Printf.sprintf "COUNT SELECT hb WHERE v = hr_d%d BY w;" hot_class.(skewed g l4);
        }
end

(* ---- sharded_mixed -----------------------------------------------------

   domain sm -> 4 subtrees -> 32 classes -> 360 instances (401 nodes),
   11 or 12 per class; three in every class (a quarter of the instances)
   also sit under one of four cross-subtree classes sm_g*, whose cover
   spans both shards. Subtrees 0 and 2 live
   on shard 0, 1 and 3 on shard 1. The mix: 45% single-shard exception
   toggles, 15% toggles of +ALL sm_g* (replicated to both shards), 40%
   scatter-gather reads: 30% ASK, 5% SELECT under a class, 5% under a
   cross-subtree class. Each percentile that is reported falls inside one
   kind of op: read_p50 among the ASKs, read_p90 among the SELECTs,
   write_p50 among the single-shard writes and write_p90 among the
   replicated ones. A percentile on the edge between two kinds moves
   with every small change in the mix. *)
module Sm = struct
  let subtrees = 4
  let classes = 32
  let instances = 360
  let crosses = 4
  let exceptions = 48
  let inst j = Printf.sprintf "sm_i%d" j

  let ddl seed =
    let g = prng seed 21 in
    let b = Buffer.create 16384 in
    Buffer.add_string b "CREATE DOMAIN sm;\n";
    for s = 0 to subtrees - 1 do
      Printf.bprintf b "CREATE CLASS sm_s%d UNDER sm;\n" s
    done;
    for c = 0 to classes - 1 do
      Printf.bprintf b "CREATE CLASS sm_c%d UNDER sm_s%d;\n" c (c mod subtrees)
    done;
    for x = 0 to crosses - 1 do
      Printf.bprintf b "CREATE CLASS sm_g%d UNDER sm;\n" x
    done;
    let perm = permutation g instances in
    for j = 0 to instances - 1 do
      let c = perm.(j) mod classes and q = perm.(j) / classes in
      if q mod 4 = 0 then
        Printf.bprintf b "CREATE INSTANCE %s OF sm_c%d, sm_g%d;\n" (inst j) c ((c + (q / 4)) mod crosses)
      else Printf.bprintf b "CREATE INSTANCE %s OF sm_c%d;\n" (inst j) c
    done;
    Buffer.add_string b "CREATE RELATION sr (v: sm);\n";
    Buffer.contents b

  let shard_map ports =
    String.concat "\n"
      (List.mapi (fun i p -> Printf.sprintf "shard %d 127.0.0.1:%d" i p) ports
      @ List.init subtrees (fun s -> Printf.sprintf "subtree sm_s%d %d" s (s mod List.length ports))
      @ [ "default 0"; "" ])

  let initial seed =
    let g = prng seed 22 in
    let bag = Bag.create instances in
    while bag.Bag.len < exceptions do
      Bag.add bag (P.int g instances)
    done;
    bag

  let load seed =
    let bag = initial seed in
    Printf.sprintf "INSERT INTO sr VALUES %s, %s, %s;"
      (rows "+" (List.init classes (Printf.sprintf "ALL sm_c%d")))
      (rows "+" [ "ALL sm_g0"; "ALL sm_g1" ])
      (rows "-" (List.map inst (List.sort compare (Array.to_list (Array.sub bag.Bag.items 0 bag.Bag.len)))))

  let stream seed =
    let g = prng seed 23 in
    let bag = initial seed in
    let cross = [| true; true; false; false |] in
    let inserting = ref true in
    fun () ->
      let r = P.int g 20 in
      if r < 9 then begin
        let stmt =
          if !inserting then begin
            let rec fresh () =
              let j = P.int g instances in
              if Bag.mem bag j then fresh () else j
            in
            let j = fresh () in
            Bag.add bag j;
            Printf.sprintf "INSERT INTO sr VALUES (- %s);" (inst j)
          end
          else begin
            let j = Bag.pick bag g in
            Bag.remove bag j;
            Printf.sprintf "DELETE FROM sr VALUES (%s);" (inst j)
          end
        in
        inserting := not !inserting;
        { kind = Write; stmt }
      end
      else if r < 12 then begin
        let x = P.int g crosses in
        let stmt =
          if cross.(x) then Printf.sprintf "DELETE FROM sr VALUES (ALL sm_g%d);" x
          else Printf.sprintf "INSERT INTO sr VALUES (+ ALL sm_g%d);" x
        in
        cross.(x) <- not cross.(x);
        { kind = Write; stmt }
      end
      else if r < 13 then
        { kind = Read; stmt = Printf.sprintf "SELECT * FROM sr WHERE v = sm_c%d;" (P.int g classes) }
      else if r < 14 then
        { kind = Read; stmt = Printf.sprintf "SELECT * FROM sr WHERE v = sm_g%d;" (P.int g crosses) }
      else { kind = Read; stmt = Printf.sprintf "ASK sr (%s);" (inst (P.int g instances)) }
end

(* ---- replica_catchup ---------------------------------------------------

   domain rc -> 8 classes of 32 instances each; four relations. One round
   writes [records] distinct single-row INSERTs spread over the four
   relations — below the primary's auto-checkpoint threshold, so a
   fresh replica catches up from the WAL alone. *)
module Rc = struct
  let classes = 8
  let instances = 256
  let relations = 4
  let records = 800
  let inst j = Printf.sprintf "rc_i%d" j

  let ddl seed =
    let g = prng seed 31 in
    let b = Buffer.create 32768 in
    Buffer.add_string b "CREATE DOMAIN rc;\n";
    for c = 0 to classes - 1 do
      Printf.bprintf b "CREATE CLASS rc_k%d UNDER rc;\n" c
    done;
    let perm = permutation g instances in
    for j = 0 to instances - 1 do
      Printf.bprintf b "CREATE INSTANCE %s OF rc_k%d;\n" (inst j) (perm.(j) mod classes)
    done;
    for r = 0 to relations - 1 do
      Printf.bprintf b "CREATE RELATION rc_r%d (v: rc);\n" r
    done;
    Buffer.contents b

  (* Round [k]'s writes: a prefix of a seeded permutation of all
     (relation, instance) pairs. *)
  let writes seed round =
    let g = prng seed (32 + round) in
    let pairs = Array.init (relations * instances) Fun.id in
    P.shuffle g pairs;
    Array.init records (fun i ->
        let p = pairs.(i) in
        {
          kind = Write;
          stmt = Printf.sprintf "INSERT INTO rc_r%d VALUES (+ %s);" (p mod relations) (inst (p / relations));
        })

  (* The replica-vs-primary read sample: a quarter SELECTs, so that
     read_p50 falls among the ASKs and read_p90 among the SELECTs. *)
  let reads seed round =
    let g = prng seed (64 + round) in
    Array.init 200 (fun i ->
        if i < relations then { kind = Read; stmt = Printf.sprintf "SELECT * FROM rc_r%d;" i }
        else if i mod 4 = 0 then
          { kind = Read; stmt = Printf.sprintf "SELECT * FROM rc_r%d WHERE v = rc_k%d;" (P.int g relations) (P.int g classes) }
        else
          { kind = Read; stmt = Printf.sprintf "ASK rc_r%d (%s);" (P.int g relations) (inst (P.int g instances)) })
end
