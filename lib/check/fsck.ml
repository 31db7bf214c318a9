module Db = Hr_storage.Db
module Wal = Hr_storage.Wal
module Page_store = Hr_storage.Page_store
module Pager = Hr_storage.Pager
module Hierarchy = Hr_hierarchy.Hierarchy
module J = Hr_obs.Jsonout
open Hierel

let m_runs = Hr_obs.Metrics.counter "fsck.runs"
let m_critical = Hr_obs.Metrics.counter "fsck.findings_critical"
let m_warning = Hr_obs.Metrics.counter "fsck.findings_warning"
let h_duration = Hr_obs.Metrics.histogram "fsck.duration_ns"

type severity = Critical | Warning

type finding = {
  code : string;
  severity : severity;
  where : string;
  message : string;
}

type report = {
  dir : string;
  against : string option;
  findings : finding list;
  wal_records : int;
  hierarchies : int;
  relations : int;
  head_lsn : int;
  base_lsn : int;
  duration_ns : int;
}

let severity_label = function Critical -> "critical" | Warning -> "warning"

let pages_path dir = Filename.concat dir "pages.db"
let wal_path dir = Filename.concat dir "wal.log"

(* ---- finding accumulation ------------------------------------------- *)

type acc = { mutable findings : finding list (* newest first *) }

let emit acc severity code where fmt =
  Format.kasprintf
    (fun message ->
      acc.findings <- { code; severity; where; message } :: acc.findings)
    fmt

(* ---- per-directory structural state --------------------------------- *)

type state = {
  s_dir : string;
  s_base : int;  (** the page store's base_lsn (0 without a store) *)
  s_scan : Wal.scan_result;
  s_cat : Catalog.t option;  (** page store + clean WAL replay *)
}

let s_head st =
  List.fold_left (fun h { Wal.lsn; _ } -> max h lsn) st.s_base st.s_scan.Wal.records

(* Page-level battery (F025, F029) for paged directories: open the page
   store, sweep the page seals, heap records and free-space map, and
   hand back the materialized catalog plus the LSN
   the store covers through. A partial trailing page is a warning —
   only a crash mid-extension leaves one, and the commit ordering
   (data flushed before the meta-root swap) guarantees no committed
   state references it. The check only reads: the partial page stays
   until the next extension overwrites it. *)
let check_pages acc dir =
  let path = pages_path dir in
  let size = (Unix.stat path).Unix.st_size in
  if size mod Pager.page_size <> 0 then
    emit acc Warning "F025" path
      "partial trailing page: file is %d byte(s), %d past a page boundary \
       (crash mid-extension; unreferenced by any committed root)"
      size (size mod Pager.page_size);
  match Page_store.open_ path with
  | exception Page_store.Corrupt msg ->
    emit acc Critical "F025" path "page store does not open: %s" msg;
    None
  | store ->
    Fun.protect
      ~finally:(fun () -> Page_store.close store)
      (fun () ->
        List.iter
          (fun { Page_store.kind; detail } ->
            match kind with
            | Page_store.Checksum -> emit acc Critical "F025" path "%s" detail
            | Page_store.Freemap -> emit acc Warning "F029" path "%s" detail)
          (Page_store.check store);
        match Page_store.to_catalog store with
        | cat -> Some (cat, Page_store.base_lsn store)
        | exception e ->
          (* any escape here is corrupt page content the sweeps above
             have usually already pinned down *)
          emit acc Critical "F025" path "page store does not materialize: %s"
            (match e with Page_store.Corrupt m -> m | e -> Printexc.to_string e);
          None)

(* [base_lsn] is [None] when the page store exists but does not open:
   the base is unknown, so the base-relative rules (F008, F009) are
   skipped rather than guessed. *)
let check_wal acc dir ~base_lsn =
  let path = wal_path dir in
  let scan = Wal.scan path in
  (match scan.Wal.tail with
  | None -> ()
  | Some { Wal.dropped_bytes; dropped_records } ->
    if dropped_records > 1 then
      emit acc Critical "F006" path
        "mid-log corruption: %d intact-looking record(s) (%d byte(s)) follow a \
         corrupt record and cannot be replayed"
        dropped_records dropped_bytes
    else
      emit acc Warning "F005" path
        "torn tail: %d byte(s) (~%d record(s)) past the last intact record"
        dropped_bytes dropped_records);
  (* LSNs must be strictly increasing and contiguous: the primary assigns
     consecutive numbers and a replica preserves them, so a gap or
     reversal means lost or reordered records. *)
  let rec contiguity = function
    | { Wal.lsn = a; _ } :: ({ Wal.lsn = b; _ } :: _ as rest) ->
      if b <> a + 1 then
        emit acc Critical "F007" path
          "LSNs are not monotone/contiguous: record %d is followed by record %d" a b;
      contiguity rest
    | _ -> ()
  in
  contiguity scan.Wal.records;
  Option.iter
    (fun base_lsn ->
      let stale = List.filter (fun { Wal.lsn; _ } -> lsn <= base_lsn) scan.Wal.records in
      if stale <> [] then
        emit acc Warning "F008" path
          "%d record(s) at or below base_lsn %d (checkpoint interrupted before the \
           log was truncated); recovery skips them"
          (List.length stale) base_lsn;
      match List.find_opt (fun { Wal.lsn; _ } -> lsn > base_lsn) scan.Wal.records with
      | Some { Wal.lsn; _ } when lsn <> base_lsn + 1 ->
        emit acc Critical "F009" path
          "the checkpoint covers through LSN %d but the first live record is LSN %d \
           (records %d..%d are missing)"
          base_lsn lsn (base_lsn + 1) (lsn - 1)
      | Some _ | None -> ())
    base_lsn;
  scan

(* WAL replay onto a freshly materialized base state; a record that
   fails means the base and the log disagree. *)
let replay_records acc dir ~base_lsn scan cat =
  match Db.replay ~after:base_lsn cat scan.Wal.records with
  | Ok () -> Some cat
  | Error ({ Wal.lsn; stmt }, msg) ->
    emit acc Critical "F010" (wal_path dir)
      "record LSN %d (%S) fails to replay onto the checkpoint: %s" lsn stmt msg;
    None

(* ---- semantic checks on a materialized catalog ---------------------- *)

let naive_descendants h v =
  let seen = Hashtbl.create 16 in
  let rec go v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      List.iter go (Hierarchy.children h v)
    end
  in
  go v;
  seen

(* Hierarchies cannot represent cycles by construction ([add_isa]
   rejects them), so F011 firing means the in-memory invariant itself
   was broken — defense in depth, and the check is also what makes the
   F013 closure comparison meaningful. *)
let check_hierarchy acc dir h =
  let name = Hr_util.Symbol.name (Hierarchy.domain h) in
  let where = Printf.sprintf "%s: hierarchy %s" dir name in
  let label = Hierarchy.node_label h in
  let nodes = Hierarchy.nodes h in
  let cycle =
    let color = Hashtbl.create 16 in
    (* 1 = on stack, 2 = done *)
    let rec visit v =
      match Hashtbl.find_opt color v with
      | Some 1 -> true
      | Some _ -> false
      | None ->
        Hashtbl.replace color v 1;
        let c = List.exists visit (Hierarchy.children h v) in
        Hashtbl.replace color v 2;
        c
    in
    List.exists visit nodes
  in
  if cycle then
    emit acc Critical "F011" where
      "the isa graph contains a cycle (type-irredundancy violation)"
  else begin
    List.iter
      (fun (Hierarchy.Redundant_isa_edge (u, v)) ->
        emit acc Warning "F012" where
          "redundant isa edge %s -> %s (implied by another path; changes off-path \
           preemption)"
          (label u) (label v))
      (Hierarchy.validate h);
    (* Closure index vs. a naive traversal. Full pairwise comparison is
       quadratic, so large hierarchies are checked over a prefix. *)
    let sample = if List.length nodes > 128 then List.filteri (fun i _ -> i < 128) nodes else nodes in
    let broken = ref false in
    List.iter
      (fun a ->
        if not !broken then begin
          let naive = naive_descendants h a in
          List.iter
            (fun b ->
              if (not !broken) && Hierarchy.subsumes h a b <> Hashtbl.mem naive b
              then begin
                broken := true;
                emit acc Critical "F013" where
                  "closure index disagrees with the DAG: subsumes(%s, %s) = %b but \
                   traversal says %b"
                  (label a) (label b)
                  (Hierarchy.subsumes h a b)
                  (Hashtbl.mem naive b)
              end)
            sample
        end)
      sample
  end

let check_relation acc dir rel =
  let where = Printf.sprintf "%s: relation %s" dir (Relation.name rel) in
  match Integrity.first_conflict rel with
  | None -> ()
  | Some conflict ->
    emit acc Warning "F018" where "ambiguity constraint violated: %s"
      (Format.asprintf "%a" (Integrity.pp_conflict (Relation.schema rel)) conflict)

(* ---- one directory --------------------------------------------------- *)

let inspect acc dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    emit acc Critical "F001" dir "not a database directory";
    None
  end
  else
    match Db.legacy_layout dir with
    | Some reason ->
      emit acc Critical "F001" dir "%s" reason;
      None
    | None ->
      (* The base is the page store when there is one, else an empty
         catalog at LSN 0: a directory holding only a WAL (a copy of a
         never-checkpointed log) replays from the first record. *)
      let base =
        if Sys.file_exists (pages_path dir) then check_pages acc dir
        else Some (Catalog.create (), 0)
      in
      let scan = check_wal acc dir ~base_lsn:(Option.map snd base) in
      let base_lsn = match base with Some (_, b) -> b | None -> 0 in
      let cat =
        Option.bind base (fun (cat, _) -> replay_records acc dir ~base_lsn scan cat)
      in
      (match cat with
      | Some cat ->
        List.iter (check_hierarchy acc dir) (Catalog.hierarchies cat);
        List.iter (check_relation acc dir) (Catalog.relations cat)
      | None -> ());
      Some { s_dir = dir; s_base = base_lsn; s_scan = scan; s_cat = cat }

(* ---- divergence ------------------------------------------------------ *)

(* Node ids are catalog-local, so both sides are compared through
   process-independent renderings: hierarchy edges as label pairs and
   relations by their flattened extension (the paper's semantic
   yardstick — two catalogs that flatten alike answer alike). *)
let rendered_hierarchy h =
  let label = Hierarchy.node_label h in
  let edges =
    List.concat_map
      (fun v -> List.map (fun c -> (label v, label c)) (Hierarchy.children h v))
      (Hierarchy.nodes h)
    |> List.sort compare
  in
  let instances = List.sort compare (List.map label (Hierarchy.instances h)) in
  let prefs =
    List.sort compare
      (List.map (fun (w, s) -> (label w, label s)) (Hierarchy.preference_edges h))
  in
  (edges, instances, prefs)

(* A conflicted relation has no extension ([Flatten] raises, as a
   selection does); F018 reports the conflict itself. *)
let rendered_extension rel =
  let schema = Relation.schema rel in
  match Flatten.extension_list rel with
  | items -> Ok (List.sort compare (List.map (Item.to_string schema) items))
  | exception Types.Model_error msg -> Error msg

(* The peer state at LSN [at]: the checkpoint base (the page store, or
   an empty catalog without one) + the records up to [at]. *)
let materialize_at st ~at =
  if st.s_base > at then
    Error
      (Printf.sprintf "checkpoint covers through LSN %d, past the common LSN %d"
         st.s_base at)
  else
    let cat =
      if Sys.file_exists (pages_path st.s_dir) then
        match Page_store.open_ (pages_path st.s_dir) with
        | exception Page_store.Corrupt msg -> Error ("pages: " ^ msg)
        | store ->
          Fun.protect
            ~finally:(fun () -> Page_store.close store)
            (fun () ->
              match Page_store.to_catalog store with
              | cat -> Ok cat
              | exception Page_store.Corrupt msg -> Error ("pages: " ^ msg))
      else Ok (Catalog.create ())
    in
    Result.bind cat (fun cat ->
        match Db.replay ~after:st.s_base ~upto:at cat st.s_scan.Wal.records with
        | Ok () -> Ok cat
        | Error ({ Wal.lsn; _ }, msg) ->
          Error (Printf.sprintf "replay of LSN %d: %s" lsn msg))

let check_divergence acc a b =
  let at = min (s_head a) (s_head b) in
  let where = Printf.sprintf "%s vs %s @ LSN %d" a.s_dir b.s_dir at in
  match (materialize_at a ~at, materialize_at b ~at) with
  | Error msg, _ ->
    emit acc Warning "F017" where "cannot compare: %s (%s)" msg a.s_dir
  | _, Error msg ->
    emit acc Warning "F017" where "cannot compare: %s (%s)" msg b.s_dir
  | Ok ca, Ok cb ->
    let dom h = Hr_util.Symbol.name (Hierarchy.domain h) in
    let doms c = List.sort compare (List.map dom (Catalog.hierarchies c)) in
    let da, db = (doms ca, doms cb) in
    if da <> db then
      emit acc Critical "F016" where "hierarchy sets differ: [%s] vs [%s]"
        (String.concat ", " da) (String.concat ", " db)
    else
      List.iter
        (fun d ->
          if
            rendered_hierarchy (Catalog.hierarchy ca d)
            <> rendered_hierarchy (Catalog.hierarchy cb d)
          then
            emit acc Critical "F016" where
              "hierarchy %s differs between the two directories" d)
        da;
    let rels c =
      List.sort compare (List.map Relation.name (Catalog.relations c))
    in
    let ra, rb = (rels ca, rels cb) in
    if ra <> rb then
      emit acc Critical "F016" where "relation sets differ: [%s] vs [%s]"
        (String.concat ", " ra) (String.concat ", " rb)
    else
      List.iter
        (fun n ->
          let la = Catalog.relation ca n and lb = Catalog.relation cb n in
          if
            Schema.names (Relation.schema la) <> Schema.names (Relation.schema lb)
          then
            emit acc Critical "F016" where "relation %s: schemas differ" n
          else
            match (rendered_extension la, rendered_extension lb) with
            | Ok ea, Ok eb ->
              if ea <> eb then
                emit acc Critical "F016" where
                  "relation %s: flattened extensions differ at LSN %d" n at
            | Error msg, _ | Ok _, Error msg ->
              emit acc Warning "F017" where "relation %s: cannot flatten: %s" n msg)
        ra

(* ---- shard-map mode (F020–F024) -------------------------------------- *)

(* [--against] pointed at a shard map instead of a peer directory: verify
   a sharded deployment offline. Every shard listing a data directory is
   inspected with the ordinary F00x battery, then the placement
   invariants the router maintains online are re-checked from first
   principles:

   - F024: the shards must agree on all DDL (hierarchies and relation
     schemas) — the router replicates every DDL statement to every
     shard, so a disagreement means a shard missed one.
   - F020: every stored tuple must lie on a shard in the cover of its
     first coordinate (a misplaced tuple would be invisible to routed
     reads that restrict their scatter to the cover).
   - F021: a tuple whose cover names several shards (a cross-subtree
     generalization) must be present with the same sign on every
     covered shard that has a directory — a missing or opposite-signed
     replica is cross-shard divergence.

   Node ids are catalog-local, so tuples are compared across shards by
   node label, exactly like the peer-divergence checks above. *)

let trim_dir d =
  let n = String.length d in
  let rec last i = if i > 0 && d.[i - 1] = '/' then last (i - 1) else i in
  let k = last n in
  if k = n then d else String.sub d 0 k

let ddl_signature cat =
  let hs =
    Catalog.hierarchies cat
    |> List.map (fun h ->
           (Hr_util.Symbol.name (Hierarchy.domain h), rendered_hierarchy h))
    |> List.sort compare
  in
  let rs =
    Catalog.relations cat
    |> List.map (fun r -> (Relation.name r, Schema.names (Relation.schema r)))
    |> List.sort compare
  in
  (hs, rs)

(* A tuple's coordinates as labels in its own catalog — the
   process-independent identity used to find its replica on a peer. *)
let tuple_labels schema (t : Relation.tuple) =
  List.init (Schema.arity schema) (fun i ->
      Hierarchy.node_label (Schema.hierarchy schema i) (Item.coord t.Relation.item i))

let tuple_string schema (t : Relation.tuple) =
  Printf.sprintf "%s(%s)"
    (match t.Relation.sign with Types.Pos -> "+" | Types.Neg -> "-")
    (String.concat ", " (tuple_labels schema t))

(* The replica of [t] on a peer shard, found by label. [None] means a
   label does not resolve there (hierarchy divergence — F024's
   business); [Some sign] is the sign the peer stores, if any. *)
let find_on_peer peer_rel labels =
  let schema = Relation.schema peer_rel in
  let coords =
    List.mapi (fun i l -> Hierarchy.find (Schema.hierarchy schema i) l) labels
  in
  if List.exists Option.is_none coords then None
  else
    let coords = Array.of_list (List.map Option.get coords) in
    Some
      (List.find_map
         (fun (p : Relation.tuple) ->
           if Item.coords p.Relation.item = coords then Some p.Relation.sign
           else None)
         (Relation.tuples peer_rel))

let check_sharded acc ~dir ~primary map_path =
  match Shard_map.load map_path with
  | Error msg ->
    emit acc Critical "F022" map_path "shard map does not load: %s" msg
  | Ok map ->
    let states =
      List.filter_map
        (fun (s : Shard_map.shard) ->
          match s.Shard_map.dir with
          | None ->
            emit acc Warning "F023" map_path
              "shard %d (%s:%d) declares no data directory; its placement \
               cannot be verified offline"
              s.Shard_map.id s.Shard_map.host s.Shard_map.port;
            None
          | Some sdir ->
            let st =
              if trim_dir sdir = trim_dir dir then primary else inspect acc sdir
            in
            let materialized =
              match st with Some { s_cat = Some cat; _ } -> Some cat | _ -> None
            in
            (match materialized with
            | None ->
              (* [inspect] already reported why (F001/F010/F025/...);
                 this finding ties the failure back to the map. *)
              emit acc Critical "F023" sdir
                "shard %d's directory cannot be materialized; its placement \
                 cannot be verified"
                s.Shard_map.id
            | Some _ -> ());
            Option.map (fun cat -> (s, cat)) materialized)
        map.Shard_map.shards
    in
    (* F024: all materialized shards must agree on DDL. *)
    (match states with
    | [] -> ()
    | ((s0 : Shard_map.shard), c0) :: rest ->
      let sig0 = ddl_signature c0 in
      List.iter
        (fun ((s : Shard_map.shard), c) ->
          if ddl_signature c <> sig0 then
            emit acc Critical "F024"
              (Printf.sprintf "shard %d vs shard %d" s0.Shard_map.id s.Shard_map.id)
              "shards disagree on DDL (hierarchies or relation schemas); the \
               router replicates every DDL statement, so a shard missed one")
        rest);
    (* F020 + F021 per stored tuple. *)
    let reported = Hashtbl.create 16 in
    List.iter
      (fun ((s : Shard_map.shard), cat) ->
        List.iter
          (fun rel ->
            let schema = Relation.schema rel in
            if Schema.arity schema > 0 then
              let h = Schema.hierarchy schema 0 in
              let where =
                Printf.sprintf "shard %d (%s): relation %s" s.Shard_map.id
                  (Option.value s.Shard_map.dir ~default:"?")
                  (Relation.name rel)
              in
              List.iter
                (fun (t : Relation.tuple) ->
                  let cover = Shard_map.cover map h (Item.coord t.Relation.item 0) in
                  if not (List.mem s.Shard_map.id cover) then
                    emit acc Critical "F020" where
                      "misplaced tuple %s: its first coordinate routes to \
                       shard(s) [%s], not here"
                      (tuple_string schema t)
                      (String.concat ", " (List.map string_of_int cover))
                  else
                    let labels = tuple_labels schema t in
                    List.iter
                      (fun peer_id ->
                        if peer_id <> s.Shard_map.id then
                          match
                            List.find_opt
                              (fun ((p : Shard_map.shard), _) ->
                                p.Shard_map.id = peer_id)
                              states
                          with
                          | None -> () (* no directory: F023 already said so *)
                          | Some (peer, peer_cat) -> (
                            (* sign-free key: a +/- disagreement would
                               otherwise be reported once from each side *)
                            let key =
                              ( Relation.name rel,
                                labels,
                                min s.Shard_map.id peer_id,
                                max s.Shard_map.id peer_id )
                            in
                            if not (Hashtbl.mem reported key) then begin
                              Hashtbl.add reported key ();
                              match Catalog.find_relation peer_cat (Relation.name rel) with
                              | None -> () (* relation set divergence: F024 *)
                              | Some peer_rel -> (
                                match find_on_peer peer_rel labels with
                                | None -> () (* label unresolvable: F024 *)
                                | Some None ->
                                  emit acc Critical "F021" where
                                    "cross-subtree tuple %s covers shard %d but \
                                     is absent there"
                                    (tuple_string schema t) peer.Shard_map.id
                                | Some (Some sign) ->
                                  if sign <> t.Relation.sign then
                                    emit acc Critical "F021" where
                                      "cross-subtree tuple %s has the opposite \
                                       sign on shard %d"
                                      (tuple_string schema t) peer.Shard_map.id)
                            end))
                      cover)
                (Relation.tuples rel))
          (Catalog.relations cat))
      states

(* ---- driver ---------------------------------------------------------- *)

let run ?against dir =
  Hr_obs.Metrics.incr m_runs;
  let t0 = Hr_obs.Metrics.now_ns () in
  let acc = { findings = [] } in
  let st =
    try inspect acc dir
    with e ->
      emit acc Critical "F000" dir "internal error: %s" (Printexc.to_string e);
      None
  in
  (match against with
  | None -> ()
  | Some peer when Shard_map.looks_like_map peer -> (
    try check_sharded acc ~dir ~primary:st peer
    with e ->
      emit acc Critical "F000" peer "internal error: %s" (Printexc.to_string e))
  | Some peer -> (
    try
      match (st, inspect acc peer) with
      | Some a, Some b -> check_divergence acc a b
      | _ ->
        emit acc Warning "F017"
          (Printf.sprintf "%s vs %s" dir peer)
          "cannot compare: one side did not materialize"
    with e ->
      emit acc Critical "F000" peer "internal error: %s" (Printexc.to_string e)));
  let findings = List.rev acc.findings in
  let duration_ns = Hr_obs.Metrics.now_ns () - t0 in
  Hr_obs.Metrics.observe h_duration duration_ns;
  List.iter
    (fun f ->
      match f.severity with
      | Critical -> Hr_obs.Metrics.incr m_critical
      | Warning -> Hr_obs.Metrics.incr m_warning)
    findings;
  let hierarchies, relations =
    match st with
    | Some { s_cat = Some cat; _ } ->
      (List.length (Catalog.hierarchies cat), List.length (Catalog.relations cat))
    | _ -> (0, 0)
  in
  {
    dir;
    against;
    findings;
    wal_records =
      (match st with Some s -> List.length s.s_scan.Wal.records | None -> 0);
    hierarchies;
    relations;
    head_lsn = (match st with Some s -> s_head s | None -> 0);
    base_lsn = (match st with Some s -> s.s_base | None -> 0);
    duration_ns;
  }

let clean (r : report) = r.findings = []

let has_critical (r : report) =
  List.exists (fun f -> f.severity = Critical) r.findings

let render_text (r : report) =
  let buf = Buffer.create 256 in
  let target =
    match r.against with None -> r.dir | Some p -> r.dir ^ " (against " ^ p ^ ")"
  in
  (match r.findings with
  | [] -> Buffer.add_string buf (Printf.sprintf "fsck %s: clean\n" target)
  | fs ->
    Buffer.add_string buf
      (Printf.sprintf "fsck %s: %d finding%s\n" target (List.length fs)
         (if List.length fs = 1 then "" else "s"));
    List.iter
      (fun f ->
        Buffer.add_string buf
          (Printf.sprintf "  [%s] %s %s: %s\n" f.code (severity_label f.severity)
             f.where f.message))
      fs);
  Buffer.add_string buf
    (Printf.sprintf
       "  checked: %d wal record(s), %d hierarchies, %d relations; head LSN %d \
        (base %d) in %.1fms\n"
       r.wal_records r.hierarchies r.relations r.head_lsn r.base_lsn
       (float_of_int r.duration_ns /. 1e6));
  Buffer.contents buf

let render_json (r : report) =
  J.to_string
    (J.Obj
       [
         ("dir", J.String r.dir);
         ( "against",
           match r.against with None -> J.Null | Some p -> J.String p );
         ("clean", J.Bool (clean r));
         ( "findings",
           J.List
             (List.map
                (fun f ->
                  J.Obj
                    [
                      ("code", J.String f.code);
                      ("severity", J.String (severity_label f.severity));
                      ("where", J.String f.where);
                      ("message", J.String f.message);
                    ])
                r.findings) );
         ("wal_records", J.Int r.wal_records);
         ("hierarchies", J.Int r.hierarchies);
         ("relations", J.Int r.relations);
         ("head_lsn", J.Int r.head_lsn);
         ("base_lsn", J.Int r.base_lsn);
         ("duration_ns", J.Int r.duration_ns);
       ])
  ^ "\n"
