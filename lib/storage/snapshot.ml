module Hierarchy = Hr_hierarchy.Hierarchy
module W = Codec.Writer
module R = Codec.Reader
open Hierel

exception Corrupt_snapshot of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt_snapshot s)) fmt

let magic = "HRELSNAP"

(* v2 appends the observed-statistics section (the cost estimator's
   EXPLAIN ANALYZE feedback); v1 snapshots still decode, with an empty
   store. *)
let version = 2

(* ---- encoding -------------------------------------------------------- *)

let encode_hierarchy w h =
  let label = Hierarchy.node_label h in
  W.string w (label (Hierarchy.root h));
  (* nodes in topological order so parents precede children on decode *)
  let order =
    let seen = Hashtbl.create 256 in
    let acc = ref [] in
    let rec visit v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        List.iter visit (Hierarchy.parents h v);
        acc := v :: !acc
      end
    in
    List.iter visit (Hierarchy.nodes h);
    List.rev !acc
  in
  let non_root = List.filter (fun v -> v <> Hierarchy.root h) order in
  W.list w
    (fun w v ->
      W.string w (label v);
      W.u8 w (if Hierarchy.is_instance h v then 1 else 0);
      W.list w (fun w p -> W.string w (label p)) (Hierarchy.parents h v))
    non_root;
  W.list w
    (fun w (weaker, stronger) ->
      W.string w (label weaker);
      W.string w (label stronger))
    (Hierarchy.preference_edges h)

let encode_relation w rel =
  let schema = Relation.schema rel in
  W.string w (Relation.name rel);
  W.list w
    (fun w (name, i) ->
      W.string w name;
      W.string w (Hr_util.Symbol.name (Hierarchy.domain (Schema.hierarchy schema i))))
    (List.mapi (fun i name -> (name, i)) (Schema.names schema));
  W.list w
    (fun w (t : Relation.tuple) ->
      W.u8 w (match t.Relation.sign with Types.Pos -> 1 | Types.Neg -> 0);
      W.list w
        (fun w (i : int) ->
          W.string w (Hierarchy.node_label (Schema.hierarchy schema i) (Item.coord t.Relation.item i)))
        (List.init (Schema.arity schema) Fun.id))
    (Relation.tuples rel)

let encode cat =
  let w = W.create () in
  let hierarchies =
    List.sort
      (fun a b -> Hr_util.Symbol.compare (Hierarchy.domain a) (Hierarchy.domain b))
      (Catalog.hierarchies cat)
  in
  W.list w encode_hierarchy hierarchies;
  let relations =
    List.sort (fun a b -> String.compare (Relation.name a) (Relation.name b))
      (Catalog.relations cat)
  in
  W.list w encode_relation relations;
  W.list w
    (fun w ((rel, label), count) ->
      W.string w rel;
      W.string w label;
      W.u32 w count)
    (Catalog.observed_stats cat);
  let body = W.contents w in
  let out = W.create () in
  W.string out magic;
  W.u32 out version;
  W.string out body;
  W.u32 out (Int32.to_int (Codec.crc32 body) land 0xFFFFFFFF);
  W.contents out

(* ---- decoding -------------------------------------------------------- *)

(* The encoder wrote nodes in topological order (parents precede
   children), so each node can be added the moment it streams past — no
   intermediate (name, is_instance, parents) list. *)
let decode_hierarchy r =
  let root = R.string r in
  let h = Hierarchy.create root in
  R.iter r (fun r ->
      let name = R.string r in
      let is_instance = R.u8 r = 1 in
      let parents = List.filter (fun p -> p <> root) (R.list r R.string) in
      if is_instance then ignore (Hierarchy.add_instance h ~parents name)
      else ignore (Hierarchy.add_class h ~parents name));
  R.iter r (fun r ->
      let weaker = R.string r in
      let stronger = R.string r in
      Hierarchy.add_preference h ~weaker ~stronger);
  h

let decode_relation cat r =
  let name = R.string r in
  let attrs = R.list r (fun r ->
      let attr = R.string r in
      let domain = R.string r in
      (attr, domain))
  in
  let schema =
    Schema.make (List.map (fun (a, d) -> (a, Catalog.hierarchy cat d)) attrs)
  in
  let arity = Schema.arity schema in
  (* Per-attribute name -> node memo: a snapshot repeats the same labels
     across thousands of tuples, and the per-coordinate [find_exn]
     (symbol intern + table lookup) dominated decode cost. *)
  let memo = Array.init arity (fun _ -> Hashtbl.create 256) in
  let node i label =
    match Hashtbl.find_opt memo.(i) label with
    | Some v -> v
    | None ->
      let v = Hierarchy.find_exn (Schema.hierarchy schema i) label in
      Hashtbl.add memo.(i) label v;
      v
  in
  let rel = ref (Relation.empty ~name schema) in
  R.iter r (fun r ->
      let sign = if R.u8 r = 1 then Types.Pos else Types.Neg in
      let n = R.u32 r in
      if n <> arity then
        corrupt "tuple arity %d does not match schema arity %d in %S" n arity name;
      let coords = Array.make arity 0 in
      for i = 0 to arity - 1 do
        coords.(i) <- node i (R.string r)
      done;
      rel := Relation.add !rel (Item.make schema coords) sign);
  !rel

let decode ?(check = true) data =
  try
    let r = R.of_string data in
    let m = R.string r in
    if m <> magic then corrupt "bad magic %S" m;
    let v = R.u32 r in
    if v <> 1 && v <> version then corrupt "unsupported snapshot version %d" v;
    let body = R.string r in
    let crc = R.u32 r in
    let actual = Int32.to_int (Codec.crc32 body) land 0xFFFFFFFF in
    if crc <> actual then corrupt "CRC mismatch: stored %08x, computed %08x" crc actual;
    let r = R.of_string body in
    let cat = Catalog.create () in
    let hierarchies = R.list r decode_hierarchy in
    List.iter (Catalog.define_hierarchy cat) hierarchies;
    let relations = R.list r (fun r -> decode_relation cat r) in
    List.iter (Catalog.define_relation ~check cat) relations;
    if v >= 2 then
      R.iter r (fun r ->
          let rel = R.string r in
          let label = R.string r in
          let count = R.u32 r in
          Catalog.record_stat cat ~rel ~label count);
    cat
  with
  | R.Corrupt msg -> corrupt "%s" msg
  | Hierarchy.Error msg | Types.Model_error msg -> corrupt "invalid content: %s" msg
