(* A disk B-tree over fixed-size pages, keyed by byte strings with an
   integer payload (a TID), supporting duplicate keys by treating
   (key, tid) as the composite entry identity. The tree does not own its
   pages: every access goes through an abstract {!pages} provider, which
   is how {!Page_store} gives it shadow-paged, checksummed, pooled pages
   while the test oracle drives the very same code over an in-memory
   array. *)

let m_inserts = Hr_obs.Metrics.counter "storage.btree.inserts"
let m_deletes = Hr_obs.Metrics.counter "storage.btree.deletes"
let m_lookups = Hr_obs.Metrics.counter "storage.btree.lookups"
let m_splits = Hr_obs.Metrics.counter "storage.btree.splits"
let m_merges = Hr_obs.Metrics.counter "storage.btree.merges"
let m_rebalances = Hr_obs.Metrics.counter "storage.btree.rebalances"
let m_node_reads = Hr_obs.Metrics.counter "storage.btree.node_reads"

type pages = {
  read : int -> bytes;
  modify : int -> (bytes -> unit) -> unit;
  alloc : unit -> int;
  free : int -> unit;
}

let max_key = 512

(* ---- node layout ------------------------------------------------------

   Shared 16-byte page header (see docs/STORAGE.md): byte 0 is the page
   type (leaf/internal), bytes 2-3 the entry count, bytes 4-5 the end of
   the packed payload; bytes 8-15 (logical id, CRC) belong to the page
   store and are never touched here.

   Leaf payload (from offset 16):      [u16 klen][u64 tid][key] ...
   Internal payload: u32 leftmost child at 16, then (from offset 20)
                     [u16 klen][u32 child][u64 tid][key] ...

   An internal entry's (key, tid) is the separator: its child subtree
   holds exactly the entries >= (key, tid) and < the next separator. *)

let header = 16
let tag_leaf = 3
let tag_internal = 4

type entry = { key : string; tid : int; child : int (* -1 in leaves *) }
type node = { leaf : bool; leftmost : int; entries : entry list }

let get_u16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set_u16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let get_u32 b off = get_u16 b off lor (get_u16 b (off + 2) lsl 16)

let set_u32 b off v =
  set_u16 b off (v land 0xffff);
  set_u16 b (off + 2) ((v lsr 16) land 0xffff)

let get_u64 b off = get_u32 b off lor (get_u32 b (off + 4) lsl 32)

let set_u64 b off v =
  set_u32 b off (v land 0xffffffff);
  set_u32 b (off + 4) ((v lsr 32) land 0x7fffffff)

let entry_size leaf e = (if leaf then 10 else 14) + String.length e.key
let payload_start leaf = if leaf then header else header + 4
let capacity leaf = Pager.page_size - payload_start leaf

let payload_size node =
  List.fold_left (fun acc e -> acc + entry_size node.leaf e) 0 node.entries

(* Composite order: key bytes, then tid. *)
let cmp_entry k t e =
  match String.compare k e.key with 0 -> compare t e.tid | c -> c

let decode b =
  let tag = Char.code (Bytes.get b 0) in
  if tag <> tag_leaf && tag <> tag_internal then
    invalid_arg (Printf.sprintf "Btree.decode: not a btree page (type %d)" tag);
  let leaf = tag = tag_leaf in
  let count = get_u16 b 2 in
  let leftmost = if leaf then -1 else get_u32 b header in
  let off = ref (payload_start leaf) in
  let entries =
    List.init count (fun _ ->
        let klen = get_u16 b !off in
        let child = if leaf then -1 else get_u32 b (!off + 2) in
        let tid = get_u64 b (!off + if leaf then 2 else 6) in
        let kpos = !off + if leaf then 10 else 14 in
        let key = Bytes.sub_string b kpos klen in
        off := kpos + klen;
        { key; tid; child })
  in
  { leaf; leftmost; entries }

let encode node b =
  Bytes.fill b 0 Pager.page_size '\000';
  Bytes.set b 0 (Char.chr (if node.leaf then tag_leaf else tag_internal));
  set_u16 b 2 (List.length node.entries);
  if not node.leaf then set_u32 b header node.leftmost;
  let off = ref (payload_start node.leaf) in
  List.iter
    (fun e ->
      let klen = String.length e.key in
      set_u16 b !off klen;
      if node.leaf then set_u64 b (!off + 2) e.tid
      else begin
        set_u32 b (!off + 2) e.child;
        set_u64 b (!off + 6) e.tid
      end;
      let kpos = !off + if node.leaf then 10 else 14 in
      Bytes.blit_string e.key 0 b kpos klen;
      off := kpos + klen)
    node.entries;
  set_u16 b 4 !off

let read_node pages id =
  Hr_obs.Metrics.incr m_node_reads;
  decode (pages.read id)

let write_node pages id node =
  pages.modify id (fun b -> encode node b)

let create pages =
  let id = pages.alloc () in
  write_node pages id { leaf = true; leftmost = -1; entries = [] };
  id

(* ---- routing ---------------------------------------------------------- *)

(* The child position covering (key, tid): 0 = leftmost, k >= 1 = the
   child of separator entry k-1. *)
let route node key tid =
  let rec go pos i = function
    | [] -> pos
    | e :: rest -> if cmp_entry key tid e >= 0 then go (i + 1) (i + 1) rest else pos
  in
  go 0 0 node.entries

let child_at node pos =
  if pos = 0 then node.leftmost else (List.nth node.entries (pos - 1)).child

(* ---- splitting -------------------------------------------------------- *)

(* Split an overfull entry list at (roughly) half its payload bytes.
   Both halves are guaranteed to fit: max_key bounds every entry well
   under half a page. *)
let split_bytes leaf entries =
  let total = List.fold_left (fun acc e -> acc + entry_size leaf e) 0 entries in
  let rec go acc size = function
    | [] -> (List.rev acc, [])
    | e :: rest ->
      if size > 0 && size + entry_size leaf e > total / 2 then (List.rev acc, e :: rest)
      else go (e :: acc) (size + entry_size leaf e) rest
  in
  go [] 0 entries

(* The result of inserting below: either the node was rewritten in
   place, or it split and the parent must absorb a new separator. *)
type push_up = Fit | Split of entry (* separator, child = new right node *)

let rec insert_rec pages id key tid =
  let node = read_node pages id in
  if node.leaf then begin
    if List.exists (fun e -> cmp_entry key tid e = 0) node.entries then Fit
    else begin
      let entries =
        let rec ins = function
          | [] -> [ { key; tid; child = -1 } ]
          | e :: rest ->
            if cmp_entry key tid e < 0 then { key; tid; child = -1 } :: e :: rest
            else e :: ins rest
        in
        ins node.entries
      in
      let node = { node with entries } in
      if payload_size node <= capacity true then begin
        write_node pages id node;
        Fit
      end
      else begin
        Hr_obs.Metrics.incr m_splits;
        let left, right = split_bytes true entries in
        let right_id = pages.alloc () in
        write_node pages id { node with entries = left };
        write_node pages right_id { node with entries = right };
        let sep = List.hd right in
        Split { key = sep.key; tid = sep.tid; child = right_id }
      end
    end
  end
  else begin
    let pos = route node key tid in
    match insert_rec pages (child_at node pos) key tid with
    | Fit -> Fit
    | Split sep ->
      (* the new separator lands at index [pos]: just after the entry
         whose child split *)
      let entries =
        let rec ins i rest =
          if i = 0 then sep :: rest
          else match rest with [] -> [ sep ] | e :: tl -> e :: ins (i - 1) tl
        in
        ins pos node.entries
      in
      let node = { node with entries } in
      if payload_size node <= capacity false then begin
        write_node pages id node;
        Fit
      end
      else begin
        Hr_obs.Metrics.incr m_splits;
        match split_bytes false entries with
        | left, mid :: right_rest ->
          let right_id = pages.alloc () in
          write_node pages id { node with entries = left };
          write_node pages right_id
            { node with leftmost = mid.child; entries = right_rest };
          Split { key = mid.key; tid = mid.tid; child = right_id }
        | _, [] -> assert false (* an overfull list always splits in two *)
      end
  end

let insert pages ~root ~key ~tid =
  if String.length key > max_key then
    invalid_arg (Printf.sprintf "Btree.insert: key exceeds %d bytes" max_key);
  Hr_obs.Metrics.incr m_inserts;
  match insert_rec pages root key tid with
  | Fit -> root
  | Split sep ->
    (* grow a level: fresh root with the old root as leftmost child *)
    let new_root = pages.alloc () in
    write_node pages new_root { leaf = false; leftmost = root; entries = [ sep ] };
    new_root

(* ---- deletion with rebalancing ---------------------------------------- *)

let underflow_threshold = (Pager.page_size - header) / 4

(* Merge or redistribute the children at positions [pos] and [pos+1] of
   [parent] (node value, id [pid]); returns the updated parent node. *)
let fix_siblings pages pid parent pos =
  let left_id = child_at parent pos and right_id = child_at parent (pos + 1) in
  let left = read_node pages left_id and right = read_node pages right_id in
  let sep = List.nth parent.entries pos in
  (* Internal children: the parent separator drops down between them,
     carrying the right node's leftmost pointer. Leaves: separators are
     copies of leaf entries, nothing drops. *)
  let merged =
    if left.leaf then left.entries @ right.entries
    else left.entries @ ({ key = sep.key; tid = sep.tid; child = right.leftmost } :: right.entries)
  in
  let merged_node = { left with entries = merged } in
  if payload_size merged_node <= capacity left.leaf then begin
    (* full merge: right disappears, the separator goes with it *)
    Hr_obs.Metrics.incr m_merges;
    write_node pages left_id merged_node;
    pages.free right_id;
    let entries = List.filteri (fun i _ -> i <> pos) parent.entries in
    let parent = { parent with entries } in
    write_node pages pid parent;
    parent
  end
  else begin
    (* redistribute: split the merged run; the right half's head becomes
       the new separator *)
    Hr_obs.Metrics.incr m_rebalances;
    match split_bytes left.leaf merged with
    | l, r :: rest when not left.leaf ->
      write_node pages left_id { left with entries = l };
      write_node pages right_id { right with leftmost = r.child; entries = rest };
      let entries =
        List.mapi
          (fun i e -> if i = pos then { key = r.key; tid = r.tid; child = right_id } else e)
          parent.entries
      in
      let parent = { parent with entries } in
      write_node pages pid parent;
      parent
    | l, (r :: _ as rs) ->
      write_node pages left_id { left with entries = l };
      write_node pages right_id { right with entries = rs };
      let entries =
        List.mapi
          (fun i e -> if i = pos then { key = r.key; tid = r.tid; child = right_id } else e)
          parent.entries
      in
      let parent = { parent with entries } in
      write_node pages pid parent;
      parent
    | _, [] -> assert false (* both sides were non-empty *)
  end

let rec delete_rec pages id key tid =
  let node = read_node pages id in
  if node.leaf then begin
    let entries = List.filter (fun e -> cmp_entry key tid e <> 0) node.entries in
    if List.length entries <> List.length node.entries then
      write_node pages id { node with entries }
  end
  else begin
    let pos = route node key tid in
    let child_id = child_at node pos in
    delete_rec pages child_id key tid;
    let child = read_node pages child_id in
    if payload_size child < underflow_threshold && node.entries <> [] then begin
      let node = read_node pages id in
      (* pair the underfull child with a neighbour: to the left when it
         is the last child, to the right otherwise *)
      let pos = if pos = List.length node.entries then pos - 1 else pos in
      ignore (fix_siblings pages id node pos)
    end
  end

let delete pages ~root ~key ~tid =
  Hr_obs.Metrics.incr m_deletes;
  delete_rec pages root key tid;
  let node = read_node pages root in
  if (not node.leaf) && node.entries = [] then begin
    (* the root lost its last separator: collapse a level *)
    let child = node.leftmost in
    pages.free root;
    child
  end
  else root

(* ---- range iteration --------------------------------------------------

   [iter_range] visits, in (key, tid) order, every entry with
   lo <= (key, tid) <= hi, where [lo]/[hi] are (key, tid) bounds and
   [None] means unbounded. No sibling chains: the traversal prunes
   internal children whose separator interval cannot intersect the
   range, so a point lookup touches one root-to-leaf path (plus a
   neighbour when duplicates straddle a boundary). *)

let cmp_bound (k, t) e = cmp_entry k t e

let rec iter_node pages id lo hi f =
  let node = read_node pages id in
  if node.leaf then
    List.iter
      (fun e ->
        let above_lo = match lo with None -> true | Some b -> cmp_bound b e <= 0 in
        let below_hi = match hi with None -> true | Some b -> cmp_bound b e >= 0 in
        if above_lo && below_hi then f e.key e.tid)
      node.entries
  else begin
    (* child k covers [sep_k, sep_{k+1}); visit it unless the range lies
       entirely outside that interval *)
    let seps = Array.of_list node.entries in
    let n = Array.length seps in
    for k = 0 to n do
      let child = if k = 0 then node.leftmost else seps.(k - 1).child in
      let lower_ok =
        (* range upper bound must reach the child's lower edge *)
        k = 0 || match hi with None -> true | Some b -> cmp_bound b seps.(k - 1) >= 0
      in
      let upper_ok =
        (* range lower bound must sit below the child's upper edge *)
        k = n || match lo with None -> true | Some b -> cmp_bound b seps.(k) < 0
      in
      if lower_ok && upper_ok then iter_node pages child lo hi f
    done
  end

let iter pages ~root f = iter_node pages root None None f

let lookup pages ~root key =
  Hr_obs.Metrics.incr m_lookups;
  let acc = ref [] in
  iter_node pages root (Some (key, 0)) (Some (key, max_int)) (fun _ tid -> acc := tid :: !acc);
  List.rev !acc

(* ---- introspection (tests, fsck) -------------------------------------- *)

let rec depth pages ~root =
  let node = read_node pages root in
  if node.leaf then 1 else 1 + depth pages ~root:node.leftmost

(* Structural invariants, reported as human-readable faults rather than
   exceptions so fsck can keep going: every node decodes, entries are
   strictly ordered by (key, tid) globally, and each subtree respects
   its separator interval. *)
let check pages ~root =
  let faults = ref [] in
  let fault fmt = Format.kasprintf (fun s -> faults := s :: !faults) fmt in
  let rec walk id lo hi =
    match read_node pages id with
    | exception e ->
      fault "node %d does not decode: %s" id (Printexc.to_string e)
    | node ->
      let inside e =
        (match lo with None -> true | Some b -> cmp_bound b e <= 0)
        && match hi with None -> true | Some b -> cmp_bound b e > 0
      in
      let rec ordered = function
        | a :: (b :: _ as rest) ->
          if cmp_entry a.key a.tid b >= 0 then
            fault "node %d: entries out of order at key %S" id b.key;
          ordered rest
        | _ -> ()
      in
      ordered node.entries;
      List.iter
        (fun e ->
          if not (inside e) then
            fault "node %d: entry %S/%d escapes its separator interval" id e.key e.tid)
        node.entries;
      if not node.leaf then begin
        let seps = Array.of_list node.entries in
        let n = Array.length seps in
        for k = 0 to n do
          let child = if k = 0 then node.leftmost else seps.(k - 1).child in
          let clo = if k = 0 then lo else Some (seps.(k - 1).key, seps.(k - 1).tid) in
          let chi = if k = n then hi else Some (seps.(k).key, seps.(k).tid) in
          walk child clo chi
        done
      end
  in
  walk root None None;
  List.rev !faults
