let page_size = 4096

(* Process-wide counters mirror the per-pager fields so a STATS frame
   sees I/O across every open pager. [writebacks] counts only dirty
   pages written back by flush/eviction — allocation's materializing
   write is deliberately excluded, keeping "reads >= writebacks" a real
   invariant for fault-in-then-flush workloads. [evictions] counts pool
   slots recycled (clean or dirty); dirty evictions also count one
   writeback. *)
let m_disk_reads = Hr_obs.Metrics.counter "storage.pager.disk_reads"
let m_disk_writes = Hr_obs.Metrics.counter "storage.pager.disk_writes"
let m_pool_hits = Hr_obs.Metrics.counter "storage.pager.pool_hits"
let m_allocations = Hr_obs.Metrics.counter "storage.pager.allocations"
let m_writebacks = Hr_obs.Metrics.counter "storage.pager.writebacks"
let m_evictions = Hr_obs.Metrics.counter "storage.pager.evictions"

(* Pool slots form an intrusive doubly-linked list in recency order
   (head = most recent), so a touch is an O(1) unlink + push instead of
   the O(pool) list rebuild the first version did on every access. *)
type slot = {
  page_no : int;
  mutable data : bytes;
  mutable dirty : bool;
  mutable prev : slot option; (* toward the head (more recent) *)
  mutable next : slot option; (* toward the tail (least recent) *)
}

type t = {
  fd : Unix.file_descr;
  mutable pages : int;
  pool_pages : int;
  pool : (int, slot) Hashtbl.t; (* page_no -> slot *)
  mutable head : slot option; (* most recently used *)
  mutable tail : slot option; (* least recently used *)
  mutable disk_reads : int;
  mutable disk_writes : int;
  mutable pool_hits : int;
  mutable evictions : int;
}

let create ?(pool_pages = 64) path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  (* A trailing partial page is a crash mid-extension: nothing durable
     references it, and the next [allocate] writes at the last page
     boundary, overwriting its bytes. Opening never modifies the file. *)
  {
    fd;
    pages = size / page_size;
    pool_pages = max 1 pool_pages;
    pool = Hashtbl.create 64;
    head = None;
    tail = None;
    disk_reads = 0;
    disk_writes = 0;
    pool_hits = 0;
    evictions = 0;
  }

let page_count t = t.pages

let check_page t page_no =
  if page_no < 0 || page_no >= t.pages then
    invalid_arg (Printf.sprintf "Pager: page %d out of range (%d pages)" page_no t.pages)

let seek t page_no = ignore (Unix.lseek t.fd (page_no * page_size) Unix.SEEK_SET)

let disk_write t page_no data =
  seek t page_no;
  let written = Unix.write t.fd data 0 page_size in
  assert (written = page_size);
  t.disk_writes <- t.disk_writes + 1;
  Hr_obs.Metrics.incr m_disk_writes

let disk_read t page_no =
  seek t page_no;
  let data = Bytes.make page_size '\000' in
  let rec fill off =
    if off < page_size then begin
      let n = Unix.read t.fd data off (page_size - off) in
      if n = 0 then () (* sparse tail: keep zeroes *) else fill (off + n)
    end
  in
  fill 0;
  t.disk_reads <- t.disk_reads + 1;
  Hr_obs.Metrics.incr m_disk_reads;
  data

(* ---- O(1) recency list ------------------------------------------------ *)

let unlink t slot =
  (match slot.prev with Some p -> p.next <- slot.next | None -> t.head <- slot.next);
  (match slot.next with Some n -> n.prev <- slot.prev | None -> t.tail <- slot.prev);
  slot.prev <- None;
  slot.next <- None

let push_front t slot =
  slot.next <- t.head;
  slot.prev <- None;
  (match t.head with Some h -> h.prev <- Some slot | None -> t.tail <- Some slot);
  t.head <- Some slot

let touch t slot =
  if t.head != Some slot then begin
    unlink t slot;
    push_front t slot
  end

let evict_if_needed t =
  if Hashtbl.length t.pool > t.pool_pages then
    match t.tail with
    | None -> ()
    | Some victim ->
      if victim.dirty then begin
        Hr_obs.Metrics.incr m_writebacks;
        disk_write t victim.page_no victim.data
      end;
      unlink t victim;
      Hashtbl.remove t.pool victim.page_no;
      t.evictions <- t.evictions + 1;
      Hr_obs.Metrics.incr m_evictions

let slot_of t page_no =
  check_page t page_no;
  match Hashtbl.find_opt t.pool page_no with
  | Some slot ->
    t.pool_hits <- t.pool_hits + 1;
    Hr_obs.Metrics.incr m_pool_hits;
    touch t slot;
    slot
  | None ->
    let data = disk_read t page_no in
    let slot = { page_no; data; dirty = false; prev = None; next = None } in
    Hashtbl.replace t.pool page_no slot;
    push_front t slot;
    evict_if_needed t;
    slot

let allocate t =
  Hr_obs.Metrics.incr m_allocations;
  let page_no = t.pages in
  t.pages <- t.pages + 1;
  (* materialize the page on disk so file size tracks page_count *)
  disk_write t page_no (Bytes.make page_size '\000');
  page_no

let read_page t page_no = (slot_of t page_no).data

let write_page t page_no data =
  if Bytes.length data <> page_size then invalid_arg "Pager.write_page: wrong size";
  let slot = slot_of t page_no in
  slot.data <- data;
  slot.dirty <- true

let with_page t page_no f =
  let slot = slot_of t page_no in
  (* dirty before running [f]: even a partial mutation must reach disk
     rather than be silently dropped by a clean eviction *)
  slot.dirty <- true;
  f slot.data

let flush t =
  Hashtbl.iter
    (fun page_no slot ->
      if slot.dirty then begin
        Hr_obs.Metrics.incr m_writebacks;
        disk_write t page_no slot.data;
        slot.dirty <- false
      end)
    t.pool

let fsync t = Unix.fsync t.fd

let close t =
  flush t;
  Unix.close t.fd

let reads_from_disk t = t.disk_reads
let writes_to_disk t = t.disk_writes
let hits t = t.pool_hits
let evictions t = t.evictions
