(** A page-oriented file with an LRU buffer pool.

    Fixed-size pages addressed by number, backed by one file, cached in a
    bounded pool with write-back on eviction. The recency list is an
    intrusive doubly-linked list, so every pool touch — hit, fault-in,
    eviction — is O(1) regardless of pool size. This is the conventional
    bottom layer of a disk-resident database; {!Page_store} builds the
    shadow-paged tuple store (slotted pages, TIDs) the database
    checkpoints through on top of it.

    Single-process, no concurrency control; all sizes in bytes. *)

val page_size : int
(** 4096. *)

type t

val create : ?pool_pages:int -> string -> t
(** Opens (creating if needed) the file. [pool_pages] bounds the buffer
    pool (default 64). Opening never modifies the file. A trailing
    partial page (a crash artifact — nothing durable can reference an
    unfinished extension) is not counted in {!page_count}; the next
    {!allocate} overwrites it. *)

val close : t -> unit
(** Flushes every dirty page and closes the file. *)

val page_count : t -> int

val allocate : t -> int
(** Appends a zeroed page; returns its number. *)

val read_page : t -> int -> bytes
(** The page's current contents — the pool's copy; mutate only through
    {!write_page} or {!with_page}. Raises [Invalid_argument] on an
    out-of-range page. *)

val write_page : t -> int -> bytes -> unit
(** Replaces the page (must be exactly {!page_size} bytes); marked dirty
    and written back on eviction, {!flush} or {!close}. *)

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** [with_page t n f] runs [f] on page [n]'s pooled bytes, marking the
    page dirty — in-place mutation without {!write_page}'s full-page
    copy. The bytes must not escape [f] (eviction recycles them). *)

val flush : t -> unit
(** Writes every dirty pooled page back to the file (no fsync). *)

val fsync : t -> unit
(** [Unix.fsync] on the underlying descriptor. Durability = {!flush}
    then {!fsync}. *)

(* statistics for benchmarks and tests *)
val reads_from_disk : t -> int
val writes_to_disk : t -> int
val hits : t -> int
val evictions : t -> int
