(** The paged durable store behind {!Db}: one [pages.db] file of
    shadow-paged 4 KiB pages holding slotted heap pages of TID-addressed
    tuples, a {!Btree} over (relation, attribute, label), a free-space
    map, and a DDL blob (skeleton {!Snapshot} + relation-id map).

    Mutations accumulate in relocated copies of the affected pages;
    nothing becomes visible to a reopen until {!commit} publishes a new
    meta root (write-new-then-swap-root, crash-safe at every step).
    Checkpoint write cost is proportional to the pages touched since the
    last commit, not to the database size. See docs/STORAGE.md. *)

type t

exception Corrupt of string
(** Raised by {!open_} and the loaders on structurally invalid state
    (bad meta CRCs, out-of-range page table, undecodable records). *)

val create : ?pool_pages:int -> string -> t
(** A fresh store at [path] (truncating any existing file), with meta
    slots and an empty B-tree initialised but nothing committed — call
    {!commit} to make it openable. Builders write to a temp path and
    rename over [pages.db] so a crash mid-build never strands a
    half-written store. *)

val open_ : ?pool_pages:int -> string -> t
(** Load the newest valid epoch: pick the meta root, rebuild the page
    table, free lists, DDL blob and free-space map. O(metadata); tuple
    pages are only read by {!to_catalog} / {!check}. *)

val close : t -> unit
val base_lsn : t -> int
val epoch : t -> int
val pager : t -> Pager.t
val btree_root : t -> int

val to_catalog : t -> Hierel.Catalog.t
(** Rebuild the in-memory catalog from pages (heap scan + skeleton
    snapshot decode), also priming this store's TID maps for later
    delta application. *)

val max_record_bytes : int
(** The largest tuple record one heap page holds: the page size less
    the page header and one 4-byte slot (4076 bytes for 4 KiB pages).
    {!apply_relation} fails on a larger tuple, so {!Db} refuses any
    statement that would store one. *)

val record_bytes : string list -> int
(** The on-disk size of a tuple record with these coordinate labels:
    9 bytes plus 4 bytes and the length of each label. *)

val oversize_tuple : Hierel.Relation.t -> int option
(** The record size of the first tuple of the relation that exceeds
    {!max_record_bytes}, if any. *)

val apply_relation : t -> ?old:Hierel.Relation.t -> Hierel.Relation.t -> unit
(** Write a relation's tuples as a delta against [old] (its value at
    the last checkpoint): unchanged tuples touch no page. [?old]
    absent means every tuple is new (initial load). *)

val drop_relation : t -> string -> unit
(** Delete every tuple and index entry of the named relation. *)

val apply_catalog : t -> Hierel.Catalog.t -> unit
(** {!apply_relation} with no [old] for every relation — full loads
    (replica snapshot install). *)

val set_ddl : t -> Hierel.Catalog.t -> unit
(** Re-encode hierarchies, schemas, observed stats and the relation-id
    map into the DDL blob pages; a byte-identical blob touches no
    page. *)

val commit : t -> ?fsync:bool -> base_lsn:int -> unit -> int * int
(** Publish everything applied since the last commit: seal dirty pages
    (logical id + CRC), flush, write a fresh page table, swap the meta
    root, release superseded physical pages. Returns
    [(pages_written, pages_total)] and sets the
    [storage.checkpoint.dirty_pages] / [pages_total] gauges. *)

(** {2 Integrity (fsck F025–F029)} *)

type fault_kind =
  | Checksum  (** F025: page CRC / header seal violations *)
  | Dangling_tid  (** F026: index entry pointing at a dead or absent tuple *)
  | Duplicate_tid  (** F027: one TID referenced twice for the same attribute *)
  | Btree_order  (** F028: key order or leaf/heap disagreement *)
  | Freemap  (** F029: free-space map inaccurate *)

type fault = { kind : fault_kind; detail : string }

val check : t -> fault list
(** Full sweep: page seals, B-tree structure, index↔heap agreement in
    both directions, free-map accuracy. Empty list means sound. *)

(** Seeded corruption and crash hooks for the test suite. The edits
    write committed pages in place (deliberately bypassing shadowing)
    and re-seal CRCs so each one isolates a single finding. *)
module Testing : sig
  val crash_before_meta : bool ref
  (** When set, the next {!commit} dies with [_exit 137] after the data
      flush but before the meta-root swap. *)

  val corrupt_page : t -> unit
  (** Flip a byte under the B-tree root's seal (F025). *)

  val kill_slot : t -> int
  (** Tombstone a live tuple's slot without touching the index; returns
      the now-dangling TID (F026). *)

  val dup_btree_ref : t -> unit
  (** Insert a second index entry for an existing TID under the same
      attribute and commit it (F027). *)

  val swap_btree_keys : t -> unit
  (** Swap the first two entries of the leftmost leaf (F028). *)

  val skew_freemap : t -> unit
  (** Inflate one free-space map entry's free-byte count (F029). *)
end
