(** The paged durable store behind {!Db}: one [pages.db] file of
    shadow-paged 4 KiB pages holding slotted heap pages of TID-addressed
    tuples, a free-space map, and a DDL blob (skeleton {!Snapshot} +
    relation-id map). It keeps no on-disk index: the catalog, and with it
    the in-memory binding index, is rebuilt from a heap scan.

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
(** A fresh store at [path] (truncating any existing file), with its
    two meta slots allocated but nothing committed — call
    {!commit} to make it openable. Builders write to a temp path and
    rename over [pages.db] so a crash mid-build never strands a
    half-written store. *)

val open_ : ?pool_pages:int -> string -> t
(** Load the newest valid epoch: pick the meta root, rebuild the page
    table, free lists, DDL blob and free-space map. O(metadata); tuple
    pages are only read by {!to_catalog} / {!check}. A meta version 1
    store also maps the pages of a retired coordinate B-tree: they are
    found from metadata alone and freed in memory, so the file is not
    written and the next {!commit} drops them from the page table. *)

val close : t -> unit
val base_lsn : t -> int
val epoch : t -> int
val pager : t -> Pager.t

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
(** Delete every tuple of the named relation. *)

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

(** {2 Integrity (fsck F025 and F029)} *)

type fault_kind =
  | Checksum  (** F025: page CRC / header seal violation, undecodable heap record *)
  | Freemap  (** F029: free-space map inaccurate *)

type fault = { kind : fault_kind; detail : string }

val check : t -> fault list
(** Full sweep: page seals, a decode of every live heap record,
    free-map accuracy. Empty list means sound. *)

(** Seeded corruption and crash hooks for the test suite. The edits
    write committed pages in place (deliberately bypassing shadowing)
    and re-seal CRCs so each one isolates a single finding. *)
module Testing : sig
  val crash_before_meta : bool ref
  (** When set, the next {!commit} dies with [_exit 137] after the data
      flush but before the meta-root swap. *)

  val corrupt_page : t -> unit
  (** Flip a record byte under a heap page's seal (F025). *)

  val garble_record : t -> unit
  (** Make a live heap record undecodable, keeping its page's seal and
      slot lengths valid (F025). *)

  val page_tags : t -> (int * int) list
  (** [(page type, count)] over the live page table's mapped pages,
      ascending by type (1 heap, 2 free-space map, 5 blob; 3 and 4 only
      in a version-1 store's retired B-tree). *)

  val skew_freemap : t -> unit
  (** Inflate one free-space map entry's free-byte count (F029). *)
end
