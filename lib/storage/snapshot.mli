(** Binary catalog snapshots.

    A snapshot is a self-contained, versioned binary image of a catalog:
    every hierarchy (nodes with names, instance flags, [isa] and
    preference edges) and every relation (schema plus signed tuples).
    The encoding goes through the public construction APIs on decode, so
    invariants (acyclicity, arity checks, the ambiguity constraint at
    [define_relation]) are re-validated on load. A CRC-32 trailer detects
    torn or corrupted images.

    The codec is an interchange format, not a file layout: it carries
    replica bootstrap images ([REPL_SNAPSHOT], {!Db.snapshot_image} and
    {!Db.install_snapshot}) and the page store's DDL blob. A database
    directory holds only [pages.db] and [wal.log] (docs/STORAGE.md).

    Re-running the relation consistency sweep on every load is by far
    the most expensive part of decoding (it is quadratic in relation
    size), and it re-proves a property the encoder already held: a
    snapshot is only ever written from a catalog whose relations passed
    that check when they were defined. [decode ~check:false] skips it —
    the CRC still guards the bytes, structural invariants (arity,
    acyclicity, name resolution) are still enforced, and the offline
    fsck remains the deep validator for untrusted state. *)

exception Corrupt_snapshot of string

val encode : Hierel.Catalog.t -> string
val decode : ?check:bool -> string -> Hierel.Catalog.t
(** Raises {!Corrupt_snapshot} on bad magic, unsupported version, CRC
    mismatch or malformed structure. [~check] (default [true]) controls
    the per-relation consistency sweep; see the module comment. *)
