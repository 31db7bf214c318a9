(** A B-tree over fixed-size pages with byte-string keys and integer
    (TID) payloads. Duplicate keys are supported: the entry identity is
    the composite (key, tid), ordered by key bytes then tid.

    The tree is parameterised over a {!pages} provider rather than
    owning a file, so {!Page_store} can hand it shadow-paged pages while
    tests drive the identical code over an in-memory array. All
    node-mutating operations go through [modify], which the provider
    uses to mark pages dirty (and, in the store, to relocate them before
    the mutation). *)

type pages = {
  read : int -> bytes;
      (** [read id] returns the current contents of logical page [id].
          The returned bytes must not be mutated. *)
  modify : int -> (bytes -> unit) -> unit;
      (** [modify id f] applies [f] to a mutable view of page [id] and
          marks it dirty. *)
  alloc : unit -> int;  (** allocate a fresh zeroed page, returning its id *)
  free : int -> unit;  (** return a page to the provider's free pool *)
}

val max_key : int
(** Maximum key length in bytes; [insert] rejects longer keys. Callers
    (the page store) truncate keys to this bound — lookups then
    post-filter on the full key. *)

val create : pages -> int
(** Allocate and initialise an empty tree; returns the root page id. *)

val insert : pages -> root:int -> key:string -> tid:int -> int
(** Insert (key, tid), returning the (possibly new) root. Inserting a
    pair already present is a no-op. Raises [Invalid_argument] if the
    key exceeds {!max_key}. *)

val delete : pages -> root:int -> key:string -> tid:int -> int
(** Remove (key, tid) if present, returning the (possibly new) root.
    Underfull nodes are merged with or rebalanced against a sibling; an
    empty internal root collapses into its only child. *)

val lookup : pages -> root:int -> string -> int list
(** All tids stored under exactly this key, in ascending tid order. *)

val iter : pages -> root:int -> (string -> int -> unit) -> unit
(** In-order iteration over every (key, tid) entry. *)

val depth : pages -> root:int -> int
(** Levels in the tree (1 = a lone leaf). *)

val check : pages -> root:int -> string list
(** Structural validation for fsck: nodes decode, entries are strictly
    (key, tid)-ordered, and every subtree respects its separator
    interval. Returns human-readable fault descriptions, [] if sound. *)
