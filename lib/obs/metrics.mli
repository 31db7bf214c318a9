(** A process-wide metrics registry.

    Three instrument kinds, all identified by dotted names
    (["storage.pager.disk_reads"]): monotonic {b counters}, {b gauges},
    and magnitude-bucketed latency {b histograms} (nanoseconds). Handles
    are registered once (registration is idempotent — the same name
    yields the same handle) and updated on hot paths with a single
    guarded mutable write, so instrumentation costs nothing measurable
    when the registry is disabled and allocates nothing either way.

    The catalogue of metric names used by this repository is documented
    in [docs/OBSERVABILITY.md]. *)

type counter
type gauge
type histogram

type t
(** A registry. Most callers use the implicit {!default} registry; tests
    can create private ones. *)

val create : unit -> t
val default : t

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Toggle the global sink. Disabled, every update ([incr], [add],
    [set], [observe]) is a no-op; handles stay registered and readable.
    Observability must never perturb semantics — disabling the sink
    changes no query result (tested in [test/test_obs.ml]). *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the sink forced on/off, restoring the previous state. *)

(** {1 Counters} — monotonic; negative deltas are ignored. *)

val counter : ?registry:t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val counter_value : ?registry:t -> string -> int
(** By name; 0 when the counter was never registered. *)

(** {1 Gauges} — settable levels. *)

val gauge : ?registry:t -> string -> gauge
val set : gauge -> int -> unit
val level : gauge -> int
val gauge_value : ?registry:t -> string -> int

(** {1 Histograms} — nanosecond latencies in 64 power-of-two buckets.
    The bucket counts always sum to the observation count. *)

val histogram : ?registry:t -> string -> histogram
val observe : histogram -> int -> unit
val observations : histogram -> int

val now_ns : unit -> int
(** Wall-clock nanoseconds (for intervals; the epoch is irrelevant). *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run a thunk and observe its duration, exceptions included. *)

val bucket_of : int -> int
(** The bucket index a nanosecond value falls into (exposed for tests). *)

(** {1 Snapshots and rendering} *)

type hist_stats = {
  name : string;
  count : int;
  sum : int;
  min : int;  (** 0 when [count = 0] *)
  max : int;
  nonzero_buckets : (int * int) list;  (** (magnitude exponent, count) *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;
  histograms : hist_stats list;
}

val snapshot : ?registry:t -> unit -> snapshot

val reset : ?registry:t -> unit -> unit
(** Zero every instrument (handles remain valid). *)

val render_text : snapshot -> string
val json_of_snapshot : snapshot -> Jsonout.t
val render_json : snapshot -> string
(** The [STATS JSON;] wire format; schema in [docs/OBSERVABILITY.md]. *)
