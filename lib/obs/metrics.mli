(** Metrics registry: named counters, gauges and log-bucketed histograms.

    All live values are slots in one flat int array owned by the registry,
    so the hot-path operations ({!inc}, {!add}, {!set}, {!observe}) are a
    couple of array accesses — no allocation, no boxing, no hashing.
    Instrumented components hold handles obtained once at registration
    time and gate their use on a single precomputed test (the same
    [observed] pattern the machines use for counters/tracers), so a run
    without a registry attached pays nothing.

    Registration is idempotent on [(name, labels)]: asking for an existing
    series returns a handle to the same slots, so independently
    instrumented layers (machine, supervisor, CLI) can share one registry
    without coordination.

    Snapshots export in two formats: Prometheus text exposition
    ({!to_prometheus}) and a JSON document ({!to_json}).  Values are
    integers throughout — the simulators count discrete events (misses,
    firings, logical ticks, bytes, microseconds). *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or look up) a counter.  Metric names must match Prometheus
    conventions ([[a-zA-Z_:][a-zA-Z0-9_:]*]); label names likewise
    (without [:]).
    @raise Invalid_argument on an invalid name, or if [name] is already
    registered with a different kind. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val histogram : t -> ?help:string -> ?labels:(string * string) list -> string -> histogram
(** Histograms are log-bucketed: bucket [k] counts observations whose bit
    length is [k] (values in [[2^(k-1), 2^k)]); bucket [0] counts
    non-positive values.  63 buckets cover every OCaml int. *)

(** {2 Hot path} — allocation-free. *)

val inc : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit
val gauge_add : gauge -> int -> unit
val observe : histogram -> int -> unit

(** {2 Readback} — for tests and programmatic consumers. *)

val counter_value : counter -> int
val gauge_value : gauge -> int
val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val histogram_buckets : histogram -> int list
(** Per-bucket (non-cumulative) observation counts, bucket 0 first. *)

val bucket_of : int -> int
(** The bucket index an observation falls into (exposed for tests). *)

val bucket_le : int -> int
(** Inclusive upper bound of bucket [k]: [2^k - 1], and [0] for bucket 0. *)

val value : t -> ?labels:(string * string) list -> string -> int option
(** Current value of a counter/gauge (or a histogram's count) by name. *)

val num_series : t -> int

val reset : t -> unit
(** Zero every registered series (registrations persist). *)

(** {2 Exposition} *)

val to_prometheus : t -> string
(** Prometheus text format: [# HELP]/[# TYPE] headers, label values
    escaped per the exposition-format spec, histograms as cumulative
    [_bucket{le="..."}] series plus [_sum]/[_count].  Empty log buckets
    are elided (the [+Inf] bucket is always present). *)

val to_json : t -> Json.value
val to_json_string : t -> string

val merge_json : t -> Json.value -> unit
(** [merge_json t doc] adds a {!to_json} document into [t], summing it
    into the series [t] already has by [(name, labels)] and registering
    the rest in document order.  A series registered without help takes
    the document's.  Merging per-worker documents into a fresh registry
    and rendering it with {!to_prometheus} gives one page for a whole
    multi-process daemon.  The document is outside input: a malformed
    entry, an invalid name or a kind conflict drops that entry, never
    raises. *)
