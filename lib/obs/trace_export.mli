(** Trace and attribution writers.

    {!chrome} serializes a {!Tracer} log as Chrome [trace_event] JSON (the
    object form, ["traceEvents"] plus extra top-level keys), directly
    loadable in Perfetto ({:https://ui.perfetto.dev}) or
    [chrome://tracing].  Logical timestamps are written as microseconds:
    one simulated cache access = 1us of trace time.

    {!entity_summary} renders per-entity counters as rows for a compact
    text table.  Both are dependency-free (the JSON emitter is local). *)

val chrome :
  ?process_name:string ->
  ?thread_names:(int * string) list ->
  ?summary:(string * int) list ->
  label:(int -> string) ->
  tid:(int -> int) ->
  Tracer.t ->
  string
(** [chrome ~label ~tid tracer] is the complete JSON document.  [label]
    maps an event's entity/node id to a display name and [tid] to a track
    (thread) id — e.g. its partition component.  [thread_names] attaches
    Chrome [thread_name] metadata to tracks; [summary] key/value pairs are
    emitted under a top-level ["ccs"] object (the attribution-sum check in
    CI reads ["total_misses"]/["attributed_misses"] from there). *)

val chrome_spans :
  ?process_name:string -> (string * Span.span list) list -> string
(** [chrome_spans sources] serializes request-stage span lists (one
    [(label, spans)] pair per worker or flight-dump file) as a Chrome
    trace_event document: each source gets its own track named [label],
    each span becomes a complete ["X"] event at its real microsecond
    timestamps with [trace_id]/[span_id]/[parent] in [args]. *)

val write : path:string -> string -> unit
(** Write a serialized document to [path] (plus a trailing newline) with
    {!Ccs_sdf.Binio.write_atomic}: a crash mid-write leaves the previous
    file (or nothing) at [path], never a truncated document, and
    concurrent writers cannot clobber each other's temp file. *)

val entity_summary :
  Counters.t -> label:(int -> string) -> (string * int * int) list
(** [(label, accesses, misses)] for every entity with at least one access,
    sorted by misses (then accesses) descending. *)
