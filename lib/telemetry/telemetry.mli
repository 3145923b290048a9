(** Runtime telemetry for the placer families: hierarchical spans,
    monotonic counters, float gauges, and pluggable sinks.

    One collector {e per domain} accumulates per-run aggregates (span
    totals by name, counter and gauge values) and a trace of finished
    spans; handles ([Counter.t], [Gauge.t]) are interned globally and
    can be shared freely across domains, but the values they address
    are domain-local, so concurrent placer runs never race. The domain
    pool stitches the per-domain views back together with {!capture}
    and {!merge}. Collection is always on and cheap — a span costs two
    clock reads and one hash-table update — so every [runtime_s] field
    in the repo can be derived from this module's single clock source.
    Output is controlled by the installed sink (also domain-local; a
    fresh domain starts with {!noop}): the default {!noop} sink emits
    nothing, {!summary} pretty-prints an aggregate report on {!flush},
    and {!jsonl} streams one JSON object per span (plus counters and
    gauges on {!flush}) for the bench harness. *)

val now : unit -> float
(** The single wall-clock source used by every placer. Seconds. *)

(** Monotonic integer counters (f-evals, ILP nodes, SA moves...).
    Handles are interned by name: [make] twice with the same name
    returns the same counter. *)
module Counter : sig
  type t

  val make : string -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

(** Float gauges (last-write-wins): density overflow, temperatures... *)
module Gauge : sig
  type t

  val make : string -> t
  val set : t -> float -> unit
  val value : t -> float
  val name : t -> string
end

type span = {
  path : string list;  (** enclosing span names, outermost first *)
  span_name : string;
  t_start : float;
  dur_s : float;
}

(** Hierarchical timed regions. Spans nest: a span started inside
    another records the enclosing names as its [path]. *)
module Span : sig
  val timed : name:string -> (unit -> 'a) -> 'a * float
  (** Run the thunk inside a span and also return its duration, so
      callers can derive [runtime_s] from the same measurement that the
      trace records. The span is recorded even if the thunk raises. *)

  val with_ : name:string -> (unit -> 'a) -> 'a
  (** [timed] without the duration. *)
end

(** {1 Sinks} *)

type sink

val noop : sink
(** The default: collect aggregates, emit nothing. *)

val summary : Format.formatter -> sink
(** Pretty-prints span totals, counters and gauges on {!flush}. A
    counter is printed only if it was added to since the last {!reset}
    (adding 0 counts), so a run lists the counters of the code it ran
    and not the zeros of every other placer. *)

val jsonl : out_channel -> sink
(** Streams one JSON line per finished span; {!flush} appends counter
    and gauge lines and flushes the channel. The channel is not closed
    by this module. *)

val set_sink : sink -> unit

(** {1 Reading the collector} *)

val reset : unit -> unit
(** Zero all counters and gauges and drop recorded spans. Does not
    change the installed sink. *)

val span_total : string -> float
(** Summed duration of every finished span with this name since the
    last {!reset}; [0.] when none ran. *)

val span_count : string -> int

val spans : unit -> span list
(** Finished spans since the last {!reset}, in completion order. *)

val counters : unit -> (string * int) list
(** Current counter values, sorted by name. *)

val gauges : unit -> (string * float) list

val flush : unit -> unit
(** Emit the aggregate report through the installed sink. *)

(** {1 Parallel runs}

    The join protocol used by [Pool]: a worker runs each task under
    {!capture}, and the caller {!merge}s the returned snapshots in task
    order, so the merged collector state — and anything the sink emits
    — is identical whether the tasks ran serially or were stolen by
    other domains. *)

type snapshot
(** Everything one {!capture} recorded: span aggregates and trace,
    counter and gauge values. *)

val capture : (unit -> 'a) -> 'a * snapshot
(** Run the thunk against a fresh, empty collector (with a {!noop}
    sink) and return what it recorded; the calling domain's collector
    is untouched and restored afterwards, even on raise (the partial
    snapshot of a raising thunk is discarded). *)

val merge : snapshot -> unit
(** Fold a snapshot into the current domain's collector: counters add
    (a counter the snapshot touched counts as touched here too),
    span aggregates add, gauges are last-write-wins (unset gauges do
    not overwrite), and the captured spans are appended to the trace
    and replayed, oldest first, through the current sink. *)
