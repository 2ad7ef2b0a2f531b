(** Structured telemetry for the solver stack: nested spans, typed
    counters/gauges and key/value events, recorded against a monotonic
    clock.

    The whole library is instrumented against this one seam. A sink is
    either {!noop} — the default everywhere, guaranteed free of
    observable effect: no events, no allocation beyond the call itself,
    results byte-identical to an uninstrumented run — or an in-memory
    {!collector} that records every event for later export
    ({!Trace_export} renders Chrome [trace_event] JSON and a flat
    counters summary).

    Concurrency: a collector is single-owner mutable state. Parallel
    code gives each worker domain its own {!child} sink and folds them
    back with {!merge_children} after joining — the merge is
    deterministic in the order of the child list, never in worker
    interleaving. *)

(** Typed payload values carried by events. *)
type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Span_begin  (** opening of a nested span *)
  | Span_end  (** closing of the innermost open span *)
  | Instant  (** a point event *)
  | Counter
      (** monotonically accumulated; the event carries the new total of
          the sink that recorded it (a worker {!child}'s own, not the
          merged one) *)
  | Gauge  (** last-write-wins level; the event carries the new value *)

type event = {
  seq : int;  (** per-sink sequence number, dense from 0 *)
  ts_ns : int;
      (** nanoseconds since the sink's epoch; never decreases within a
          sink (the clock is clamped monotone) *)
  tid : int;  (** logical track: 0 = owner, workers get their own *)
  kind : kind;
  cat : string;  (** category, e.g. ["engine"], ["sweep"] ([""] = none) *)
  name : string;
  args : (string * value) list;
}

type t
(** A telemetry sink. *)

val noop : t
(** The disabled sink. Every operation on it is a single tag test. *)

val enabled : t -> bool
(** [false] exactly for {!noop}. Hot paths may use it to skip argument
    preparation entirely; the [?args] thunks below are never forced on
    a disabled sink anyway. *)

val collector :
  ?clock:(unit -> int) ->
  ?tid:int ->
  ?on_event:(event -> unit) ->
  unit ->
  t
(** An in-memory recording sink. [clock] returns absolute nanoseconds
    (default: [CLOCK_MONOTONIC]; any clock is clamped monotone per sink);
    the sink's epoch is the clock value at creation, so [ts_ns] starts
    near 0. [on_event] is a live tap invoked synchronously on every
    recorded event (the CLI's [--debug] stream); merged child events
    pass through the tap at merge time. *)

val child : t -> tid:int -> t
(** A fresh sink for one worker domain: same clock and epoch as the
    parent (so timestamps align), its own event buffer and counter
    table, no live tap. [child noop] is {!noop}. The child must be
    handed back to {!merge_children} by the thread that owns the
    parent. *)

val merge_children : t -> t list -> unit
(** Fold worker sinks back into the parent, in list order: events are
    appended with fresh parent sequence numbers (keeping their [ts_ns]
    and [tid]), counters are summed, gauges keep the last merged value.
    Deterministic given the list order. Children must not be used
    afterwards. No-op on {!noop}. *)

val span : t -> ?cat:string -> ?args:(unit -> (string * value) list) -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span: a [Span_begin] before, a
    [Span_end] after — also on exception, closing any inner spans [f]
    abandoned so the event stream stays well-formed. On {!noop} this is
    exactly [f ()]. *)

val span_begin :
  t -> ?cat:string -> ?args:(unit -> (string * value) list) -> string -> unit
(** Explicit open, for spans that cannot wrap a closure. Pair with
    {!span_end}. *)

val span_end : t -> string -> unit
(** Close the innermost open span, which must carry exactly this name.
    @raise Mhla_util.Error.Error ([Internal]) on a mismatched or
    unopened close — the well-formedness invariant is enforced, not
    assumed. *)

val instant :
  t -> ?cat:string -> ?args:(unit -> (string * value) list) -> string -> unit
(** A point event. The [args] thunk is only forced on an enabled sink. *)

val count : t -> ?cat:string -> string -> int -> unit
(** [count t name d] adds [d] to counter [name] and records a [Counter]
    event carrying the new total. *)

val gauge : t -> ?cat:string -> string -> float -> unit
(** [gauge t name v] sets gauge [name] to [v] and records a [Gauge]
    event. Counters and gauges share one namespace per sink. *)

val events : t -> event list
(** Everything recorded so far, in sequence order. [[]] on {!noop}. *)

val counter_values : t -> (string * float) list
(** Final counter/gauge values, sorted by name. [[]] on {!noop}. *)

val open_spans : t -> string list
(** Names of currently open spans, innermost first. [[]] on {!noop}. *)

val kind_label : kind -> string
(** ["B"], ["E"], ["i"], ["C"] — the Chrome trace phase letters, also
    used by the CLI's live event printer. *)

val pp_event : event Fmt.t
(** One-line rendering: [\[cat\] PH name k=v k=v @ts]. *)
