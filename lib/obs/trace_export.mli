(** Exporters for {!Telemetry} sinks.

    Two renderings, both over {!Mhla_util.Json}: the Chrome
    [trace_event] format (load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}) and a flat counters summary.
    The trace object also embeds the counters under
    [otherData.counters], so one [--trace] file carries both. *)

val event_to_json : Telemetry.event -> Mhla_util.Json.t
(** One Chrome trace event: [ph] from the kind ([B]/[E]/[i]/[C]), [ts]
    in microseconds, [pid] 1, [tid] from the event, payload under
    [args]. *)

val to_json : Telemetry.t -> Mhla_util.Json.t
(** The whole trace:
    [{"traceEvents": [...], "displayTimeUnit": "ms",
      "otherData": {"counters": {...}}}], the counters a flat object
    of final counter/gauge values, keys sorted. *)

val write : out_channel -> Telemetry.t -> unit
(** Stream {!to_json} to a channel ({!Mhla_util.Json.to_channel}; no
    whole-trace string is built) followed by a newline. *)
