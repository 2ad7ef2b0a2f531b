(** Pass registry and check driver.

    Runs the registered checker passes over a {!Pass.subject} and
    collects their diagnostics into a {!report}. Passes can be enabled
    ([?only]) or disabled ([?skip]) by name; every pass runs inside a
    telemetry span and bumps the [analysis.diagnostics] counter with
    what it found, so a traced [mhla check] shows where verification
    time goes.

    Every report is {e normalised}: diagnostics sorted under
    {!Diagnostic.compare_for_report} with exact duplicates collapsed,
    so the rendered output is byte-stable whatever order — or
    parallelism — produced the findings. *)

val passes : Pass.t list
(** The registry, in execution order: [bounds], [dma-race], [capacity],
    [interference], [determinism], [lints]. *)

val pass_names : string list

type report = private {
  subject : string;  (** the program's name *)
  diagnostics : Diagnostic.t list;  (** normalised: sorted, deduped *)
  passes_run : string list;
  suppressed : int;  (** findings removed by suppression rules *)
}

val normalize : Diagnostic.t list -> Diagnostic.t list
(** Sort under {!Diagnostic.compare_for_report} and collapse exact
    duplicates. *)

val run :
  ?only:string list ->
  ?skip:string list ->
  ?suppress:Suppress.t ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  Pass.subject ->
  report
(** [only] (default: all) restricts the registry to the named passes,
    [skip] then removes names; execution order is always registry
    order. [suppress] (default {!Suppress.empty}) drops matching
    findings, counting them in the report.
    @raise Mhla_util.Error.Error for a name not in the registry. *)

val check_result :
  ?suppress:Suppress.t ->
  Mhla_core.Explore.result ->
  report
(** {!run} on a solve's answer — its mapping and TE schedule, sized
    under the mapping's policy. [--verify-live] calls it on every
    answer, and the fuzz oracle's ["verifier-greedy"],
    ["verifier-anneal"] and ["policy"] checks on every generated
    program's. *)

val require : report -> unit
(** @raise Mhla_util.Error.Error (kind [Internal], context
    ["verify-live"]) when the report carries any error — a bad solver
    output becomes a structured failure instead of a silently wrong
    answer. *)

val promote_warnings : report -> report
(** The [--Werror] promotion applied to every diagnostic. *)

val errors : report -> Diagnostic.t list

val warnings : report -> Diagnostic.t list

val ok : report -> bool
(** No [Error]-severity diagnostics. *)

val pp_report : report Fmt.t
(** One line per diagnostic followed by a summary line. *)

val report_to_json : report -> Mhla_util.Json.t
