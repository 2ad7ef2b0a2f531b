(** Deterministic fault models for the DMA pipeline simulator.

    Real platforms do not deliver the nominal transfer latency every
    time: bus contention jitters it and transient errors force
    retries. This module describes those disturbances as pure data
    plus deterministic sampling functions, so that
    {!Pipeline.run_faulty} replays the exact same fault trace for a
    given seed — reproducible robustness experiments, not Monte Carlo
    noise.

    Sampling is keyed on [(transfer, attempt)] rather than on a shared
    mutable generator, so the outcome of one transfer never depends on
    how many random draws earlier transfers consumed. *)

(** Extra latency added to a transfer attempt on top of the nominal
    [transfer_cycles]. *)
type jitter =
  | No_jitter
  | Uniform of { max_extra_cycles : int }
      (** uniform in [\[0, max_extra_cycles\]] per attempt *)

type t = {
  seed : int64;  (** root of every random draw *)
  jitter : jitter;
  failure_permille : int;
      (** per-attempt probability (in 1/1000) that the transfer
          completes corrupt and must be retried *)
  max_retries : int;
      (** retries after the first attempt; each waits
          {!backoff_cycles} *)
  deadline_patience : int option;
      (** [Some d]: a consumer that would stall more than [d] cycles
          on a pending transfer abandons it and refetches
          synchronously. [None] (default): wait forever. *)
}

val none : t
(** The zero model: no jitter, no failures, no retries, no deadline.
    {!Pipeline.run} is {!Pipeline.run_faulty} under [none]. *)

val make :
  ?jitter:jitter ->
  ?failure_permille:int ->
  ?max_retries:int ->
  ?deadline_patience:int ->
  seed:int64 ->
  unit ->
  t
(** Defaults are the [none] fields, except [max_retries = 3] as retry
    policy once faults are enabled.
    @raise Mhla_util.Error.Error on out-of-range parameters. *)

val validate : t -> unit
(** @raise Mhla_util.Error.Error if [failure_permille] is outside
    [0..1000] or any count is negative. *)

val jitter_cycles : t -> transfer:int -> attempt:int -> int
(** Extra latency sampled for this attempt. Deterministic in
    [(seed, transfer, attempt)]. *)

val attempt_fails : t -> transfer:int -> attempt:int -> bool
(** Whether this attempt completes corrupt. Deterministic in
    [(seed, transfer, attempt)]; independent of {!jitter_cycles}. *)

val backoff_cycles : attempt:int -> int
(** Idle wait inserted before retrying after failed [attempt]:
    [min 64 (4 * 2^attempt)] cycles. *)

val pp : t Fmt.t
