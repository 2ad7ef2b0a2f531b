(** Cycle-level simulation of one prefetch pipeline.

    The analytic cost engine ({!Mhla_core.Cost}) charges a block
    transfer [issues * max(0, time - hidden)] stall cycles. This module
    replays the same stream iteration by iteration — CPU iterations
    consuming buffers, a DMA engine filling them [lookahead] iterations
    ahead — and measures the stalls that actually occur, including the
    cold start and DMA serialisation the analytic model ignores.
    Agreement within the cold-start bound is the EXT-XVAL experiment.

    There is one issue/consume loop, {!run_faulty}; {!run} is that loop
    under {!Faults.none}. {!Event.run} models the same stream
    independently and is checked against it. *)

(** One block-transfer stream, the input of both simulators: [issues]
    transfers consumed one per iteration, [lookahead] iterations of
    prefetch distance, [setup_cycles] of CPU work per issue,
    [compute_cycles] of CPU work per iteration. The DMA channel count
    is not part of the stream: {!run} takes it as an argument,
    {!Event.run} from its config. *)
type stream = {
  issues : int;  (** transfers in the stream (refresh-loop trip) *)
  bytes_per_issue : int;
      (** payload per transfer; sizes {!Event} waitstate beats and is
          ignored here *)
  transfer_cycles : int;  (** DMA busy time per issue *)
  compute_cycles : int;  (** CPU work per iteration between uses *)
  lookahead : int;
      (** how many iterations ahead a transfer is initiated; [0] =
          synchronous (no TE) *)
  setup_cycles : int;  (** CPU-paid DMA programming per issue *)
}

val validate_stream : context:string -> stream -> unit
(** @raise Mhla_util.Error.Error (under [context]) on [issues <= 0] or
    a negative field. *)

type outcome = {
  total_cycles : int;  (** makespan of the whole stream *)
  stall_cycles : int;  (** CPU cycles spent waiting on transfers *)
  dma_busy_cycles : int;
}

type fault_outcome = {
  fault_result : outcome;  (** cycles as measured under faults *)
  retries : int;  (** re-issued attempts after a corrupt transfer *)
  fallbacks : int;
      (** iterations that degraded to a synchronous refetch, either
          because retries were exhausted or the transfer missed the
          [deadline_patience] window *)
  failed_attempts : int;  (** corrupt transfer completions observed *)
  jitter_total_cycles : int;  (** extra latency injected across attempts *)
}

val run_faulty : Faults.t -> channels:int -> stream -> fault_outcome
(** Replay the stream on [channels] concurrent DMA channels, each
    transfer queued on the earliest-free one, with every DMA attempt
    filtered through the fault model: latency jitter stretches
    attempts, and failed attempts occupy their channel then retry
    after capped exponential backoff. When
    a transfer exhausts its retries — or outstays [deadline_patience] —
    the consuming iteration falls back to a synchronous refetch (setup
    + full transfer, all stall) instead of diverging. Deterministic in
    the fault seed.
    @raise Mhla_util.Error.Error on [issues <= 0], a negative
    parameter, [channels < 1] or an invalid fault model. *)

val run : channels:int -> stream -> outcome
(** [(run_faulty Faults.none ~channels s).fault_result]: the fault-free
    replay. *)

val analytic_stall : stream -> int
(** The tool's (Figure-1) stall arithmetic for the same stream:
    [issues * max 0 (transfer_cycles - lookahead * compute_cycles)].
    Accurate while the DMA channel keeps up (transfer <= compute); with
    a saturated channel it is optimistic — see {!steady_state_stall}. *)

val steady_state_stall : channels:int -> stream -> int
(** Steady-state stall of the simulated pipeline, cold start excluded.
    With no lookahead every issue stalls [transfer_cycles]. With
    lookahead [k], [min (k + 1) channels] transfers overlap, giving an
    effective service time of [floor (transfer / min (k + 1) channels)]
    per iteration against the CPU's [compute + setup]. {b Exact} for
    [channels = 1]; for more channels it is the work-conservation
    {b lower bound} — the simulator can stall somewhat more because
    issue and consumption phase against each other (the single-channel
    form is then an upper bound). *)
