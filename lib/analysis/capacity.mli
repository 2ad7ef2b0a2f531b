(** Layer-capacity checker.

    Recomputes every on-chip layer's peak occupancy from first
    principles: the program-order timeline
    ({!Mhla_lifetime.Schedule.of_program}), the lifetime interval and
    buffer size of every placed copy (shared buffers appear once, over
    the hull of their sharers' lifetimes) and of every promoted array,
    {e plus} the extra double buffers every granted Time-Extension loop
    keeps alive — then folds them through
    {!Mhla_lifetime.Occupancy.peak_bytes} under the mapping's sizing
    policy (the one both solver steps sized under) and flags any layer
    whose peak exceeds its capacity (the user constraint both solver
    steps promised to respect).

    Needs the mapping; the schedule is optional (no TE buffers without
    it).

    Code: [MHLA201]. *)

val pass : Pass.t

val recomputed_peaks :
  ?schedule:Mhla_core.Prefetch.schedule ->
  Mhla_core.Mapping.t ->
  (int * int) list
(** [(level, peak_bytes)] for every on-chip level — exposed for tests
    and the [--mutate capacity] self-test. *)
