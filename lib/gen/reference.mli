(** From-scratch reference searches: the tests' independent references
    for {!Mhla_core.Assign}.

    Each search here is a plain loop over {!Mhla_core.Assign.moves},
    {!Mhla_core.Assign.apply_move}, {!Mhla_core.Mapping.occupancy_ok}
    and {!Mhla_core.Cost.evaluate}: every candidate is built as a mapping
    and costed in full, with no incremental engine, no move table and no
    loop shared with the production searches. [greedy] and
    [simulated_annealing] probe the same moves in the same order and
    compare values the same way as their {!Mhla_core.Assign}
    counterparts, so a correct production search returns exactly the
    reference's result — mapping, steps, breakdown and [evaluations] —
    which is what the test suite and the fuzz battery's ["engine"]
    check assert. Every result has [probes = evaluations], zero
    cache traffic and no staged check. *)

val greedy :
  ?config:Mhla_core.Assign.config ->
  ?first_improvement:bool ->
  ?reuse:Mhla_core.Mapping.reuse ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  Mhla_core.Assign.result
(** Steepest descent (or, with [first_improvement], first-improving
    descent) from the all-off-chip mapping, as
    {!Mhla_core.Assign.greedy} specifies it: each round applies every
    move, costs each feasible one from scratch, and commits the best
    strict improvement (ties to the earliest move). *)

val simulated_annealing :
  ?config:Mhla_core.Assign.config ->
  ?reuse:Mhla_core.Mapping.reuse ->
  ?seed:int64 ->
  ?iterations:int ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  Mhla_core.Assign.result
(** {!Mhla_core.Assign.simulated_annealing}'s walk with every feasible
    move costed from scratch: the same defaults, the same pseudo-random
    draws ([Prng.pick] over [Assign.moves], the acceptance draw only for
    a non-improving move) and the same cooling schedule. *)

val exhaustive :
  ?config:Mhla_core.Assign.config ->
  ?reuse:Mhla_core.Mapping.reuse ->
  max_states:int ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  (Mhla_core.Assign.result, string) Stdlib.result
(** Full enumeration over access placements (no array promotion), used
    to measure the greedy's optimality gap on small instances (tests and
    the EXT-GREEDY ablation). [Error] when the state count exceeds
    [max_states]. *)
