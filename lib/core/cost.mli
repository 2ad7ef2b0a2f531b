(** Analytic cost engine: cycles and energy of a mapping.

    Implements the paper's evaluation model: only accesses to the
    memory hierarchy (plus the statements' declared compute work)
    count. Execution time = compute + per-access stalls + block-
    transfer stalls + DMA programming; energy = per-access energy +
    transfer traffic energy + DMA control energy. Time Extensions
    reduce only the block-transfer stall term; energy is unchanged —
    exactly the paper's observation about Figures 2 and 3. *)

type breakdown = {
  compute_cycles : int;
  access_stall_cycles : int;  (** CPU-issued loads/stores *)
  transfer_stall_cycles : int;  (** block transfers not hidden by TE *)
  dma_setup_cycles : int;  (** CPU cycles programming the engine *)
  total_cycles : int;
  access_energy_pj : float;
  transfer_energy_pj : float;
  dma_energy_pj : float;
  total_energy_pj : float;
}

val bt_cycles_per_issue : Mapping.t -> Mapping.block_transfer -> int
(** The hideable time of one issue of a block transfer: source latency
    plus the burst time at the slower of the two ports. DMA setup is
    not included — the CPU always pays it. *)

(** {2 Per-unit contributions}

    The cost of a mapping is a sum of independent per-access and
    per-block-transfer terms. {!evaluate} folds the two functions below
    over every unit; the incremental {!Engine} caches them per unit and
    re-computes only the units a move touched. Both engines therefore
    perform {e bit-identical} float operations in the same order — the
    invariant that lets the engine reproduce the oracle exactly. *)

val access_contribution :
  Mapping.t -> level:int -> Mhla_reuse.Analysis.info -> int * float
(** [(stall_cycles, energy_pj)] of one access when its CPU loads/stores
    are served by [level]. Uses the mapping only for the hierarchy. *)

val bt_contribution :
  ?hidden:int ->
  dma:Mhla_arch.Dma.t option ->
  Mapping.t ->
  Mapping.block_transfer ->
  int * int * float * float
(** [(stall, dma_setup, transfer_energy_pj, dma_energy_pj)] of one
    block transfer; [hidden] cycles of each issue (clamped to the issue
    time, default 0) are overlapped with compute. Uses the mapping only
    for the hierarchy; [dma] is the platform's engine, if any. *)

val evaluate : ?hidden_per_issue:(string -> int) -> Mapping.t -> breakdown
(** [hidden_per_issue bt_id] is how many cycles of each issue of that
    transfer are overlapped with computation (from the TE step);
    defaults to no hiding. Hiding is clamped to the issue time. *)

val ideal : Mapping.t -> breakdown
(** Every block transfer fully hidden — the paper's "0 wait cycles
    block transfer time" bound that TE pushes towards. *)

val lower_bound :
  infos:Mhla_reuse.Analysis.info list ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  int * float
(** [(cycles_floor, energy_floor)]: a bound no mapping of [program]
    onto [hierarchy] can beat — compute plus every access served at
    the cheapest layer's latency (resp. energy), with zero transfer,
    stall and DMA cost. Because the SRAM model's latency and energy
    grow with capacity, the bound is {e monotone} in the hierarchy's
    layer capacities: the floor of a budget box's min corner bounds
    every point in the box, which is what lets the branch-and-bound
    of {!Explore.pareto} prune whole regions soundly. *)

(** What the assignment step minimises. *)
type objective = Energy | Cycles | Energy_delay

val scalar : objective -> breakdown -> float

val scalar_of :
  objective -> total_cycles:int -> total_energy_pj:float -> float
(** [scalar] of a breakdown with these totals, for callers that hold
    the totals without a breakdown record. *)

val pp_objective : objective Fmt.t

val loop_iteration_cycles : Mapping.t -> iter:string -> int
(** Compute + access-stall cycles of {e one} iteration of the loop
    with iterator [iter] (block-transfer stalls excluded): the CPU work
    available to hide a prefetch extended across that loop, Figure 1's
    [compute_loop_cycles].
    @raise Mhla_util.Error.Error for an unknown iterator. *)

val pp_breakdown : breakdown Fmt.t
