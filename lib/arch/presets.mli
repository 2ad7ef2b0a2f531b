(** Ready-made platforms for experiments and examples. *)

val default_dma : Dma.t
(** 24-cycle setup, two channels — a small data mover such as the one
    assumed by the paper's TE step. *)

val two_level : ?dma:bool -> onchip_bytes:int -> unit -> Hierarchy.t
(** One on-chip scratchpad of [onchip_bytes] over off-chip SDRAM.
    [dma] (default [true]) controls whether a transfer engine is
    present — without one, TE is not applicable. *)

val three_level :
  ?dma:bool -> l1_bytes:int -> l2_bytes:int -> unit -> Hierarchy.t
(** Two on-chip scratchpads (L1 closest) over off-chip SDRAM. *)

val multi_level : ?dma:bool -> level_bytes:int list -> unit -> Hierarchy.t
(** An arbitrary stack of on-chip scratchpads ([L1] closest, one per
    entry of [level_bytes]) over off-chip SDRAM — the platform a
    per-layer budget vector of the Pareto exploration names.
    @raise Mhla_util.Error.Error on an empty list or a non-positive
    budget. *)

val budget_grid : axes:int list list -> int list list
(** All per-layer budget vectors of a grid: [axes] lists the candidate
    sizes of each on-chip level (level 0 first). Each axis is deduped
    and sorted ascending; vectors come back in canonical order — the
    first axis varies slowest. This is the order the exploration folds
    frontiers in, which is what makes them independent of the worker
    count.
    @raise Mhla_util.Error.Error on an empty grid or a non-positive
    size. *)

val budget_axes : levels:int -> min_bytes:int -> max_bytes:int -> int list list
(** [levels] copies of {!sweep_sizes} — a uniform power-of-two grid.
    @raise Mhla_util.Error.Error when [levels <= 0] or the bounds are
    bad. *)

val sweep_sizes : min_bytes:int -> max_bytes:int -> int list
(** Power-of-two on-chip sizes from [min_bytes] to [max_bytes]
    inclusive, for trade-off exploration sweeps.
    @raise Mhla_util.Error.Error if the bounds are non-positive or out of
    order. *)
