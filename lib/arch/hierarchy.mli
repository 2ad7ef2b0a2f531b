(** Multi-layer memory hierarchies.

    Level 0 is the layer closest to the CPU (smallest, cheapest per
    access); the last level is the unbounded off-chip backing store
    where every array initially lives ("out-of-the-box" placement).
    Copy candidates move data toward level 0. *)

type t = private { layers : Layer.t list; dma : Dma.t option }

val make : ?dma:Dma.t -> Layer.t list -> t
(** Layers ordered from closest (level 0) to farthest. Validated:
    non-empty; exactly the last layer unbounded and off-chip; all other
    layers bounded and on-chip.
    @raise Mhla_util.Error.Error when the shape is wrong. *)

val levels : t -> int

val layer : t -> int -> Layer.t
(** @raise Mhla_util.Error.Error on an out-of-range level. *)

val main_memory_level : t -> int
(** The index of the off-chip layer ([levels t - 1]). *)

val on_chip_levels : t -> int list
(** All levels except the off-chip one, innermost first. *)

val has_dma : t -> bool

val dma_exn : t -> Dma.t
(** @raise Mhla_util.Error.Error when the platform has no transfer engine. *)

val pp : t Fmt.t
