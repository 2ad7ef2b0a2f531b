(** The memory energy/latency model.

    Substitution note (see DESIGN.md §2): the authors used vendor
    datasheet numbers inside ATOMIUM. We use a CACTI-style analytic
    model with fixed constants: an on-chip SRAM read costs
    5.5 pJ + 2.0 pJ per sqrt(KiB) of capacity (writes 1.1x that) at
    8 bytes/cycle, with one cycle of latency up to 8 KiB plus one per
    quadrupling; an off-chip SDRAM access costs 24 pJ and 8 cycles at
    1 byte/cycle, and a DMA burst pays 0.45x that per element. This
    gives an off-chip/on-chip energy ratio of roughly 10–25x for
    realistic scratchpad sizes, matching what the MHLA papers report
    for 130 nm-era platforms. *)

val sram_layer : name:string -> capacity_bytes:int -> Layer.t
(** An on-chip scratchpad layer of the given capacity.
    @raise Mhla_util.Error.Error on a non-positive capacity. *)

val sdram_layer : name:string -> Layer.t
(** The unbounded off-chip layer. *)

val sram_read_energy_pj : capacity_bytes:int -> float

val sram_latency_cycles : capacity_bytes:int -> int
