(** One memory layer of the hierarchy.

    Energy is in picojoules per access, time in CPU cycles. The numbers
    are relative-scale models (see {!Energy_model}); the paper's
    conclusions rest on the on-chip/off-chip ratios, not on absolute
    joules. *)

type location = On_chip | Off_chip

type t = private {
  name : string;
  location : location;
  capacity_bytes : int option;
      (** [None] = unbounded (the off-chip backing store) *)
  read_energy_pj : float;
  write_energy_pj : float;
  latency_cycles : int;  (** stall cycles for one CPU-issued access *)
  bandwidth_bytes_per_cycle : int;
      (** sustained burst bandwidth for block transfers *)
  burst_energy_factor : float;
      (** energy of one element moved in a block transfer relative to a
          random CPU access ([0 < f <= 1]); DRAM bursts amortise row
          activation, so the off-chip layer has [f < 1] *)
}

val make :
  burst_energy_factor:float ->
  name:string ->
  location:location ->
  capacity_bytes:int option ->
  read_energy_pj:float ->
  write_energy_pj:float ->
  latency_cycles:int ->
  bandwidth_bytes_per_cycle:int ->
  t
(** @raise Mhla_util.Error.Error on a non-positive capacity, energy,
    latency or bandwidth. *)

val burst_read_energy_pj : t -> float
(** Per-element read energy under block transfer. *)

val burst_write_energy_pj : t -> float

val pp : t Fmt.t
