(** Deterministic splitmix64 pseudo-random number generator.

    Everything in this repository that needs randomness (workload
    generators, property tests that pre-generate data, jitter in
    synthetic traces) goes through this module with an explicit seed so
    results are reproducible across runs and machines. *)

type t

val create : seed:int64 -> t

val copy : t -> t
(** An independent generator with the same internal state. *)

val next_int64 : t -> int64
(** The next raw 64-bit output. Advances the state. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)].
    @raise Error.Error if [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [\[lo, hi\]].
    @raise Error.Error if [hi < lo]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** A uniformly random element.
    @raise Error.Error on the empty list. *)
