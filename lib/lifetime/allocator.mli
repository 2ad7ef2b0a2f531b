(** Concrete scratchpad address allocation.

    {!Occupancy} answers "how many bytes does this layer need"; this
    module answers "at which byte offset does each buffer live". Two
    buffers may share addresses exactly when their lifetimes are
    disjoint — the executable form of the in-place optimisation, and
    what a code generator needs to emit real buffer definitions.

    The allocator is first-fit over address gaps, placing blocks in
    decreasing size order (classic DSA heuristic). The result is
    verified: no two blocks overlap in both time and address space. *)

type placement = {
  block : Occupancy.block;
  offset : int;  (** byte offset within the layer *)
}

type t = private {
  placements : placement list;  (** in input order *)
  high_water_bytes : int;  (** one past the highest used address *)
}

val allocate : capacity:int -> Occupancy.block list -> (t, string) result
(** [Error] when some block alone exceeds [capacity] or the heuristic
    cannot fit the set (note: the in-place peak is a lower bound; the
    heuristic may need slightly more in adversarial cases). *)

val conflicts : t -> (placement * placement) list
(** Pairs overlapping in both lifetime and address range — always [[]]
    for an allocator result; exposed so tests can verify independently. *)

val utilisation : t -> float
(** Peak concurrent bytes / high-water bytes: 1.0 means the allocation
    is as tight as the lifetime structure allows. *)
