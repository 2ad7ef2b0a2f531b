(** Seeded random generator of valid MHLA programs.

    Every program is a loop nest built on {!Mhla_ir.Build} with affine
    subscripts over the enclosing iterators, and is {e in-bounds by
    construction}: array extents are derived from the subscripts'
    maxima, so the program validates, interprets without out-of-bounds
    events and solves without capacity surprises beyond the ones the
    difficulty profile asks for. Generation is fully deterministic in
    the seed ({!Mhla_util.Prng}), which is what makes [mhla fuzz
    --replay SEED] and the shrinker's byte-identical minima possible.

    The generator exists to break the over-fitting loop of validating
    the solver stack only against the nine hand-written registry
    applications: [mhla fuzz] feeds these programs through the full
    pipeline and the {!Mhla_sim.Crosscheck} differentials. *)

(** The difficulty shape of a generated program.

    - [Reuse_rich]: subscripts prefer {e outer} iterators (or are
      constant), so inner loops re-touch the same elements — many
      profitable copy candidates, the greedy has real decisions to
      make.
    - [Capacity_tight]: long trips, wide coefficients and multi-byte
      elements blow up footprints while [mhla fuzz] budgets only a
      small fraction of the total array bytes — the occupancy and
      capacity machinery runs at its limit.
    - [Te_hostile]: deep nests whose statements write an array another
      statement then reads, through subscripts over the {e innermost}
      iterators — freedom-loop recomputation and the DMA-race checker
      get dependence chains the registry apps rarely exhibit.
    - [Mixed]: resolves to one of the three per seed. *)
type profile = Reuse_rich | Capacity_tight | Te_hostile | Mixed

val all_profiles : (string * profile) list
(** CLI-facing [(name, profile)] pairs: ["reuse-rich"],
    ["capacity-tight"], ["te-hostile"], ["mixed"]. *)

val profile_name : profile -> string

(** One generated fuzz case: the program plus the budget the
    differential driver solves it under. *)
type case = {
  seed : int64;
  requested : profile;  (** what the caller asked for *)
  resolved : profile;  (** [Mixed] resolved per seed; otherwise equal *)
  program : Mhla_ir.Program.t;
  onchip_bytes : int;  (** {!budget_for} of the resolved profile *)
}

val budget_for : profile:profile -> Mhla_ir.Program.t -> int
(** The on-chip budget a program is fuzzed under: a profile-dependent
    fraction of the total declared array bytes ([Capacity_tight] ≈
    12 %, [Te_hostile] ≈ 35 %, [Reuse_rich] ≈ 55 %), at least 24 B.
    Pure in the program — the shrinker re-derives it per candidate, so
    a shrunk counterexample replays under its own natural budget. *)

val case : profile:profile -> seed:int64 -> unit -> case
(** Deterministic: equal arguments yield byte-identical programs. The
    resolved profile biases the size and shape bounds (e.g.
    [Capacity_tight] widens trips and coefficients). *)
