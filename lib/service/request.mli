(** One solve request of the JSON wire format.

    A request names everything one [mhla run] invocation would take:
    the program (see {!Mhla_ir.Json_codec} for its payload shape), the
    platform, the objective/transfer-mode/search knobs, and the
    service-level controls — a per-request deadline, an optional DMA
    fault model to stress the TE schedule with after solving, and the
    chaos-only [inject] hook the soak harness uses to prove fault
    isolation.

    Wire shape (only [id], [program] and [arch] are mandatory):

    {v
    { "id": "req-0",
      "program": { ... },
      "arch": { "onchip_bytes": 2048, "dma": true },
      "objective": "energy-delay",          // energy | cycles | energy-delay
      "mode": "delta",                      // delta | full
      "search": { "kind": "anneal", "seed": 42, "iterations": 4000 },
      "deadline_ms": 250,
      "faults": { "seed": 7, "jitter": 8, "failure_permille": 20,
                  "trials": 8 } }
    v}

    The search's ["iterations"] default to 4000 and the faults
    rider's ["trials"] to 4, its ["jitter"] and ["failure_permille"]
    to 0; {!make} lists every value range. Only an ["anneal"] search
    takes ["seed"] and ["iterations"]: either one on a ["greedy"] or
    ["first-improvement"] search, like any field a search does not
    know, is a decode error, not ignored.

    A three-level platform instead:
    [{ "arch": { "l1_bytes": 512, "l2_bytes": 4096, "dma": true } }],
    and a platform of any depth:
    [{ "arch": { "level_bytes": [512, 4096, 32768], "dma": true } }].

    Setting ["mode": "pareto"] turns the request into a budget-vector
    frontier exploration instead of a single solve: the mandatory
    ["grid"] field names one ascending size axis per on-chip level
    (see {!Mhla_core.Explore.pareto}), and the response payload is the
    frontier plus search stats (see {!Service.run_request}). A pareto
    request cannot carry a transfer-mode override (the ["mode"] field
    is taken) nor a ["faults"] rider — those apply to single solves.

    {v
    { "id": "req-1",
      "program": { ... },
      "arch": { "level_bytes": [2048, 16384], "dma": true },
      "mode": "pareto",
      "grid": [[512, 1024, 2048], [4096, 16384]],
      "deadline_ms": 2000 }
    v}

    Setting ["mode": "portfolio"] races a field of named policies (see
    {!Mhla_policy.Registry}) over the same solve and answers with the
    best finisher; the optional ["policies"] array picks the field
    (default: greedy, greedy-first, anneal). A portfolio conflicts with
    ["search"]: each raced policy fixes its own. A single solve may
    instead carry ["policy": "name"] to run under one named policy; it
    conflicts with ["search"] too, which the policy already fixes.
    Either conflict is a decode error whatever the search names, even
    the default greedy. All names resolve through
    {!Mhla_policy.Registry}, so the wire accepts exactly the spellings
    the CLI does and rejects unknown ones at decode time; [policy]
    holds the resolved {!Mhla_policy.Policy.t}, not the name.

    {v
    { "id": "req-2",
      "program": { ... },
      "arch": { "onchip_bytes": 2048 },
      "mode": "portfolio",
      "policies": ["greedy", "anneal", "lean"] }
    v}

    {b In memory only.} {!make} also builds requests the wire cannot
    spell, for callers that never serialise them (the CLI):
    - a transfer mode on a [Portfolio] or [Simulate] kind (the wire's
      ["mode"] field already holds the kind);
    - a [policy] outside the registry, such as one built with
      {!Mhla_policy.Policy.make};
    - an anneal or fault seed outside OCaml's 63-bit [int], which a
      JSON integer cannot hold.

    {!to_json} raises on all three rather than silently drop them. *)

type arch =
  | Two_level of { onchip_bytes : int; dma : bool }
  | Three_level of { l1_bytes : int; l2_bytes : int; dma : bool }
  | Multi_level of { level_bytes : int list; dma : bool }
      (** innermost level first; must name at least one level *)

(** What the request asks for: one solve, a whole budget-vector
    frontier ([axes] is one ascending size axis per on-chip level, fed
    to {!Mhla_core.Explore.pareto}), a policy race ([policies] are
    registry names, fed to {!Mhla_policy.Portfolio.race}), or a solve
    followed by the discrete-event DMA/bus cross-validation
    ({!Mhla_sim.Crosscheck.check_event}; [channels]/[queue_depth]
    override the hierarchy-derived simulator config — wire fields
    ["channels"]/["queue_depth"], valid only with
    ["mode": "simulate"]). *)
type kind =
  | Solve
  | Pareto of { axes : int list list }
  | Portfolio of { policies : string list }
  | Simulate of { channels : int option; queue_depth : int option }

(** Chaos hooks, deliberately undocumented on the wire: [Raise] makes
    the worker raise a bare exception mid-request — the poisoned
    request CI uses to prove one crash cannot take down a batch. *)
type inject = No_inject | Raise

type fault_spec = {
  faults : Mhla_sim.Faults.t;
  trials : int;  (** robustness trials to run after the solve *)
}

type t = {
  id : string;
  program : Mhla_ir.Program.t;
  arch : arch;
  kind : kind;
  objective : Mhla_core.Cost.objective;
  transfer_mode : Mhla_reuse.Candidate.transfer_mode;
  search : Mhla_core.Explore.search;
  policy : Mhla_policy.Policy.t option;
      (** run the solve under this policy, resolved from its name when
          decoded; [Solve] and [Simulate] only, mutually exclusive with
          an explicit [search] *)
  deadline_ms : int option;  (** [None]: the service default applies *)
  fault_spec : fault_spec option;
  inject : inject;
}

val make :
  ?kind:kind ->
  ?objective:Mhla_core.Cost.objective ->
  ?transfer_mode:Mhla_reuse.Candidate.transfer_mode ->
  ?search:Mhla_core.Explore.search ->
  ?policy:Mhla_policy.Policy.t ->
  ?deadline_ms:int ->
  ?fault_spec:fault_spec ->
  ?inject:inject ->
  id:string ->
  arch:arch ->
  Mhla_ir.Program.t ->
  t
(** Defaults: a single solve, energy-delay, delta transfers, greedy
    search, no policy, no deadline, no faults, no injection. {!of_json}
    applies the same rules, so the wire and in-memory callers reject
    the same values and conflicts with the same text.
    @raise Mhla_util.Error.Error ([Invalid_input]) on a value out of
    range, as ["Json_codec: <wire path>: <message>"] at the leaf's path
    (["$.grid[1][0]: sizes must be > 0 (got -1)"]): an arch or grid
    size not > 0; an empty [level_bytes], grid or axis; [channels],
    [queue_depth], anneal [iterations] or rider [trials] below 1; a
    negative [deadline_ms] or uniform jitter; a [failure_permille]
    outside 0..1000.
    @raise Mhla_util.Error.Error ([Invalid_input]) when a [Pareto]
    kind carries a non-default transfer mode or a fault rider, or its
    axis count differs from the arch's on-chip level count; when a
    [Portfolio] kind is empty, names an unknown policy, or carries a
    fault rider, a [policy] or an explicit [search]; when a
    [Simulate] kind carries a fault rider; or when [policy] is set on a
    [Pareto] kind or combined with an explicit [search] (even
    [Greedy]). *)

val hierarchy : t -> Mhla_arch.Hierarchy.t
(** The {!Mhla_arch.Presets} platform the request names. *)

val dma : t -> bool
(** The arch's DMA flag, whichever variant carries it. *)

val to_json : t -> Mhla_util.Json.t
(** Optional knobs at their defaults are omitted; [of_json ∘ to_json]
    is the identity on every request it renders.
    @raise Mhla_util.Error.Error ([Invalid_input]) on an in-memory-only
    request (see above). *)

val of_json : Mhla_util.Json.t -> t
(** Decoded on {!Mhla_ir.Json_codec}'s kit, program and envelope
    alike, then checked by {!make}'s rules with its text.
    @raise Mhla_util.Error.Error ([Invalid_input]) on a malformed
    payload or a value out of range as ["Json_codec: <path>: <message>"]
    (["$.budget: unknown field ..."], ["$.arch.level_bytes[1]: sizes
    must be > 0 (got 0)"]); on a conflict {!make} also rejects, or an
    unknown search or policy name, with the context
    ["Request.of_json"]. *)

val id_of_json : Mhla_util.Json.t -> string option
(** Salvage the [id] of a document that may not decode fully, so even
    the error response for a half-broken request names the request it
    answers. *)

val equal : t -> t -> bool
(** Wire-level equality: both render to the same JSON (so it raises
    like {!to_json}). *)
