(** The chaos soak: hammer one {!Service.t} with a seeded mix of good,
    hostile, and broken requests and check the isolation invariants.

    Each run drives [requests] submissions drawn deterministically from
    the seed:

    - well-formed generator programs ({!Mhla_gen.Generate}) under their
      natural budget, [fault_permille] of them with a seeded
      {!Mhla_sim.Faults} robustness rider;
    - poisoned requests ([inject = Raise]) that crash the worker
      mid-request (a fixed 50‰);
    - zero-deadline requests that must time out deterministically (a
      fixed 30‰);
    - malformed JSON (truncations, bad escapes, plain garbage),
      [malformed_permille] of them;
    - oversized payloads beyond the service's request-byte cap (a
      fixed 20‰).

    Invariants checked, each violation a sentence in [violations]:

    + the process survives (trivially, by returning at all);
    + exactly one response per submission, in submission order;
    + every ok response is bit-identical (rendered JSON, robustness
      rider included) to a fresh {!Service.run_job} of the same
      request outside the pool, rendered by {!Service.render};
    + poisoned requests answer [error]/[exception], zero-deadline
      requests answer [timeout], malformed answer [error]/[json-parse],
      oversized answer [error]/[oversized] — never a crash, never a
      dropped request. *)

type config = {
  requests : int;
  seed : int;
  jobs : int;
  queue_depth : int;
  fault_permille : int;  (** share carrying a robustness rider *)
  malformed_permille : int;
  telemetry : Mhla_obs.Telemetry.t;
}

val default_config : config
(** 200 requests, seed 42, 2 jobs, depth 8, 100‰ faults, 50‰
    malformed, noop telemetry. *)

type outcome = {
  summary : Service.summary;
  checked_identical : int;  (** ok responses replayed and compared *)
  violations : string list;  (** empty = every invariant held *)
}

val lines : config -> string list
(** The exact raw JSONL lines {!run} would submit for this config, in
    submission order — what `mhla soak --emit-jsonl` prints so the CI
    gate can feed the identical chaos mix through `mhla batch`. *)

val run : ?config:config -> unit -> outcome

val ok : outcome -> bool

val to_json : outcome -> Mhla_util.Json.t

val pp : outcome Fmt.t
