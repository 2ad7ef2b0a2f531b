(* Tests for MHLA step 1: move generation, greedy descent, and the
   exhaustive baseline. *)

module Build = Mhla_ir.Build
module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Engine = Mhla_core.Engine
module Mapping = Mhla_core.Mapping
module Occupancy = Mhla_lifetime.Occupancy
module Presets = Mhla_arch.Presets
module Reference = Mhla_gen.Reference

let conv ?(n = 16) () =
  let open Build in
  program "conv"
    ~arrays:
      [ array "image" [ n + 2; n + 2 ]; array "coeff" [ 3; 3 ];
        array "out" [ n; n ] ]
    [ loop "y" n
        [ loop "x" n
            [ loop "ky" 3
                [ loop "kx" 3
                    [ stmt "mac" ~work:4
                        [ rd "image" [ i "y" +$ i "ky"; i "x" +$ i "kx" ];
                          rd "coeff" [ i "ky"; i "kx" ];
                          wr "out" [ i "y"; i "x" ] ] ] ] ] ] ]

let cycles_config =
  { Assign.default_config with Assign.objective = Cost.Cycles }

(* One-off engine calls by move: resolve it, then use the handle. *)
let feasible_mv engine mv = Engine.feasible engine (Engine.resolve engine mv)

let probe_mv engine mv = Engine.probe engine (Engine.resolve engine mv)

let commit_mv engine mv = Engine.commit engine (Engine.resolve engine mv)

(* --- alternatives ----------------------------------------------------- *)

let test_alternatives_include_direct () =
  let m = Mapping.direct (conv ()) (Presets.two_level ~onchip_bytes:1024 ()) in
  let info = List.hd m.Mapping.infos in
  let alts = Assign.alternatives Assign.default_config m info in
  Alcotest.(check bool) "Direct first" true (List.hd alts = Mapping.Direct);
  Alcotest.(check bool) "has chain placements" true (List.length alts > 1)

let test_alternatives_chains_are_valid () =
  (* Every generated chain must be accepted by Mapping's validator. *)
  let h = Presets.three_level ~l1_bytes:256 ~l2_bytes:4096 () in
  let m = Mapping.direct (conv ()) h in
  List.iter
    (fun (info : Analysis.info) ->
      List.iter
        (fun p -> ignore (Mapping.with_placement m info.Analysis.ref_ p))
        (Assign.alternatives Assign.default_config m info))
    m.Mapping.infos

(* Chains are at most two links long. Three on-chip layers and three
   candidate levels would allow a three-link chain, so here the cap,
   not the platform, is what binds. *)
let test_alternatives_respect_chain_cap () =
  let h = Presets.multi_level ~level_bytes:[ 256; 1024; 4096 ] () in
  let m = Mapping.direct (conv ()) h in
  let info = List.hd m.Mapping.infos in
  let levels =
    List.sort_uniq compare
      (List.map (fun (c : Candidate.t) -> c.Candidate.level)
         (Analysis.useful_candidates info))
  in
  Alcotest.(check bool) "three candidate levels" true
    (List.length levels >= 3);
  let max_len =
    List.fold_left
      (fun acc -> function
        | Mapping.Direct -> acc
        | Mapping.Chain links -> max acc (List.length links))
      0
      (Assign.alternatives Assign.default_config m info)
  in
  Alcotest.(check int) "cap 2" 2 max_len

(* --- greedy ----------------------------------------------------------- *)

let test_greedy_improves_and_is_feasible () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let baseline = Cost.evaluate (Mapping.direct program h) in
  let result = Assign.greedy ~config:cycles_config program h in
  Alcotest.(check bool) "no worse than baseline" true
    (result.Assign.breakdown.Cost.total_cycles <= baseline.Cost.total_cycles);
  Alcotest.(check bool) "strictly better here" true
    (result.Assign.breakdown.Cost.total_cycles < baseline.Cost.total_cycles);
  Alcotest.(check bool) "feasible" true
    (Mapping.occupancy_ok result.Assign.mapping);
  Alcotest.(check bool) "steps recorded" true
    (List.length result.Assign.steps > 0);
  Alcotest.(check bool) "evaluations counted" true
    (result.Assign.evaluations > 0)

let test_greedy_steps_monotone () =
  let result =
    Assign.greedy ~config:cycles_config (conv ())
      (Presets.two_level ~onchip_bytes:512 ())
  in
  let rec decreasing = function
    | (a : Assign.step) :: (b :: _ as rest) ->
      a.Assign.objective_after > b.Assign.objective_after && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "objective strictly decreases" true
    (decreasing result.Assign.steps);
  List.iter
    (fun (s : Assign.step) ->
      Alcotest.(check bool) "positive gains" true (s.Assign.gain > 0.))
    result.Assign.steps

let test_greedy_deterministic () =
  let run () =
    let r =
      Assign.greedy (conv ()) (Presets.two_level ~onchip_bytes:512 ())
    in
    ( r.Assign.breakdown.Cost.total_cycles,
      List.map (fun (s : Assign.step) -> s.Assign.move) r.Assign.steps )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same outcome" true (a = b)

let word_conv () =
  (* Like [conv] but on 4-byte elements, so even a single-element
     buffer needs 4 bytes. *)
  let open Build in
  program "wconv"
    ~arrays:
      [ array ~element_bytes:4 "image" [ 18; 18 ];
        array ~element_bytes:4 "coeff" [ 3; 3 ];
        array ~element_bytes:4 "out" [ 16; 16 ] ]
    [ loop "y" 16
        [ loop "x" 16
            [ loop "ky" 3
                [ loop "kx" 3
                    [ stmt "mac" ~work:4
                        [ rd "image" [ i "y" +$ i "ky"; i "x" +$ i "kx" ];
                          rd "coeff" [ i "ky"; i "kx" ];
                          wr "out" [ i "y"; i "x" ] ] ] ] ] ] ]

let test_greedy_tiny_budget_stays_direct () =
  (* With a 1-byte scratchpad nothing fits (elements are 4 bytes);
     greedy must return the out-of-the-box mapping. *)
  let program = word_conv () in
  let h = Presets.two_level ~onchip_bytes:1 () in
  let result = Assign.greedy ~config:cycles_config program h in
  let baseline = Cost.evaluate (Mapping.direct program h) in
  Alcotest.(check int) "unchanged cost"
    baseline.Cost.total_cycles result.Assign.breakdown.Cost.total_cycles;
  Alcotest.(check int) "no steps" 0 (List.length result.Assign.steps)

let test_greedy_no_promotion_config () =
  let config = { cycles_config with Assign.allow_array_promotion = false } in
  let result =
    Assign.greedy ~config (conv ()) (Presets.two_level ~onchip_bytes:512 ())
  in
  Alcotest.(check (list (pair string int))) "no arrays promoted" []
    result.Assign.mapping.Mapping.array_layers

let test_greedy_energy_objective () =
  let config = { cycles_config with Assign.objective = Cost.Energy } in
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let baseline = Cost.evaluate (Mapping.direct program h) in
  let result = Assign.greedy ~config program h in
  Alcotest.(check bool) "energy no worse" true
    (result.Assign.breakdown.Cost.total_energy_pj
    <= baseline.Cost.total_energy_pj)

let test_greedy_sum_policy_feasible () =
  let config = { cycles_config with Assign.policy = Occupancy.Sum } in
  let result =
    Assign.greedy ~config (conv ()) (Presets.two_level ~onchip_bytes:512 ())
  in
  Alcotest.(check bool) "the mapping carries Sum" true
    (result.Assign.mapping.Mapping.policy = Occupancy.Sum);
  Alcotest.(check bool) "feasible under Sum" true
    (Mapping.occupancy_ok result.Assign.mapping)

(* --- exhaustive ------------------------------------------------------- *)

let small_conv () = conv ~n:4 ()

let test_exhaustive_matches_or_beats_greedy () =
  let program = small_conv () in
  let h = Presets.two_level ~onchip_bytes:128 () in
  let config =
    { cycles_config with Assign.allow_array_promotion = false }
  in
  let greedy = Assign.greedy ~config program h in
  match Reference.exhaustive ~config ~max_states:1_000_000 program h with
  | Error msg -> Alcotest.fail msg
  | Ok optimal ->
    Alcotest.(check bool) "optimal <= greedy" true
      (optimal.Assign.breakdown.Cost.total_cycles
      <= greedy.Assign.breakdown.Cost.total_cycles);
    Alcotest.(check bool) "greedy within 10% here" true
      (float_of_int greedy.Assign.breakdown.Cost.total_cycles
      <= 1.1 *. float_of_int optimal.Assign.breakdown.Cost.total_cycles)

let test_exhaustive_budget_guard () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  match Reference.exhaustive ~max_states:10 program h with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the state budget to trip"

let test_exhaustive_feasibility () =
  let program = small_conv () in
  let h = Presets.two_level ~onchip_bytes:64 () in
  let config =
    { cycles_config with Assign.allow_array_promotion = false }
  in
  match Reference.exhaustive ~config ~max_states:1_000_000 program h with
  | Error msg -> Alcotest.fail msg
  | Ok result ->
    Alcotest.(check bool) "result fits the 64-byte budget" true
      (Mapping.occupancy_ok result.Assign.mapping)

(* --- simulated annealing ----------------------------------------------- *)

let test_anneal_deterministic () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let run () =
    (Assign.simulated_annealing ~seed:7L ~iterations:500 program h)
      .Assign.breakdown.Cost.total_cycles
  in
  Alcotest.(check int) "same seed, same result" (run ()) (run ())

let test_anneal_feasible_and_never_worse () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let baseline = Cost.evaluate (Mapping.direct program h) in
  let config = cycles_config in
  let sa = Assign.simulated_annealing ~config ~iterations:800 program h in
  Alcotest.(check bool) "feasible" true (Mapping.occupancy_ok sa.Assign.mapping);
  Alcotest.(check bool) "never worse than direct" true
    (sa.Assign.breakdown.Cost.total_cycles <= baseline.Cost.total_cycles)

let test_anneal_competitive_with_greedy () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let config = cycles_config in
  let greedy = Assign.greedy ~config program h in
  let sa = Assign.simulated_annealing ~config ~iterations:3000 program h in
  (* Annealing must land within 20% of steepest descent here. *)
  Alcotest.(check bool) "competitive" true
    (float_of_int sa.Assign.breakdown.Cost.total_cycles
    <= 1.2 *. float_of_int greedy.Assign.breakdown.Cost.total_cycles)

let test_anneal_escapes_known_local_optimum () =
  (* voice_compression at 3 KiB: documented case where steepest descent
     gets stuck (EXT-SEARCH). *)
  let app = Mhla_apps.Registry.find_exn "voice_compression" in
  let program = Lazy.force app.Mhla_apps.Defs.program in
  let h = Presets.two_level ~onchip_bytes:3072 () in
  let greedy = Assign.greedy program h in
  let sa = Assign.simulated_annealing program h in
  Alcotest.(check bool) "annealing strictly better here" true
    (sa.Assign.breakdown.Cost.total_cycles
    < greedy.Assign.breakdown.Cost.total_cycles)

(* --- incremental engine vs oracle -------------------------------------- *)

(* Everything that could reveal a divergent search decision: the chosen
   placements in infos order, the promoted arrays, every applied step
   (description, gain, objective), and the final cost breakdown. *)
let fingerprint (r : Assign.result) =
  let m = r.Assign.mapping in
  ( List.map
      (fun (info : Analysis.info) ->
        Mapping.placement_of m info.Analysis.ref_)
      m.Mapping.infos,
    m.Mapping.array_layers,
    r.Assign.steps,
    r.Assign.breakdown )

let test_greedy_engine_equals_oracle_on_apps () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.small in
      let h =
        Presets.two_level ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      let engine = Assign.greedy program h in
      let oracle = Reference.greedy program h in
      Alcotest.(check bool)
        (app.Mhla_apps.Defs.name ^ ": identical result") true
        (fingerprint engine = fingerprint oracle);
      Alcotest.(check int)
        (app.Mhla_apps.Defs.name ^ ": same evaluation count")
        oracle.Assign.evaluations engine.Assign.evaluations)
    Mhla_apps.Registry.all

(* The paper's trade-off exploration runs the greedy once per memory
   layer size: every full application over the EXT-PARETO 5x5 L1/L2
   budget grid, as [Explore.pareto] builds it. Each grid point must
   take exactly the oracle's decisions and count the same evaluations. *)
let pareto_axes =
  [ [ 1024; 4096; 16384; 65536; 262144 ];
    [ 2048; 8192; 32768; 131072; 524288 ] ]

let test_greedy_engine_equals_oracle_on_pareto_grid () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let reuse = Mapping.precompute program in
      List.iter
        (fun budgets ->
          let h = Presets.multi_level ~level_bytes:budgets () in
          let engine = Assign.greedy ~reuse program h in
          let oracle = Reference.greedy ~reuse program h in
          let what =
            Printf.sprintf "%s at %s" app.Mhla_apps.Defs.name
              (String.concat "/" (List.map string_of_int budgets))
          in
          Alcotest.(check bool) (what ^ ": identical result") true
            (fingerprint engine = fingerprint oracle);
          Alcotest.(check int) (what ^ ": same evaluation count")
            oracle.Assign.evaluations engine.Assign.evaluations)
        (Presets.budget_grid ~axes:pareto_axes))
    Mhla_apps.Registry.all

let test_greedy_engine_equals_oracle_on_kernel () =
  List.iter
    (fun budget ->
      let program = conv () in
      let h = Presets.two_level ~onchip_bytes:budget () in
      List.iter
        (fun (config, first_improvement) ->
          let engine = Assign.greedy ~config ~first_improvement program h in
          let oracle =
            Reference.greedy ~config ~first_improvement program h
          in
          Alcotest.(check bool)
            (Printf.sprintf "budget %d%s: identical result" budget
               (if first_improvement then " first-improving" else ""))
            true
            (fingerprint engine = fingerprint oracle))
        [ (Assign.default_config, false); (cycles_config, false);
          (Assign.default_config, true) ])
    [ 64; 512; 4096 ]

let test_anneal_engine_equals_oracle () =
  let program = conv () in
  List.iter
    (fun (budget, seed) ->
      let h = Presets.two_level ~onchip_bytes:budget () in
      let engine =
        Assign.simulated_annealing ~seed ~iterations:600 program h
      in
      let oracle =
        Reference.simulated_annealing ~seed ~iterations:600 program h
      in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d seed %Ld: identical result" budget seed)
        true
        (fingerprint engine = fingerprint oracle))
    [ (128, 7L); (512, 7L); (512, 1234L) ]

(* A silent fallback to eager annealing keeps every decision, so only
   the probe count shows it: on a mid-size application, under every
   objective and two seeds, the lazy annealing must take the
   reference's decisions while probing fewer moves than it evaluates.
   The start's evaluation is no probe, so the eager loop probes
   [evaluations - 1] moves, one per feasible draw; the lazy one probes
   44-58 % of them here, and the check wants under two thirds. *)
let test_anneal_lazy_on_app () =
  let app = Mhla_apps.Registry.find_exn "wavelet_2d" in
  let program = Lazy.force app.Mhla_apps.Defs.program in
  let h = Presets.two_level ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes () in
  let reuse = Mapping.precompute program in
  List.iter
    (fun objective ->
      let config = { Assign.default_config with Assign.objective } in
      List.iter
        (fun seed ->
          let what =
            Fmt.str "%a seed %Ld" Cost.pp_objective objective seed
          in
          let engine =
            Assign.simulated_annealing ~config ~reuse ~seed ~iterations:4000
              program h
          in
          let oracle =
            Reference.simulated_annealing ~config ~reuse ~seed
              ~iterations:4000 program h
          in
          Alcotest.(check bool) (what ^ ": identical result") true
            (fingerprint engine = fingerprint oracle);
          Alcotest.(check int) (what ^ ": same evaluation count")
            oracle.Assign.evaluations engine.Assign.evaluations;
          let draws = engine.Assign.evaluations - 1 in
          Alcotest.(check bool)
            (Fmt.str "%s: probes %d < 2/3 of %d feasible draws" what
               engine.Assign.probes draws)
            true
            (3 * engine.Assign.probes < 2 * draws))
        [ 42L; 7L ])
    [ Cost.Energy; Cost.Cycles; Cost.Energy_delay ]

(* Every placement alternative of every access and every array target,
   including the moves that leave their owner where it is. *)
let move_universe config (m : Mapping.t) =
  List.concat_map
    (fun (info : Analysis.info) ->
      List.map
        (fun p -> Engine.Set_placement (info.Analysis.ref_, p))
        (Assign.alternatives config m info))
    m.Mapping.infos
  @ List.concat_map
      (fun array ->
        Engine.Set_array (array, None)
        :: List.map
             (fun l -> Engine.Set_array (array, Some l))
             (Mhla_arch.Hierarchy.on_chip_levels m.Mapping.hierarchy))
      (Mhla_ir.Program.array_names m.Mapping.program)

(* The engine builds its mapping only when asked. After a seeded run of
   commits, promotions and demotions among them, read every few
   commits, it must be the very value the oracle's [Mapping] updates
   build for the same moves: placements in infos order, promoted
   arrays latest first. *)
let test_engine_mapping_on_demand () =
  let config = Assign.default_config in
  let m =
    Mapping.direct (conv ~n:8 ())
      (Presets.three_level ~l1_bytes:256 ~l2_bytes:4096 ())
  in
  let universe = Array.of_list (move_universe config m) in
  let engine = Engine.create ~objective:config.Assign.objective m in
  let rng = Mhla_util.Prng.create ~seed:11L in
  let folded = ref m and arrays = ref 0 in
  for step = 1 to 60 do
    let mv =
      universe.(Mhla_util.Prng.int rng ~bound:(Array.length universe))
    in
    (match mv with Engine.Set_array _ -> incr arrays | _ -> ());
    commit_mv engine mv;
    folded := Assign.apply_move !folded mv;
    if step mod 7 = 0 || step = 60 then begin
      Alcotest.(check bool)
        (Printf.sprintf "step %d: mapping" step)
        true
        (Engine.mapping engine = !folded);
      Alcotest.(check bool)
        (Printf.sprintf "step %d: breakdown" step)
        true
        (Engine.breakdown engine = Cost.evaluate !folded)
    end
  done;
  Alcotest.(check bool) "the walk moved arrays" true (!arrays >= 5);
  Alcotest.(check bool) "an array ended promoted" true
    ((Engine.mapping engine).Mapping.array_layers <> [])

(* [resolve] validates the move as [Mapping] does and raises an
   [Invalid_input] error before any state changes: the engine stays on
   its position, mapping and breakdown alike, whether or not its
   mapping was built. *)
let test_engine_invalid_resolve () =
  let config = Assign.default_config in
  let m =
    Mapping.direct (conv ~n:8 ()) (Presets.two_level ~onchip_bytes:4096 ())
  in
  let info = List.hd m.Mapping.infos in
  let r = info.Analysis.ref_ in
  let chain = List.nth (Assign.alternatives config m info) 1 in
  let valid =
    [ Engine.Set_placement (r, chain); Engine.Set_array ("coeff", Some 0) ]
  in
  let main = Mhla_arch.Hierarchy.main_memory_level m.Mapping.hierarchy in
  let invalid =
    [ ("unknown access",
       Engine.Set_placement ({ Analysis.stmt = "zzz"; index = 0 }, chain));
      ("empty chain", Engine.Set_placement (r, Mapping.Chain []));
      ("foreign candidate",
       Engine.Set_placement
         (r, Mapping.Chain
               [ { Mapping.candidate =
                     List.hd (List.nth m.Mapping.infos 1).Analysis.candidates;
                   layer = 0 } ]));
      ("off-chip chain layer",
       Engine.Set_placement
         (r, Mapping.Chain
               [ { Mapping.candidate = List.hd info.Analysis.candidates;
                   layer = main } ]));
      ("unknown array", Engine.Set_array ("zzz", Some 0));
      ("off-chip level", Engine.Set_array ("image", Some main)) ]
  in
  let engine = Engine.create ~objective:config.Assign.objective m in
  List.iter (commit_mv engine) valid;
  let expected = List.fold_left Assign.apply_move m valid in
  List.iter
    (fun (what, mv) ->
      List.iter
        (fun built ->
          (* Re-promoting the one promoted array changes nothing but
             leaves the mapping to be rebuilt. *)
          commit_mv engine (Engine.Set_array ("coeff", Some 0));
          if built then ignore (Engine.mapping engine : Mapping.t);
          let what = Printf.sprintf "%s (built: %b)" what built in
          (match Engine.resolve engine mv with
          | exception
              Mhla_util.Error.Error { kind = Mhla_util.Error.Invalid_input; _ }
            ->
            ()
          | (_ : Engine.handle) ->
            Alcotest.failf "%s: resolve accepted an invalid move" what);
          Alcotest.(check bool) (what ^ ": mapping unchanged") true
            (Engine.mapping engine = expected);
          Alcotest.(check bool) (what ^ ": breakdown unchanged") true
            (Engine.breakdown engine = Cost.evaluate expected))
        [ false; true ])
    invalid

let test_result_evaluation_accounting () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let engine = Assign.greedy program h in
  let oracle = Reference.greedy program h in
  Alcotest.(check int) "oracle: no cache traffic" 0
    (oracle.Assign.cache_hits + oracle.Assign.cache_misses);
  Alcotest.(check bool) "engine: cache exercised" true
    (engine.Assign.cache_hits > 0 && engine.Assign.cache_misses > 0);
  Alcotest.(check bool) "engine: hits dominate on repeated probing" true
    (engine.Assign.cache_hits > engine.Assign.cache_misses)

let prop_greedy_never_worse_than_direct =
  QCheck2.Test.make ~name:"assign: greedy never worse than out-of-the-box"
    ~count:25
    QCheck2.Gen.(pair (int_range 2 6) (int_range 64 2048))
    (fun (n, budget) ->
      let program = conv ~n () in
      let h = Presets.two_level ~onchip_bytes:budget () in
      let baseline = Cost.evaluate (Mapping.direct program h) in
      let result = Assign.greedy ~config:cycles_config program h in
      result.Assign.breakdown.Cost.total_cycles <= baseline.Cost.total_cycles
      && Mapping.occupancy_ok result.Assign.mapping)

(* --- incremental feasibility ------------------------------------------ *)

(* [Engine.feasible] against the from-scratch check, for one move at the
   engine's current position. *)
let feasible_agrees engine mv =
  feasible_mv engine mv
  = Mapping.occupancy_ok (Assign.apply_move (Engine.mapping engine) mv)

let gen_profiles =
  [| Mhla_gen.Generate.Reuse_rich; Mhla_gen.Generate.Capacity_tight;
     Mhla_gen.Generate.Te_hostile |]

(* Along a random commit walk over a generated program, every move the
   searches consider gets the same feasibility answer from the engine as
   from the from-scratch check. Moves are committed whether feasible or
   not, so the walk also crosses infeasible positions (arrays promoted
   onto a level too small for them). *)
let prop_engine_feasible_matches_oracle =
  QCheck2.Test.make ~name:"assign: engine feasible = from-scratch feasible"
    ~count:40
    QCheck2.Gen.(
      quad (int_range 0 100_000) (int_range 0 2) bool bool)
    (fun (seed, profile, sum, roomy) ->
      let case =
        Mhla_gen.Generate.case ~profile:gen_profiles.(profile)
          ~seed:(Int64.of_int seed) ()
      in
      let program = case.Mhla_gen.Generate.program in
      let budget = case.Mhla_gen.Generate.onchip_bytes in
      let hierarchy =
        if roomy then
          Presets.multi_level ~level_bytes:[ budget; 4 * budget ] ()
        else Presets.two_level ~onchip_bytes:(max 1 (budget / 4)) ()
      in
      let policy = if sum then Occupancy.Sum else Occupancy.In_place in
      let config = { Assign.default_config with Assign.policy } in
      let engine =
        Engine.create ~objective:config.Assign.objective
          (Mapping.direct ~policy program hierarchy)
      in
      let rng = Mhla_util.Prng.create ~seed:(Int64.of_int (seed + 1)) in
      let ok = ref true in
      for _ = 1 to 10 do
        match Assign.moves config (Engine.mapping engine) with
        | [] -> ()
        | moves ->
          if not (List.for_all (feasible_agrees engine) moves) then
            ok := false;
          commit_mv engine (Mhla_util.Prng.pick rng moves)
      done;
      !ok)

(* How the live walk's checks were decided, over a whole run. *)
let decided = [| 0; 0; 0 |] (* accepted, rejected, staged *)

(* Along a random walk that commits only feasible moves, so no slot is
   ever over and both of [Engine.feasible]'s shortcuts are live, every
   move's verdict equals the from-scratch check. [decided] tallies
   which path gave it, read off [feasible_staged]. *)
let prop_engine_shortcuts_match_oracle =
  QCheck2.Test.make ~name:"assign: engine shortcuts = from-scratch feasible"
    ~count:40
    QCheck2.Gen.(
      quad (int_range 0 100_000) (int_range 0 2) bool bool)
    (fun (seed, profile, sum, roomy) ->
      let case =
        Mhla_gen.Generate.case ~profile:gen_profiles.(profile)
          ~seed:(Int64.of_int seed) ()
      in
      let program = case.Mhla_gen.Generate.program in
      let budget = case.Mhla_gen.Generate.onchip_bytes in
      let hierarchy =
        if roomy then
          Presets.multi_level ~level_bytes:[ budget; 4 * budget ] ()
        else Presets.two_level ~onchip_bytes:(max 1 (budget / 4)) ()
      in
      let policy = if sum then Occupancy.Sum else Occupancy.In_place in
      let config = { Assign.default_config with Assign.policy } in
      let engine =
        Engine.create ~objective:config.Assign.objective
          (Mapping.direct ~policy program hierarchy)
      in
      let rng = Mhla_util.Prng.create ~seed:(Int64.of_int (seed + 1)) in
      let ok = ref true in
      let check mv =
        let staged = (Engine.stats engine).Engine.feasible_staged in
        let verdict = feasible_mv engine mv in
        let path =
          if (Engine.stats engine).Engine.feasible_staged > staged then 2
          else if verdict then 0
          else 1
        in
        decided.(path) <- decided.(path) + 1;
        if
          verdict
          <> Mapping.occupancy_ok (Assign.apply_move (Engine.mapping engine) mv)
        then ok := false;
        verdict
      in
      for _ = 1 to 10 do
        match List.filter check (Assign.moves config (Engine.mapping engine)) with
        | [] -> ()
        | fits -> commit_mv engine (Mhla_util.Prng.pick rng fits)
      done;
      !ok)

(* Two reads of [tab] in sequential nests share its whole-array level-0
   buffer, alive over the hull of [0,1) and [1,2); [y], promoted, lives
   in slot 1 only. With 12 bytes of capacity slot 1 is over (8 + 8). *)
let shared_table () =
  let open Build in
  program "shared"
    ~arrays:[ array "tab" [ 8 ]; array "z" [ 8 ]; array "y" [ 8 ] ]
    [ loop "a" 8 [ stmt "s1" [ rd "tab" [ i "a" ]; wr "z" [ i "a" ] ] ];
      loop "b" 8 [ stmt "s2" [ rd "tab" [ i "b" ]; wr "y" [ i "b" ] ] ] ]

let whole_chain (m : Mapping.t) stmt ~layer =
  let info =
    List.find
      (fun (info : Analysis.info) ->
        info.Analysis.ref_.Analysis.stmt = stmt && info.Analysis.array = "tab")
      m.Mapping.infos
  in
  ( info.Analysis.ref_,
    Mapping.Chain
      [ { Mapping.candidate = List.hd info.Analysis.candidates; layer } ] )

let test_feasible_shared_hull_shrinks () =
  List.iter
    (fun (policy, (here, drop_s1, drop_s2)) ->
      let config = { Assign.default_config with Assign.policy } in
      let m =
        Mapping.direct ~policy (shared_table ())
          (Presets.two_level ~onchip_bytes:12 ())
      in
      let engine = Engine.create ~objective:config.Assign.objective m in
      let r1, c1 = whole_chain m "s1" ~layer:0 in
      let r2, c2 = whole_chain m "s2" ~layer:0 in
      List.iter (commit_mv engine)
        [ Engine.Set_placement (r1, c1); Engine.Set_placement (r2, c2);
          Engine.Set_array ("y", Some 0) ];
      (* [z] is off-chip already: this move leaves the layer as it is. *)
      let stay = Engine.Set_array ("z", None) in
      let drop r = Engine.Set_placement (r, Mapping.Direct) in
      List.iter
        (fun (what, mv, expected) ->
          Alcotest.(check bool) (what ^ " agrees") true
            (feasible_agrees engine mv);
          Alcotest.(check bool) what expected (feasible_mv engine mv))
        [ ("the hull covers slot 1", stay, here);
          ("dropping s1 keeps slot 1", drop r1, drop_s1);
          ("dropping s2 shrinks the hull to slot 0", drop r2, drop_s2) ])
    [ (Occupancy.In_place, (false, false, true));
      (Occupancy.Sum, (false, false, false)) ]

(* s1 reads 8 bytes of [tab] in slot 0 and s3 reads [tab] in slot 2,
   in nests of their own; [y] lives in slot 1 only. *)
let widening_table () =
  let open Build in
  program "widening"
    ~arrays:[ array "tab" [ 16 ]; array "y" [ 8 ] ]
    [ loop "a" 8 [ stmt "s1" [ rd "tab" [ i "a" ] ] ];
      loop "b" 8 [ stmt "s2" [ wr "y" [ i "b" ] ] ];
      loop "c" 8 [ stmt "s3" [ rd "tab" [ i "c" ] ] ] ]

(* The analysis gives every candidate of one share key the same
   footprint, so s3's small sharer is built by hand: the level-0
   candidate of s3's access had it read [tab.(a)] over a 2-trip [a]
   loop, which shares s1's key ("tab@0::a") at 2 bytes. Joining s1's
   group, it widens the 8-byte block over slots 0-2, onto [y]'s slot:
   16 bytes there. The peak (8) plus s3's own 2 bytes would fit 12, so
   a bound by the joining sharer's own footprint accepts an infeasible
   move. Under [Sum] the group's block stays 8 bytes: the layer holds
   16 before and after. *)
let test_feasible_hull_widening () =
  List.iter
    (fun (policy, capacity, expected) ->
      let config = { Assign.default_config with Assign.policy } in
      let m =
        Mapping.direct ~policy (widening_table ())
          (Presets.two_level ~onchip_bytes:capacity ())
      in
      let engine = Engine.create ~objective:config.Assign.objective m in
      let r1, c1 = whole_chain m "s1" ~layer:0 in
      let r3, _ = whole_chain m "s3" ~layer:0 in
      let small =
        List.hd
          (Candidate.of_access ~decl:(Build.array "tab" [ 16 ])
             ~loops:[ ("a", 2) ] ~stmt:"s3" ~access_index:0
             (Build.rd "tab" [ Build.i "a" ]))
      in
      let key = function
        | Mapping.Chain [ link ] ->
          let c = link.Mapping.candidate in
          (c.Candidate.share_key, c.Candidate.footprint_bytes)
        | _ -> Alcotest.fail "expected a one-link chain"
      in
      let c3 = Mapping.Chain [ { Mapping.candidate = small; layer = 0 } ] in
      Alcotest.(check (pair string int)) "s1's buffer" ("tab@0::a", 8) (key c1);
      Alcotest.(check (pair string int)) "s3's buffer" ("tab@0::a", 2) (key c3);
      List.iter (commit_mv engine)
        [ Engine.Set_placement (r1, c1); Engine.Set_array ("y", Some 0) ];
      Alcotest.(check bool) "start position fits" true
        (Mapping.occupancy_ok (Engine.mapping engine));
      let join = Engine.Set_placement (r3, c3) in
      Alcotest.(check bool) "join agrees" true (feasible_agrees engine join);
      Alcotest.(check bool) "join" expected (feasible_mv engine join))
    [ (Occupancy.In_place, 12, false); (Occupancy.Sum, 16, true) ]

(* A loop body is never empty, so every copy buffer of a valid program
   has a non-empty lifetime; the one block [Occupancy.peak_bytes] widens
   is a promoted array no statement touches ([0,0) charged as [0,1)). *)
let test_feasible_empty_lifetime_widened () =
  let open Build in
  let p =
    program "untouched"
      ~arrays:[ array "used" [ 8 ]; array "idle" [ 8 ] ]
      [ loop "a" 8 [ stmt "s" [ wr "used" [ i "a" ] ] ] ]
  in
  let config = Assign.default_config in
  let m = Mapping.direct p (Presets.two_level ~onchip_bytes:12 ()) in
  let engine = Engine.create ~objective:config.Assign.objective m in
  let idle = Engine.Set_array ("idle", Some 0) in
  Alcotest.(check bool) "idle alone fits" true (feasible_mv engine idle);
  commit_mv engine (Engine.Set_array ("used", Some 0));
  Alcotest.(check bool) "widened idle collides with used" true
    (feasible_agrees engine idle);
  Alcotest.(check bool) "16 bytes in slot 0" false
    (feasible_mv engine idle)

(* Leaving a share group only shrinks the group's hull and footprint.
   So while the engine has compiled no sharer with an empty lifetime
   (a valid program has none, since a loop body is never empty), a
   move that only leaves groups adds nothing to any slot. Here s1 and
   s2 share one 8-byte [tab] block on a 12-byte level: dropping s1's
   copy fits, and is accepted without staging, although the peak (8)
   plus the left group's footprint (8) would not fit. *)
let test_feasible_leave_accepted () =
  List.iter
    (fun policy ->
      let config = { Assign.default_config with Assign.policy } in
      let m =
        Mapping.direct ~policy (shared_table ())
          (Presets.two_level ~onchip_bytes:12 ())
      in
      let engine = Engine.create ~objective:config.Assign.objective m in
      let r1, c1 = whole_chain m "s1" ~layer:0 in
      let r2, c2 = whole_chain m "s2" ~layer:0 in
      List.iter (commit_mv engine)
        [ Engine.Set_placement (r1, c1); Engine.Set_placement (r2, c2) ];
      let staged () = (Engine.stats engine).Engine.feasible_staged in
      let before = staged () in
      let drop = Engine.Set_placement (r1, Mapping.Direct) in
      Alcotest.(check bool) "drop agrees" true (feasible_agrees engine drop);
      Alcotest.(check bool) "drop fits" true (feasible_mv engine drop);
      Alcotest.(check int) "decided without staging" before (staged ()))
    [ Occupancy.In_place; Occupancy.Sum ]

let test_feasible_array_between_levels () =
  let config = Assign.default_config in
  let m =
    Mapping.direct (shared_table ())
      (Presets.three_level ~l1_bytes:4 ~l2_bytes:64 ())
  in
  let engine = Engine.create ~objective:config.Assign.objective m in
  let to_level l = Engine.Set_array ("tab", Some l) in
  Alcotest.(check bool) "fits in L2" true (feasible_mv engine (to_level 1));
  commit_mv engine (to_level 1);
  Alcotest.(check bool) "L2 -> L1 agrees" true
    (feasible_agrees engine (to_level 0));
  Alcotest.(check bool) "too big for L1" false
    (feasible_mv engine (to_level 0));
  commit_mv engine (to_level 0);
  Alcotest.(check bool) "L1 -> L2 agrees" true
    (feasible_agrees engine (to_level 1));
  Alcotest.(check bool) "back to L2 frees L1" true
    (feasible_mv engine (to_level 1));
  Alcotest.(check bool) "off-chip frees L1" true
    (feasible_mv engine (Engine.Set_array ("tab", None)))

(* Each [resolve] of a chain compiles a record of its own. A placement
   that is only structurally equal to one of the alternatives, or a
   hand-built chain the searches never generate, must be answered
   exactly like the hoisted alternatives: check, probe and commit all
   agree with the from-scratch evaluation of the moved mapping. So
   must two handles resolved from one move, before and after a
   re-seat. *)
let test_engine_foreign_placements () =
  (* One candidate per access, so a chain through two candidates is
     foreign. *)
  let config = { Assign.default_config with Assign.cc_top_k = Some 1 } in
  let objective = config.Assign.objective in
  let program = conv () in
  let reuse = Mapping.precompute program in
  let m =
    Mapping.direct ~reuse program
      (Presets.three_level ~l1_bytes:256 ~l2_bytes:4096 ())
  in
  let info = List.hd m.Mapping.infos in
  let r = info.Analysis.ref_ in
  let alts = Assign.alternatives config m info in
  let copy = function
    | Mapping.Direct -> Mapping.Direct
    | Mapping.Chain links ->
      Mapping.Chain
        (List.map
           (fun (l : Mapping.chain_link) ->
             { l with Mapping.layer = l.Mapping.layer })
           links)
  in
  let twin = copy (List.nth alts (List.length alts - 1)) in
  Alcotest.(check bool) "twin is a distinct equal value" true
    (List.exists (fun p -> p = twin && p != twin) alts);
  let hand =
    match
      List.sort
        (fun (a : Candidate.t) b -> compare b.Candidate.level a.Candidate.level)
        info.Analysis.candidates
    with
    | inner :: outer :: _ ->
      Mapping.Chain
        [ { Mapping.candidate = inner; layer = 0 };
          { Mapping.candidate = outer; layer = 1 } ]
    | [] | [ _ ] -> Alcotest.fail "the access has fewer than two candidates"
  in
  Alcotest.(check bool) "hand-built chain is foreign" false
    (List.mem hand alts);
  let engine = Engine.create ~objective m in
  let agrees what mv =
    let moved = Assign.apply_move (Engine.mapping engine) mv in
    Alcotest.(check bool) (what ^ ": feasible") (Mapping.occupancy_ok moved)
      (feasible_mv engine mv);
    Alcotest.(check bool) (what ^ ": probe") true
      (probe_mv engine mv = Cost.scalar objective (Cost.evaluate moved))
  in
  List.iter
    (fun (what, p) ->
      let mv = Engine.Set_placement (r, p) in
      agrees what mv;
      commit_mv engine mv;
      Alcotest.(check bool) (what ^ ": committed breakdown") true
        (Engine.breakdown engine = Cost.evaluate (Engine.mapping engine));
      List.iter (agrees (what ^ " then a search move"))
        (Assign.moves config (Engine.mapping engine)))
    [ ("structural twin", twin); ("hand-built chain", hand) ];
  (* Two handles of one move, each holding a record of its own, answer
     alike, on this position and after a re-seat onto another
     hierarchy of the same shape. *)
  let held = Engine.Set_placement (r, twin) in
  let handles = [ Engine.resolve engine held; Engine.resolve engine held ] in
  let handles_agree what =
    let moved = Assign.apply_move (Engine.mapping engine) held in
    List.iteri
      (fun k handle ->
        let what = Printf.sprintf "%s: handle %d" what k in
        Alcotest.(check bool) (what ^ " feasible")
          (Mapping.occupancy_ok moved)
          (Engine.feasible engine handle);
        Alcotest.(check bool) (what ^ " probe") true
          (Engine.probe engine handle
          = Cost.scalar objective (Cost.evaluate moved)))
      handles
  in
  handles_agree "before a re-seat";
  commit_mv engine (Engine.Set_placement (r, Mapping.Direct));
  handles_agree "after a commit";
  Engine.reseat engine
    (Mapping.direct ~reuse program
       (Presets.three_level ~l1_bytes:64 ~l2_bytes:1024 ()));
  handles_agree "after a re-seat";
  Engine.commit engine (List.hd handles);
  handles_agree "after committing one"

(* --- one solve state, many hierarchies --------------------------------- *)

type search = Steepest | First | Anneal

let solve_on search st h =
  match search with
  | Steepest -> Assign.greedy_on st h
  | First -> Assign.greedy_on ~first_improvement:true st h
  | Anneal -> Assign.simulated_annealing_on ~iterations:300 st h

let solve_fresh search ~config ~reuse program h =
  match search with
  | Steepest -> Assign.greedy ~config ~reuse program h
  | First -> Assign.greedy ~config ~first_improvement:true ~reuse program h
  | Anneal ->
    Assign.simulated_annealing ~config ~iterations:300 ~reuse program h

(* A random budget-vector sequence for a two-level on-chip hierarchy:
   a vector, the same grown fourfold, then (from length 3 on) the first
   vector again — a repeat, and a shrink after a growth — followed by
   random picks from a small pool, which repeat often. *)
let gen_budget_sequence =
  QCheck2.Gen.(
    let factor = oneofl [ 1; 2; 4 ] in
    let vector = pair factor factor in
    pair vector (list_size (int_range 0 3) vector))

let budget_hierarchies base ((f1, f2), rest) n =
  let h (a, b) =
    Presets.multi_level ~level_bytes:[ max 1 (base * a / 4); base * b ] ()
  in
  let first = (f1, f2) in
  let seq =
    first :: (4 * f1, 4 * f2) :: (if n >= 3 then first :: rest else [])
  in
  List.map h (List.filteri (fun i _ -> i < n) seq)

(* Solving a sequence of budget points through one state returns, point
   for point, exactly what a fresh solve returns: the mapping, the
   breakdown, the steps and every counter. *)
let prop_state_equals_fresh =
  QCheck2.Test.make ~name:"assign: one state over many budgets = fresh solves"
    ~count:30
    QCheck2.Gen.(
      quad
        (pair (int_range 0 100_000) (int_range 0 2))
        (pair bool (oneofl [ Steepest; First; Anneal ]))
        gen_budget_sequence (int_range 2 5))
    (fun ((seed, profile), (sum, search), budgets, n) ->
      let case =
        Mhla_gen.Generate.case ~profile:gen_profiles.(profile)
          ~seed:(Int64.of_int seed) ()
      in
      let program = case.Mhla_gen.Generate.program in
      let policy = if sum then Occupancy.Sum else Occupancy.In_place in
      let config = { Assign.default_config with Assign.policy } in
      let reuse = Mapping.precompute program in
      let st = Assign.prepare ~config ~reuse program in
      List.for_all
        (fun h ->
          solve_on search st h = solve_fresh search ~config ~reuse program h)
        (budget_hierarchies case.Mhla_gen.Generate.onchip_bytes budgets n))

(* Every move of a search's table — each access's alternatives and
   each array's targets, current ones included — resolved once against
   one engine, which is then re-seated on 2-5 budget points and walked
   along committed feasible moves: at every step each handle's verdict
   and probe equal the from-scratch check and evaluation of its move
   applied to the engine's mapping. *)
let prop_handles_survive_reseats =
  QCheck2.Test.make ~name:"assign: handles survive re-seats" ~count:20
    QCheck2.Gen.(
      quad
        (pair (int_range 0 100_000) (int_range 0 2))
        bool gen_budget_sequence (int_range 2 5))
    (fun ((seed, profile), sum, budgets, n) ->
      let case =
        Mhla_gen.Generate.case ~profile:gen_profiles.(profile)
          ~seed:(Int64.of_int seed) ()
      in
      let program = case.Mhla_gen.Generate.program in
      let policy = if sum then Occupancy.Sum else Occupancy.In_place in
      let config = { Assign.default_config with Assign.policy } in
      let objective = config.Assign.objective in
      let reuse = Mapping.precompute program in
      let start h =
        Mapping.direct ~transfer_mode:config.Assign.transfer_mode ~policy
          ~reuse program h
      in
      match budget_hierarchies case.Mhla_gen.Generate.onchip_bytes budgets n with
      | [] -> true
      | first :: _ as hierarchies ->
        let m0 = start first in
        let engine = Engine.create ~objective m0 in
        let targets =
          None
          :: List.map Option.some (Mhla_arch.Hierarchy.on_chip_levels first)
        in
        let moves =
          List.concat_map
            (fun (info : Analysis.info) ->
              List.map
                (fun p -> Engine.Set_placement (info.Analysis.ref_, p))
                (Assign.alternatives config m0 info))
            m0.Mapping.infos
          @ List.concat_map
              (fun array ->
                List.map (fun l -> Engine.Set_array (array, l)) targets)
              (Mhla_ir.Program.array_names program)
        in
        let table = List.map (fun mv -> (mv, Engine.resolve engine mv)) moves in
        let rng = Mhla_util.Prng.create ~seed:(Int64.of_int (seed + 1)) in
        let agrees (mv, handle) =
          let moved = Assign.apply_move (Engine.mapping engine) mv in
          Engine.feasible engine handle = Mapping.occupancy_ok moved
          && Engine.probe engine handle
             = Cost.scalar objective (Cost.evaluate moved)
        in
        List.for_all
          (fun h ->
            Engine.reseat engine (start h);
            let rec walk steps =
              List.for_all agrees table
              && (steps = 0
                 ||
                 match
                   List.filter
                     (fun (_, handle) -> Engine.feasible engine handle)
                     table
                 with
                 | [] -> true
                 | fits ->
                   Engine.commit engine (snd (Mhla_util.Prng.pick rng fits));
                   walk (steps - 1))
            in
            walk 3)
          hierarchies)

(* A checkpoint that raises a deadline on its [n]-th call. *)
let expire_after n =
  let calls = ref 0 in
  fun () ->
    incr calls;
    if !calls >= n then
      raise Mhla_util.Error.(Error (make Deadline ~context:"test" "expired"))

(* A solve abandoned mid-search leaves a committed, half-walked position
   behind; the next solve through the same state must not see it. *)
let test_state_after_abort () =
  let program = conv () in
  let reuse = Mapping.precompute program in
  let config = Assign.default_config in
  let st = Assign.prepare ~config ~reuse program in
  let small = Presets.multi_level ~level_bytes:[ 256; 2048 ] () in
  let large = Presets.multi_level ~level_bytes:[ 1024; 8192 ] () in
  let aborted what f =
    match f () with
    | (_ : Assign.result) -> Alcotest.failf "%s: expected a Deadline" what
    | exception Mhla_util.Error.Error { kind = Mhla_util.Error.Deadline; _ } ->
      ()
  in
  let full = Assign.greedy ~config ~reuse program large in
  Alcotest.(check bool) "the greedy takes several rounds" true
    (List.length full.Assign.steps >= 3);
  aborted "greedy" (fun () ->
      Assign.greedy_on ~checkpoint:(expire_after 3) st large);
  List.iter
    (fun (what, h) ->
      Alcotest.(check bool) what true
        (Assign.greedy_on st h = Assign.greedy ~config ~reuse program h))
    [ ("greedy after an aborted greedy, same point", large);
      ("greedy, another point", small) ];
  aborted "annealing" (fun () ->
      Assign.simulated_annealing_on ~iterations:500
        ~checkpoint:(expire_after 200) st small);
  Alcotest.(check bool) "annealing after an aborted annealing" true
    (Assign.simulated_annealing_on ~iterations:500 st small
    = Assign.simulated_annealing ~config ~iterations:500 ~reuse program small)

(* A hierarchy of another shape (another level count, here) is solved
   on a state built for it; the next point of the first shape still
   matches a fresh solve. *)
let test_state_shape_change () =
  let program = conv () in
  let reuse = Mapping.precompute program in
  let config = Assign.default_config in
  let st = Assign.prepare ~config ~reuse program in
  List.iter
    (fun h ->
      Alcotest.(check bool) "equals a fresh solve" true
        (Assign.greedy_on st h = Assign.greedy ~config ~reuse program h))
    [ Presets.two_level ~onchip_bytes:512 ();
      Presets.multi_level ~level_bytes:[ 256; 2048 ] ();
      Presets.two_level ~onchip_bytes:2048 ();
      Presets.two_level ~dma:false ~onchip_bytes:1024 () ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "assign"
    [
      ( "alternatives",
        [
          Alcotest.test_case "include direct" `Quick
            test_alternatives_include_direct;
          Alcotest.test_case "chains valid" `Quick
            test_alternatives_chains_are_valid;
          Alcotest.test_case "chain cap" `Quick
            test_alternatives_respect_chain_cap;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "improves and feasible" `Quick
            test_greedy_improves_and_is_feasible;
          Alcotest.test_case "steps monotone" `Quick test_greedy_steps_monotone;
          Alcotest.test_case "deterministic" `Quick test_greedy_deterministic;
          Alcotest.test_case "tiny budget" `Quick
            test_greedy_tiny_budget_stays_direct;
          Alcotest.test_case "promotion off" `Quick
            test_greedy_no_promotion_config;
          Alcotest.test_case "energy objective" `Quick
            test_greedy_energy_objective;
          Alcotest.test_case "sum policy" `Quick
            test_greedy_sum_policy_feasible;
          qc prop_greedy_never_worse_than_direct;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
          Alcotest.test_case "feasible, never worse" `Quick
            test_anneal_feasible_and_never_worse;
          Alcotest.test_case "competitive" `Quick
            test_anneal_competitive_with_greedy;
          Alcotest.test_case "escapes local optimum" `Slow
            test_anneal_escapes_known_local_optimum;
        ] );
      ( "engine",
        [
          Alcotest.test_case "greedy = oracle on all apps" `Quick
            test_greedy_engine_equals_oracle_on_apps;
          Alcotest.test_case "greedy = oracle on the pareto grid" `Quick
            test_greedy_engine_equals_oracle_on_pareto_grid;
          Alcotest.test_case "greedy = oracle on kernel" `Quick
            test_greedy_engine_equals_oracle_on_kernel;
          Alcotest.test_case "annealing = oracle" `Quick
            test_anneal_engine_equals_oracle;
          Alcotest.test_case "annealing lazy on an app" `Quick
            test_anneal_lazy_on_app;
          Alcotest.test_case "evaluation accounting" `Quick
            test_result_evaluation_accounting;
          Alcotest.test_case "mapping on demand" `Quick
            test_engine_mapping_on_demand;
          Alcotest.test_case "invalid move fails resolve" `Quick
            test_engine_invalid_resolve;
        ] );
      ( "feasibility",
        [
          Alcotest.test_case "shared hull shrinks" `Quick
            test_feasible_shared_hull_shrinks;
          Alcotest.test_case "empty lifetime widened" `Quick
            test_feasible_empty_lifetime_widened;
          Alcotest.test_case "array between levels" `Quick
            test_feasible_array_between_levels;
          Alcotest.test_case "foreign placements" `Quick
            test_engine_foreign_placements;
          qc prop_engine_feasible_matches_oracle;
          Alcotest.test_case "hull widening" `Quick test_feasible_hull_widening;
          (let name, speed, run = qc prop_engine_shortcuts_match_oracle in
           ( name,
             speed,
             fun () ->
               Array.fill decided 0 3 0;
               run ();
               Alcotest.(check bool)
                 (Fmt.str "accepted, rejected and staged all occur (%d/%d/%d)"
                    decided.(0) decided.(1) decided.(2))
                 true
                 (Array.for_all (fun n -> n > 0) decided) ));
          Alcotest.test_case "leaving a group is accepted" `Quick
            test_feasible_leave_accepted;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "matches or beats greedy" `Quick
            test_exhaustive_matches_or_beats_greedy;
          Alcotest.test_case "budget guard" `Quick test_exhaustive_budget_guard;
          Alcotest.test_case "feasibility" `Quick test_exhaustive_feasibility;
        ] );
      ( "state",
        [
          qc prop_state_equals_fresh;
          Alcotest.test_case "solve after an abort" `Quick
            test_state_after_abort;
          Alcotest.test_case "shape change" `Quick test_state_shape_change;
          qc prop_handles_survive_reseats;
        ] );
    ]
