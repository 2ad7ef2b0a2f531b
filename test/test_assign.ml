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

let test_alternatives_respect_chain_cap () =
  let h = Presets.three_level ~l1_bytes:256 ~l2_bytes:4096 () in
  let m = Mapping.direct (conv ()) h in
  let info = List.hd m.Mapping.infos in
  let max_len config =
    List.fold_left
      (fun acc -> function
        | Mapping.Direct -> acc
        | Mapping.Chain links -> max acc (List.length links))
      0
      (Assign.alternatives config m info)
  in
  Alcotest.(check int) "cap 1" 1
    (max_len { Assign.default_config with Assign.max_chain_length = 1 });
  Alcotest.(check int) "cap 2" 2
    (max_len { Assign.default_config with Assign.max_chain_length = 2 })

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
      List.map (fun (s : Assign.step) -> s.Assign.description) r.Assign.steps )
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
  Alcotest.(check bool) "feasible under Sum" true
    (Mapping.occupancy_ok ~policy:Occupancy.Sum result.Assign.mapping)

(* --- exhaustive ------------------------------------------------------- *)

let small_conv () = conv ~n:4 ()

let test_exhaustive_matches_or_beats_greedy () =
  let program = small_conv () in
  let h = Presets.two_level ~onchip_bytes:128 () in
  let config =
    { cycles_config with Assign.allow_array_promotion = false }
  in
  let greedy = Assign.greedy ~config program h in
  match Assign.exhaustive ~config ~max_states:1_000_000 program h with
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
  match Assign.exhaustive ~max_states:10 program h with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the state budget to trip"

let test_exhaustive_feasibility () =
  let program = small_conv () in
  let h = Presets.two_level ~onchip_bytes:64 () in
  let config =
    { cycles_config with Assign.allow_array_promotion = false }
  in
  match Assign.exhaustive ~config ~max_states:1_000_000 program h with
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
      let oracle = Assign.greedy ~oracle:true program h in
      Alcotest.(check bool)
        (app.Mhla_apps.Defs.name ^ ": identical result") true
        (fingerprint engine = fingerprint oracle);
      Alcotest.(check int)
        (app.Mhla_apps.Defs.name ^ ": same evaluation count")
        oracle.Assign.evaluations engine.Assign.evaluations)
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
            Assign.greedy ~config ~first_improvement ~oracle:true program h
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
        Assign.simulated_annealing ~oracle:true ~seed ~iterations:600
          program h
      in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d seed %Ld: identical result" budget seed)
        true
        (fingerprint engine = fingerprint oracle))
    [ (128, 7L); (512, 7L); (512, 1234L) ]

let test_result_evaluation_accounting () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let engine = Assign.greedy program h in
  let oracle = Assign.greedy ~oracle:true program h in
  Alcotest.(check int) "oracle: every evaluation is full"
    oracle.Assign.evaluations oracle.Assign.full_evaluations;
  Alcotest.(check int) "oracle: no cache traffic" 0
    (oracle.Assign.cache_hits + oracle.Assign.cache_misses);
  Alcotest.(check int) "engine: no full evaluations" 0
    engine.Assign.full_evaluations;
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
let feasible_agrees config engine mv =
  Engine.feasible engine mv
  = Assign.feasible config (Assign.apply_move (Engine.mapping engine) mv)

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
        Engine.create ~policy ~objective:config.Assign.objective
          (Mapping.direct program hierarchy)
      in
      let rng = Mhla_util.Prng.create ~seed:(Int64.of_int (seed + 1)) in
      let ok = ref true in
      for _ = 1 to 10 do
        match Assign.moves config (Engine.mapping engine) with
        | [] -> ()
        | moves ->
          if not (List.for_all (feasible_agrees config engine) moves) then
            ok := false;
          Engine.commit engine (Mhla_util.Prng.pick rng moves)
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
        Mapping.direct (shared_table ()) (Presets.two_level ~onchip_bytes:12 ())
      in
      let engine = Engine.create ~policy ~objective:config.Assign.objective m in
      let r1, c1 = whole_chain m "s1" ~layer:0 in
      let r2, c2 = whole_chain m "s2" ~layer:0 in
      List.iter (Engine.commit engine)
        [ Engine.Set_placement (r1, c1); Engine.Set_placement (r2, c2);
          Engine.Set_array ("y", Some 0) ];
      (* [z] is off-chip already: this move leaves the layer as it is. *)
      let stay = Engine.Set_array ("z", None) in
      let drop r = Engine.Set_placement (r, Mapping.Direct) in
      List.iter
        (fun (what, mv, expected) ->
          Alcotest.(check bool) (what ^ " agrees") true
            (feasible_agrees config engine mv);
          Alcotest.(check bool) what expected (Engine.feasible engine mv))
        [ ("the hull covers slot 1", stay, here);
          ("dropping s1 keeps slot 1", drop r1, drop_s1);
          ("dropping s2 shrinks the hull to slot 0", drop r2, drop_s2) ])
    [ (Occupancy.In_place, (false, false, true));
      (Occupancy.Sum, (false, false, false)) ]

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
  Alcotest.(check bool) "idle alone fits" true (Engine.feasible engine idle);
  Engine.commit engine (Engine.Set_array ("used", Some 0));
  Alcotest.(check bool) "widened idle collides with used" true
    (feasible_agrees config engine idle);
  Alcotest.(check bool) "16 bytes in slot 0" false
    (Engine.feasible engine idle)

let test_feasible_array_between_levels () =
  let config = Assign.default_config in
  let m =
    Mapping.direct (shared_table ())
      (Presets.three_level ~l1_bytes:4 ~l2_bytes:64 ())
  in
  let engine = Engine.create ~objective:config.Assign.objective m in
  let to_level l = Engine.Set_array ("tab", Some l) in
  Alcotest.(check bool) "fits in L2" true (Engine.feasible engine (to_level 1));
  Engine.commit engine (to_level 1);
  Alcotest.(check bool) "L2 -> L1 agrees" true
    (feasible_agrees config engine (to_level 0));
  Alcotest.(check bool) "too big for L1" false
    (Engine.feasible engine (to_level 0));
  Engine.commit engine (to_level 0);
  Alcotest.(check bool) "L1 -> L2 agrees" true
    (feasible_agrees config engine (to_level 1));
  Alcotest.(check bool) "back to L2 frees L1" true
    (Engine.feasible engine (to_level 1));
  Alcotest.(check bool) "off-chip frees L1" true
    (Engine.feasible engine (Engine.Set_array ("tab", None)))

(* The engine compiles each placement it sees once, keyed by physical
   identity. A placement that is only structurally equal to one of the
   alternatives, or a hand-built chain the searches never generate,
   gets a record of its own and must be answered exactly like the
   hoisted alternatives: check, probe and commit all agree with the
   from-scratch evaluation of the moved mapping. *)
let test_engine_foreign_placements () =
  (* Single-link alternatives, so a two-link chain is foreign. *)
  let config = { Assign.default_config with Assign.max_chain_length = 1 } in
  let objective = config.Assign.objective in
  let m =
    Mapping.direct (conv ())
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
    Alcotest.(check bool) (what ^ ": feasible") (Assign.feasible config moved)
      (Engine.feasible engine mv);
    Alcotest.(check bool) (what ^ ": probe") true
      (Engine.probe engine mv = Cost.scalar objective (Cost.evaluate moved))
  in
  List.iter
    (fun (what, p) ->
      let mv = Engine.Set_placement (r, p) in
      agrees what mv;
      Engine.commit engine mv;
      Alcotest.(check bool) (what ^ ": committed breakdown") true
        (Engine.breakdown engine = Cost.evaluate (Engine.mapping engine));
      List.iter (agrees (what ^ " then a search move"))
        (Assign.moves config (Engine.mapping engine)))
    [ ("structural twin", twin); ("hand-built chain", hand) ];
  for _ = 1 to 3 * Engine.compiled_cap do
    ignore (Engine.probe engine (Engine.Set_placement (r, copy twin)) : float)
  done;
  Alcotest.(check int) "fresh copies stay within the cache bound"
    Engine.compiled_cap (Engine.compiled engine r);
  agrees "after eviction" (Engine.Set_placement (r, copy hand))

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
          Alcotest.test_case "greedy = oracle on kernel" `Quick
            test_greedy_engine_equals_oracle_on_kernel;
          Alcotest.test_case "annealing = oracle" `Quick
            test_anneal_engine_equals_oracle;
          Alcotest.test_case "evaluation accounting" `Quick
            test_result_evaluation_accounting;
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
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "matches or beats greedy" `Quick
            test_exhaustive_matches_or_beats_greedy;
          Alcotest.test_case "budget guard" `Quick test_exhaustive_budget_guard;
          Alcotest.test_case "feasibility" `Quick test_exhaustive_feasibility;
        ] );
    ]
