(* Tests for the pluggable policy layer: default-policy bit-identity
   against pre-refactor snapshots, portfolio determinism across worker
   counts, and the name registry. *)

module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Explore = Mhla_core.Explore
module Policy = Mhla_policy.Policy
module Portfolio = Mhla_policy.Portfolio
module Registry = Mhla_policy.Registry
module Presets = Mhla_arch.Presets

let app_platform (app : Mhla_apps.Defs.t) =
  ( Lazy.force app.Mhla_apps.Defs.program,
    Presets.two_level ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes () )

(* Solver outputs on the nine registry applications, recorded on the
   default platform immediately before the policy-layer refactor. The
   refactor's contract is that the default hooks change nothing: greedy
   column = [Explore.run], anneal column = seed 42, 4000 iterations.
   Any drift here means a default policy is no longer the identity. *)
let snapshots =
  [ (* name, greedy (assign cycles, te cycles, te energy),
       anneal (assign cycles, te cycles) *)
    ("motion_estimation", (88836921, 77850297, 235004624.09089071),
     (90182979, 78109137));
    ("qsdpcm", (6349545, 6243561, 12902328.), (6349545, 6243561));
    ("cavity_detector", (3165252, 3077720, 6648225.8446395984),
     (3165252, 3077720));
    ("wavelet_2d", (1294012, 1235964, 2625047.75), (1294012, 1235964));
    ("jpeg_encoder", (22154198, 22071830, 36400009.746795818),
     (22154198, 22071830));
    ("edge_detection", (5235739, 4875291, 8563894.6142925676),
     (5235739, 4875291));
    ("adpcm_coder", (431846, 384230, 1365125.2851270181), (431846, 384230));
    ("mp3_filterbank", (698770, 688658, 1359101.7406037247),
     (698770, 688658));
    ("voice_compression", (2007011, 1965027, 4111919.2515338003),
     (2007011, 1965027)) ]

let test_default_policies_bit_identical () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let name = app.Mhla_apps.Defs.name in
      let (g_assign, g_te, g_energy), (a_assign, a_te) =
        match
          List.find_opt (fun (n, _, _) -> String.equal n name) snapshots
        with
        | Some (_, g, a) -> (g, a)
        | None -> Alcotest.failf "no snapshot for app %s" name
      in
      let program, hierarchy = app_platform app in
      let g = Policy.run Policy.greedy program hierarchy in
      Alcotest.(check int)
        (name ^ " greedy assign cycles") g_assign
        g.Explore.after_assign.Cost.total_cycles;
      Alcotest.(check int)
        (name ^ " greedy te cycles") g_te
        g.Explore.after_te.Cost.total_cycles;
      Alcotest.(check (float 0.))
        (name ^ " greedy te energy") g_energy
        g.Explore.after_te.Cost.total_energy_pj;
      let a = Policy.run Policy.anneal program hierarchy in
      Alcotest.(check int)
        (name ^ " anneal assign cycles") a_assign
        a.Explore.after_assign.Cost.total_cycles;
      Alcotest.(check int)
        (name ^ " anneal te cycles") a_te
        a.Explore.after_te.Cost.total_cycles)
    Mhla_apps.Registry.all

(* [lean] on the same platforms: (assign cycles, te cycles, te energy)
   per app. It pins the top-k CC selection. *)
let lean_snapshot =
  [ ("motion_estimation", (175787091, 175787091, 351574441.27445877));
    ("qsdpcm", (14446080, 14446080, 29044224.));
    ("cavity_detector", (6717828, 6717828, 12756672.));
    ("wavelet_2d", (2227228, 2227228, 4185695.75));
    ("jpeg_encoder", (33859958, 33859958, 63537101.590126254));
    ("edge_detection", (8798235, 8798235, 15933981.754730145));
    ("adpcm_coder", (673254, 673254, 1285936.8832875376));
    ("mp3_filterbank", (1164306, 1164306, 2249273.2235150016));
    ("voice_compression", (4407395, 4407395, 9206430.1787409838)) ]

let test_lean_pinned () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let name = "lean " ^ app.Mhla_apps.Defs.name in
      let assign, te, energy =
        match List.assoc_opt app.Mhla_apps.Defs.name lean_snapshot with
        | Some row -> row
        | None -> Alcotest.failf "no snapshot for %s" name
      in
      let program, hierarchy = app_platform app in
      let r = Policy.run Policy.lean program hierarchy in
      Alcotest.(check int)
        (name ^ " assign cycles") assign
        r.Explore.after_assign.Cost.total_cycles;
      Alcotest.(check int)
        (name ^ " te cycles") te r.Explore.after_te.Cost.total_cycles;
      Alcotest.(check (float 0.))
        (name ^ " te energy") energy
        r.Explore.after_te.Cost.total_energy_pj)
    Mhla_apps.Registry.all

let test_greedy_policy_equals_explore_run () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program, hierarchy = app_platform app in
      let plain = Explore.run program hierarchy in
      let via_policy = Policy.run Policy.greedy program hierarchy in
      let name = app.Mhla_apps.Defs.name in
      Alcotest.(check bool)
        (name ^ " breakdowns identical") true
        (plain.Explore.after_assign = via_policy.Explore.after_assign
        && plain.Explore.after_te = via_policy.Explore.after_te
        && plain.Explore.baseline = via_policy.Explore.baseline
        && plain.Explore.ideal = via_policy.Explore.ideal);
      Alcotest.(check int)
        (name ^ " same evaluation count")
        plain.Explore.assign.Assign.evaluations
        via_policy.Explore.assign.Assign.evaluations)
    Mhla_apps.Registry.all

let race_outcome ~jobs program hierarchy =
  let o =
    Portfolio.race ~jobs ~policies:Registry.default_portfolio program
      hierarchy
  in
  (o.Portfolio.winner.Portfolio.policy.Policy.name,
   o.Portfolio.winner.Portfolio.objective,
   List.map
     (fun (e : Portfolio.entry) -> (e.Portfolio.policy.Policy.name, e.Portfolio.objective))
     o.Portfolio.entrants)

let test_portfolio_jobs_identical () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program, hierarchy = app_platform app in
      let serial = race_outcome ~jobs:1 program hierarchy in
      let parallel = race_outcome ~jobs:4 program hierarchy in
      Alcotest.(check bool)
        (app.Mhla_apps.Defs.name ^ " -j1 = -j4") true (serial = parallel))
    [ Mhla_apps.Registry.find_exn "qsdpcm";
      Mhla_apps.Registry.find_exn "mp3_filterbank";
      Mhla_apps.Registry.find_exn "adpcm_coder" ]

let test_portfolio_jobs_identical_on_generated () =
  let rng = Mhla_util.Prng.create ~seed:0xCAFEL in
  for _ = 1 to 3 do
    let seed = Mhla_util.Prng.next_int64 rng in
    let case = Mhla_gen.Generate.case ~profile:Mhla_gen.Generate.Mixed ~seed () in
    let hierarchy =
      Presets.two_level ~onchip_bytes:case.Mhla_gen.Generate.onchip_bytes ()
    in
    let program = case.Mhla_gen.Generate.program in
    let serial = race_outcome ~jobs:1 program hierarchy in
    let parallel = race_outcome ~jobs:4 program hierarchy in
    Alcotest.(check bool)
      (Printf.sprintf "generated seed %Ld: -j1 = -j4" seed)
      true (serial = parallel)
  done

let test_portfolio_tie_breaks_to_first () =
  let app = Mhla_apps.Registry.find_exn "qsdpcm" in
  let program, hierarchy = app_platform app in
  let policies =
    [ Policy.make ~search:Explore.Greedy "alpha";
      Policy.make ~search:Explore.Greedy "beta" ]
  in
  let o = Portfolio.race ~jobs:2 ~policies program hierarchy in
  Alcotest.(check string)
    "identical entrants: earliest wins" "alpha"
    o.Portfolio.winner.Portfolio.policy.Policy.name

let test_portfolio_rejects_empty () =
  match Portfolio.race ~policies:[] (fst (app_platform (Mhla_apps.Registry.find_exn "qsdpcm")))
          (snd (app_platform (Mhla_apps.Registry.find_exn "qsdpcm")))
  with
  | exception Mhla_util.Error.Error { kind = Mhla_util.Error.Invalid_input; _ }
    -> ()
  | _ -> Alcotest.fail "empty portfolio should raise Invalid_input"

let test_registry_names () =
  Alcotest.(check (list string))
    "builtin names"
    [ "greedy"; "greedy-first"; "anneal"; "lean" ]
    Registry.names;
  List.iter
    (fun n ->
      let p = Registry.find n in
      Alcotest.(check string) "find returns the named policy" n
        p.Policy.name)
    Registry.names;
  (* Search-name aliases keep old CLI spellings working. *)
  Alcotest.(check bool) "annealing alias" true
    (match Registry.search_of_name "annealing" with
    | Explore.Annealing _ -> true
    | _ -> false);
  Alcotest.(check bool) "first alias" true
    (Registry.search_of_name "first" = Explore.First_improvement)

let expect_invalid name f =
  match f () with
  | exception Mhla_util.Error.Error { kind = Mhla_util.Error.Invalid_input; _ }
    -> ()
  | _ -> Alcotest.failf "%s should raise Invalid_input" name

let test_registry_unknown_names () =
  expect_invalid "unknown policy" (fun () -> Registry.find "nope");
  expect_invalid "unknown search" (fun () ->
      Registry.search_of_name "tabu")

let () =
  Alcotest.run "policy"
    [ ( "defaults",
        [ Alcotest.test_case "bit-identical to pre-refactor snapshots"
            `Quick test_default_policies_bit_identical;
          Alcotest.test_case "lean pinned" `Quick
            test_lean_pinned;
          Alcotest.test_case "greedy policy = Explore.run" `Quick
            test_greedy_policy_equals_explore_run ] );
      ( "portfolio",
        [ Alcotest.test_case "jobs identical on apps" `Quick
            test_portfolio_jobs_identical;
          Alcotest.test_case "jobs identical on generated" `Quick
            test_portfolio_jobs_identical_on_generated;
          Alcotest.test_case "tie breaks to first" `Quick
            test_portfolio_tie_breaks_to_first;
          Alcotest.test_case "rejects empty" `Quick
            test_portfolio_rejects_empty ] );
      ( "registry",
        [ Alcotest.test_case "names and aliases" `Quick test_registry_names;
          Alcotest.test_case "unknown names" `Quick
            test_registry_unknown_names ] ) ]
