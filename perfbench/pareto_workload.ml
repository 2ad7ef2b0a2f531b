(* paper-pareto: the paper's own use case, a trade-off exploration over
   memory layer sizes. Each of the nine registry apps is explored with
   [Explore.pareto ~jobs:1] over the 5x5 L1/L2 budget grid of the
   EXT-PARETO bench section. The inputs are fixed (the seed does not
   change them), and [core] does nearly all of the timed work. *)

module Explore = Mhla_core.Explore
module Json = Mhla_util.Json
module Nd = Mhla_util.Pareto.Nd
module Telemetry = Mhla_obs.Telemetry
module Defs = Mhla_apps.Defs

let axes =
  [ [ 1024; 4096; 16384; 65536; 262144 ];
    [ 2048; 8192; 32768; 131072; 524288 ] ]

let expected_file = Filename.concat "perfbench" "expected/pareto_frontiers.json"

(* The output a run is checked against: the whole frontier, every
   point's budgets, cycles and energy, compared exactly. *)
let frontier_json (o : Explore.pareto_outcome) =
  Json.arr
    (List.map
       (fun p ->
         let (pt : Explore.pareto_point) = Nd.payload p in
         let after = pt.Explore.point_result.Explore.after_te in
         Json.obj
           [ ("budgets", Json.arr (List.map Json.int pt.Explore.budgets));
             ("cycles", Json.int after.Mhla_core.Cost.total_cycles);
             ("energy_pj", Json.float after.Mhla_core.Cost.total_energy_pj) ])
       (Nd.to_list o.Explore.frontier))

let read_expected file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Json.parse text with
  | Ok (Json.Obj apps) -> apps
  | Ok _ | Error _ -> failwith (file ^ ": expected an object of app frontiers")

(* The paper's bands on each app's calibrated budget, as
   test_integration checks them: step-1 time gain 40-65 %, TE extra
   gain 0-33 %, energy gain in (0, 80] %. *)
let in_bands (r : Explore.result) =
  let g1 = Explore.assign_time_gain_percent r in
  let te = Explore.te_extra_gain_percent r in
  let e = Explore.energy_gain_percent r in
  g1 >= 40. && g1 <= 65. && te >= 0. && te <= 33. && e > 0. && e <= 80.

type app = {
  name : string;
  program : Mhla_ir.Program.t;
  in_bands : bool;
  expected : Json.t option;
}

let setup ~expected () =
  let expected = expected () in
  List.map
    (fun (d : Defs.t) ->
      let program = Lazy.force d.Defs.program in
      let calibrated =
        Explore.run program
          (Mhla_arch.Presets.two_level ~onchip_bytes:d.Defs.onchip_bytes ())
      in
      {
        name = d.Defs.name;
        program;
        in_bands = in_bands calibrated;
        expected = List.assoc_opt d.Defs.name expected;
      })
    Mhla_apps.Registry.all

type sample = {
  app : app;
  ns : int;
  words : float;
  stats : Explore.pareto_stats;
  correct : bool;
}

let explore ?(telemetry = Telemetry.noop) app =
  (* Start from a collected heap, as a fresh `mhla pareto` process
     would, so what one app leaves behind does not slow the next. *)
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Measure.now_ns () in
  let o = Explore.pareto ~jobs:1 ~telemetry ~axes app.program in
  let ns = Measure.now_ns () - t0 in
  let words = Gc.minor_words () -. w0 in
  let correct =
    app.in_bands
    && (not o.Explore.partial)
    &&
    match app.expected with
    (* Compared as rendered text: the file holds an integral energy
       as a JSON integer, which parses back as [Int]. *)
    | Some want -> Json.to_string want = Json.to_string (frontier_json o)
    | None -> false
  in
  ({ app; ns; words; stats = o.Explore.stats; correct }, o)

let pass ?telemetry apps = List.map (fun a -> fst (explore ?telemetry a)) apps

(* Counts that must repeat exactly on every pass: allocation and the
   branch-and-bound's decisions. A sample that differs from the first
   pass's sample of the same app counts as failed. *)
let counts s = (s.words, s.stats.Explore.evaluated, s.stats.Explore.pruned)

let failures passes =
  match passes with
  | [] -> 0
  | first :: _ ->
    List.fold_left
      (fun acc pass ->
        List.fold_left2
          (fun acc s ref_ ->
            if s.correct && counts s = counts ref_ then acc else acc + 1)
          acc pass first)
      0 passes

let times pass = List.map (fun s -> Measure.ms_of_ns s.ns) pass

let run_untraced ~expected ~seconds =
  let m = Measure.setup_and_passes ~seconds ~setup:(setup ~expected) pass in
  let decided =
    List.fold_left
      (fun a s -> a + s.stats.Explore.evaluated + s.stats.Explore.pruned)
      0 (List.hd m.runs)
  in
  let metrics, notes =
    Measure.end_to_end m ~work:(float_of_int decided) ~times ~tail:0.9
      ~work_unit:"work = grid points decided (solved + pruned)"
  in
  {
    Measure.attempted = List.length (List.concat m.runs);
    failed = failures m.runs;
    metrics;
    notes;
  }

let run_traced ~expected ~seconds ~trace_file =
  let apps = setup ~expected () in
  let untraced = Measure.passes ~seconds:(seconds /. 2.) ~min_passes:2 (fun () -> pass apps) in
  let prof = Profile.create () in
  let probes_per_pass = ref [] in
  let traced =
    Measure.passes ~seconds:(seconds /. 2.) ~min_passes:2 (fun () ->
        let before = Profile.count prof "engine.probe" in
        let pass =
          List.map
            (fun app ->
              let sink = Profile.collector () in
              let s, _ =
                Telemetry.span sink ~cat:"bench" ("paper_pareto." ^ app.name)
                  (fun () -> explore ~telemetry:sink app)
              in
              Profile.add prof sink;
              s)
            apps
        in
        probes_per_pass := (Profile.count prof "engine.probe" - before) :: !probes_per_pass;
        pass)
  in
  Profile.write prof ~file:trace_file;
  let ref_samples = List.concat untraced in
  let ops = List.length (List.concat traced) in
  let per_ref f = Measure.mean (List.map f ref_samples) in
  let evaluated = per_ref (fun s -> float_of_int s.stats.Explore.evaluated) in
  let pruned = per_ref (fun s -> float_of_int s.stats.Explore.pruned) in
  let probe_drift =
    match !probes_per_pass with
    | p :: rest -> List.exists (( <> ) p) rest
    | [] -> false
  in
  let overhead =
    100.
    *. (Measure.sum (Measure.best (List.map times traced))
        /. Measure.sum (Measure.best (List.map times untraced))
       -. 1.)
  in
  let metrics =
    Profile.span_metrics prof ~ops
    @ [ ("reuse.precompute.ms",
         Profile.total_ms prof "pareto.precompute" /. float_of_int ops, "ms");
        ("core.pareto.evaluated", evaluated, "count");
        ("core.pareto.pruned", pruned, "count");
        ("core.pareto.prune_ratio", pruned /. (evaluated +. pruned), "ratio");
        ("core.alloc_mwords", per_ref (fun s -> s.words) /. 1e6, "Mwords");
        ("trace.overhead_pct", overhead, "%") ]
  in
  {
    Measure.attempted = List.length ref_samples + ops;
    failed =
      failures untraced
      + List.length (List.filter (fun s -> not s.correct) (List.concat traced))
      + (if probe_drift then 1 else 0);
    metrics;
    notes =
      [ Fmt.str "%d untraced and %d traced pass(es); spans written to %s"
          (List.length untraced) (List.length traced) trace_file ];
  }

(* Regenerate the expected-frontier file from the current solver. *)
let write_expected () =
  let apps = setup ~expected:(fun () -> []) () in
  let doc =
    Json.obj (List.map (fun a -> (a.name, frontier_json (snd (explore a)))) apps)
  in
  Out_channel.with_open_bin expected_file (fun oc ->
      Json.to_channel ~indent:1 oc doc;
      output_char oc '\n')
