(* A complete study of the motion-estimation workload: what the reuse
   analysis sees, what step 1 decides, what step 2 hides, and how the
   result compares with the event-driven simulation.

   Run with: dune exec examples/motion_estimation_study.exe *)

module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Explore = Mhla_core.Explore
module Prefetch = Mhla_core.Prefetch

let header title = Printf.printf "\n=== %s ===\n" title

let main () =
  let app = Mhla_apps.Registry.find_exn "motion_estimation" in
  let program = Lazy.force app.Mhla_apps.Defs.program in
  let hierarchy =
    Mhla_arch.Presets.two_level
      ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
  in

  header "Workload";
  Fmt.pr "%a@." Mhla_ir.Program.pp program;

  (* The search space: every copy candidate of every access. *)
  header "Copy candidates";
  let infos = Analysis.analyze program in
  List.iter
    (fun (info : Analysis.info) ->
      Fmt.pr "access %a -> %s (%d dynamic accesses)@."
        Analysis.pp_access_ref info.Analysis.ref_ info.Analysis.array
        info.Analysis.executions;
      List.iter
        (fun (c : Candidate.t) ->
          Fmt.pr "  level %d: buffer %6dB, %7d transfers, reuse %.1f@."
            c.Candidate.level c.Candidate.footprint_bytes c.Candidate.issues
            (Candidate.reuse_factor Candidate.Delta c))
        (Analysis.useful_candidates info))
    infos;

  (* The full two-step flow. *)
  header "Two-step exploration";
  let result = Explore.run program hierarchy in
  print_endline (Mhla_core.Report.summary ~name:"motion_estimation" result);
  Printf.printf "moves applied by the greedy (in order):\n";
  List.iter
    (fun (s : Assign.step) ->
      Printf.printf "  %s\n" (Assign.describe_move s.Assign.move))
    result.Explore.assign.Assign.steps;
  Printf.printf "TE plans (greedy order = DMA priority):\n";
  List.iter
    (fun p -> Fmt.pr "  %a@." Prefetch.pp_plan p)
    result.Explore.te.Prefetch.plans;

  (* Validate the TE arithmetic against the event-driven simulator. *)
  header "Event-driven cross-check";
  List.iter
    (fun c -> Fmt.pr "  %a@." Mhla_sim.Crosscheck.pp_check c)
    (Mhla_sim.Crosscheck.pipeline_checks result.Explore.assign.Assign.mapping
       result.Explore.te);

  header "Design points (cycles)";
  Printf.printf "  out-of-the-box : %d\n"
    result.Explore.baseline.Cost.total_cycles;
  Printf.printf "  after step 1   : %d (%.1f%% gain)\n"
    result.Explore.after_assign.Cost.total_cycles
    (Explore.assign_time_gain_percent result);
  Printf.printf "  after step 2   : %d (extra %.1f%% gain)\n"
    result.Explore.after_te.Cost.total_cycles
    (Explore.te_extra_gain_percent result);
  Printf.printf "  ideal (0-wait) : %d\n"
    result.Explore.ideal.Cost.total_cycles

(* Structured-error guard: render Mhla_util.Error values with their
   context and hint, and exit with the error kind's code. *)
let () =
  match Mhla_util.Error.catch main with
  | Ok () -> ()
  | Error e ->
    prerr_endline (Mhla_util.Error.to_string e);
    exit (Mhla_util.Error.exit_code e)
