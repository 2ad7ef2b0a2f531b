(* mhla — command-line front-end of the MHLA-with-Time-Extensions tool.

   Subcommands:
     list                      the nine bundled applications
     show APP                  print an application's loop-nest program
     run APP [--onchip N] ...  the full two-step flow with a report
                               (--policy picks a search policy,
                               --portfolio races a field of them)
     emit APP                  pseudo-C of the transformed program
     sweep APP [--min/--max]   trade-off exploration over on-chip sizes
     pareto APP [--level ...]  budget-vector frontier over per-layer sizes
     figures                   regenerate the paper's Figures 2 and 3
     robustness APP [--seed]   fault-injected TE stall inflation (EXT-FAULT)
     simulate APP [--channels] event-driven DMA/bus sim vs analytic gain
                               (EXT-ESIM; --queue-depth/--shared-bus/...)
     check APP [--Werror] ...  static verification of the solver output
     fuzz [--seed] [--count]   differential fuzzing over generated programs
     batch FILE.jsonl          solve a JSONL request file, one response each
     serve --stdin             daemon: JSONL requests in, responses out
     soak [--requests N]       chaos soak of the service (CI gate)

   Exit codes: 0 success, 1 check/soak found errors, 2 invalid input,
   4 capacity exceeded, 70 internal error, 75 deadline exceeded (see
   Mhla_util.Error). *)

module Apps = Mhla_apps.Registry
module Assign = Mhla_core.Assign
module Check = Mhla_analysis.Verify
module Check_pass = Mhla_analysis.Pass
module Cost = Mhla_core.Cost
module Error = Mhla_util.Error
module Explore = Mhla_core.Explore
module Policy = Mhla_policy.Policy
module Portfolio = Mhla_policy.Portfolio
module Prefetch = Mhla_core.Prefetch
module Registry = Mhla_policy.Registry
module Report = Mhla_core.Report
module Request = Mhla_service.Request
module Service = Mhla_service.Service
module Table = Mhla_util.Table
module Telemetry = Mhla_obs.Telemetry
module Trace_export = Mhla_obs.Trace_export

(* Every subcommand body runs under [guarded]: a structured error is
   rendered with its context and hint on stderr and mapped to its
   kind's exit code, instead of escaping as an exception trace. *)
let guarded f =
  match Error.catch f with
  | Ok () -> ()
  | Result.Error e ->
    prerr_endline (Error.to_string e);
    exit (Error.exit_code e)

(* Name resolution lives in the registry (Apps.find_exn) so the CLI,
   benchmarks and tests all report unknown names the same way. *)
let find_app = Apps.find_exn

let check_jobs ?(context = "mhla") = function
  | Some j when j < 1 ->
    Error.invalidf ~context ~hint:"pass -j a positive worker count"
      "jobs must be at least 1 (got %d)" j
  | _ -> ()

(* --- shared options ---------------------------------------------------- *)

open Cmdliner

let app_arg =
  let doc = "Application name (see $(b,mhla list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let onchip_arg =
  let doc =
    "On-chip scratchpad size in bytes; defaults to the application's \
     calibrated budget."
  in
  Arg.(value & opt (some int) None & info [ "onchip" ] ~docv:"BYTES" ~doc)

let dma_arg =
  let doc =
    "Model a DMA transfer engine. Without one, Time Extensions are not \
     applicable (the tool runs step 1 only)."
  in
  Arg.(value & opt bool true & info [ "dma" ] ~docv:"BOOL" ~doc)

let objective_conv =
  Arg.enum
    [ ("energy", Cost.Energy); ("cycles", Cost.Cycles);
      ("energy-delay", Cost.Energy_delay) ]

let objective_arg =
  let doc = "Assignment objective: energy, cycles or energy-delay." in
  Arg.(
    value
    & opt objective_conv Assign.default_config.Assign.objective
    & info [ "objective" ] ~docv:"OBJ" ~doc)

let mode_conv =
  Arg.enum
    [ ("full", Mhla_reuse.Candidate.Full);
      ("delta", Mhla_reuse.Candidate.Delta) ]

let mode_arg =
  let doc =
    "Block-transfer accounting: full window refills or delta (sliding \
     window) refills."
  in
  Arg.(
    value
    & opt mode_conv Assign.default_config.Assign.transfer_mode
    & info [ "mode" ] ~docv:"MODE" ~doc)

(* The search name is taken as a plain string and resolved through the
   policy-layer registry inside [guarded], so an unknown spelling gets
   the structured Invalid_input diagnostic (exit 2) instead of
   cmdliner's usage error — and the CLI, the service wire and the tests
   accept exactly the same names. *)
let search_arg =
  let doc =
    "Step-1 search engine: greedy (steepest descent), first-improvement \
     or anneal."
  in
  Arg.(
    value & opt (some string) None & info [ "search" ] ~docv:"ENGINE" ~doc)

let resolve_search = Option.map (Registry.search_of_name ~context:"mhla")

let deadline_arg =
  let doc =
    "Abandon the solve once it exceeds this wall-clock budget in \
     milliseconds; the run then exits with code 75 (the same request may \
     succeed with a larger budget)."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let checkpoint_of deadline_ms =
  Option.map
    (fun ms ->
      Mhla_service.Deadline.checkpoint ~context:"mhla"
        ~deadline_ns:(Mhla_service.Deadline.after_ms ms))
    deadline_ms

(* --- telemetry plumbing ------------------------------------------------ *)

(* One verbosity ladder shared by every subcommand: -q silences the
   report, -v expands it, --debug additionally streams each telemetry
   event to stderr as it is recorded. *)
type verbosity = Quiet | Normal | Verbose | Debug

let verbosity_term =
  let quiet =
    Arg.(value & flag
         & info [ "q"; "quiet" ] ~doc:"Suppress the report; errors only.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Full report.") in
  let debug =
    Arg.(value & flag
         & info [ "debug" ]
             ~doc:"Stream the tool's internal decisions (moves, TE plans, \
                   spans) to stderr as telemetry events.")
  in
  let combine q v d =
    if d then Debug else if v then Verbose else if q then Quiet else Normal
  in
  Term.(const combine $ quiet $ verbose $ debug)

let trace_arg =
  let doc =
    "Record a Chrome trace_event JSON file of the run (spans, counters, \
     decision events); load it in Perfetto (ui.perfetto.dev) or \
     chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Pick the sink a subcommand runs under: the zero-cost noop unless the
   user asked for a trace file or a --debug event stream. The trace file
   is written even when the run fails — the events up to the error are
   exactly what one wants to see then. *)
let with_telemetry ~trace ~verbosity f =
  match (trace, verbosity) with
  | None, (Quiet | Normal | Verbose) -> f Telemetry.noop
  | _ ->
    let on_event =
      match verbosity with
      | Debug -> Some (fun e -> Fmt.epr "%a@." Telemetry.pp_event e)
      | Quiet | Normal | Verbose -> None
    in
    let t = Telemetry.collector ?on_event () in
    Fun.protect
      ~finally:(fun () ->
        match trace with
        | None -> ()
        | Some file ->
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> Trace_export.write oc t))
      (fun () -> f t)

(* Every subcommand that solves builds the request the service would
   get for its flags, named after the application, and hands it to
   [Service.run_job] ([sweep], which no request kind spells, only
   checks its flags through one): the flags mean what the wire fields
   mean, and [Request.make] rejects a bad value at its wire path. *)
let app_job name ~onchip ~dma =
  let app = find_app name in
  let onchip_bytes =
    Option.value onchip ~default:app.Mhla_apps.Defs.onchip_bytes
  in
  ( Lazy.force app.Mhla_apps.Defs.program,
    Request.Two_level { onchip_bytes; dma } )

(* The flow's result for a [Solve] request, through the job path. *)
let solved ?telemetry req =
  match Service.run_job ?telemetry req with
  | Service.Solved { result; _ } -> result
  | _ -> assert false

let print_json doc = print_endline (Mhla_util.Json.to_string ~indent:2 doc)

(* --- subcommands ------------------------------------------------------- *)

let list_cmd =
  let run () =
    let table =
      Table.create
        ~columns:
          [ ("name", Table.Left); ("domain", Table.Left);
            ("budget", Table.Right); ("description", Table.Left) ]
    in
    List.iter
      (fun (app : Mhla_apps.Defs.t) ->
        Table.add_row table
          [ app.Mhla_apps.Defs.name; app.Mhla_apps.Defs.domain;
            string_of_int app.Mhla_apps.Defs.onchip_bytes ^ "B";
            app.Mhla_apps.Defs.description ])
      Apps.all;
    Table.print table
  in
  let doc = "List the nine bundled applications." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let show_cmd =
  let run name =
    guarded @@ fun () ->
    let app = find_app name in
    let program = Lazy.force app.Mhla_apps.Defs.program in
    Fmt.pr "%a@." Mhla_ir.Program.pp program;
    Fmt.pr "notes: %s@." app.Mhla_apps.Defs.notes
  in
  let doc = "Print an application's loop-nest model and provenance." in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ app_arg)

let json_arg =
  let doc = "Emit machine-readable JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* Suppression rules: an explicit --lint-config wins; otherwise
   ./.mhla-lint is honoured when present (the same convention across
   check, run --verify-live and the service front-ends), and no file
   means no suppression. *)
let load_suppress = function
  | Some file -> (
    try Mhla_analysis.Suppress.load file
    with Sys_error m ->
      Error.invalidf ~context:"mhla"
        ~hint:"pass --lint-config a readable suppression file" "%s" m)
  | None ->
    if Sys.file_exists ".mhla-lint" then
      Mhla_analysis.Suppress.load ".mhla-lint"
    else Mhla_analysis.Suppress.empty

let lint_config_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lint-config" ] ~docv:"FILE"
        ~doc:
          "Suppression rules, one $(b,CODE [field=value]...) per line \
           ($(b,#) comments). Matching diagnostics are dropped and \
           counted. Default: $(b,./.mhla-lint) when present.")

let verify_live_arg =
  Arg.(
    value & flag
    & info [ "verify-live" ]
        ~doc:
          "Verify the solver's answer (mapping + TE schedule) with the \
           full checker; fail on any Error.")

let run_cmd =
  let run name onchip dma objective mode search policy portfolio policies
      jobs deadline_ms verify_live json verbosity trace =
    guarded @@ fun () ->
    let program, arch = app_job name ~onchip ~dma in
    check_jobs jobs;
    if not portfolio then begin
      if policies <> None then
        Error.invalidf ~context:"mhla run"
          ~hint:"--policies names the field a --portfolio run races"
          "--policies requires --portfolio";
      if jobs <> None then
        Error.invalidf ~context:"mhla run"
          ~hint:"a single solve has nothing to parallelise; -j drives \
                 --portfolio"
          "-j requires --portfolio"
    end;
    let kind =
      if portfolio then
        Some
          (Request.Portfolio
             {
               policies =
                 Option.value policies
                   ~default:Registry.default_portfolio_names;
             })
      else None
    in
    let req =
      Request.make ?kind ~objective ~transfer_mode:mode
        ?search:(resolve_search search)
        ?policy:(Option.map (Registry.find ~context:"mhla run") policy)
        ?deadline_ms ~id:name ~arch program
    in
    (* The live report goes to stderr only: a --verify-live run's
       stdout is bit-identical to a plain one (pinned by CI). *)
    let live = if verify_live then Some (load_suppress None) else None in
    let outcome =
      with_telemetry ~trace ~verbosity @@ fun telemetry ->
      Service.run_job ~telemetry ?checkpoint:(checkpoint_of deadline_ms) ?jobs
        ?live req
    in
    (match Service.live_report outcome with
    | Some report ->
      Mhla_analysis.Verify.require report;
      if verbosity <> Quiet then
        Fmt.epr "verify-live: %a@." Check.pp_report report
    | None -> ());
    if json then print_json (fst (Service.render req outcome))
    else
      match (verbosity, outcome) with
      | Quiet, _ -> ()
      | _, Service.Raced race ->
        List.iter
          (fun (e : Portfolio.entry) ->
            Fmt.pr "  %-18s %.6g%s@." e.Portfolio.policy.Policy.name
              e.Portfolio.objective
              (if e == race.Portfolio.winner then "  <- winner" else ""))
          race.Portfolio.entrants;
        print_endline
          (Report.summary ~name race.Portfolio.winner.Portfolio.result)
      | (Verbose | Debug), Service.Solved { result; _ } ->
        print_endline (Report.detailed ~name result)
      | Normal, Service.Solved { result; _ } ->
        print_endline (Report.summary ~name result)
      | _, (Service.Frontier _ | Service.Simulated _) -> assert false
  in
  let policy_arg =
    let doc =
      Printf.sprintf
        "Run under a named policy (search + CC filter), one of: %s."
        (String.concat ", " Registry.names)
    in
    Arg.(
      value & opt (some string) None & info [ "policy" ] ~docv:"NAME" ~doc)
  in
  let portfolio_arg =
    let doc =
      "Race a field of policies in parallel and report the best finisher \
       (deterministic winner for every $(b,-j))."
    in
    Arg.(value & flag & info [ "portfolio" ] ~doc)
  in
  let policies_arg =
    let doc =
      Printf.sprintf
        "Comma-separated policy names for $(b,--portfolio); default: %s."
        (String.concat ", " Registry.default_portfolio_names)
    in
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "policies" ] ~docv:"NAMES" ~doc)
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains racing portfolio entrants in parallel; the \
             winner is identical for every $(docv).")
  in
  let doc = "Run the two-step MHLA+TE flow on an application." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ app_arg $ onchip_arg $ dma_arg $ objective_arg $ mode_arg
      $ search_arg $ policy_arg $ portfolio_arg $ policies_arg $ jobs_arg
      $ deadline_arg $ verify_live_arg $ json_arg $ verbosity_term
      $ trace_arg)

let emit_cmd =
  let run name onchip dma objective mode =
    guarded @@ fun () ->
    let program, arch = app_job name ~onchip ~dma in
    let result =
      solved (Request.make ~objective ~transfer_mode:mode ~id:name ~arch program)
    in
    print_string
      (Mhla_codegen.Emit.emit ~schedule:result.Explore.te
         result.Explore.assign.Assign.mapping)
  in
  let doc =
    "Emit the MHLA+TE-transformed program as pseudo-C (buffers, DMA \
     issues, rewritten accesses)."
  in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(
      const run $ app_arg $ onchip_arg $ dma_arg $ objective_arg $ mode_arg)

let sweep_cmd =
  let run name min_bytes max_bytes dma objective mode jobs deadline_ms json
      verbosity trace =
    guarded @@ fun () ->
    let app = find_app name in
    check_jobs jobs;
    let program = Lazy.force app.Mhla_apps.Defs.program in
    let sizes = Mhla_arch.Presets.sweep_sizes ~min_bytes ~max_bytes in
    (* No request kind sweeps; the request of the smallest point checks
       the flags the wire shares, at their wire paths. *)
    let req =
      Request.make ~objective ~transfer_mode:mode ?deadline_ms ~id:name
        ~arch:(Request.Two_level { onchip_bytes = min_bytes; dma })
        program
    in
    let checkpoint = checkpoint_of req.Request.deadline_ms in
    let points =
      with_telemetry ~trace ~verbosity @@ fun telemetry ->
      Explore.sweep ~config:(Service.solve_config req) ~dma ?jobs ~telemetry
        ?checkpoint ~sizes program
    in
    if json then print_json (Report.sweep_to_json points)
    else if verbosity <> Quiet then Table.print (Report.sweep_table points)
  in
  let min_arg =
    Arg.(value & opt int 128 & info [ "min" ] ~docv:"BYTES"
           ~doc:"Smallest on-chip size.")
  in
  let max_arg =
    Arg.(value & opt int 8192 & info [ "max" ] ~docv:"BYTES"
           ~doc:"Largest on-chip size.")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains exploring sizes in parallel; defaults to \
                   the machine's recommended domain count. Results are \
                   identical for every $(docv).")
  in
  let doc = "Explore the size/cost trade-off for an application." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ app_arg $ min_arg $ max_arg $ dma_arg $ objective_arg
      $ mode_arg $ jobs_arg $ deadline_arg $ json_arg $ verbosity_term
      $ trace_arg)

let pareto_cmd =
  let run name axes levels min_bytes max_bytes dma objective search jobs
      deadline_ms json verbosity trace =
    guarded @@ fun () ->
    let app = find_app name in
    check_jobs jobs;
    let program = Lazy.force app.Mhla_apps.Defs.program in
    let axes =
      match axes with
      | [] -> Mhla_arch.Presets.budget_axes ~levels ~min_bytes ~max_bytes
      | axes -> axes
    in
    (* A pareto job reads only the level count and the DMA flag off its
       arch; the sizes come from the grid. *)
    let arch =
      Request.Multi_level
        { level_bytes = List.map (List.fold_left max 1) axes; dma }
    in
    let req =
      Request.make
        ~kind:(Request.Pareto { axes })
        ~objective
        ?search:(resolve_search search)
        ?deadline_ms ~id:name ~arch program
    in
    let outcome =
      with_telemetry ~trace ~verbosity @@ fun telemetry ->
      match
        Service.run_job ~telemetry ?checkpoint:(checkpoint_of deadline_ms)
          ?jobs req
      with
      | Service.Frontier outcome -> outcome
      | _ -> assert false
    in
    if json then print_json (Report.pareto_to_json outcome)
    else if verbosity <> Quiet then begin
      Table.print (Report.pareto_table outcome);
      let s = outcome.Explore.stats in
      Fmt.pr
        "frontier: %d of %d grid point(s) (%d evaluated, %d pruned, %d \
         region(s) pruned wholesale)@."
        (Mhla_util.Pareto.Nd.size outcome.Explore.frontier)
        s.Explore.grid_points s.Explore.evaluated s.Explore.pruned
        s.Explore.regions_pruned
    end;
    if outcome.Explore.partial then
      Fmt.epr
        "warning: deadline expired mid-search; the frontier is the best \
         surface seen so far, not the complete one@."
  in
  let level_arg =
    Arg.(
      value
      & opt_all (list int) []
      & info [ "level" ] ~docv:"SIZES"
          ~doc:
            "Candidate sizes (comma-separated bytes) for one on-chip \
             level; repeat the flag once per level, innermost first. \
             Overrides $(b,--levels)/$(b,--min)/$(b,--max).")
  in
  let levels_arg =
    Arg.(
      value & opt int 1
      & info [ "levels" ] ~docv:"N"
          ~doc:
            "Number of on-chip levels when no $(b,--level) axes are \
             given; each level then sweeps the $(b,--min)..$(b,--max) \
             ladder.")
  in
  let min_arg =
    Arg.(value & opt int 128
         & info [ "min" ] ~docv:"BYTES" ~doc:"Smallest generated size.")
  in
  let max_arg =
    Arg.(value & opt int 8192
         & info [ "max" ] ~docv:"BYTES" ~doc:"Largest generated size.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains exploring grid regions in parallel; defaults \
             to the machine's recommended domain count. The frontier is \
             identical for every $(docv).")
  in
  let doc =
    "Explore the per-layer budget grid of an application and report the \
     (size, time, energy) Pareto frontier."
  in
  Cmd.v (Cmd.info "pareto" ~doc)
    Term.(
      const run $ app_arg $ level_arg $ levels_arg $ min_arg $ max_arg
      $ dma_arg $ objective_arg $ search_arg $ jobs_arg $ deadline_arg
      $ json_arg $ verbosity_term $ trace_arg)

let figures_cmd =
  let run json =
    guarded @@ fun () ->
    let results =
      List.map
        (fun (app : Mhla_apps.Defs.t) ->
          let name = app.Mhla_apps.Defs.name in
          let program, arch = app_job name ~onchip:None ~dma:true in
          (name, solved (Request.make ~id:name ~arch program)))
        Apps.all
    in
    if json then print_json (Report.results_to_json results)
    else begin
      print_endline
        "Figure 2 - normalised execution time (out-of-box = 1.00):";
      Table.print (Report.figure2_table results);
      print_newline ();
      print_endline "Figure 3 - normalised energy (out-of-box = 1.00):";
      Table.print (Report.figure3_table results)
    end
  in
  let doc = "Regenerate the paper's Figure 2 and Figure 3 data." in
  Cmd.v (Cmd.info "figures" ~doc) Term.(const run $ json_arg)

let robustness_cmd =
  let run name onchip dma objective mode seed trials jitter failure retries
      patience json verbosity trace =
    guarded @@ fun () ->
    let program, arch = app_job name ~onchip ~dma in
    let faults =
      Mhla_sim.Faults.make
        ~jitter:
          (if jitter = 0 then Mhla_sim.Faults.No_jitter
           else Mhla_sim.Faults.Uniform { max_extra_cycles = jitter })
        ~failure_permille:failure ~max_retries:retries
        ?deadline_patience:patience ~seed:(Int64.of_int seed) ()
    in
    let req =
      Request.make ~objective ~transfer_mode:mode
        ~fault_spec:{ Request.faults; trials } ~id:name ~arch program
    in
    let report =
      with_telemetry ~trace ~verbosity @@ fun telemetry ->
      match Service.run_job ~telemetry req with
      | Service.Solved { robustness = Some report; _ } -> report
      | _ -> assert false
    in
    if json then print_json (Mhla_sim.Robustness.to_json report)
    else if report.Mhla_sim.Robustness.plans = [] then begin
      if verbosity <> Quiet then
        print_endline
          "no prefetch streams to stress (TE planned no block transfers)"
    end
    else begin
      if verbosity <> Quiet then Fmt.pr "%a@." Mhla_sim.Robustness.pp report;
      if not report.Mhla_sim.Robustness.all_zero_fault_consistent then begin
        prerr_endline "mhla: zero-fault simulation retried or fell back";
        exit (Error.exit_code
                (Error.make Error.Internal ~context:"mhla robustness"
                   "zero-fault drift"))
      end
    end
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"INT"
             ~doc:"Root seed of the deterministic fault trace.")
  in
  let trials_arg =
    Arg.(value & opt int 16
         & info [ "trials" ] ~docv:"N"
             ~doc:"Independently reseeded fault trials per stream.")
  in
  let jitter_arg =
    Arg.(value & opt int 8
         & info [ "jitter" ] ~docv:"CYCLES"
             ~doc:"Uniform extra transfer latency in 0..$(docv); 0 disables.")
  in
  let failure_arg =
    Arg.(value & opt int 20
         & info [ "failure" ] ~docv:"PERMILLE"
             ~doc:"Per-attempt corrupt-transfer probability in 1/1000.")
  in
  let retries_arg =
    Arg.(value & opt int 3
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retries after a corrupt transfer before the consumer \
                   falls back to a synchronous refetch.")
  in
  let patience_arg =
    Arg.(value & opt (some int) None
         & info [ "patience" ] ~docv:"CYCLES"
             ~doc:"Deadline: a consumer stalling longer than $(docv) on a \
                   pending transfer refetches synchronously instead.")
  in
  let doc =
    "Stress an application's TE schedule under injected DMA faults \
     (latency jitter, corrupt transfers with retry/backoff) and report \
     per-stream stall inflation and degradation activity (EXT-FAULT)."
  in
  Cmd.v (Cmd.info "robustness" ~doc)
    Term.(
      const run $ app_arg $ onchip_arg $ dma_arg $ objective_arg $ mode_arg
      $ seed_arg $ trials_arg $ jitter_arg $ failure_arg $ retries_arg
      $ patience_arg $ json_arg $ verbosity_term $ trace_arg)

(* --- simulate ---------------------------------------------------------- *)

let simulate_cmd =
  let run name onchip dma objective mode channels queue_depth arbitration
      shared_bus invalidate json verbosity trace =
    guarded @@ fun () ->
    let program, arch = app_job name ~onchip ~dma in
    let req =
      Request.make
        ~kind:(Request.Simulate { channels; queue_depth })
        ~objective ~transfer_mode:mode ~id:name ~arch program
    in
    let report =
      with_telemetry ~trace ~verbosity @@ fun telemetry ->
      match
        Service.run_job ~telemetry ~arbitration ~shared_bus
          ~invalidate_on_miss:invalidate req
      with
      | Service.Simulated { report; _ } -> report
      | _ -> assert false
    in
    if json then print_json (Mhla_sim.Crosscheck.event_report_to_json report)
    else if report.Mhla_sim.Crosscheck.event_checks = [] then begin
      if verbosity <> Quiet then
        print_endline
          "no prefetch streams to simulate (TE planned no block transfers)"
    end
    else if verbosity <> Quiet then begin
      List.iter
        (Fmt.pr "%a@." Mhla_sim.Crosscheck.pp_event_check)
        report.Mhla_sim.Crosscheck.event_checks;
      match report.Mhla_sim.Crosscheck.event_divergences with
      | [] ->
        Fmt.pr "agreement: analytic and event-driven TE gains track on \
                all %d streams@."
          (List.length report.Mhla_sim.Crosscheck.event_checks)
      | ds ->
        List.iter (Fmt.pr "%a@." Mhla_sim.Crosscheck.pp_event_divergence) ds
    end
  in
  let channels_arg =
    Arg.(value & opt (some int) None
         & info [ "channels" ] ~docv:"N"
             ~doc:"DMA channels to simulate; defaults to the hierarchy's \
                   DMA preset.")
  in
  let queue_depth_arg =
    Arg.(value & opt (some int) None
         & info [ "queue-depth" ] ~docv:"SLOTS"
             ~doc:"Bound the prefetch queue to $(docv) outstanding \
                   transfers; issues beyond it are deferred. Default: \
                   unbounded.")
  in
  let arbitration_arg =
    Arg.(value
         & opt
             (enum
                [ ("earliest-free", Mhla_sim.Event.Earliest_free);
                  ("round-robin", Mhla_sim.Event.Round_robin) ])
             Mhla_sim.Event.Earliest_free
         & info [ "arbitration" ] ~docv:"POLICY"
             ~doc:"Channel arbitration: earliest-free (the analytic \
                   model's argmin) or round-robin.")
  in
  let shared_bus_arg =
    Arg.(value & flag
         & info [ "shared-bus" ]
             ~doc:"All channels and the CPU demand path contend for one \
                   single-occupancy bus.")
  in
  let invalidate_arg =
    Arg.(value & flag
         & info [ "invalidate-on-miss" ]
             ~doc:"A demand miss flushes queued-but-unstarted prefetches \
                   (the GBA prefetch-buffer rule).")
  in
  let doc =
    "Replay an application's TE schedule on the discrete-event \
     cycle-level DMA/bus simulator and cross-validate the analytic TE \
     gain against the event-driven one (EXT-ESIM). Divergences are \
     reported as structured diagnostics, not failures."
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ app_arg $ onchip_arg $ dma_arg $ objective_arg $ mode_arg
      $ channels_arg $ queue_depth_arg $ arbitration_arg $ shared_bus_arg
      $ invalidate_arg $ json_arg $ verbosity_term $ trace_arg)

(* --- check ------------------------------------------------------------- *)

(* Seeded corruptions for the self-test gate: each breaks exactly the
   invariant one verifier pass re-derives, so that pass must catch it.
   CI uses these to prove the checkers are live, not vacuous. *)
type mutation =
  | No_mutation
  | Mutate_bounds
  | Mutate_te
  | Mutate_capacity
  | Mutate_interference
  | Mutate_lints

let mutation_conv =
  Arg.enum
    [ ("none", No_mutation); ("bounds", Mutate_bounds); ("te", Mutate_te);
      ("capacity", Mutate_capacity); ("interference", Mutate_interference);
      ("lints", Mutate_lints) ]

(* Push one subscript past its declared extent: the first access's
   first subscript [e] becomes [e + dim0], so its maximum lands at or
   beyond the bound (MHLA001). *)
let mutate_bounds (program : Mhla_ir.Program.t) =
  let module P = Mhla_ir.Program in
  let corrupted = ref false in
  let corrupt_access (a : Mhla_ir.Access.t) =
    if !corrupted then a
    else begin
      corrupted := true;
      let decl =
        match P.find_array program a.Mhla_ir.Access.array with
        | Some d -> d
        | None -> assert false (* the program validated *)
      in
      let index =
        match a.Mhla_ir.Access.index with
        | e :: rest ->
          Mhla_ir.Affine.offset (List.hd decl.Mhla_ir.Array_decl.dims) e
          :: rest
        | [] -> []
      in
      Mhla_ir.Access.make ~array:a.Mhla_ir.Access.array
        ~direction:a.Mhla_ir.Access.direction ~index
    end
  in
  let corrupt_stmt (s : Mhla_ir.Stmt.t) =
    Mhla_ir.Stmt.make ~name:s.Mhla_ir.Stmt.name
      ~work_cycles:s.Mhla_ir.Stmt.work_cycles
      ~accesses:(List.map corrupt_access s.Mhla_ir.Stmt.accesses)
  in
  let rec corrupt_node = function
    | P.Stmt s -> P.Stmt (corrupt_stmt s)
    | P.Loop l -> P.Loop { l with P.body = List.map corrupt_node l.P.body }
  in
  let body = List.map corrupt_node program.P.body in
  if not !corrupted then
    Error.invalidf ~context:"mhla check"
      "--mutate bounds: %s has no array accesses" program.P.name;
  P.make_exn ~name:(program.P.name ^ "+oob") ~arrays:program.P.arrays ~body

(* Extend the highest-priority plan one loop past its recomputed
   freedom — the dependency-crossing prefetch MHLA101 exists to catch.
   Buffers are provisioned to match the bogus grant so the race is the
   defect, not the buffer count. *)
let mutate_te (m : Mhla_core.Mapping.t) (schedule : Prefetch.schedule) =
  match schedule.Prefetch.plans with
  | [] ->
    Error.invalidf ~context:"mhla check"
      ~hint:"pick an application whose TE step plans block transfers"
      "--mutate te: the schedule has no plans to corrupt"
  | plan :: rest ->
    let freedom = Mhla_analysis.Dma_race.freedom_of_plan m plan in
    let enclosing =
      let stmt =
        plan.Prefetch.bt.Mhla_core.Mapping.bt_candidate
          .Mhla_reuse.Candidate.stmt
      in
      match Mhla_ir.Program.find_context m.Mhla_core.Mapping.program ~stmt with
      | Some ctx -> List.rev_map fst ctx.Mhla_ir.Program.loops
      | None -> []
    in
    let bogus =
      match List.find_opt (fun it -> not (List.mem it freedom)) enclosing with
      | Some it -> it
      | None -> "__phantom"
    in
    let extended = freedom @ [ bogus ] in
    let plan =
      { plan with Prefetch.extended; extra_buffers = List.length extended }
    in
    { Prefetch.plans = plan :: rest }

(* Swap in a hierarchy one byte smaller than the recomputed peak while
   keeping every placement: the capacity pass must flag the layer
   (MHLA201). *)
let mutate_capacity (m : Mhla_core.Mapping.t) schedule =
  let peaks = Mhla_analysis.Capacity.recomputed_peaks ~schedule m in
  let peak = List.fold_left (fun acc (_, p) -> max acc p) 0 peaks in
  if peak <= 1 then
    Error.invalidf ~context:"mhla check"
      ~hint:"pick an application that places copies on-chip"
      "--mutate capacity: nothing lives on-chip (peak %dB)" peak;
  let hierarchy =
    Mhla_arch.Presets.two_level
      ~dma:(Mhla_arch.Hierarchy.has_dma m.Mhla_core.Mapping.hierarchy)
      ~onchip_bytes:(peak - 1) ()
  in
  Mhla_core.Mapping.with_hierarchy m hierarchy

(* Bump the highest plan's DMA priority out of the contiguous 0..n-1
   sequence: the interference pass's priority audit (MHLA204) must
   flag the hole. *)
let mutate_interference (schedule : Prefetch.schedule) =
  match schedule.Prefetch.plans with
  | [] ->
    Error.invalidf ~context:"mhla check"
      ~hint:"pick an application whose TE step plans block transfers"
      "--mutate interference: the schedule has no plans to corrupt"
  | plan :: rest ->
    let plan =
      { plan with Prefetch.dma_priority = plan.Prefetch.dma_priority + 1 }
    in
    { Prefetch.plans = plan :: rest }

(* Declare an array no statement accesses: the lints pass must report
   MHLA301 on it. Lints are warnings, so the self-test gate is
   [--mutate lints --Werror] (with pre-existing warnings suppressed
   via a lint config when the subject has any). *)
let mutate_lints (program : Mhla_ir.Program.t) =
  let module P = Mhla_ir.Program in
  P.make_exn
    ~name:(program.P.name ^ "+lint")
    ~arrays:
      (program.P.arrays
      @ [
          Mhla_ir.Array_decl.make ~name:"__mhla_unused" ~dims:[ 4 ]
            ~element_bytes:1;
        ])
    ~body:program.P.body

let mutated_subject ~program ~mapping ~te = function
  | No_mutation -> Check_pass.of_mapping ~schedule:te mapping
  | Mutate_bounds -> Check_pass.subject (mutate_bounds program)
  | Mutate_te -> Check_pass.of_mapping ~schedule:(mutate_te mapping te) mapping
  | Mutate_capacity ->
    Check_pass.of_mapping ~schedule:te (mutate_capacity mapping te)
  | Mutate_interference ->
    Check_pass.of_mapping ~schedule:(mutate_interference te) mapping
  | Mutate_lints -> Check_pass.subject (mutate_lints program)

let write_sarif ~file report =
  let doc =
    Mhla_analysis.Sarif.of_report ~tool_version:"1.0.0" report
  in
  let text = Mhla_util.Json.to_string ~indent:2 doc in
  if file = "-" then print_endline text
  else begin
    let oc =
      try open_out file
      with Sys_error m ->
        Error.invalidf ~context:"mhla check"
          ~hint:"pass --sarif a writable path (or - for stdout)" "%s" m
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc text;
        output_char oc '\n')
  end

let check_cmd =
  let run name onchip dma objective mode search json werror only skip mutate
      explain sarif lint_config verbosity trace =
    guarded @@ fun () ->
    match explain with
    | Some code ->
      Fmt.pr "%a@." Mhla_analysis.Explain.pp
        (Mhla_analysis.Explain.explain code)
    | None ->
      let suppress = load_suppress lint_config in
      let only = match only with [] -> None | l -> Some l in
      let skip = match skip with [] -> None | l -> Some l in
      let name =
        match name with
        | Some n -> n
        | None ->
          Error.invalidf ~context:"mhla check"
            ~hint:"name an application (see mhla list), or use \
                   --explain CODE"
            "no application named"
      in
      let program, arch = app_job name ~onchip ~dma in
      let report =
        with_telemetry ~trace ~verbosity @@ fun telemetry ->
        let req =
          Request.make ~objective ~transfer_mode:mode
            ?search:(resolve_search search) ~id:name ~arch program
        in
        let result = solved ~telemetry req in
        let mapping = result.Explore.assign.Assign.mapping in
        let subject =
          mutated_subject ~program ~mapping ~te:result.Explore.te mutate
        in
        let report = Check.run ?only ?skip ~suppress ~telemetry subject in
        if werror then Check.promote_warnings report else report
      in
      Option.iter (fun file -> write_sarif ~file report) sarif;
      if json then
        print_json (Check.report_to_json report)
      else if verbosity <> Quiet then
        Fmt.pr "%a@." Check.pp_report report;
      if not (Check.ok report) then exit 1
  in
  let werror_arg =
    Arg.(value & flag
         & info [ "Werror" ]
             ~doc:"Treat Warning diagnostics as Errors (fail the run).")
  in
  let pass_arg =
    Arg.(value & opt_all string []
         & info [ "pass" ] ~docv:"NAME"
             ~doc:"Run only the named pass (repeatable): bounds, dma-race, \
                   capacity, interference, determinism or lints. Default: \
                   all.")
  in
  let skip_arg =
    Arg.(value & opt_all string []
         & info [ "skip" ] ~docv:"NAME"
             ~doc:"Skip the named pass (repeatable).")
  in
  let mutate_arg =
    Arg.(value & opt mutation_conv No_mutation
         & info [ "mutate" ] ~docv:"KIND"
             ~doc:"Self-test: corrupt the solver output before checking \
                   (bounds, te, capacity, interference or lints) — the run \
                   must then exit 1 (lints needs $(b,--Werror)). Default: \
                   none.")
  in
  let opt_app_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"APP"
          ~doc:"Application name (see $(b,mhla list)); omitted with \
                $(b,--explain).")
  in
  let explain_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"CODE"
          ~doc:"Print a diagnostic code's derivation story (which pass, \
                from which facts, what to do) and exit.")
  in
  let sarif_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"FILE"
          ~doc:"Also write the report as SARIF 2.1.0 to $(docv) ($(b,-) \
                for stdout).")
  in
  let doc =
    "Statically verify a solved application: re-derive subscript bounds, \
     DMA-race freedom, layer occupancy, TE interference and schedule \
     determinism from the program alone and check the solver's mapping and \
     TE schedule against them; also lint the program. Exits 1 on any Error \
     diagnostic."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ opt_app_arg $ onchip_arg $ dma_arg $ objective_arg
      $ mode_arg $ search_arg $ json_arg $ werror_arg $ pass_arg $ skip_arg
      $ mutate_arg $ explain_arg $ sarif_arg $ lint_config_arg
      $ verbosity_term $ trace_arg)

(* --- fuzz -------------------------------------------------------------- *)

module Gen = Mhla_gen.Generate
module Oracle = Mhla_gen.Oracle

let fuzz_cmd =
  let run seed count profile jobs replay mutate verbosity =
    guarded @@ fun () ->
    if count < 1 then
      Error.invalidf ~context:"mhla fuzz"
        ~hint:"pass --count a positive number of programs"
        "count must be at least 1 (got %d)" count;
    check_jobs ~context:"mhla fuzz" jobs;
    let seeds =
      match replay with
      | Some s -> [ s ]
      | None ->
        (* Case seeds come from a root PRNG stream, so --seed N --count K
           names the same K cases on every machine. *)
        let rng = Mhla_util.Prng.create ~seed in
        let rec draw k acc =
          if k = count then List.rev acc
          else
            let s = Mhla_util.Prng.next_int64 rng in
            draw (k + 1) (s :: acc)
        in
        draw 0 []
    in
    let outcomes =
      Mhla_util.Domain_pool.map ?jobs
        (fun case_seed -> Oracle.run_case ~mutate ~profile ~seed:case_seed ())
        seeds
    in
    match
      List.find_opt
        (fun (o : Oracle.outcome) -> o.Oracle.failures <> [])
        outcomes
    with
    | None ->
      if verbosity <> Quiet then
        Fmt.pr "fuzz: %d program(s) x %d checks OK (profile %s, seed %Ld)@."
          (List.length seeds)
          (List.length Oracle.check_names)
          (Gen.profile_name profile) seed
    | Some o ->
      let failing =
        List.sort_uniq compare
          (List.map (fun (f : Oracle.failure) -> f.Oracle.check) o.Oracle.failures)
      in
      Fmt.epr "mhla fuzz: counterexample at seed %Ld (profile %s, on-chip %dB)@."
        o.Oracle.seed
        (Gen.profile_name o.Oracle.profile)
        o.Oracle.onchip_bytes;
      List.iter
        (fun (f : Oracle.failure) ->
          Fmt.epr "  %s: %s@." f.Oracle.check f.Oracle.detail)
        o.Oracle.failures;
      let shrunk =
        Oracle.shrink_counterexample ~mutate ~profile:o.Oracle.profile ~failing
          o.Oracle.program
      in
      Fmt.epr
        "@.shrunk reproducer (%d -> %d dynamic accesses, budget %dB, paste \
         into a test):@.%s@."
        (Mhla_ir.Program.total_access_count o.Oracle.program)
        (Mhla_ir.Program.total_access_count shrunk)
        (Gen.budget_for ~profile:o.Oracle.profile shrunk)
        (Mhla_gen.Snippet.to_build shrunk);
      (* '=' syntax: a negative seed after a space would parse as an
         option name. *)
      Fmt.epr "@.replay: mhla fuzz --replay=%Ld --profile %s%s@." o.Oracle.seed
        (Gen.profile_name o.Oracle.profile)
        (match mutate with
        | Oracle.No_mutation -> ""
        | Oracle.Drift_engine -> " --mutate engine"
        | Oracle.Drift_interp -> " --mutate interp");
      exit 1
  in
  let seed_arg =
    Arg.(value & opt int64 42L
         & info [ "seed" ] ~docv:"INT64"
             ~doc:"Root seed of the case-seed stream.")
  in
  let count_arg =
    Arg.(value & opt int 50
         & info [ "count" ] ~docv:"N" ~doc:"Programs to generate and check.")
  in
  let profile_arg =
    Arg.(value & opt (enum Gen.all_profiles) Gen.Mixed
         & info [ "profile" ] ~docv:"PROFILE"
             ~doc:"Difficulty profile: reuse-rich, capacity-tight, te-hostile \
                   or mixed (resolved per seed).")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains checking cases in parallel; defaults to the \
                   machine's recommended domain count. Results are identical \
                   for every $(docv).")
  in
  let replay_arg =
    Arg.(value & opt (some int64) None
         & info [ "replay" ] ~docv:"SEED"
             ~doc:"Re-run exactly one case seed (as printed by a failing run) \
                   instead of drawing --count seeds from --seed.")
  in
  let mutate_arg =
    Arg.(value & opt (enum Oracle.mutation_names) Oracle.No_mutation
         & info [ "mutate" ] ~docv:"KIND"
             ~doc:"Self-test: seed a deliberate drift into one differential \
                   (engine or interp) — the run must then exit 1 with a \
                   shrunk counterexample. Default: none.")
  in
  let doc =
    "Differential fuzzing: generate seeded random in-bounds programs, solve \
     each on a two-level DMA platform, and assert every cross-model \
     invariant (incremental engine vs Cost.evaluate, simulated vs analytic \
     stalls, static verifier on greedy and annealing outputs, trace \
     interpreter vs predicted access counts). On a failure, prints a \
     shrunk Build-DSL reproducer and exits 1."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seed_arg $ count_arg $ profile_arg $ jobs_arg $ replay_arg
      $ mutate_arg $ verbosity_term)

(* --- service (batch / serve / soak) ------------------------------------ *)

module Soak = Mhla_service.Soak

let service_jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains solving requests in parallel.")

let queue_depth_arg =
  Arg.(
    value & opt int 16
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:"Bounded job-queue capacity. Submissions beyond it block — or, \
              under $(b,--shed), answer immediately with a structured \
              shed/backpressure response.")

let default_deadline_ms_arg =
  Arg.(
    value & opt (some int) None
    & info [ "default-deadline-ms" ] ~docv:"MS"
        ~doc:"Deadline applied to requests that carry no deadline_ms of \
              their own; measured from submission, so time spent queued \
              counts.")

let shed_arg =
  Arg.(
    value & flag
    & info [ "shed" ]
        ~doc:"When the queue is full, shed new requests with a structured \
              backpressure response instead of blocking the reader.")

let emit_response resp =
  print_endline (Mhla_util.Json.to_string (Mhla_service.Response.to_json resp))

(* Pump one JSONL stream through a service: submit each line, emitting
   completed responses as they become ready (stdout stays pure JSONL,
   in submission order), then drain the tail. *)
let stream_requests config ic =
  let service = Service.create ~config () in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then ignore (Service.submit service line);
       List.iter emit_response (Service.ready service)
     done
   with End_of_file -> ());
  List.iter emit_response (Service.drain service);
  Service.shutdown service;
  Service.summary service

(* The pool that batch and serve share: [with_input stream] hands
   [stream] the input channel; the summary goes to stderr. *)
let serve_stream jobs queue_depth default_deadline_ms shed verify_live
    lint_config json verbosity trace with_input =
  let summary =
    with_telemetry ~trace ~verbosity @@ fun telemetry ->
    with_input
      (stream_requests
         {
           Service.default_config with
           Service.jobs;
           queue_depth;
           default_deadline_ms;
           admission = (if shed then Service.Shed else Service.Block);
           verify_live;
           suppress = load_suppress lint_config;
           telemetry;
         })
  in
  if json then
    Fmt.epr "%s@."
      (Mhla_util.Json.to_string (Service.summary_to_json summary))
  else if verbosity <> Quiet then Fmt.epr "%a@." Service.pp_summary summary

let serve_term =
  Term.(
    const serve_stream $ service_jobs_arg $ queue_depth_arg
    $ default_deadline_ms_arg $ shed_arg $ verify_live_arg $ lint_config_arg
    $ json_arg $ verbosity_term $ trace_arg)

let batch_cmd =
  let run file serve =
    guarded @@ fun () ->
    serve @@ fun stream ->
    if file = "-" then stream stdin
    else
      let ic =
        try open_in file
        with Sys_error m ->
          Error.invalidf ~context:"mhla batch"
            ~hint:"pass a readable JSONL file or - for stdin" "%s" m
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> stream ic)
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"JSONL request file, one request object per line ($(b,-) for \
                stdin).")
  in
  let doc =
    "Solve a batch of JSONL requests with fault isolation: exactly one \
     structured response per line on stdout (ok, error, timeout or shed) — \
     a malformed, oversized, crashing or deadline-blown request never takes \
     down the batch. The summary goes to stderr."
  in
  Cmd.v (Cmd.info "batch" ~doc) Term.(const run $ file_arg $ serve_term)

let serve_cmd =
  let run use_stdin serve =
    guarded @@ fun () ->
    if not use_stdin then
      Error.invalidf ~context:"mhla serve"
        ~hint:"pass --stdin (the only transport currently available)"
        "no transport selected";
    serve (fun stream -> stream stdin)
  in
  let stdin_arg =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:"Read JSONL requests from stdin until EOF, answering on \
                stdout as solves complete.")
  in
  let doc =
    "Run the solver as a long-lived JSONL daemon on stdin/stdout: same wire \
     format and fault isolation as $(b,mhla batch), intended to sit behind \
     a supervisor with $(b,--shed) keeping the reader responsive under \
     load."
  in
  Cmd.v (Cmd.info "serve" ~doc) Term.(const run $ stdin_arg $ serve_term)

let soak_cmd =
  let run requests seed jobs queue_depth fault_permille malformed_permille
      emit json verbosity =
    guarded @@ fun () ->
    if requests < 1 then
      Error.invalidf ~context:"mhla soak"
        ~hint:"pass --requests a positive count"
        "requests must be at least 1 (got %d)" requests;
    let permille name v =
      if v < 0 || v > 1000 then
        Error.invalidf ~context:"mhla soak" "%s must be in 0..1000 (got %d)"
          name v
    in
    permille "--fault-permille" fault_permille;
    permille "--malformed-permille" malformed_permille;
    let config =
      {
        Soak.default_config with
        Soak.requests;
        seed;
        jobs;
        queue_depth;
        fault_permille;
        malformed_permille;
      }
    in
    if emit then List.iter print_endline (Soak.lines config)
    else begin
      let outcome = Soak.run ~config () in
      if json then
        print_json (Soak.to_json outcome)
      else if verbosity <> Quiet || not (Soak.ok outcome) then
        Fmt.pr "@[<v>%a@]@." Soak.pp outcome;
      if not (Soak.ok outcome) then exit 1
    end
  in
  let requests_arg =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to drive.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"INT" ~doc:"Root seed of the chaos mix.")
  in
  let fault_arg =
    Arg.(
      value & opt int 100
      & info [ "fault-permille" ] ~docv:"PERMILLE"
          ~doc:"Share of requests carrying a seeded DMA-fault robustness \
                rider (100 = 10%).")
  in
  let malformed_arg =
    Arg.(
      value & opt int 50
      & info [ "malformed-permille" ] ~docv:"PERMILLE"
          ~doc:"Share of requests submitted as malformed JSON (50 = 5%).")
  in
  let emit_arg =
    Arg.(
      value & flag
      & info [ "emit-jsonl" ]
          ~doc:"Print the exact JSONL request lines the soak would submit \
                (for feeding through $(b,mhla batch)) instead of running \
                it.")
  in
  let doc =
    "Chaos-soak the solver service: drive a seeded mix of valid, hostile \
     and broken requests (injected worker crashes, zero deadlines, \
     malformed JSON, oversized payloads, DMA-fault riders) and check the \
     isolation invariants — process survival, exactly one response per \
     request, and ok responses bit-identical to direct solver runs. Exits 1 \
     on any violation."
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(
      const run $ requests_arg $ seed_arg $ service_jobs_arg
      $ queue_depth_arg $ fault_arg $ malformed_arg $ emit_arg $ json_arg
      $ verbosity_term)

let () =
  let doc =
    "memory hierarchy layer assignment and prefetching (MHLA with Time \
     Extensions, DATE 2005)"
  in
  let info = Cmd.info "mhla" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; show_cmd; run_cmd; emit_cmd; sweep_cmd; pareto_cmd;
            figures_cmd; robustness_cmd; simulate_cmd; check_cmd; fuzz_cmd;
            batch_cmd; serve_cmd; soak_cmd ]))
