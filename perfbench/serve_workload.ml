(* serve-mixed: one synchronous client in front of a [Service] with one
   worker domain (two domains in all). The run's request set is 1000
   seeded generated programs ([Gen.Mixed]); each pass sends all of them
   to a fresh service, and the client waits for each response before it
   submits the next request, so this is a closed loop with one client.
   The mix is 50 % greedy solve, 10 % greedy solve with a fault-injection
   rider (16 seeded trials), 10 % anneal (2000 iterations), 10 %
   simulate, 10 % portfolio and 10 % a small 1-D pareto grid. Programs
   are many and small, so per-request overhead (JSON parse, decode, the
   pre-solve verifier, queue handoff, rendering) is a large share of
   each request. *)

module Json = Mhla_util.Json
module Explore = Mhla_core.Explore
module Service = Mhla_service.Service
module Request = Mhla_service.Request
module Response = Mhla_service.Response
module Gen = Mhla_gen.Generate
module Telemetry = Mhla_obs.Telemetry
module Crosscheck = Mhla_sim.Crosscheck
module Robustness = Mhla_sim.Robustness

(* Request kinds and their shares of a pass, in percent. *)
let shares =
  [ ("solve", 50); ("robust", 10); ("anneal", 10); ("simulate", 10); ("portfolio", 10);
    ("pareto", 10) ]

let kinds = List.map fst shares

(* Enough distinct requests that p99 leaves ten above it. *)
let requests_per_pass = 1000

let case ~seed i =
  Gen.case ~profile:Gen.Mixed ~seed:(Int64.of_int ((seed * 1_000_003) + i)) ()

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The kind of each request of the set. Shares are exact, and each kind
   gets programs from the whole size range: ranked by encoded size, the
   programs are dealt in blocks of ten, each block one seeded shuffle of
   five solves and one of each other kind. A request's cost grows with
   its program, so without this the heavy kinds' total cost, and the
   pass's, would swing with the seed's draw of program sizes. *)
let kind_plan ~seed cases =
  let block =
    Array.of_list
      (List.concat_map (fun (kind, pct) -> List.init (pct / 10) (fun _ -> kind)) shares)
  in
  let size =
    Array.map
      (fun (c : Gen.case) ->
        String.length (Json.to_string (Mhla_ir.Json_codec.program_to_json c.Gen.program)))
      cases
  in
  let by_size = Array.init (Array.length cases) Fun.id in
  Array.stable_sort (fun i j -> compare size.(i) size.(j)) by_size;
  let st = Random.State.make [| seed |] in
  let plan = Array.make (Array.length cases) "" in
  Array.iteri
    (fun rank i ->
      if rank mod 10 = 0 then shuffle st block;
      plan.(i) <- block.(rank mod 10))
    by_size;
  plan

(* What the client keeps of a request: its kind and wire line. The
   [Request.t] itself is rebuilt from [(seed, index, kind)] for the
   replay, so the pool stays small. *)
type request = { index : int; kind : string; id : string; line : string }

(* Request [i] of the set seeded by [seed], on its generated [case]:
   its knobs are pure functions of [(seed, i, kind)]. *)
let make_request ~seed ~kind i case =
  let budget = case.Gen.onchip_bytes in
  let arch = Request.Two_level { onchip_bytes = budget; dma = true } in
  let make = Request.make ~id:(Printf.sprintf "perfbench-%d-%d" seed i) ~arch in
  let program = case.Gen.program in
  match kind with
  | "solve" -> make program
  | "robust" ->
    (* The `mhla robustness` default fault model, seeded per request. *)
    let faults =
      Mhla_sim.Faults.make
        ~jitter:(Mhla_sim.Faults.Uniform { max_extra_cycles = 8 })
        ~failure_permille:20 ~max_retries:3
        ~seed:(Int64.of_int ((seed * 104_729) + i))
        ()
    in
    make ~fault_spec:{ Request.faults; trials = 16 } program
  | "anneal" ->
    make
      ~search:(Explore.Annealing { seed = Int64.of_int ((seed * 7919) + i); iterations = 2000 })
      program
  | "simulate" ->
    make ~kind:(Request.Simulate { channels = None; queue_depth = None }) program
  | "portfolio" ->
    make
      ~kind:(Request.Portfolio { policies = Mhla_policy.Registry.default_portfolio_names })
      program
  | _ ->
    make
      ~kind:
        (Request.Pareto
           { axes = [ List.sort_uniq compare [ budget / 4; budget / 2; budget ] ] })
      program

let requests ~seed =
  let cases = Array.init requests_per_pass (case ~seed) in
  Array.mapi
    (fun index kind ->
      let req = make_request ~seed ~kind index cases.(index) in
      { index; kind; id = req.Request.id; line = Json.to_string (Request.to_json req) })
    (kind_plan ~seed cases)

let create ?(telemetry = Telemetry.noop) () =
  Service.create ~config:{ Service.default_config with Service.jobs = 1; telemetry } ()

(* The direct replay an ok response must equal, bit for bit: its
   [result] payload and, for a request with a fault rider, its
   [robustness] report. [sound] holds when the replay's own checks pass:
   no event-simulation divergence and every stream neutral-consistent
   (simulate), every stream zero-fault consistent (fault rider). The
   counts describe the simulate and fault-rider work. *)
type replay = {
  payload : string;
  sound : bool;
  event_ns : int;
  streams : int;
  events : int;
  cycles : int;
  plans : int;
  retries : int;
  fallbacks : int;
}

let rendered ~result ~robustness =
  Json.to_string result ^ "\n" ^ Option.fold ~none:"" ~some:Json.to_string robustness

let replay (req : Request.t) =
  let plain ?robustness result =
    {
      payload = rendered ~result ~robustness;
      sound = true;
      event_ns = 0;
      streams = 0;
      events = 0;
      cycles = 0;
      plans = 0;
      retries = 0;
      fallbacks = 0;
    }
  in
  match req.Request.kind with
  | Request.Solve -> (
    let result = Service.solve req in
    let payload = Service.ok_payload req result in
    match req.Request.fault_spec with
    | None -> plain payload
    | Some fs ->
      let report =
        Robustness.analyze ~trials:fs.Request.trials ~faults:fs.Request.faults
          result.Explore.assign.Mhla_core.Assign.mapping result.Explore.te
      in
      let plans = report.Robustness.plans in
      let total f = List.fold_left (fun a p -> a + f p) 0 plans in
      {
        (plain ~robustness:(Robustness.to_json report) payload) with
        sound = report.Robustness.all_zero_fault_consistent;
        plans = List.length plans;
        retries = total (fun p -> p.Robustness.total_retries);
        fallbacks = total (fun p -> p.Robustness.total_fallbacks);
      })
  | Request.Pareto { axes } ->
    plain (Mhla_core.Report.pareto_to_json (Service.solve_pareto req ~axes))
  | Request.Portfolio { policies } ->
    plain
      (Mhla_policy.Portfolio.to_json ~id:req.Request.id
         (Mhla_policy.Portfolio.race
            ~config:
              { Mhla_core.Assign.default_config with
                Mhla_core.Assign.objective = req.Request.objective }
            ~jobs:1
            ~policies:
              (List.map (Mhla_policy.Registry.find ~context:"perfbench") policies)
            req.Request.program (Request.hierarchy req)))
  | Request.Simulate _ ->
    let result = Service.solve req in
    let t0 = Measure.now_ns () in
    let report =
      Crosscheck.check_event
        ~config:(Mhla_sim.Event.of_hierarchy (Request.hierarchy req))
        result.Explore.assign.Mhla_core.Assign.mapping result.Explore.te
    in
    let event_ns = Measure.now_ns () - t0 in
    let checks = report.Crosscheck.event_checks in
    let legs f =
      List.fold_left
        (fun a (c : Crosscheck.event_check) ->
          a + f c.Crosscheck.extended_outcome + f c.Crosscheck.baseline_outcome)
        0 checks
    in
    {
      (plain
         (Json.obj
            [ ("result", Service.ok_payload req result);
              ("simulate", Crosscheck.event_report_to_json report) ]))
      with
      sound =
        report.Crosscheck.event_divergences = []
        && List.for_all (fun c -> c.Crosscheck.neutral_consistent) checks;
      event_ns;
      streams = List.length checks;
      events = legs (fun o -> o.Mhla_sim.Event.events_processed);
      cycles = legs (fun o -> o.Mhla_sim.Event.total_cycles);
    }

(* One answered request, reduced to what the checks need once the
   response is dropped: the payload is kept as a digest of its
   rendering, so the client holds no solver output. *)
type served = {
  r : request;
  seq : int;
  ns : int;
  answered : bool;  (** exactly one response, in order, ok, for this id *)
  digest : Digest.t;  (** of the rendered result and robustness report *)
  bytes_out : int;  (** rendered response size *)
}

(* Submit one request and wait for its response; the checks after the
   clock stops. *)
let serve service ~seq r =
  let t0 = Measure.now_ns () in
  ignore (Service.submit service r.line : [ `Queued | `Shed ]);
  let responses = Service.drain service in
  let ns = Measure.now_ns () - t0 in
  match responses with
  | [ resp ] ->
    let response_text = Json.to_string (Response.to_json resp) in
    {
      r;
      seq;
      ns;
      answered =
        resp.Response.seq = seq
        && resp.Response.status = Response.Ok
        && resp.Response.id = r.id;
      digest =
        Digest.string
          (rendered
             ~result:(Option.value ~default:Json.null resp.Response.result)
             ~robustness:resp.Response.robustness);
      bytes_out = String.length response_text;
    }
  | _ -> { r; seq; ns; answered = false; digest = Digest.string ""; bytes_out = 0 }

(* The answer must equal a sound direct replay of the same request. *)
let correct s rep = s.answered && rep.sound && Digest.equal s.digest (Digest.string rep.payload)

(* One pass over the request set, [chunk] requests per fresh service
   (the service's start and shutdown are not timed). With [prof] the
   services are traced: a service merges its workers' telemetry only
   at shutdown, so small chunks bound the events held in memory. Each
   chunk's trace is folded into [prof], and each request's handoff time
   (client latency minus the worker's service.request span) returned. *)
let serve_pass ?prof ~chunk pool =
  Gc.full_major ();
  let n = Array.length pool in
  let served, handoffs =
    List.split
      (List.init ((n + chunk - 1) / chunk) (fun c ->
           let first = c * chunk in
           let sink =
             match prof with Some _ -> Profile.collector () | None -> Telemetry.noop
           in
           let service = create ~telemetry:sink () in
           let served =
             List.init (min chunk (n - first)) (fun k ->
                 let r = pool.(first + k) in
                 Telemetry.span sink ~cat:"bench" ("serve." ^ r.kind) (fun () ->
                     serve service ~seq:k r))
           in
           Service.shutdown service;
           match prof with
           | None -> (served, [])
           | Some prof ->
             Profile.add prof sink;
             ( served,
               List.map2
                 (fun s d -> Measure.ms_of_ns (s.ns - d))
                 served
                 (Profile.span_durations sink "service.request") )))
  in
  (List.concat served, List.concat handoffs)

let times pass = List.map (fun s -> Measure.ms_of_ns s.ns) pass

let replays ~seed pool =
  Array.map
    (fun r -> replay (make_request ~seed ~kind:r.kind r.index (case ~seed r.index)))
    pool

let failures replays passes =
  List.length
    (List.filter (fun s -> not (correct s replays.(s.r.index))) (List.concat passes))

let run_untraced ~seed ~seconds =
  let m =
    Measure.setup_and_passes ~seconds
      ~setup:(fun () -> requests ~seed)
      (fun pool -> fst (serve_pass ~chunk:requests_per_pass pool))
  in
  let metrics, notes =
    Measure.end_to_end m ~work:(float_of_int requests_per_pass) ~times ~tail:0.99
      ~work_unit:"work = requests answered"
  in
  {
    Measure.attempted = List.length (List.concat m.runs);
    failed = failures (replays ~seed (requests ~seed)) m.runs;
    metrics;
    notes;
  }

(* Untraced passes for half the run, then one traced pass over the same
   requests. *)
let run_traced ~seed ~seconds ~trace_file =
  let pool = requests ~seed in
  let untraced =
    Measure.passes ~seconds:(seconds /. 2.) ~min_passes:1 (fun () ->
        fst (serve_pass ~chunk:requests_per_pass pool))
  in
  let prof = Profile.create () in
  let traced, handoffs = serve_pass ~prof ~chunk:100 pool in
  Profile.write prof ~file:trace_file;
  let replays = replays ~seed pool in
  let best = Measure.best (List.map times untraced) in
  let ops = float_of_int requests_per_pass in
  let total f = float_of_int (Array.fold_left (fun a x -> a + f x) 0 replays) in
  let first_pass = List.hd untraced in
  let metrics =
    Profile.span_metrics prof ~ops:requests_per_pass
    @ [ ("reuse.precompute.ms", Profile.total_ms prof "pareto.precompute" /. ops, "ms");
        ("sim.event.count", total (fun r -> r.streams) /. ops, "count");
        ("sim.event.ms", Profile.total_ms prof "sim.event" /. ops, "ms");
        ("sim.event.events", total (fun r -> r.events) /. ops, "count");
        ("sim.event.cycles", total (fun r -> r.cycles) /. ops, "count");
        ("sim.event.events_per_s",
         total (fun r -> r.events) /. (total (fun r -> r.event_ns) /. 1e9), "1/s");
        ("sim.robustness.ms", Profile.total_ms prof "robustness.analyze" /. ops, "ms");
        ("sim.robustness.stream.ms", Profile.total_ms prof "robustness.stream" /. ops, "ms");
        ("sim.robustness.streams", total (fun r -> r.plans) /. ops, "count");
        ("sim.robustness.retries", total (fun r -> r.retries) /. ops, "count");
        ("sim.robustness.fallbacks", total (fun r -> r.fallbacks) /. ops, "count");
        ("service.request.count",
         float_of_int (Profile.count prof "service.request") /. ops, "count");
        ("service.request.ms", Profile.total_ms prof "service.request" /. ops, "ms");
        ("service.request.self_ms", Profile.self_ms prof "service.request" /. ops, "ms");
        ("service.handoff_ms_p50", Measure.median handoffs, "ms");
        ("policy.portfolio.ms", Profile.total_ms prof "portfolio.race" /. ops, "ms");
        ("util.json.bytes_in",
         float_of_int (Array.fold_left (fun a r -> a + String.length r.line) 0 pool) /. ops,
         "count");
        ("util.json.bytes_out",
         float_of_int (List.fold_left (fun a s -> a + s.bytes_out) 0 first_pass) /. ops,
         "count");
        ("trace.overhead_pct",
         100. *. ((Measure.sum (times traced) /. Measure.sum best) -. 1.),
         "%") ]
    @ List.map
        (fun kind ->
          ( Printf.sprintf "serve.kind.%s.ms_p50" kind,
            Measure.median
              (List.filter_map
                 (fun (s, ms) -> if s.r.kind = kind then Some ms else None)
                 (List.combine first_pass best)),
            "ms" ))
        kinds
  in
  {
    Measure.attempted = List.length (List.concat untraced) + List.length traced;
    failed = failures replays (traced :: untraced);
    metrics;
    notes =
      [ Fmt.str "%d request(s), %d untraced pass(es) then one traced; spans written to %s"
          requests_per_pass (List.length untraced) trace_file ];
  }
