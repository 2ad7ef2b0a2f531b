module Json = Mhla_util.Json
module Error = Mhla_util.Error
module Telemetry = Mhla_obs.Telemetry
module Mapping = Mhla_core.Mapping
module Assign = Mhla_core.Assign
module Explore = Mhla_core.Explore
module Report = Mhla_core.Report
module Pass = Mhla_analysis.Pass
module Verify = Mhla_analysis.Verify
module Robustness = Mhla_sim.Robustness
module Crosscheck = Mhla_sim.Crosscheck
module Policy = Mhla_policy.Policy
module Portfolio = Mhla_policy.Portfolio
module Registry = Mhla_policy.Registry
module Suppress = Mhla_analysis.Suppress

type admission = Block | Shed

type config = {
  jobs : int;
  queue_depth : int;
  default_deadline_ms : int option;
  admission : admission;
  max_request_bytes : int;
  telemetry : Telemetry.t;
  verify_live : bool;
  suppress : Suppress.t;
}

let default_config =
  {
    jobs = 1;
    queue_depth = 16;
    default_deadline_ms = None;
    admission = Block;
    max_request_bytes = 1 lsl 20;
    telemetry = Telemetry.noop;
    verify_live = false;
    suppress = Suppress.empty;
  }

type job = { seq : int; line : string; submitted_ns : int }

(* The counters the waits poll are [Atomic]s, so a spinning domain
   can read them without the lock; each is written under [lock] at the
   same point as the state it mirrors. *)
type t = {
  cfg : config;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  advanced : Condition.t;  (* broadcast whenever a response lands *)
  queue : job Queue.t;
  spin_ns : int;  (* how long [await] spins before it parks *)
  queued : int Atomic.t;  (* [Queue.length queue] *)
  closed : bool Atomic.t;
  next_seq : int Atomic.t;
  completed : int Atomic.t;
  results : (int, Response.t) Hashtbl.t;
  mutable emit_from : int;  (* next seq [ready] will hand out *)
  mutable n_ok : int;
  mutable n_error : int;
  mutable n_timeout : int;
  mutable n_shed : int;
  mutable latencies_ns : int list;
  mutable workers : unit Domain.t list;
  mutable children : Telemetry.t list;
}

(* --- the job path ------------------------------------------------------ *)

let solve_config (req : Request.t) =
  {
    Assign.default_config with
    objective = req.objective;
    transfer_mode = req.transfer_mode;
  }

let solve ?telemetry ?reuse ?checkpoint (req : Request.t) =
  let config = solve_config req in
  match req.policy with
  | Some policy ->
    Policy.run ~config ?telemetry ?reuse ?checkpoint policy req.program
      (Request.hierarchy req)
  | None ->
    Explore.run ~config ?telemetry ~search:req.search ?reuse ?checkpoint
      req.program (Request.hierarchy req)

let ok_payload (req : Request.t) result =
  Report.result_to_json ~name:req.id result

(* The anytime frontier makes a deadline a soft stop: expiry mid-grid
   returns the best-so-far surface with [partial: true] rather than a
   timeout. *)
let solve_pareto ?telemetry ?reuse ?checkpoint ?(jobs = 1) (req : Request.t)
    ~axes =
  Explore.pareto ~config:(solve_config req) ?telemetry ~search:req.search
    ~dma:(Request.dma req) ~jobs ?reuse ?checkpoint ~axes req.program

type outcome =
  | Solved of {
      result : Explore.result;
      verify : Verify.report option;
      robustness : Robustness.report option;
    }
  | Frontier of Explore.pareto_outcome
  | Raced of Portfolio.outcome
  | Simulated of { result : Explore.result; report : Crosscheck.event_report }

let run_job ?telemetry ?reuse ?checkpoint ?jobs ?live ?arbitration
    ?shared_bus ?invalidate_on_miss (req : Request.t) =
  match req.kind with
  | Request.Pareto { axes } ->
    let jobs =
      Option.value jobs ~default:(Mhla_util.Domain_pool.recommended_jobs ())
    in
    Frontier (solve_pareto ?telemetry ?reuse ?checkpoint ~jobs req ~axes)
  | Request.Portfolio { policies } ->
    (* Entrant order is the request's, so the deterministic tie-break
       survives the trip through the wire. *)
    Raced
      (Portfolio.race ~config:(solve_config req) ?jobs ?telemetry ?reuse
         ?checkpoint ~verify_live:(live <> None) ?suppress:live
         ~policies:
           (List.map (Registry.find ~context:"Service.run_job") policies)
         req.program (Request.hierarchy req))
  | Request.Simulate { channels; queue_depth } ->
    (* Divergences ride along as data; they never fail the job. *)
    let result = solve ?telemetry ?reuse ?checkpoint req in
    let config =
      let base =
        Mhla_sim.Event.of_hierarchy ?queue_depth ?arbitration ?shared_bus
          ?invalidate_on_miss (Request.hierarchy req)
      in
      match channels with
      | None -> base
      | Some channels -> { base with Mhla_sim.Event.channels }
    in
    Simulated
      {
        result;
        report =
          Crosscheck.check_event ?telemetry ~config
            result.Explore.assign.Assign.mapping result.Explore.te;
      }
  | Request.Solve ->
    let result = solve ?telemetry ?reuse ?checkpoint req in
    Solved
      {
        result;
        verify =
          Option.map
            (fun suppress -> Verify.check_result ~suppress result)
            live;
        robustness =
          Option.map
            (fun (fs : Request.fault_spec) ->
              Robustness.analyze ~trials:fs.trials ?telemetry ~faults:fs.faults
                result.Explore.assign.Assign.mapping result.Explore.te)
            req.fault_spec;
      }

let live_report = function
  | Solved { verify; _ }
  | Raced { Portfolio.winner = { Portfolio.verify; _ }; _ } ->
    verify
  | Frontier _ | Simulated _ -> None

let render (req : Request.t) = function
  | Solved { result; robustness; _ } ->
    (ok_payload req result, Option.map Robustness.to_json robustness)
  | Frontier outcome -> (Report.pareto_to_json outcome, None)
  | Raced outcome -> (Portfolio.to_json ~id:req.id outcome, None)
  | Simulated { result; report } ->
    ( Json.obj
        [ ("result", ok_payload req result);
          ("simulate", Crosscheck.event_report_to_json report) ],
      None )

(* --- bookkeeping (all under [t.lock]) ---------------------------------- *)

let record_locked t (resp : Response.t) =
  if Hashtbl.mem t.results resp.seq then
    Error.internalf ~context:"Service.record"
      "two responses for request seq %d" resp.seq;
  Hashtbl.replace t.results resp.seq resp;
  (match resp.status with
  | Response.Ok -> t.n_ok <- t.n_ok + 1
  | Response.Error -> t.n_error <- t.n_error + 1
  | Response.Timeout -> t.n_timeout <- t.n_timeout + 1
  | Response.Shed -> t.n_shed <- t.n_shed + 1);
  t.latencies_ns <- resp.elapsed_ns :: t.latencies_ns;
  Atomic.incr t.completed;
  Condition.broadcast t.advanced

let record t resp =
  Mutex.lock t.lock;
  record_locked t resp;
  Mutex.unlock t.lock

(* --- one request, one response ----------------------------------------- *)

let gate_passes = [ "bounds" ]

let run_request t tele job (req : Request.t) =
  let elapsed () = Deadline.now_ns () - job.submitted_ns in
  let id = req.id and seq = job.seq in
  let report =
    Verify.run ~only:gate_passes ~suppress:t.cfg.suppress ~telemetry:tele
      (Pass.subject req.program)
  in
  if not (Verify.ok report) then
    let errs = Verify.errors report in
    Response.error ~id ~seq ~elapsed_ns:(elapsed ()) ~code:"verify"
      (Fmt.str "%d verifier error(s); first: %a" (List.length errs)
         Mhla_analysis.Diagnostic.pp (List.hd errs))
  else begin
    (match req.inject with
    | Request.Raise -> failwith ("injected fault in request " ^ id)
    | Request.No_inject -> ());
    let deadline_ms =
      match req.deadline_ms with
      | Some _ as d -> d
      | None -> t.cfg.default_deadline_ms
    in
    let checkpoint =
      Option.map
        (fun ms ->
          Deadline.checkpoint ~context:"Service.request"
            ~deadline_ns:(job.submitted_ns + (ms * 1_000_000)))
        deadline_ms
    in
    (* Fail fast if the request already overstayed in the queue. *)
    Option.iter (fun cp -> cp ()) checkpoint;
    (* Reuse analysis is program-only: one per request serves every
       solve it runs (a race's entrants, a grid's points). *)
    let reuse = Mapping.precompute req.program in
    let live = if t.cfg.verify_live then Some t.cfg.suppress else None in
    (* The pool already runs one domain per worker: a job's own fan-out
       stays on the worker that owns it. *)
    let outcome =
      run_job ~telemetry:tele ~reuse ?checkpoint ~jobs:1 ?live req
    in
    match live_report outcome with
    | Some r when not (Verify.ok r) ->
      let errs = Verify.errors r in
      Response.error ~id ~seq ~elapsed_ns:(elapsed ()) ~code:"verify"
        (Fmt.str "solution failed live verification: %d error(s); first: %a"
           (List.length errs) Mhla_analysis.Diagnostic.pp (List.hd errs))
    | verify ->
      let verify = Option.map Verify.report_to_json verify in
      let result, robustness = render req outcome in
      Response.ok ?robustness ?verify ~id ~seq ~elapsed_ns:(elapsed ()) result
  end

(* Never raises: every failure mode becomes a structured response. *)
let process t tele job =
  let elapsed () = Deadline.now_ns () - job.submitted_ns in
  let seq = job.seq in
  Telemetry.span tele ~cat:"service" "service.request" (fun () ->
      if String.length job.line > t.cfg.max_request_bytes then
        Response.error ~id:"" ~seq ~elapsed_ns:(elapsed ())
          ~code:"oversized"
          (Fmt.str "request is %d bytes (cap %d)" (String.length job.line)
             t.cfg.max_request_bytes)
      else
        match Json.parse job.line with
        | Error e ->
          Response.error ~id:"" ~seq ~elapsed_ns:(elapsed ())
            ~code:"json-parse"
            (Json.parse_error_to_string e)
        | Ok doc -> (
          let id = Option.value ~default:"" (Request.id_of_json doc) in
          match Request.of_json doc with
          | exception Error.Error err ->
            Response.error ~id ~seq ~elapsed_ns:(elapsed ()) ~code:"decode"
              (Error.to_string err)
          | req -> (
            try run_request t tele job req with
            | Error.Error ({ kind = Error.Deadline; _ } as err) ->
              Response.timeout ~id ~seq ~elapsed_ns:(elapsed ())
                (Error.to_string err)
            | Error.Error err ->
              Response.error ~id ~seq ~elapsed_ns:(elapsed ())
                ~code:(Error.kind_label err.kind)
                (Error.to_string err)
            | e ->
              Response.error ~id ~seq ~elapsed_ns:(elapsed ())
                ~code:"exception" (Printexc.to_string e))))

(* --- waiting ------------------------------------------------------------ *)

let spin_budget_ns = 200_000

(* Clock reads are rarer than polls: one per this many turns. *)
let polls_per_clock_read = 32

(* [await t cond until] is called and returns with [t.lock] held, and
   returns once [until t] holds. A handoff between domains is usually
   over within microseconds, so a waiter that would park first drops
   the lock and polls [until] for up to [t.spin_ns]: a futex wake-up
   costs more than the wait itself. [until] reads only [Atomic]s, so
   the poll needs no lock, and [Domain.cpu_relax] keeps the spinning
   domain answering stop-the-world collections. Then the plain
   condition loop re-checks [until] under the lock, so whatever the
   spin saw, no wake-up is lost. *)
let await t cond until =
  if not (until t) then begin
    if t.spin_ns > 0 then begin
      Mutex.unlock t.lock;
      let stop = Deadline.now_ns () + t.spin_ns in
      let rec spin turns =
        if until t then ()
        else begin
          Domain.cpu_relax ();
          if turns > 0 then spin (turns - 1)
          else if Deadline.now_ns () < stop then spin polls_per_clock_read
        end
      in
      spin polls_per_clock_read;
      Mutex.lock t.lock
    end;
    while not (until t) do
      Condition.wait cond t.lock
    done
  end

let has_job_or_closed t = Atomic.get t.queued > 0 || Atomic.get t.closed
let has_room t = Atomic.get t.queued < t.cfg.queue_depth
let all_answered t = Atomic.get t.completed >= Atomic.get t.next_seq

let rec worker_loop t tele =
  Mutex.lock t.lock;
  await t t.not_empty has_job_or_closed;
  if Queue.is_empty t.queue then Mutex.unlock t.lock
  else begin
    let job = Queue.pop t.queue in
    Atomic.decr t.queued;
    Condition.signal t.not_full;
    Mutex.unlock t.lock;
    record t (process t tele job);
    worker_loop t tele
  end

(* --- lifecycle --------------------------------------------------------- *)

let create ?(config = default_config) () =
  if config.jobs < 1 then
    Error.invalidf ~context:"Service.create" "jobs must be >= 1 (got %d)"
      config.jobs;
  if config.queue_depth < 1 then
    Error.invalidf ~context:"Service.create"
      "queue_depth must be >= 1 (got %d)" config.queue_depth;
  (match config.default_deadline_ms with
  | Some ms when ms < 0 ->
    Error.invalidf ~context:"Service.create"
      "default_deadline_ms must be >= 0 (got %d)" ms
  | _ -> ());
  let t =
    {
      cfg = config;
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      advanced = Condition.create ();
      queue = Queue.create ();
      (* A spinning domain takes a CPU. That pays only while every
         domain of the service (the workers and one client) has a CPU
         of its own: on one CPU each wait would burn its whole budget
         while the domain it waits for cannot run, and [mhla batch]
         with more domains than CPUs ran about 11 % slower. *)
      spin_ns =
        (if config.jobs < Domain.recommended_domain_count () then
           spin_budget_ns
         else 0);
      queued = Atomic.make 0;
      closed = Atomic.make false;
      next_seq = Atomic.make 0;
      completed = Atomic.make 0;
      results = Hashtbl.create 64;
      emit_from = 0;
      n_ok = 0;
      n_error = 0;
      n_timeout = 0;
      n_shed = 0;
      latencies_ns = [];
      workers = [];
      children = [];
    }
  in
  let children =
    List.init config.jobs (fun i -> Telemetry.child config.telemetry ~tid:(i + 1))
  in
  t.children <- children;
  t.workers <-
    List.map (fun tele -> Domain.spawn (fun () -> worker_loop t tele)) children;
  t

let submit t line =
  let submitted_ns = Deadline.now_ns () in
  Mutex.lock t.lock;
  if Atomic.get t.closed then begin
    Mutex.unlock t.lock;
    Error.invalidf ~context:"Service.submit"
      "the service is shut down; create a fresh one"
  end;
  match t.cfg.admission with
  | Shed when not (has_room t) ->
    let seq = Atomic.fetch_and_add t.next_seq 1 in
    record_locked t
      (Response.shed ~id:"" ~seq
         ~elapsed_ns:(Deadline.now_ns () - submitted_ns)
         (Fmt.str "queue full (depth %d)" t.cfg.queue_depth));
    Mutex.unlock t.lock;
    `Shed
  | Shed | Block ->
    (* No spin here: a slot frees only when a worker finishes a whole
       job, and a full queue keeps the workers busy meanwhile, so a
       quick wake-up gains nothing. *)
    while not (has_room t) do
      Condition.wait t.not_full t.lock
    done;
    let seq = Atomic.fetch_and_add t.next_seq 1 in
    Queue.push { seq; line; submitted_ns } t.queue;
    Atomic.incr t.queued;
    Condition.signal t.not_empty;
    Mutex.unlock t.lock;
    `Queued

let pop_ready_locked t =
  let rec go acc =
    match Hashtbl.find_opt t.results t.emit_from with
    | Some r ->
      Hashtbl.remove t.results t.emit_from;
      t.emit_from <- t.emit_from + 1;
      go (r :: acc)
    | None -> List.rev acc
  in
  go []

let ready t =
  Mutex.lock t.lock;
  let r = pop_ready_locked t in
  Mutex.unlock t.lock;
  r

let drain t =
  Mutex.lock t.lock;
  await t t.advanced all_answered;
  let r = pop_ready_locked t in
  Mutex.unlock t.lock;
  r

let shutdown t =
  Mutex.lock t.lock;
  if Atomic.get t.closed then Mutex.unlock t.lock
  else begin
    Atomic.set t.closed true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- [];
    if Telemetry.enabled t.cfg.telemetry then
      Telemetry.merge_children t.cfg.telemetry t.children;
    t.children <- []
  end

(* --- reporting --------------------------------------------------------- *)

type summary = {
  submitted : int;
  ok : int;
  errors : int;
  timeouts : int;
  shed : int;
  p50_ms : float;
  p99_ms : float;
}

let summary t =
  Mutex.lock t.lock;
  let lat = List.sort compare t.latencies_ns in
  let n = List.length lat in
  let pct p =
    if n = 0 then 0.0
    else
      let idx =
        max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
      in
      float_of_int (List.nth lat idx) /. 1e6
  in
  let s =
    {
      submitted = Atomic.get t.next_seq;
      ok = t.n_ok;
      errors = t.n_error;
      timeouts = t.n_timeout;
      shed = t.n_shed;
      p50_ms = pct 0.5;
      p99_ms = pct 0.99;
    }
  in
  Mutex.unlock t.lock;
  s

let summary_to_json s =
  Json.obj
    [ ("submitted", Json.int s.submitted);
      ("ok", Json.int s.ok);
      ("errors", Json.int s.errors);
      ("timeouts", Json.int s.timeouts);
      ("shed", Json.int s.shed);
      ("p50_ms", Json.float s.p50_ms);
      ("p99_ms", Json.float s.p99_ms) ]

let pp_summary ppf s =
  Fmt.pf ppf
    "%d request(s): %d ok, %d error, %d timeout, %d shed; latency p50 %.2f \
     ms, p99 %.2f ms"
    s.submitted s.ok s.errors s.timeouts s.shed s.p50_ms s.p99_ms
