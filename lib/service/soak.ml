module Json = Mhla_util.Json
module Telemetry = Mhla_obs.Telemetry
module Generate = Mhla_gen.Generate
module Faults = Mhla_sim.Faults

type config = {
  requests : int;
  seed : int;
  jobs : int;
  queue_depth : int;
  fault_permille : int;
  malformed_permille : int;
  telemetry : Telemetry.t;
}

let default_config =
  {
    requests = 200;
    seed = 42;
    jobs = 2;
    queue_depth = 8;
    fault_permille = 100;
    malformed_permille = 50;
    telemetry = Telemetry.noop;
  }

type outcome = {
  summary : Service.summary;
  checked_identical : int;
  violations : string list;
}

(* What the soak promised itself when it submitted request [i]. *)
type expectation =
  | Valid of Request.t
  | Poison
  | Zero_deadline
  | Malformed
  | Oversized

let byte_cap = 65_536

let malformed_line st valid_line =
  match Random.State.int st 4 with
  | 0 ->
    (* truncation mid-document *)
    String.sub valid_line 0 (max 1 (String.length valid_line / 2))
  | 1 -> "{\"id\": \"bad\\q escape\"}"
  | 2 -> "{\"id\": \"twice\", \"id\": \"twice\"}"
  | _ -> "this is not json at all"

let build_request cfg st i ~poison ~zero_deadline =
  let case =
    Generate.case ~profile:Generate.Mixed
      ~seed:(Int64.of_int ((cfg.seed * 10_000) + i))
      ()
  in
  let arch =
    Request.Two_level { onchip_bytes = case.Generate.onchip_bytes; dma = true }
  in
  let fault_spec =
    if (not poison) && (not zero_deadline)
       && Random.State.int st 1000 < cfg.fault_permille
    then
      Some
        {
          Request.faults =
            Faults.make
              ~jitter:(Faults.Uniform { max_extra_cycles = 8 })
              ~failure_permille:100
              ~seed:(Int64.of_int ((cfg.seed * 7919) + i))
              ();
          trials = 3;
        }
    else None
  in
  let search =
    if (not poison) && (not zero_deadline) && Random.State.int st 1000 < 200
    then
      Mhla_core.Explore.Annealing
        { seed = Int64.of_int ((cfg.seed * 104_729) + i); iterations = 200 }
    else Mhla_core.Explore.Greedy
  in
  Request.make
    ?deadline_ms:(if zero_deadline then Some 0 else None)
    ?fault_spec ~search
    ~inject:(if poison then Request.Raise else Request.No_inject)
    ~id:(Fmt.str "soak-%d" i) ~arch case.Generate.program

let poison_permille = 50

let oversized_permille = 20

let zero_deadline_permille = 30

(* The classes partition [0, 1000): poison first, then malformed,
   oversized, zero-deadline; everything else is a valid solve. *)
let plan_request cfg st i =
  let r = Random.State.int st 1000 in
  let p = poison_permille in
  let m = p + cfg.malformed_permille in
  let o = m + oversized_permille in
  let z = o + zero_deadline_permille in
  if r < p then
    let req = build_request cfg st i ~poison:true ~zero_deadline:false in
    (Poison, Json.to_string (Request.to_json req))
  else if r < m then
    let req = build_request cfg st i ~poison:false ~zero_deadline:false in
    (Malformed, malformed_line st (Json.to_string (Request.to_json req)))
  else if r < o then (Oversized, String.make (byte_cap + 1) 'x')
  else if r < z then
    let req = build_request cfg st i ~poison:false ~zero_deadline:true in
    (Zero_deadline, Json.to_string (Request.to_json req))
  else
    let req = build_request cfg st i ~poison:false ~zero_deadline:false in
    let line = Json.to_string (Request.to_json req) in
    if String.length line > byte_cap then (Oversized, line)
    else (Valid req, line)

let json_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Json.equal x y
  | _ -> false

let check_response i expectation (resp : Response.t) violations checked =
  let fail fmt =
    Fmt.kstr (fun s -> violations := Fmt.str "request %d: %s" i s :: !violations) fmt
  in
  let code = Option.value ~default:"" resp.code in
  (match expectation with
  | Valid req -> (
    match resp.status with
    | Response.Ok -> (
      incr checked;
      (* replay outside the pool: the pooled answer must be
         bit-identical, robustness rider included *)
      let want, robustness = Service.render req (Service.run_job req) in
      (match resp.result with
      | Some got when Json.equal got want -> ()
      | Some _ -> fail "ok payload differs from the direct solve"
      | None -> fail "ok response without a result payload");
      if not (json_opt_equal resp.robustness robustness) then
        fail "robustness rider differs from the direct analysis")
    | s -> fail "expected ok, got %s/%s" (Response.status_name s) code)
  | Poison -> (
    match resp.status with
    | Response.Error when code = "exception" -> ()
    | s ->
      fail "poisoned request expected error/exception, got %s/%s"
        (Response.status_name s) code)
  | Zero_deadline -> (
    match resp.status with
    | Response.Timeout -> ()
    | s ->
      fail "zero-deadline request expected timeout, got %s/%s"
        (Response.status_name s) code)
  | Malformed -> (
    match resp.status with
    | Response.Error when code = "json-parse" -> ()
    | s ->
      fail "malformed request expected error/json-parse, got %s/%s"
        (Response.status_name s) code)
  | Oversized -> (
    match resp.status with
    | Response.Error when code = "oversized" -> ()
    | s ->
      fail "oversized request expected error/oversized, got %s/%s"
        (Response.status_name s) code));
  if resp.seq <> i then fail "answered out of order (seq %d)" resp.seq

(* Expectations and lines for the whole run, planned up front — the
   state must be threaded strictly in request order so `run` and
   `lines` (the CI's batch-file emitter) agree on every byte. *)
let plans config =
  let st = Random.State.make [| config.seed |] in
  let rec go i acc =
    if i >= config.requests then List.rev acc
    else go (i + 1) (plan_request config st i :: acc)
  in
  go 0 []

let lines config = List.map snd (plans config)

let run ?(config = default_config) () =
  let service =
    Service.create
      ~config:
        {
          Service.default_config with
          jobs = config.jobs;
          queue_depth = config.queue_depth;
          max_request_bytes = byte_cap;
          telemetry = config.telemetry;
        }
      ()
  in
  let planned = plans config in
  let expectations = Array.make (max 1 config.requests) Malformed in
  List.iteri
    (fun i (expectation, line) ->
      expectations.(i) <- expectation;
      match Service.submit service line with
      | `Queued -> ()
      | `Shed -> assert false (* Block admission never sheds *))
    planned;
  let responses = Service.drain service in
  Service.shutdown service;
  let violations = ref [] in
  let checked = ref 0 in
  if List.length responses <> config.requests then
    violations :=
      Fmt.str "%d submissions but %d responses" config.requests
        (List.length responses)
      :: !violations;
  List.iteri
    (fun i resp ->
      if i < config.requests then
        check_response i expectations.(i) resp violations checked)
    responses;
  {
    summary = Service.summary service;
    checked_identical = !checked;
    violations = List.rev !violations;
  }

let ok outcome = outcome.violations = []

let to_json outcome =
  Json.obj
    [ ("summary", Service.summary_to_json outcome.summary);
      ("checked_identical", Json.int outcome.checked_identical);
      ( "violations",
        Json.arr (List.map Json.str outcome.violations) ) ]

let pp ppf outcome =
  if ok outcome then
    Fmt.pf ppf "soak PASS: %a; %d ok response(s) replayed bit-identical"
      Service.pp_summary outcome.summary outcome.checked_identical
  else
    Fmt.pf ppf "soak FAIL (%d violation(s)):@,%a@,%a"
      (List.length outcome.violations)
      Fmt.(list ~sep:cut (fun ppf -> Fmt.pf ppf "  - %s"))
      outcome.violations Service.pp_summary outcome.summary
