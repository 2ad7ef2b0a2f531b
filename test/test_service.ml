(* The solver-as-a-service front-end: wire codec, bounded-queue
   executor, deadline/backpressure behaviour and the chaos soak. *)

module Json = Mhla_util.Json
module Error = Mhla_util.Error
module Gen = Mhla_gen.Generate
module Request = Mhla_service.Request
module Response = Mhla_service.Response
module Service = Mhla_service.Service
module Soak = Mhla_service.Soak
module Deadline = Mhla_service.Deadline
module Faults = Mhla_sim.Faults
module Explore = Mhla_core.Explore

let sample ?objective ?transfer_mode ?search ?deadline_ms ?fault_spec ?inject i
    =
  let case = Gen.case ~profile:Gen.Mixed ~seed:(Int64.of_int (100 + i)) () in
  Request.make ?objective ?transfer_mode ?search ?deadline_ms ?fault_spec
    ?inject
    ~id:(Fmt.str "req-%d" i)
    ~arch:(Request.Two_level { onchip_bytes = case.Gen.onchip_bytes; dma = true })
    case.Gen.program

let line req = Json.to_string (Request.to_json req)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_input" name
  | exception Error.Error e ->
    Alcotest.(check bool)
      (name ^ ": kind is Invalid_input")
      true
      (e.Error.kind = Error.Invalid_input)

(* --- wire codec -------------------------------------------------------- *)

let test_request_roundtrip () =
  let variants =
    [
      sample 0;
      sample 1 ~objective:Mhla_core.Cost.Cycles;
      sample 2 ~transfer_mode:Mhla_reuse.Candidate.Full;
      sample 3
        ~search:(Explore.Annealing { seed = 7L; iterations = 500 });
      sample 4 ~deadline_ms:250;
      sample 5
        ~fault_spec:
          {
            Request.faults =
              Faults.make
                ~jitter:(Faults.Uniform { max_extra_cycles = 8 })
                ~failure_permille:20 ~seed:7L ();
            trials = 8;
          };
      sample 6 ~inject:Request.Raise;
    ]
  in
  List.iteri
    (fun i req ->
      let rendered = line req in
      let back =
        match Json.parse rendered with
        | Ok doc -> Request.of_json doc
        | Error e ->
          Alcotest.failf "variant %d reparse: %s" i
            (Json.parse_error_to_string e)
      in
      Alcotest.(check bool)
        (Fmt.str "variant %d: of_json ∘ to_json = id" i)
        true (Request.equal req back))
    variants

let test_request_three_level_roundtrip () =
  let case = Gen.case ~profile:Gen.Mixed ~seed:11L () in
  let req =
    Request.make ~id:"tl"
      ~arch:
        (Request.Three_level
           { l1_bytes = 512; l2_bytes = 4096; dma = false })
      case.Gen.program
  in
  let back = Request.of_json (Json.parse_exn (line req)) in
  Alcotest.(check bool) "three-level round trip" true (Request.equal req back)

let test_request_multi_level_roundtrip () =
  let case = Gen.case ~profile:Gen.Mixed ~seed:13L () in
  let req =
    Request.make ~id:"ml"
      ~arch:
        (Request.Multi_level
           { level_bytes = [ 256; 2048; 16384 ]; dma = true })
      case.Gen.program
  in
  let back = Request.of_json (Json.parse_exn (line req)) in
  Alcotest.(check bool) "multi-level round trip" true (Request.equal req back)

let test_request_pareto_roundtrip () =
  let case = Gen.case ~profile:Gen.Mixed ~seed:17L () in
  let two_level =
    Request.make ~id:"p2"
      ~kind:(Request.Pareto { axes = [ [ 128; 512; 2048 ] ] })
      ~arch:(Request.Two_level { onchip_bytes = 2048; dma = true })
      case.Gen.program
  in
  let multi_level =
    Request.make ~id:"pm"
      ~kind:(Request.Pareto { axes = [ [ 256; 1024 ]; [ 512; 4096 ] ] })
      ~arch:
        (Request.Multi_level { level_bytes = [ 1024; 4096 ]; dma = false })
      case.Gen.program
  in
  List.iter
    (fun req ->
      let back = Request.of_json (Json.parse_exn (line req)) in
      Alcotest.(check bool)
        (req.Request.id ^ ": pareto round trip")
        true (Request.equal req back))
    [ two_level; multi_level ]

let test_request_decode_errors () =
  let ok = Json.parse_exn (line (sample 0)) in
  let patch fields =
    match ok with
    | Json.Obj base -> Json.obj (base @ fields)
    | _ -> assert false
  in
  check_invalid "unknown field" (fun () ->
      Request.of_json (patch [ ("surprise", Json.int 1) ]));
  check_invalid "negative deadline" (fun () ->
      Request.of_json (patch [ ("deadline_ms", Json.int (-1)) ]));
  check_invalid "missing id" (fun () ->
      Request.of_json
        (Json.parse_exn "{\"program\": {}, \"arch\": {\"onchip_bytes\": 64}}"));
  check_invalid "bad arch" (fun () ->
      Request.of_json
        (Json.parse_exn "{\"id\": \"x\", \"program\": {}, \"arch\": {\"weird\": 1}}"))

let test_request_pareto_decode_errors () =
  let patch_onto base fields =
    match Json.parse_exn (line base) with
    | Json.Obj existing -> Json.obj (existing @ fields)
    | _ -> assert false
  in
  let patch fields = patch_onto (sample 0) fields in
  let axis sizes = Json.arr (List.map Json.int sizes) in
  let grid axes = Json.arr (List.map axis axes) in
  check_invalid "grid without pareto mode" (fun () ->
      Request.of_json (patch [ ("grid", grid [ [ 128; 512 ] ]) ]));
  check_invalid "pareto without grid" (fun () ->
      Request.of_json (patch [ ("mode", Json.str "pareto") ]));
  check_invalid "bad mode string" (fun () ->
      Request.of_json (patch [ ("mode", Json.str "frontier") ]));
  check_invalid "axes count must match on-chip levels" (fun () ->
      Request.of_json
        (patch
           [ ("mode", Json.str "pareto");
             ("grid", grid [ [ 128 ]; [ 256 ] ]) ]));
  check_invalid "empty axis" (fun () ->
      Request.of_json
        (patch [ ("mode", Json.str "pareto"); ("grid", grid [ [] ]) ]));
  check_invalid "non-positive size" (fun () ->
      Request.of_json
        (patch [ ("mode", Json.str "pareto"); ("grid", grid [ [ 0; 64 ] ]) ]));
  check_invalid "faults rider on a pareto surface" (fun () ->
      Request.of_json
        (patch_onto
           (sample 5
              ~fault_spec:
                {
                  Request.faults = Faults.make ~failure_permille:10 ~seed:3L ();
                  trials = 4;
                })
           [ ("mode", Json.str "pareto"); ("grid", grid [ [ 128; 512 ] ]) ]));
  check_invalid "empty level_bytes" (fun () ->
      Request.of_json
        (Json.parse_exn
           "{\"id\": \"x\", \"program\": {}, \"arch\": {\"level_bytes\": []}}"))

let test_request_simulate_roundtrip () =
  let case = Gen.case ~profile:Gen.Mixed ~seed:29L () in
  let make kind =
    Request.make ~id:"sim"
      ~kind
      ~arch:(Request.Two_level { onchip_bytes = 1024; dma = true })
      case.Gen.program
  in
  List.iter
    (fun kind ->
      let req = make kind in
      let back = Request.of_json (Json.parse_exn (line req)) in
      Alcotest.(check bool) "simulate round trip" true
        (Request.equal req back))
    [
      Request.Simulate { channels = None; queue_depth = None };
      Request.Simulate { channels = Some 4; queue_depth = None };
      Request.Simulate { channels = None; queue_depth = Some 2 };
      Request.Simulate { channels = Some 1; queue_depth = Some 8 };
    ]

let test_request_simulate_decode_errors () =
  let patch fields =
    match Json.parse_exn (line (sample 0)) with
    | Json.Obj base -> Json.obj (base @ fields)
    | _ -> assert false
  in
  check_invalid "channels without simulate mode" (fun () ->
      Request.of_json (patch [ ("channels", Json.int 2) ]));
  check_invalid "queue_depth without simulate mode" (fun () ->
      Request.of_json (patch [ ("queue_depth", Json.int 2) ]));
  check_invalid "non-positive channels" (fun () ->
      Request.of_json
        (patch [ ("mode", Json.str "simulate"); ("channels", Json.int 0) ]));
  check_invalid "non-positive queue depth" (fun () ->
      Request.of_json
        (patch
           [ ("mode", Json.str "simulate"); ("queue_depth", Json.int (-1)) ]));
  check_invalid "grid on a simulate request" (fun () ->
      Request.of_json
        (patch
           [ ("mode", Json.str "simulate");
             ("grid", Json.arr [ Json.arr [ Json.int 128 ] ]) ]))

let test_service_simulate_end_to_end () =
  let case = Gen.case ~profile:Gen.Mixed ~seed:31L () in
  let req =
    Request.make ~id:"sim-e2e"
      ~kind:(Request.Simulate { channels = Some 2; queue_depth = None })
      ~arch:(Request.Two_level { onchip_bytes = 2048; dma = true })
      case.Gen.program
  in
  let service = Service.create () in
  ignore (Service.submit service (line req));
  let responses = Service.drain service in
  Service.shutdown service;
  match responses with
  | [ resp ] -> (
    Alcotest.(check string) "status" "ok"
      (Response.status_name resp.Response.status);
    let payload =
      match resp.Response.result with
      | Some p -> p
      | None -> Alcotest.fail "ok response carries no payload"
    in
    match payload with
    | Json.Obj fields -> (
      Alcotest.(check bool) "payload carries the solve" true
        (List.mem_assoc "result" fields);
      match List.assoc_opt "simulate" fields with
      | Some (Json.Obj sim) ->
        Alcotest.(check bool) "report has checks" true
          (List.mem_assoc "checks" sim);
        Alcotest.(check bool) "report has an agreement verdict" true
          (List.mem_assoc "agreement" sim)
      | _ -> Alcotest.fail "payload has no simulate report")
    | _ -> Alcotest.fail "payload is not an object")
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

let test_id_salvage () =
  Alcotest.(check (option string))
    "id salvaged" (Some "half-broken")
    (Request.id_of_json
       (Json.parse_exn "{\"id\": \"half-broken\", \"arch\": 3}"));
  Alcotest.(check (option string))
    "no id" None
    (Request.id_of_json (Json.parse_exn "{\"arch\": 3}"))

(* --- executor ---------------------------------------------------------- *)

let test_service_ok_bit_identical () =
  let reqs = List.init 4 (fun i -> sample i) in
  let service =
    Service.create ~config:{ Service.default_config with jobs = 2 } ()
  in
  List.iter (fun r -> ignore (Service.submit service (line r))) reqs;
  let responses = Service.drain service in
  Service.shutdown service;
  Alcotest.(check int) "one response per request" (List.length reqs)
    (List.length responses);
  List.iteri
    (fun i (resp : Response.t) ->
      Alcotest.(check int) (Fmt.str "response %d in order" i) i resp.seq;
      Alcotest.(check string)
        (Fmt.str "response %d status" i)
        "ok"
        (Response.status_name resp.status);
      let req = List.nth reqs i in
      Alcotest.(check string) (Fmt.str "response %d id" i) req.Request.id
        resp.id;
      let direct = Service.ok_payload req (Service.solve req) in
      Alcotest.(check bool)
        (Fmt.str "response %d bit-identical to direct solve" i)
        true
        (match resp.result with
        | Some got -> Json.equal got direct
        | None -> false))
    responses;
  Alcotest.(check int) "nothing left to hand out" 0
    (List.length (Service.ready service))

let test_service_pareto_end_to_end () =
  let case = Gen.case ~profile:Gen.Mixed ~seed:23L () in
  let axes = [ [ 128; 512; 2048 ] ] in
  let req =
    Request.make ~id:"pareto-e2e"
      ~kind:(Request.Pareto { axes })
      ~arch:(Request.Two_level { onchip_bytes = 2048; dma = true })
      case.Gen.program
  in
  let service = Service.create () in
  ignore (Service.submit service (line req));
  let responses = Service.drain service in
  Service.shutdown service;
  match responses with
  | [ resp ] ->
    Alcotest.(check string) "status" "ok"
      (Response.status_name resp.Response.status);
    Alcotest.(check string) "id" "pareto-e2e" resp.Response.id;
    let payload =
      match resp.Response.result with
      | Some p -> p
      | None -> Alcotest.fail "ok response carries no payload"
    in
    (match payload with
    | Json.Obj fields ->
      (match List.assoc_opt "frontier" fields with
      | Some (Json.Arr points) ->
        Alcotest.(check bool) "frontier is non-empty" true (points <> [])
      | _ -> Alcotest.fail "payload has no frontier array");
      (match List.assoc_opt "partial" fields with
      | Some (Json.Bool partial) ->
        Alcotest.(check bool) "a finished surface is not partial" false partial
      | _ -> Alcotest.fail "payload has no partial flag")
    | _ -> Alcotest.fail "payload is not an object");
    let direct =
      Mhla_core.Report.pareto_to_json (Service.solve_pareto req ~axes)
    in
    Alcotest.(check bool) "bit-identical to direct pareto solve" true
      (Json.equal payload direct)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

let test_service_isolates_poison () =
  let service = Service.create () in
  ignore (Service.submit service (line (sample 0)));
  ignore (Service.submit service (line (sample 1 ~inject:Request.Raise)));
  ignore (Service.submit service (line (sample 2)));
  let responses = Service.drain service in
  Service.shutdown service;
  let statuses =
    List.map (fun (r : Response.t) -> Response.status_name r.status) responses
  in
  Alcotest.(check (list string))
    "poison crashes only its own request"
    [ "ok"; "error"; "ok" ] statuses;
  let poisoned = List.nth responses 1 in
  Alcotest.(check (option string))
    "diagnostic code" (Some "exception") poisoned.Response.code

let test_service_timeout_and_errors () =
  let service =
    Service.create
      ~config:{ Service.default_config with max_request_bytes = 2048 } ()
  in
  ignore (Service.submit service (line (sample 0 ~deadline_ms:0)));
  ignore (Service.submit service "{\"id\": \"broken\"");
  ignore (Service.submit service (String.make 2049 'x'));
  ignore (Service.submit service "{\"id\": \"incomplete\"}");
  let responses = Service.drain service in
  Service.shutdown service;
  (match responses with
  | [ timeout; parse; oversized; decode ] ->
    Alcotest.(check string) "zero deadline times out" "timeout"
      (Response.status_name timeout.Response.status);
    Alcotest.(check (option string))
      "timeout code" (Some "deadline") timeout.Response.code;
    Alcotest.(check (option string))
      "parse code" (Some "json-parse") parse.Response.code;
    Alcotest.(check (option string))
      "oversized code" (Some "oversized") oversized.Response.code;
    Alcotest.(check (option string))
      "decode code" (Some "decode") decode.Response.code;
    Alcotest.(check string) "decode salvages the id" "incomplete"
      decode.Response.id
  | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs));
  let s = Service.summary service in
  Alcotest.(check int) "summary errors" 3 s.Service.errors;
  Alcotest.(check int) "summary timeouts" 1 s.Service.timeouts

let test_service_sheds_under_pressure () =
  let service =
    Service.create
      ~config:
        {
          Service.default_config with
          jobs = 1;
          queue_depth = 1;
          admission = Service.Shed;
        }
      ()
  in
  let outcomes =
    List.init 6 (fun i -> Service.submit service (line (sample i)))
  in
  let responses = Service.drain service in
  Service.shutdown service;
  Alcotest.(check int) "exactly one response each" 6 (List.length responses);
  let shed =
    List.length
      (List.filter (fun (r : Response.t) -> r.status = Response.Shed) responses)
  in
  let queued =
    List.length (List.filter (fun o -> o = `Queued) outcomes)
  in
  Alcotest.(check int) "shed responses match rejected submissions" (6 - queued)
    shed;
  Alcotest.(check bool) "first submission is never shed" true
    (List.hd outcomes = `Queued);
  Alcotest.(check bool) "undersized queue sheds something" true (shed >= 1);
  let s = Service.summary service in
  Alcotest.(check int) "summary sheds agree" shed s.Service.shed

let test_deadline_module () =
  check_invalid "negative ms" (fun () -> Deadline.after_ms (-1));
  let future = Deadline.after_ms 60_000 in
  Deadline.checkpoint ~context:"test" ~deadline_ns:future ();
  let due = Deadline.after_ms 0 in
  (match Deadline.checkpoint ~context:"test" ~deadline_ns:(due - 1) () with
  | () -> Alcotest.fail "expired deadline did not raise"
  | exception Error.Error e ->
    Alcotest.(check bool) "kind is Deadline" true (e.Error.kind = Error.Deadline));
  let t0 = Deadline.now_ns () in
  let t1 = Deadline.now_ns () in
  Alcotest.(check bool) "clock is monotone" true (t0 <= t1)

(* --- chaos soak -------------------------------------------------------- *)

let test_soak () =
  let outcome =
    Soak.run
      ~config:{ Soak.default_config with requests = 40; jobs = 2; seed = 7 }
      ()
  in
  if not (Soak.ok outcome) then
    Alcotest.failf "%a" Soak.pp outcome;
  Alcotest.(check int) "every request answered" 40
    outcome.Soak.summary.Service.submitted;
  Alcotest.(check bool) "some ok responses were replayed" true
    (outcome.Soak.checked_identical > 0)

let () =
  Alcotest.run "service"
    [
      ( "request",
        [
          Alcotest.test_case "round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "three-level round trip" `Quick
            test_request_three_level_roundtrip;
          Alcotest.test_case "multi-level round trip" `Quick
            test_request_multi_level_roundtrip;
          Alcotest.test_case "pareto round trip" `Quick
            test_request_pareto_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_request_decode_errors;
          Alcotest.test_case "pareto decode errors" `Quick
            test_request_pareto_decode_errors;
          Alcotest.test_case "simulate round trip" `Quick
            test_request_simulate_roundtrip;
          Alcotest.test_case "simulate decode errors" `Quick
            test_request_simulate_decode_errors;
          Alcotest.test_case "id salvage" `Quick test_id_salvage;
        ] );
      ( "executor",
        [
          Alcotest.test_case "ok responses bit-identical" `Quick
            test_service_ok_bit_identical;
          Alcotest.test_case "pareto end to end" `Quick
            test_service_pareto_end_to_end;
          Alcotest.test_case "simulate end to end" `Quick
            test_service_simulate_end_to_end;
          Alcotest.test_case "poison isolated" `Quick
            test_service_isolates_poison;
          Alcotest.test_case "timeout and error codes" `Quick
            test_service_timeout_and_errors;
          Alcotest.test_case "backpressure sheds" `Quick
            test_service_sheds_under_pressure;
          Alcotest.test_case "deadline module" `Quick test_deadline_module;
        ] );
      ("soak", [ Alcotest.test_case "chaos soak" `Slow test_soak ]);
    ]
