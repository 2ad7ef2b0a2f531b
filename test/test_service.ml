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
  (* A seed or an iteration count only means something to annealing:
     on any other kind it is rejected, not silently ignored, and so is
     a field no search takes. *)
  List.iter
    (fun (kind, field) ->
      check_invalid (Fmt.str "%s search with %s" kind field) (fun () ->
          Request.of_json
            (patch
               [ ( "search",
                   Json.obj [ ("kind", Json.str kind); (field, Json.int 9) ] )
               ])))
    [ ("greedy", "seed"); ("greedy", "iterations");
      ("first-improvement", "seed"); ("first-improvement", "iterations");
      ("anneal", "sed") ];
  let seeded =
    Request.of_json
      (patch
         [ ( "search",
             Json.obj [ ("kind", Json.str "anneal"); ("seed", Json.int 9) ] )
         ])
  in
  Alcotest.(check bool) "anneal search with a seed decodes" true
    (seeded.Request.search
    = Explore.Annealing { seed = 9L; iterations = 4000 });
  (* The fault rider takes exactly its four knobs: a typo is rejected,
     not decoded as a rider at jitter 0. *)
  let rider fields = Request.of_json (patch [ ("faults", Json.obj fields) ]) in
  check_invalid "faults rider with a typo" (fun () ->
      rider [ ("seed", Json.int 7); ("jiter", Json.int 8) ]);
  let full =
    rider
      [ ("seed", Json.int 7); ("jitter", Json.int 8);
        ("failure_permille", Json.int 20); ("trials", Json.int 3) ]
  in
  Alcotest.(check bool) "full faults rider decodes" true
    (full.Request.fault_spec
    = Some
        {
          Request.faults =
            Faults.make
              ~jitter:(Faults.Uniform { max_extra_cycles = 8 })
              ~failure_permille:20 ~seed:7L ();
          trials = 3;
        });
  check_invalid "missing id" (fun () ->
      Request.of_json
        (Json.parse_exn "{\"program\": {}, \"arch\": {\"onchip_bytes\": 64}}"));
  check_invalid "bad arch" (fun () ->
      Request.of_json
        (Json.parse_exn "{\"id\": \"x\", \"program\": {}, \"arch\": {\"weird\": 1}}"));
  (* A size or trip count the IR cannot hold fails at its own path, not
     inside [Array_decl] or [Program]. *)
  let with_field key text =
    match ok with
    | Json.Obj base ->
      Json.obj
        (List.map
           (fun (k, v) -> if k = key then (k, Json.parse_exn text) else (k, v))
           base)
    | _ -> assert false
  in
  let rejected_at path doc =
    match Request.of_json doc with
    | _ -> Alcotest.failf "expected Invalid_input at %s" path
    | exception Error.Error e ->
      Alcotest.(check bool)
        ("Invalid_input at " ^ path)
        true
        (e.Error.kind = Error.Invalid_input
        && String.starts_with ~prefix:(path ^ ":") e.Error.message)
  in
  let tiny dim bytes trip =
    Printf.sprintf
      "{\"name\": \"tiny\", \"arrays\": [{\"name\": \"a\", \"dims\": \
       [%d, 4], \"element_bytes\": %d}], \"body\": [{\"loop\": {\"iter\": \
       \"i\", \"trip\": %d, \"body\": [{\"stmt\": {\"name\": \"s\", \
       \"work\": 1, \"accesses\": [{\"array\": \"a\", \"dir\": \"read\", \
       \"index\": [{\"const\": 0, \"terms\": []}, {\"const\": 0, \
       \"terms\": []}]}]}}]}}]}"
      dim bytes trip
  in
  ignore (Request.of_json (with_field "program" (tiny 8 2 3)) : Request.t);
  List.iter
    (fun ((dim, bytes, trip), path) ->
      rejected_at path (with_field "program" (tiny dim bytes trip)))
    [ ((8, 0, 3), "$.program.arrays[0].element_bytes");
      ((0, 2, 3), "$.program.arrays[0].dims[0]");
      ((8, 2, 0), "$.program.body[0].loop.trip") ];
  (* Each raced policy fixes its own search: a portfolio that also
     names one is rejected, not answered with the search ignored. *)
  List.iter
    (fun kind ->
      check_invalid ("portfolio with a " ^ kind ^ " search") (fun () ->
          Request.of_json
            (patch
               [ ("mode", Json.str "portfolio");
                 ("search", Json.obj [ ("kind", Json.str kind) ]) ])))
    [ "anneal"; "greedy" ];
  check_invalid "policy with a search" (fun () ->
      Request.of_json
        (patch
           [ ("policy", Json.str "lean");
             ("search", Json.obj [ ("kind", Json.str "greedy") ]) ]))

(* The TE order is not a policy: the names of the two policies that
   only changed it are unknown on the wire, alone or in a portfolio,
   and the rejection lists the names that remain. *)
let test_request_te_order_policies_unknown () =
  let ok = Json.parse_exn (line (sample 0)) in
  let patch fields =
    match ok with
    | Json.Obj base -> Json.obj (base @ fields)
    | _ -> assert false
  in
  let known = "known policies: greedy, greedy-first, anneal, lean" in
  List.iter
    (fun (name, fields) ->
      match Request.of_json (patch fields) with
      | _ -> Alcotest.failf "%s: expected Invalid_input" name
      | exception Error.Error e ->
        Alcotest.(check bool)
          (name ^ ": kind is Invalid_input")
          true
          (e.Error.kind = Error.Invalid_input);
        Alcotest.(check (option string)) (name ^ ": hint") (Some known)
          e.Error.hint)
    [ ("policy te-fifo", [ ("policy", Json.str "te-fifo") ]);
      ( "portfolio with te-size",
        [ ("mode", Json.str "portfolio");
          ("policies", Json.arr [ Json.str "greedy"; Json.str "te-size" ]) ]
      ) ]

(* Decode errors name the failing node by its full path; the whole
   message, context included, is pinned at every nesting depth. *)
let test_request_decode_paths () =
  let request ?(dims_b = "[4, 4]") ?(terms0 = {|[{"iter": "i", "coeff": 1}]|})
      ?(coeff1 = "1") ?(dir = {|"write"|}) ?(trip_m = "2") ?(extra = "") () =
    Printf.sprintf
      {|{"id": "deep",%s "arch": {"onchip_bytes": 64},
        "program": {"name": "deep", "arrays": [
          {"name": "a", "dims": [16], "element_bytes": 1},
          {"name": "b", "dims": %s, "element_bytes": 2}],
        "body": [
          {"loop": {"iter": "i", "trip": 4, "body": [
            {"stmt": {"name": "s0", "work": 1, "accesses": [
              {"array": "b", "dir": "read", "index": [
                {"const": 0, "terms": %s},
                {"const": 0, "terms": [{"iter": "i", "coeff": %s}]}]},
              {"array": "a", "dir": %s, "index": [
                {"const": 0, "terms": [{"iter": "i", "coeff": 4}]}]}]}}]}},
          {"loop": {"iter": "k", "trip": 2, "body": [
            {"loop": {"iter": "m", "trip": %s, "body": [
              {"stmt": {"name": "s1", "work": 1, "accesses": [
                {"array": "a", "dir": "read", "index": [
                  {"const": 0, "terms": [{"iter": "k", "coeff": 1}]}]}]}}]}}]}}]}}|}
      extra dims_b terms0 coeff1 dir trip_m
  in
  ignore (Request.of_json (Json.parse_exn (request ())) : Request.t);
  let s0 = "$.program.body[0].loop.body[0].stmt" in
  List.iter
    (fun (text, expected) ->
      match Request.of_json (Json.parse_exn text) with
      | _ -> Alcotest.failf "expected a decode error: %s" expected
      | exception Error.Error e ->
        Alcotest.(check string) "message" expected (Error.to_string e))
    [ ( request ~coeff1:{|"1"|} (),
        "Json_codec: " ^ s0
        ^ ".accesses[0].index[1].terms[0].coeff: expected an integer, \
           found string" );
      ( request ~terms0:{|[{"iter": "i"}]|} (),
        "Json_codec: " ^ s0
        ^ ".accesses[0].index[0].terms[0]: missing field \"coeff\"" );
      ( request
          ~terms0:{|[{"iter": "i", "coeff": 1}, {"iter": "i", "coeff": 2}]|}
          (),
        "Json_codec: " ^ s0
        ^ ".accesses[0].index[0].terms[1]: iterator \"i\" appears in two \
           terms" );
      ( request ~terms0:{|[{"iter": "i", "coeff": 1, "scale": 2}]|} (),
        "Json_codec: " ^ s0
        ^ ".accesses[0].index[0].terms[0].scale: unknown field \"scale\" \
           (expected one of: iter, coeff)" );
      ( request ~dir:{|"rw"|} (),
        "Json_codec: " ^ s0
        ^ ".accesses[1].dir: bad direction \"rw\" (expected \"read\" or \
           \"write\")" );
      ( request ~dir:"3" (),
        "Json_codec: " ^ s0 ^ ".accesses[1].dir: expected a string, found int"
      );
      ( request ~dims_b:"[4, 4, 0]" (),
        "Json_codec: $.program.arrays[1].dims[2]: must be > 0 (got 0)" );
      ( request ~trip_m:"0" (),
        "Json_codec: $.program.body[1].loop.body[0].loop.trip: must be > 0 \
         (got 0)" );
      ( request ~extra:{| "search": {"kind": "anneal", "seed": "x"},|} (),
        "Json_codec: $.search.seed: expected an integer, found string" );
      ( request ~extra:{| "budget": 1,|} (),
        "Json_codec: $.budget: unknown field \"budget\" (expected one of: id, \
         program, arch, objective, mode, grid, search, policy, policies, \
         channels, queue_depth, deadline_ms, faults, inject)" ) ]

(* [make] builds what only an in-memory caller needs; [to_json] refuses
   to render it rather than drop a knob on the way out. *)
let test_request_in_memory_only () =
  let case = Gen.case ~profile:Gen.Mixed ~seed:19L () in
  let make ?kind ?transfer_mode ?search ?policy () =
    Request.make ?kind ?transfer_mode ?search ?policy ~id:"mem"
      ~arch:(Request.Two_level { onchip_bytes = 1024; dma = true })
      case.Gen.program
  in
  let portfolio =
    Request.Portfolio
      { policies = Mhla_policy.Registry.default_portfolio_names }
  in
  let simulate = Request.Simulate { channels = None; queue_depth = None } in
  List.iter
    (fun kind ->
      let req = make ~kind ~transfer_mode:Mhla_reuse.Candidate.Full () in
      check_invalid "to_json of a non-solve transfer mode" (fun () ->
          Request.to_json req))
    [ portfolio; simulate ];
  let custom =
    Mhla_policy.Policy.make ~cc_top_k:2 "top-2"
  in
  check_invalid "to_json of an unregistered policy" (fun () ->
      Request.to_json (make ~policy:custom ()));
  let lean = Mhla_policy.Registry.find "lean" in
  let named = make ~policy:lean () in
  Alcotest.(check bool) "a registry policy round-trips" true
    (Request.equal named (Request.of_json (Request.to_json named)));
  check_invalid "make: portfolio with a search" (fun () ->
      make ~kind:portfolio ~search:Explore.Greedy ());
  check_invalid "make: policy with a search" (fun () ->
      make ~policy:lean ~search:Explore.Greedy ())

(* The wire carries a fault model's seed, uniform jitter and failure
   rate only. A rider with any other knob must refuse to render rather
   than come back as a different model; the models soak, bench and
   perfbench send must still round-trip. *)
let test_request_fault_rider_wire () =
  let with_faults faults = sample 5 ~fault_spec:{ Request.faults; trials = 4 } in
  let uniform = Faults.Uniform { max_extra_cycles = 8 } in
  List.iter
    (fun (name, faults) ->
      check_invalid ("to_json of " ^ name) (fun () ->
          Request.to_json (with_faults faults)))
    [
      ("max_retries 5", Faults.make ~jitter:uniform ~max_retries:5 ~seed:1L ());
      ("deadline_patience 100",
       Faults.make ~jitter:uniform ~deadline_patience:100 ~seed:1L ());
    ];
  List.iter
    (fun faults ->
      let req = with_faults faults in
      let back = Request.of_json (Request.to_json req) in
      Alcotest.(check bool) "wire model round-trips" true
        (match back.Request.fault_spec with
        | Some fs -> fs.Request.faults = faults
        | None -> false))
    [
      Faults.make ~seed:3L ();
      Faults.make ~failure_permille:10 ~seed:3L ();
      Faults.make ~jitter:uniform ~failure_permille:100 ~seed:11L ();
      Faults.make ~jitter:uniform ~failure_permille:20 ~max_retries:3
        ~seed:104_729L ();
    ]

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
  check_invalid "faults rider on a pareto surface" (fun () ->
      Request.of_json
        (patch_onto
           (sample 5
              ~fault_spec:
                {
                  Request.faults = Faults.make ~failure_permille:10 ~seed:3L ();
                  trials = 4;
                })
           [ ("mode", Json.str "pareto"); ("grid", grid [ [ 128; 512 ] ]) ]))

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
  check_invalid "grid on a simulate request" (fun () ->
      Request.of_json
        (patch
           [ ("mode", Json.str "simulate");
             ("grid", Json.arr [ Json.arr [ Json.int 128 ] ]) ]))

(* Every value range lives in [Request.make]: one row per rule, and
   the wire form of the same value, patched into a valid document,
   must fail with the same text at the leaf's own path. *)
let test_request_ranges_agree () =
  let case = Gen.case ~profile:Gen.Mixed ~seed:37L () in
  let two_level = Request.Two_level { onchip_bytes = 1024; dma = true } in
  let make ?(arch = two_level) ?kind ?search ?deadline_ms ?fault_spec () =
    Request.make ?kind ?search ?deadline_ms ?fault_spec ~id:"range" ~arch
      case.Gen.program
  in
  let base =
    match Request.to_json (make ()) with
    | Json.Obj fields -> fields
    | _ -> assert false
  in
  let patched overrides =
    Json.obj
      (List.filter (fun (k, _) -> not (List.mem_assoc k overrides)) base
      @ overrides)
  in
  (* Each in-memory builder takes a final [()] so a row holds it
     unapplied. *)
  let on_arch arch () = make ~arch () in
  let pareto axes () = make ~kind:(Request.Pareto { axes }) () in
  let simulate channels queue_depth () =
    make ~kind:(Request.Simulate { channels; queue_depth }) ()
  in
  let rider ?(trials = 4) faults () =
    make ~fault_spec:{ Request.faults; trials } ()
  in
  let ints l = Json.arr (List.map Json.int l) in
  let arch fields = [ ("arch", Json.obj fields) ] in
  let grid axes =
    [ ("mode", Json.str "pareto"); ("grid", Json.arr (List.map ints axes)) ]
  in
  let sim field k = [ ("mode", Json.str "simulate"); (field, Json.int k) ] in
  let faults field k = [ ("faults", Json.obj [ (field, Json.int k) ]) ] in
  let seeded = Faults.make ~seed:42L () in
  let rows =
    [ ( "$.arch.onchip_bytes: sizes must be > 0 (got 0)",
        on_arch (Request.Two_level { onchip_bytes = 0; dma = true }),
        arch [ ("onchip_bytes", Json.int 0) ] );
      ( "$.arch.l1_bytes: sizes must be > 0 (got -1)",
        on_arch
          (Request.Three_level { l1_bytes = -1; l2_bytes = 4096; dma = true }),
        arch [ ("l1_bytes", Json.int (-1)); ("l2_bytes", Json.int 4096) ] );
      ( "$.arch.l2_bytes: sizes must be > 0 (got 0)",
        on_arch
          (Request.Three_level { l1_bytes = 512; l2_bytes = 0; dma = true }),
        arch [ ("l1_bytes", Json.int 512); ("l2_bytes", Json.int 0) ] );
      ( "$.arch.level_bytes[1]: sizes must be > 0 (got 0)",
        on_arch (Request.Multi_level { level_bytes = [ 1024; 0 ]; dma = true }),
        arch [ ("level_bytes", ints [ 1024; 0 ]) ] );
      ( "$.arch.level_bytes: must name at least one level",
        on_arch (Request.Multi_level { level_bytes = []; dma = true }),
        arch [ ("level_bytes", ints []) ] );
      ( "$.grid: the grid must name at least one axis",
        pareto [],
        grid [] );
      ( "$.grid[0]: an axis must name at least one size",
        pareto [ [] ],
        grid [ [] ] );
      ( "$.grid[0][1]: sizes must be > 0 (got 0)",
        pareto [ [ 64; 0 ] ],
        grid [ [ 64; 0 ] ] );
      ( "$.channels: must be >= 1 (got 0)",
        simulate (Some 0) None,
        sim "channels" 0 );
      ( "$.queue_depth: must be >= 1 (got -1)",
        simulate None (Some (-1)),
        sim "queue_depth" (-1) );
      ( "$.search.iterations: must be >= 1 (got 0)",
        (fun () ->
          make ~search:(Explore.Annealing { seed = 42L; iterations = 0 }) ()),
        [ ( "search",
            Json.obj [ ("kind", Json.str "anneal"); ("iterations", Json.int 0) ]
          ) ] );
      ( "$.deadline_ms: must be >= 0 (got -1)",
        (fun () -> make ~deadline_ms:(-1) ()),
        [ ("deadline_ms", Json.int (-1)) ] );
      ( "$.faults.trials: must be >= 1 (got 0)",
        rider ~trials:0 seeded,
        faults "trials" 0 );
      ( "$.faults.jitter: must be >= 0 (got -1)",
        rider
          { seeded with Faults.jitter = Faults.Uniform { max_extra_cycles = -1 } },
        faults "jitter" (-1) );
      ( "$.faults.failure_permille: must be in 0..1000 (got 1001)",
        rider { seeded with Faults.failure_permille = 1001 },
        faults "failure_permille" 1001 );
      ( "$.faults.failure_permille: must be in 0..1000 (got -1)",
        rider { seeded with Faults.failure_permille = -1 },
        faults "failure_permille" (-1) ) ]
  in
  let message name f =
    match f () with
    | (_ : Request.t) -> Alcotest.failf "%s: expected Invalid_input" name
    | exception Error.Error e ->
      Alcotest.(check bool)
        (name ^ ": kind is Invalid_input")
        true
        (e.Error.kind = Error.Invalid_input);
      Error.to_string e
  in
  List.iter
    (fun (expected, in_memory, wire) ->
      let expected = "Json_codec: " ^ expected in
      Alcotest.(check string)
        ("make: " ^ expected) expected
        (message "make" in_memory);
      Alcotest.(check string)
        ("of_json: " ^ expected) expected
        (message "of_json" (fun () -> Request.of_json (patched wire))))
    rows

(* A JSON integer holds OCaml's 63-bit [int]: a wider seed must refuse
   to render rather than come back as a different seed. *)
let test_request_seed_wire () =
  let wide = 0x4000_0000_0000_0000L in
  let anneal seed = sample 3 ~search:(Explore.Annealing { seed; iterations = 50 }) in
  let rider seed =
    sample 5 ~fault_spec:{ Request.faults = Faults.make ~seed (); trials = 2 }
  in
  check_invalid "to_json of a 64-bit anneal seed" (fun () ->
      Request.to_json (anneal wide));
  check_invalid "to_json of a 64-bit fault seed" (fun () ->
      Request.to_json (rider wide));
  List.iter
    (fun seed ->
      let req = anneal seed in
      Alcotest.(check bool)
        (Fmt.str "anneal seed %Ld round-trips" seed)
        true
        ((Request.of_json (Request.to_json req)).Request.search
        = req.Request.search);
      let req = rider seed in
      Alcotest.(check bool)
        (Fmt.str "fault seed %Ld round-trips" seed)
        true
        ((Request.of_json (Request.to_json req)).Request.fault_spec
        = req.Request.fault_spec))
    [ Int64.of_int max_int; Int64.of_int min_int; -1L ]

(* For every request [make] accepts, decoding its rendering gives back
   each field, seeds included, not only the same rendering. *)
let roundtrip_programs =
  List.map
    (fun seed -> (Gen.case ~profile:Gen.Mixed ~seed ()).Gen.program)
    [ 41L; 43L; 47L ]

let request_gen =
  QCheck2.Gen.(
    let size = int_range 1 (1 lsl 20) in
    let seed =
      oneof
        [ map Int64.of_int int;
          oneofl [ 0L; Int64.of_int max_int; Int64.of_int min_int ] ]
    in
    let* dma = bool in
    let* arch =
      oneof
        [ map (fun onchip_bytes -> Request.Two_level { onchip_bytes; dma }) size;
          map2
            (fun l1_bytes l2_bytes ->
              Request.Three_level { l1_bytes; l2_bytes; dma })
            size size;
          map
            (fun level_bytes -> Request.Multi_level { level_bytes; dma })
            (list_size (int_range 1 3) size) ]
    in
    let levels =
      match arch with
      | Request.Two_level _ -> 1
      | Request.Three_level _ -> 2
      | Request.Multi_level { level_bytes; _ } -> List.length level_bytes
    in
    let* kind =
      oneof
        [ pure Request.Solve;
          map
            (fun axes -> Request.Pareto { axes })
            (list_repeat levels (list_size (int_range 1 4) size));
          map
            (fun policies -> Request.Portfolio { policies })
            (list_size (int_range 1 3)
               (oneofl Mhla_policy.Registry.names));
          map2
            (fun channels queue_depth ->
              Request.Simulate { channels; queue_depth })
            (opt (int_range 1 8)) (opt (int_range 1 16)) ]
    in
    let search =
      opt
        (oneof
           [ pure Explore.Greedy; pure Explore.First_improvement;
             map2
               (fun seed iterations -> Explore.Annealing { seed; iterations })
               seed (int_range 1 10_000) ])
    in
    let* search, policy =
      match kind with
      | Request.Portfolio _ -> pure (None, None)
      | Request.Pareto _ -> map (fun s -> (s, None)) search
      | Request.Solve | Request.Simulate _ ->
        oneof
          [ map (fun s -> (s, None)) search;
            map
              (fun p -> (None, Some p))
              (oneofl Mhla_policy.Registry.builtins) ]
    in
    let* transfer_mode =
      match kind with
      | Request.Solve ->
        oneofl [ Mhla_reuse.Candidate.Delta; Mhla_reuse.Candidate.Full ]
      | _ -> pure Mhla_reuse.Candidate.Delta
    in
    let* fault_spec =
      match kind with
      | Request.Solve ->
        opt
          (let* seed = seed in
           let* jitter = int_range 0 64 in
           let* failure_permille = int_range 0 1000 in
           let+ trials = int_range 1 16 in
           {
             Request.faults =
               Faults.make
                 ~jitter:
                   (if jitter = 0 then Faults.No_jitter
                    else Faults.Uniform { max_extra_cycles = jitter })
                 ~failure_permille ~seed ();
             trials;
           })
      | _ -> pure None
    in
    let* objective =
      oneofl
        [ Mhla_core.Cost.Energy; Mhla_core.Cost.Cycles;
          Mhla_core.Cost.Energy_delay ]
    in
    let* deadline_ms = opt (int_range 0 100_000) in
    let* inject = oneofl [ Request.No_inject; Request.Raise ] in
    let* id = string_size ~gen:printable (int_range 0 8) in
    let+ program = oneofl roundtrip_programs in
    Request.make ~kind ~objective ~transfer_mode ?search ?policy ?deadline_ms
      ?fault_spec ~inject ~id ~arch program)

let prop_request_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"of_json (to_json r) = r, field by field"
    ~print:line request_gen (fun r ->
      let b = Request.of_json (Json.parse_exn (line r)) in
      let policy_name = Option.map (fun p -> p.Mhla_policy.Policy.name) in
      let differing =
        List.filter_map
          (fun (name, same) -> if same then None else Some name)
          [ ("id", r.Request.id = b.Request.id);
            ( "program",
              Json.equal
                (Mhla_ir.Json_codec.program_to_json r.Request.program)
                (Mhla_ir.Json_codec.program_to_json b.Request.program) );
            ("arch", r.Request.arch = b.Request.arch);
            ("kind", r.Request.kind = b.Request.kind);
            ("objective", r.Request.objective = b.Request.objective);
            ("transfer_mode", r.Request.transfer_mode = b.Request.transfer_mode);
            ("search", r.Request.search = b.Request.search);
            ( "policy",
              policy_name r.Request.policy = policy_name b.Request.policy );
            ("deadline_ms", r.Request.deadline_ms = b.Request.deadline_ms);
            ("fault_spec", r.Request.fault_spec = b.Request.fault_spec);
            ("inject", r.Request.inject = b.Request.inject) ]
      in
      differing = []
      || QCheck2.Test.fail_reportf "fields differ after the round trip: %s"
           (String.concat ", " differing))

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

(* One generated program as each kind of job the service runs. *)
let every_kind i =
  let case = Gen.case ~profile:Gen.Mixed ~seed:(Int64.of_int (100 + i)) () in
  let budget = case.Gen.onchip_bytes in
  let make ?kind ?fault_spec label =
    Request.make ?kind ?fault_spec
      ~id:(Fmt.str "req-%d-%s" i label)
      ~arch:(Request.Two_level { onchip_bytes = budget; dma = true })
      case.Gen.program
  in
  [
    make "solve";
    make "robust"
      ~fault_spec:
        {
          Request.faults =
            Faults.make
              ~jitter:(Faults.Uniform { max_extra_cycles = 8 })
              ~failure_permille:100 ~seed:(Int64.of_int i) ();
          trials = 3;
        };
    make "simulate"
      ~kind:(Request.Simulate { channels = None; queue_depth = None });
    make "portfolio"
      ~kind:
        (Request.Portfolio
           { policies = Mhla_policy.Registry.default_portfolio_names });
    make "pareto"
      ~kind:
        (Request.Pareto
           { axes = [ List.sort_uniq compare [ max 1 (budget / 2); budget ] ]
           });
  ]

(* An ok answer must equal [run_job] plus [render] on the same request
   outside the pool. *)
let check_direct ?live (req : Request.t) (resp : Response.t) =
  Alcotest.(check string) (req.id ^ " status") "ok"
    (Response.status_name resp.status);
  let result, robustness =
    Service.render req (Service.run_job ~jobs:1 ?live req)
  in
  Alcotest.(check bool)
    (req.id ^ " result bit-identical to run_job")
    true
    (Option.equal Json.equal resp.result (Some result));
  Alcotest.(check bool)
    (req.id ^ " robustness bit-identical to run_job")
    true
    (Option.equal Json.equal resp.robustness robustness)

(* Pool every request, then check each answer against a direct run. *)
let check_pooled_equals_direct ?live config reqs =
  let service = Service.create ~config () in
  List.iter (fun r -> ignore (Service.submit service (line r))) reqs;
  let responses = Service.drain service in
  Service.shutdown service;
  Alcotest.(check int) "one response per request" (List.length reqs)
    (List.length responses);
  List.iteri
    (fun i ((req : Request.t), (resp : Response.t)) ->
      Alcotest.(check int) (Fmt.str "response %d in order" i) i resp.seq;
      Alcotest.(check string) (Fmt.str "response %d id" i) req.id resp.id;
      check_direct ?live req resp)
    (List.combine reqs responses);
  Alcotest.(check int) "nothing left to hand out" 0
    (List.length (Service.ready service))

let test_service_ok_bit_identical () =
  check_pooled_equals_direct
    { Service.default_config with jobs = 2 }
    (List.concat_map every_kind [ 0; 1; 2 ])

(* Live verification rides along a solve and every portfolio entrant;
   it never changes a result. *)
let test_service_verify_live () =
  let reqs =
    List.filter
      (fun (r : Request.t) ->
        match r.kind with
        | Request.Solve | Request.Portfolio _ -> r.fault_spec = None
        | Request.Pareto _ | Request.Simulate _ -> false)
      (every_kind 3)
  in
  check_pooled_equals_direct ~live:Mhla_analysis.Suppress.empty
    { Service.default_config with verify_live = true }
    reqs;
  List.iter
    (fun (req : Request.t) ->
      Alcotest.(check bool)
        (req.id ^ ": live verification leaves the result alone")
        true
        (Json.equal
           (fst (Service.render req (Service.run_job ~jobs:1 req)))
           (fst
              (Service.render req
                 (Service.run_job ~jobs:1 ~live:Mhla_analysis.Suppress.empty
                    req)))))
    reqs

(* A raced request under live verification answers the winner's report
   in the response's [verify] field, as a solve does; without it, no
   field. *)
let test_service_portfolio_verify_live () =
  let req =
    List.find
      (fun (r : Request.t) ->
        match r.kind with Request.Portfolio _ -> true | _ -> false)
      (every_kind 4)
  in
  let live = Mhla_analysis.Suppress.empty in
  let outcome = Service.run_job ~jobs:1 ~live req in
  let winner =
    match outcome with
    | Service.Raced o -> o.Mhla_policy.Portfolio.winner
    | _ -> Alcotest.fail "a portfolio request did not race"
  in
  let report =
    match Service.live_report outcome with
    | Some r -> r
    | None -> Alcotest.fail "a live race carries no report"
  in
  Alcotest.(check bool) "the winner's own report" true
    (winner.Mhla_policy.Portfolio.verify = Some report);
  Alcotest.(check bool) "the winner's report passes" true
    (Mhla_analysis.Verify.ok report);
  let answer config =
    let service = Service.create ~config () in
    ignore (Service.submit service (line req));
    let responses = Service.drain service in
    Service.shutdown service;
    match responses with
    | [ resp ] ->
      Alcotest.(check string) "status" "ok"
        (Response.status_name resp.Response.status);
      resp.Response.verify
    | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
  in
  (match answer { Service.default_config with verify_live = true } with
  | Some v ->
    Alcotest.(check bool) "verify field = the winner's report" true
      (Json.equal v (Mhla_analysis.Verify.report_to_json report))
  | None -> Alcotest.fail "a live portfolio response has no verify field");
  Alcotest.(check bool) "no verify field without live verification" true
    (answer Service.default_config = None)

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

(* Keep the client busy (not parked) for [ns], so the worker outwaits
   its spin budget and parks. *)
let busy_wait ns =
  let stop = Deadline.now_ns () + ns in
  while Deadline.now_ns () < stop do
    Domain.cpu_relax ()
  done

(* Admission is exact: a [Shed] service holds [queue_depth] queued jobs
   besides the one its worker runs, and sheds the next. One slow job
   (an event simulation of motion_estimation, about a quarter of a
   second) keeps the single worker busy while k + 1 quick requests
   arrive: the first k submissions always fit, and at most k + 1 of
   the k + 2 do, whether or not the worker has taken the slow job
   yet. The pause lets it take the job, so that an off-by-one queue
   bound would also queue the last request. *)
let test_service_admits_queue_depth () =
  let k = 3 in
  let service =
    Service.create
      ~config:
        {
          Service.default_config with
          jobs = 1;
          queue_depth = k;
          admission = Service.Shed;
        }
      ()
  in
  let app = Mhla_apps.Registry.find_exn "motion_estimation" in
  let slow =
    Request.make
      ~kind:(Request.Simulate { channels = None; queue_depth = None })
      ~id:"slow-simulate"
      ~arch:(Request.Two_level { onchip_bytes = app.onchip_bytes; dma = true })
      (Lazy.force app.program)
  in
  let first = Service.submit service (line slow) in
  busy_wait 20_000_000;
  let rest =
    List.init (k + 1) (fun i -> Service.submit service (line (sample i)))
  in
  let outcomes = first :: rest in
  let responses = Service.drain service in
  Service.shutdown service;
  Alcotest.(check int) "one response each" (k + 2) (List.length responses);
  List.iteri
    (fun i o ->
      if i < k then
        Alcotest.(check bool) (Fmt.str "submission %d queued" i) true
          (o = `Queued))
    outcomes;
  let queued = List.length (List.filter (fun o -> o = `Queued) outcomes) in
  Alcotest.(check bool) "at most queue_depth + 1 admitted" true
    (queued <= k + 1)

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

(* --- the submit/drain handoff -------------------------------------------- *)

(* Submit one line and drain its one response. *)
let round_trip service l =
  ignore (Service.submit service l : [ `Queued | `Shed ]);
  match Service.drain service with
  | [ resp ] -> resp
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

(* One request in flight at a time: every wait is a short handoff, so
   on more than one CPU both sides answer from the spin. *)
let test_handoff_round_trips () =
  let solves = Array.init 4 (fun i -> sample i) in
  let lines = Array.map line solves in
  let service = Service.create () in
  for i = 0 to 1_999 do
    let resp =
      round_trip service (if i mod 2 = 0 then "x" else lines.(i / 2 mod 4))
    in
    Alcotest.(check int) (Fmt.str "round trip %d seq" i) i resp.Response.seq;
    if i mod 2 = 0 then begin
      Alcotest.(check string) (Fmt.str "round trip %d id" i) "" resp.id;
      Alcotest.(check (option string))
        (Fmt.str "round trip %d code" i)
        (Some "json-parse") resp.code
    end
    else begin
      let req = solves.(i / 2 mod 4) in
      Alcotest.(check string) (Fmt.str "round trip %d id" i) req.id resp.id;
      Alcotest.(check string)
        (Fmt.str "round trip %d status" i)
        "ok"
        (Response.status_name resp.status)
    end
  done;
  Service.shutdown service

(* A portfolio over a full application outlasts the spin budget, so the
   client parks on it; the idle gaps after it park the worker. *)
let test_handoff_park_path () =
  let app = Mhla_apps.Registry.find_exn "motion_estimation" in
  let slow =
    Request.make
      ~kind:
        (Request.Portfolio
           { policies = Mhla_policy.Registry.default_portfolio_names })
      ~id:"slow-portfolio"
      ~arch:(Request.Two_level { onchip_bytes = app.onchip_bytes; dma = true })
      (Lazy.force app.program)
  in
  let service = Service.create () in
  let t0 = Deadline.now_ns () in
  let resp = round_trip service (line slow) in
  Alcotest.(check bool) "the slow request outlasts the spin budget" true
    (Deadline.now_ns () - t0 > Service.spin_budget_ns);
  check_direct slow resp;
  List.iter
    (fun i ->
      busy_wait (2 * Service.spin_budget_ns);
      let req = sample i in
      let resp = round_trip service (line req) in
      Alcotest.(check int) (req.id ^ " seq") (i + 1) resp.seq;
      check_direct req resp)
    [ 0; 1; 2 ];
  Service.shutdown service

let test_handoff_shutdown () =
  Service.shutdown (Service.create ());
  Service.shutdown
    (Service.create ~config:{ Service.default_config with jobs = 4 } ());
  List.iter
    (fun jobs ->
      let service =
        Service.create ~config:{ Service.default_config with jobs } ()
      in
      ignore (round_trip service "x" : Response.t);
      busy_wait (2 * Service.spin_budget_ns);
      Service.shutdown service;
      check_invalid
        (Fmt.str "submit after an idle shutdown (jobs %d)" jobs)
        (fun () -> Service.submit service "x"))
    [ 1; 4 ]

(* [Service.create] is the one validator of a service's config: each
   bad field is rejected by name, before any worker spawns. *)
let test_create_rejects_bad_config () =
  List.iter
    (fun (field, config) ->
      match Service.create ~config () with
      | service ->
        Service.shutdown service;
        Alcotest.failf "%s: expected Invalid_input" field
      | exception Error.Error e ->
        Alcotest.(check bool) (field ^ ": Invalid_input") true
          (e.Error.kind = Error.Invalid_input);
        Alcotest.(check bool) (field ^ ": the message names it") true
          (String.starts_with ~prefix:field e.Error.message))
    [ ("jobs", { Service.default_config with jobs = 0 });
      ("queue_depth", { Service.default_config with queue_depth = 0 });
      ( "default_deadline_ms",
        { Service.default_config with default_deadline_ms = Some (-1) } ) ];
  Service.shutdown
    (Service.create
       ~config:{ Service.default_config with default_deadline_ms = Some 0 }
       ())

(* The wire bytes of a response less its timing: [elapsed_ns], and a
   timeout's message, which only says how far past due it ran. *)
let timing_free (resp : Response.t) =
  let message =
    if resp.status = Response.Timeout then None else resp.message
  in
  Json.to_string (Response.to_json { resp with elapsed_ns = 0; message })

let test_handoff_jobs_agree () =
  let lines = Soak.lines { Soak.default_config with requests = 300; seed = 7 } in
  let answer jobs =
    let service =
      Service.create ~config:{ Service.default_config with jobs } ()
    in
    List.iter (fun l -> ignore (Service.submit service l)) lines;
    let responses = Service.drain service in
    Service.shutdown service;
    List.map timing_free responses
  in
  let one = answer 1 in
  Alcotest.(check int) "one response per line" (List.length lines)
    (List.length one);
  Alcotest.(check (list string)) "jobs = 4 answers the bytes of jobs = 1" one
    (answer 4)

(* --- chaos soak -------------------------------------------------------- *)

(* --- the pre-solve gate ---------------------------------------------- *)

module Verify = Mhla_analysis.Verify
module Pass = Mhla_analysis.Pass
module Diagnostic = Mhla_analysis.Diagnostic

(* Every third program gets a subscript past its array's extent, so
   the gate has errors to agree on. *)
let out_of_extent (p : Mhla_ir.Program.t) =
  let module P = Mhla_ir.Program in
  let shifted = ref false in
  let shift (a : Mhla_ir.Access.t) =
    match a.Mhla_ir.Access.index with
    | e :: rest when not !shifted ->
      shifted := true;
      Mhla_ir.Access.make ~array:a.Mhla_ir.Access.array
        ~direction:a.Mhla_ir.Access.direction
        ~index:(Mhla_ir.Affine.add e (Mhla_ir.Affine.const 1000) :: rest)
    | _ -> a
  in
  let rec node = function
    | P.Stmt s ->
      P.Stmt
        (Mhla_ir.Stmt.make ~name:s.Mhla_ir.Stmt.name
           ~work_cycles:s.Mhla_ir.Stmt.work_cycles
           ~accesses:(List.map shift s.Mhla_ir.Stmt.accesses))
    | P.Loop l -> P.Loop { l with P.body = List.map node l.P.body }
  in
  P.make_exn ~name:p.P.name ~arrays:p.P.arrays ~body:(List.map node p.P.body)

(* The gate checks the bare program, with no mapping and no schedule.
   A pass outside [Service.gate_passes] either has no Error code, or
   needs a solver output and emits nothing on a bare program: a future
   Error that fires on a bare program fails here instead of slipping
   past the gate. *)
let test_gate_skips_only_non_errors () =
  let names = List.map (fun (p : Pass.t) -> p.Pass.name) in
  let skipped =
    List.filter
      (fun (p : Pass.t) -> not (List.mem p.Pass.name Service.gate_passes))
      Verify.passes
  in
  Alcotest.(check (list string)) "skipped passes"
    [ "dma-race"; "capacity"; "interference"; "determinism"; "lints" ]
    (names skipped);
  let can_error (p : Pass.t) =
    List.exists
      (fun code ->
        match Diagnostic.catalogue_entry code with
        | Some (_, severity, _) -> severity = Diagnostic.Error
        | None -> Alcotest.failf "%s is not catalogued" code)
      p.Pass.codes
  in
  let need_output = List.filter can_error skipped in
  Alcotest.(check (list string)) "skipped passes that can emit an Error"
    [ "dma-race"; "capacity"; "interference" ] (names need_output);
  let silent name program =
    List.iter
      (fun (p : Pass.t) ->
        Alcotest.(check int)
          (Fmt.str "%s on bare %s" p.Pass.name name)
          0
          (List.length (p.Pass.run (Pass.subject program))))
      need_output
  in
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      silent app.Mhla_apps.Defs.name (Lazy.force app.Mhla_apps.Defs.program))
    Mhla_apps.Registry.all;
  for i = 0 to 99 do
    let program =
      (Gen.case ~profile:Gen.Mixed ~seed:(Int64.of_int (500 + i)) ())
        .Gen.program
    in
    silent (Fmt.str "mixed %d" i) program;
    silent (Fmt.str "shifted mixed %d" i) (out_of_extent program)
  done

let test_gate_errors_match_full_run () =
  let errors ?only program =
    List.map (Fmt.to_to_string Diagnostic.pp)
      (Verify.errors (Verify.run ?only (Pass.subject program)))
  in
  let rejected = ref 0 in
  let agree name program =
    let full = errors program in
    if full <> [] then incr rejected;
    Alcotest.(check (list string)) name full
      (errors ~only:Service.gate_passes program)
  in
  for i = 0 to 999 do
    let case = Gen.case ~profile:Gen.Mixed ~seed:(Int64.of_int (500 + i)) () in
    let program = case.Gen.program in
    agree (Fmt.str "mixed %d" i)
      (if i mod 3 = 0 then out_of_extent program else program)
  done;
  Alcotest.(check bool) "shifted subscripts are rejected" true
    (!rejected >= 334);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error _ -> ()
      | Ok doc -> (
        match Request.of_json doc with
        | exception Error.Error _ -> ()
        | req -> agree req.Request.id req.Request.program))
    (Soak.lines { Soak.default_config with Soak.requests = 300; seed = 7 })

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
          Alcotest.test_case "TE-order policy names unknown" `Quick
            test_request_te_order_policies_unknown;
          Alcotest.test_case "decode error paths" `Quick
            test_request_decode_paths;
          Alcotest.test_case "in-memory only" `Quick
            test_request_in_memory_only;
          Alcotest.test_case "fault rider wire form" `Quick
            test_request_fault_rider_wire;
          Alcotest.test_case "pareto decode errors" `Quick
            test_request_pareto_decode_errors;
          Alcotest.test_case "simulate round trip" `Quick
            test_request_simulate_roundtrip;
          Alcotest.test_case "simulate decode errors" `Quick
            test_request_simulate_decode_errors;
          Alcotest.test_case "make and of_json share every range" `Quick
            test_request_ranges_agree;
          Alcotest.test_case "seed wire form" `Quick test_request_seed_wire;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          Alcotest.test_case "id salvage" `Quick test_id_salvage;
        ] );
      ( "executor",
        [
          Alcotest.test_case "ok responses bit-identical" `Quick
            test_service_ok_bit_identical;
          Alcotest.test_case "verify-live on every face" `Quick
            test_service_verify_live;
          Alcotest.test_case "portfolio verify-live report" `Quick
            test_service_portfolio_verify_live;
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
          Alcotest.test_case "admission holds queue_depth" `Quick
            test_service_admits_queue_depth;
        ] );
      ( "gate",
        [
          Alcotest.test_case "skips only non-error passes" `Quick
            test_gate_skips_only_non_errors;
          Alcotest.test_case "errors match the full run" `Quick
            test_gate_errors_match_full_run;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "2,000 round trips in order" `Quick
            test_handoff_round_trips;
          Alcotest.test_case "slow request parks, answers stay direct" `Quick
            test_handoff_park_path;
          Alcotest.test_case "shutdown fresh and idle" `Quick
            test_handoff_shutdown;
          Alcotest.test_case "jobs = 4 answers the soak like jobs = 1" `Quick
            test_handoff_jobs_agree;
          Alcotest.test_case "create rejects a bad config" `Quick
            test_create_rejects_bad_config;
        ] );
      ("soak", [ Alcotest.test_case "chaos soak" `Slow test_soak ]);
    ]
