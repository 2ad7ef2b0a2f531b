(* Tests for the telemetry layer (Mhla_obs): span well-formedness
   under random nesting, noop neutrality on the full flow, and the
   deterministic worker-sink merge behind parallel sweeps. *)

module Telemetry = Mhla_obs.Telemetry
module Trace_export = Mhla_obs.Trace_export
module Explore = Mhla_core.Explore
module Report = Mhla_core.Report
module Apps = Mhla_apps.Registry
module Json = Mhla_util.Json

(* A deterministic clock so traces are reproducible in tests. *)
let ticking_clock () =
  let t = ref 0 in
  fun () ->
    incr t;
    !t * 100

let collector () = Telemetry.collector ~clock:(ticking_clock ()) ()

(* --- well-formedness --------------------------------------------------- *)

(* Replay an event stream against a stack: every Span_end must close
   the innermost open Span_begin, and nothing may remain open. *)
let well_formed events =
  let ok, stack =
    List.fold_left
      (fun (ok, stack) (e : Telemetry.event) ->
        match e.Telemetry.kind with
        | Telemetry.Span_begin -> (ok, e.Telemetry.name :: stack)
        | Telemetry.Span_end -> begin
          match stack with
          | top :: rest -> (ok && top = e.Telemetry.name, rest)
          | [] -> (false, [])
        end
        | _ -> (ok, stack))
      (true, []) events
  in
  ok && stack = []

let seqs_dense events =
  List.for_all2
    (fun (e : Telemetry.event) i -> e.Telemetry.seq = i)
    events
    (List.init (List.length events) Fun.id)

let ts_monotone events =
  let rec check last = function
    | [] -> true
    | (e : Telemetry.event) :: rest ->
      e.Telemetry.ts_ns >= last && check e.Telemetry.ts_ns rest
  in
  check min_int events

(* Random telemetry programs: a tree of spans with instants, counters
   and mid-span exceptions sprinkled in. Exercises [span]'s unwinding
   path (abandoned inner spans must still close). *)
type action =
  | Spanned of string * action list
  | Leaf of string
  | Count of string * int
  | Raise

let gen_actions =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ map (fun i -> Leaf (Printf.sprintf "i%d" i)) (int_range 0 4);
              map2
                (fun i d -> Count (Printf.sprintf "c%d" i, d))
                (int_range 0 2) (int_range (-3) 5);
              return Raise ]
        in
        if n <= 0 then map (fun l -> [ l ]) leaf
        else
          list_size (int_range 0 4)
            (oneof
               [ leaf;
                 map2
                   (fun i inner -> Spanned (Printf.sprintf "s%d" i, inner))
                   (int_range 0 4)
                   (self (n / 2)) ])))

exception Fuzz_stop

let rec run_actions t actions =
  List.iter
    (fun a ->
      match a with
      | Leaf name -> Telemetry.instant t ~cat:"fuzz" name
      | Count (name, d) -> Telemetry.count t ~cat:"fuzz" name d
      | Raise -> raise Fuzz_stop
      | Spanned (name, inner) ->
        Telemetry.span t ~cat:"fuzz" name (fun () -> run_actions t inner))
    actions

let prop_span_nesting_well_formed =
  QCheck2.Test.make ~name:"random span trees leave a well-formed stream"
    ~count:300 gen_actions (fun actions ->
      let t = collector () in
      (try run_actions t actions with Fuzz_stop -> ());
      let events = Telemetry.events t in
      well_formed events && seqs_dense events && ts_monotone events
      && Telemetry.open_spans t = [])

let test_mismatched_close_raises () =
  let t = collector () in
  Telemetry.span_begin t "outer";
  let raised =
    try
      Telemetry.span_end t "inner";
      false
    with Mhla_util.Error.Error e ->
      e.Mhla_util.Error.kind = Mhla_util.Error.Internal
  in
  Alcotest.(check bool) "mismatched close is an internal error" true raised;
  let raised_empty =
    let t = collector () in
    try
      Telemetry.span_end t "nothing";
      false
    with Mhla_util.Error.Error _ -> true
  in
  Alcotest.(check bool) "close with nothing open raises" true raised_empty

let test_clock_clamped_monotone () =
  (* A clock that jumps backwards must still yield monotone ts. *)
  let values = ref [ 50; 10; 200; 100; 300 ] in
  let clock () =
    match !values with
    | [] -> 1000
    | v :: rest ->
      values := rest;
      v
  in
  let t = Telemetry.collector ~clock () in
  for i = 0 to 3 do
    Telemetry.instant t (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check bool) "ts never decreases" true
    (ts_monotone (Telemetry.events t))

(* --- noop neutrality --------------------------------------------------- *)

let test_noop_is_disabled () =
  Alcotest.(check bool) "noop disabled" false (Telemetry.enabled Telemetry.noop);
  Alcotest.(check bool) "collector enabled" true
    (Telemetry.enabled (collector ()));
  Alcotest.(check (list string)) "noop has no open spans" []
    (Telemetry.open_spans Telemetry.noop);
  Telemetry.span Telemetry.noop "x" (fun () -> ());
  Telemetry.count Telemetry.noop "c" 1;
  Alcotest.(check int) "noop records nothing" 0
    (List.length (Telemetry.events Telemetry.noop));
  Alcotest.(check bool) "noop child is noop" false
    (Telemetry.enabled (Telemetry.child Telemetry.noop ~tid:3));
  (* args thunks must never be forced on a disabled sink *)
  Telemetry.instant Telemetry.noop
    ~args:(fun () -> Alcotest.fail "args thunk forced on noop")
    "x"

(* Telemetry on vs off must not change any result: the full report of
   every bundled application is byte-identical either way. *)
let test_noop_byte_identity () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let hierarchy =
        Mhla_arch.Presets.two_level
          ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      let name = app.Mhla_apps.Defs.name in
      let plain = Report.detailed ~name (Explore.run program hierarchy) in
      let t = collector () in
      let traced =
        Report.detailed ~name (Explore.run ~telemetry:t program hierarchy)
      in
      Alcotest.(check string)
        (name ^ " report identical with telemetry on")
        plain traced;
      Alcotest.(check bool)
        (name ^ " trace non-empty") true
        (Telemetry.events t <> []))
    Apps.all

(* The annealing trace accounts for every feasible draw: a probed one
   is an [anneal.accept] or [anneal.reject] with its [delta], a
   rejection certified from a cached delta is an [anneal.reject] with
   [certified: true] and a non-negative [delta_low] bound, and the
   certified ones are exactly the draws left unprobed. *)
let test_anneal_trace_accounts_for_draws () =
  let app = Apps.find_exn "cavity_detector" in
  let program = Lazy.force app.Mhla_apps.Defs.program in
  let hierarchy =
    Mhla_arch.Presets.two_level ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes
      ()
  in
  let module Assign = Mhla_core.Assign in
  let t = collector () in
  let traced = Assign.simulated_annealing ~telemetry:t program hierarchy in
  let plain = Assign.simulated_annealing program hierarchy in
  Alcotest.(check bool) "same result with telemetry on" true
    (traced.Assign.steps = plain.Assign.steps
    && traced.Assign.breakdown = plain.Assign.breakdown
    && traced.Assign.probes = plain.Assign.probes);
  let decisions =
    List.filter
      (fun (e : Telemetry.event) ->
        e.Telemetry.name = "anneal.accept"
        || e.Telemetry.name = "anneal.reject")
      (Telemetry.events t)
  in
  let certified, probed =
    List.partition
      (fun (e : Telemetry.event) ->
        List.assoc_opt "certified" e.Telemetry.args
        = Some (Telemetry.Bool true))
      decisions
  in
  Alcotest.(check int) "one decision per feasible draw"
    (traced.Assign.evaluations - 1)
    (List.length decisions);
  Alcotest.(check int) "one probed decision per probe" traced.Assign.probes
    (List.length probed);
  Alcotest.(check bool) "some rejections certified" true (certified <> []);
  List.iter
    (fun (e : Telemetry.event) ->
      Alcotest.(check string) "a certified decision rejects" "anneal.reject"
        e.Telemetry.name;
      match List.assoc_opt "delta_low" e.Telemetry.args with
      | Some (Telemetry.Float d) ->
        Alcotest.(check bool) "delta_low >= 0" true (d >= 0.)
      | _ -> Alcotest.fail "a certified rejection carries no delta_low")
    certified;
  List.iter
    (fun (e : Telemetry.event) ->
      Alcotest.(check bool) "a probed decision carries its delta" true
        (List.mem_assoc "delta" e.Telemetry.args))
    probed

(* --- worker-sink merge ------------------------------------------------- *)

let test_merge_deterministic () =
  let parent = collector () in
  let mk tid =
    let c = Telemetry.child parent ~tid in
    Telemetry.span c (Printf.sprintf "w%d" tid) (fun () ->
        Telemetry.count c "work" tid);
    Telemetry.gauge c "level" (float_of_int tid);
    c
  in
  (* Children created (and filled) out of order: only the merge-list
     order may matter. *)
  let c2 = mk 2 in
  let c1 = mk 1 in
  Telemetry.merge_children parent [ c1; c2 ];
  let events = Telemetry.events parent in
  Alcotest.(check bool) "merged stream well-formed" true (well_formed events);
  Alcotest.(check bool) "merged seqs dense" true (seqs_dense events);
  Alcotest.(check (list string))
    "children appended in list order" [ "w1"; "w1"; "w2"; "w2" ]
    (List.filter_map
       (fun (e : Telemetry.event) ->
         match e.Telemetry.kind with
         | Telemetry.Span_begin | Telemetry.Span_end -> Some e.Telemetry.name
         | _ -> None)
       events);
  Alcotest.(check (list (pair string (float 1e-9))))
    "counters summed, gauges last-write-wins"
    [ ("level", 2.); ("work", 3.) ]
    (Telemetry.counter_values parent)

(* The merged event multiset of a parallel sweep must not depend on the
   worker count: jobs:1 and jobs:3 agree event for event once seq, tid,
   timestamps, the per-worker wrapper spans and a counter event's
   running total (all scheduling artefacts: a counter event carries its
   own worker sink's total, which depends on how points were dealt) are
   erased. The merged counter totals themselves must agree exactly. *)
let test_sweep_jobs_event_multiset () =
  let app = Apps.find_exn "motion_estimation" in
  let program = Lazy.force app.Mhla_apps.Defs.program in
  let sizes = [ 256; 512; 1024; 2048 ] in
  let sweep jobs =
    let t = collector () in
    let points = Explore.sweep ~jobs ~telemetry:t ~sizes program in
    let shape (e : Telemetry.event) =
      ( Telemetry.kind_label e.Telemetry.kind,
        e.Telemetry.cat,
        e.Telemetry.name,
        if e.Telemetry.kind = Telemetry.Counter then [] else e.Telemetry.args )
    in
    let payload =
      List.filter
        (fun (e : Telemetry.event) -> e.Telemetry.name <> "sweep.worker")
        (Telemetry.events t)
    in
    (points, List.sort compare (List.map shape payload),
     Telemetry.counter_values t)
  in
  let points1, events1, counters1 = sweep 1 in
  let points3, events3, counters3 = sweep 3 in
  Alcotest.(check bool) "results identical" true (points1 = points3);
  Alcotest.(check int)
    "same event count"
    (List.length events1) (List.length events3);
  Alcotest.(check bool) "same event multiset" true (events1 = events3);
  Alcotest.(check (list (pair string (float 0.))))
    "same merged counter totals" counters1 counters3

(* --- export ------------------------------------------------------------ *)

let test_trace_export_shape () =
  let t = collector () in
  Telemetry.span t ~cat:"x" "outer"
    ~args:(fun () -> [ ("k", Telemetry.Str "v\"quoted\"") ])
    (fun () ->
      Telemetry.instant t "mark";
      Telemetry.count t "n" 2);
  let json = Trace_export.to_json t in
  let s = Json.to_string ~indent:1 json in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "trace contains %s" needle)
        true (contains needle))
    [ "\"traceEvents\""; "\"ph\": \"B\""; "\"ph\": \"E\""; "\"ph\": \"i\"";
      "\"ph\": \"C\""; "\"displayTimeUnit\""; "\"otherData\"";
      "\\\"quoted\\\"" ];
  (* streaming emission renders the exact same bytes *)
  let file = Filename.temp_file "mhla_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      Json.to_channel ~indent:1 oc json;
      close_out oc;
      let ic = open_in_bin file in
      let streamed = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "to_channel matches to_string" s streamed)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "telemetry",
        [
          qc prop_span_nesting_well_formed;
          Alcotest.test_case "mismatched close raises" `Quick
            test_mismatched_close_raises;
          Alcotest.test_case "clock clamped monotone" `Quick
            test_clock_clamped_monotone;
          Alcotest.test_case "noop disabled and silent" `Quick
            test_noop_is_disabled;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "reports byte-identical with telemetry" `Slow
            test_noop_byte_identity;
          Alcotest.test_case "annealing trace accounts for every draw"
            `Quick test_anneal_trace_accounts_for_draws;
        ] );
      ( "merge",
        [
          Alcotest.test_case "deterministic child merge" `Quick
            test_merge_deterministic;
          Alcotest.test_case "sweep event multiset independent of jobs" `Slow
            test_sweep_jobs_event_multiset;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace shape" `Quick
            test_trace_export_shape;
        ] );
    ]
