(* The repository benchmark.

   Usage (through perfbench/run.py, which builds this program):
     run.py --workload NAME --seed N --seconds S --trace 0|1
     run.py --self-test [--seconds S]
     run.py --write-expected

   A run measures one workload for S seconds and prints, as the last
   line of standard output, one JSON object: whether every output was
   correct, how many operations were attempted and failed, and the
   metrics. With --trace 0 these are the end-to-end metrics of an
   untraced run; with --trace 1 the per-layer metrics of a traced run,
   whose spans are also written under .bench_out/. perfbench/README.md
   describes the workloads and every metric. *)

let workloads = [ "paper-pareto"; "serve-mixed" ]

let fail fmt = Fmt.kstr (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* The (name, unit) list BENCHMARK.json declares under [key]
   ("end_to_end" or "per_layer"), in its order: the one place the
   metric set is written down. *)
let declared_metrics key =
  let module Json = Mhla_util.Json in
  let doc =
    match Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok (Json.Obj fields) -> fields
    | Ok _ | Error _ -> fail "BENCHMARK.json is not a JSON object"
  in
  match List.assoc_opt key doc with
  | Some (Json.Arr metrics) ->
    List.map
      (function
        | Json.Obj m -> (
          match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
          | Some (Json.Str name), Some (Json.Str unit) -> (name, unit)
          | _ -> fail "BENCHMARK.json: a %s entry lacks a name or unit" key)
        | _ -> fail "BENCHMARK.json: %s holds a non-object" key)
      metrics
  | _ -> fail "BENCHMARK.json has no %s list" key

let expected () = Pareto_workload.read_expected Pareto_workload.expected_file

let run ~workload ~seed ~seconds ~trace =
  let trace_file = Printf.sprintf ".bench_out/%s-seed%d.trace.json" workload seed in
  match (workload, trace) with
  | "paper-pareto", false -> Pareto_workload.run_untraced ~expected ~seconds
  | "paper-pareto", true -> Pareto_workload.run_traced ~expected ~seconds ~trace_file
  | "serve-mixed", false -> Serve_workload.run_untraced ~seed ~seconds
  | "serve-mixed", true -> Serve_workload.run_traced ~seed ~seconds ~trace_file
  | _ ->
    fail "unknown workload %S (expected one of: %s)" workload
      (String.concat ", " workloads)

(* Put the report's metrics in the declared order. A per-layer metric
   the workload did not report reads 0: its operations bypass that
   layer, so a change to the layer should change nothing there. *)
let declared (r : Measure.report) ~trace =
  let wanted = declared_metrics (if trace then "per_layer" else "end_to_end") in
  List.iter
    (fun (name, _, unit) ->
      match List.assoc_opt name wanted with
      | Some u when u = unit -> ()
      | Some u -> fail "metric %s is in %s, declared in %s" name unit u
      | None -> fail "undeclared metric %S" name)
    r.metrics;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
      | Some (_, v, _) ->
        if not (Float.is_finite v) then fail "metric %s is not finite" name;
        (name, v, unit)
      | None when trace -> (name, 0., unit)
      | None -> fail "metric %S missing" name)
    wanted

let print_report (r : Measure.report) ~trace =
  let metrics = declared r ~trace in
  List.iter print_endline r.notes;
  List.iter (fun (name, v, u) -> Printf.printf "%s = %.6g %s\n" name v u) metrics;
  Printf.printf "fail_share = %.6g (%d failed of %d attempted)\n"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  let json_metrics =
    String.concat ", "
      (List.map
         (fun (name, v, u) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed json_metrics

(* Replace the first "cycles" value of an expected frontier by a wrong
   one. *)
let corrupt doc =
  let module Json = Mhla_util.Json in
  let done_ = ref false in
  let rec go key (j : Json.t) =
    match j with
    | Json.Int n when key = "cycles" && not !done_ ->
      done_ := true;
      Json.int (n + 1)
    | Json.Obj fields -> Json.obj (List.map (fun (k, v) -> (k, go k v)) fields)
    | Json.Arr items -> Json.arr (List.map (go key) items)
    | j -> j
  in
  List.map (fun (app, frontier) -> (app, go app frontier)) doc

(* The output checks must catch a wrong answer: with one expected
   value corrupted, paper-pareto must report failed operations. *)
let self_test ~seconds =
  let r =
    Pareto_workload.run_untraced ~expected:(fun () -> corrupt (expected ())) ~seconds
  in
  Printf.printf "self-test: %d of %d operation(s) failed against a corrupted expected frontier\n"
    r.failed r.attempted;
  if r.failed = 0 then fail "self-test: the corrupted expected value went unnoticed";
  print_endline "self-test: ok"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let mode = ref `Run in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of: " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test),
       " check that a corrupted expected value is reported");
      ("--write-expected", Arg.Unit (fun () -> mode := `Write_expected),
       " regenerate " ^ Pareto_workload.expected_file) ]
    (fun a -> fail "unexpected argument %S" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists "perfbench") then
    fail "perfbench/ not found: run from the repository root";
  match !mode with
  | `Write_expected -> Pareto_workload.write_expected ()
  | `Self_test -> self_test ~seconds:!seconds
  | `Run ->
    if !seconds <= 0. then fail "--seconds must be positive";
    if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
    let trace = !trace = 1 in
    print_report (run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace) ~trace
