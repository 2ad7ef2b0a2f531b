(* The per-layer fold of a traced run: telemetry spans reduced to
   name -> count, total time and self time, plus counter totals. Self time is a span's duration minus the part its
   direct child spans cover; nesting is tracked per telemetry track
   ([tid]), since worker sinks are merged after the owner's events.

   The span events of the first sinks folded, about [max_kept] of
   them, are also kept in memory and written out once when the run
   ends: a few passes of a workload record millions of spans, and the
   first ones show the structure as well as all of them would. *)

module Telemetry = Mhla_obs.Telemetry

type stat = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

type t = {
  spans : (string, stat) Hashtbl.t;
  counters : (string, float) Hashtbl.t;
  mutable kept : Telemetry.event list;  (* span events, newest first *)
  mutable n_kept : int;
}

let max_kept = 200_000

let create () =
  {
    spans = Hashtbl.create 64;
    counters = Hashtbl.create 16;
    kept = [];
    n_kept = 0;
  }

(* A sink for one traced call, on the benchmark's clock. *)
let collector () = Telemetry.collector ~clock:Measure.now_ns ()

let stat t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
    let s = { count = 0; total_ns = 0; self_ns = 0 } in
    Hashtbl.add t.spans name s;
    s

(* Fold everything [sink] recorded into [t]. Call once per sink, after
   its workers have been merged back. *)
let add t sink =
  let keep = t.n_kept < max_kept in
  let stacks = Hashtbl.create 4 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  List.iter
    (fun (e : Telemetry.event) ->
      match e.kind with
      | Telemetry.Span_begin ->
        let s = stack e.tid in
        s := (e.name, e.ts_ns, ref 0) :: !s;
        if keep then begin
          t.kept <- e :: t.kept;
          t.n_kept <- t.n_kept + 1
        end
      | Telemetry.Span_end -> (
        let s = stack e.tid in
        if keep then begin
          t.kept <- e :: t.kept;
          t.n_kept <- t.n_kept + 1
        end;
        match !s with
        | (name, start, children) :: rest ->
          let d = e.ts_ns - start in
          let st = stat t name in
          st.count <- st.count + 1;
          st.total_ns <- st.total_ns + d;
          st.self_ns <- st.self_ns + (d - !children);
          (match rest with (_, _, up) :: _ -> up := !up + d | [] -> ());
          s := rest
        | [] -> ())
      | Telemetry.Instant | Telemetry.Counter | Telemetry.Gauge -> ())
    (Telemetry.events sink);
  List.iter
    (fun (name, v) ->
      Hashtbl.replace t.counters name
        (v +. Option.value ~default:0. (Hashtbl.find_opt t.counters name)))
    (Telemetry.counter_values sink)

(* Durations of every [name] span [sink] recorded, in the order they
   closed. *)
let span_durations sink name =
  let starts = Hashtbl.create 4 in
  List.rev
    (List.fold_left
       (fun acc (e : Telemetry.event) ->
         if e.name <> name then acc
         else
           match e.kind with
           | Telemetry.Span_begin ->
             Hashtbl.add starts e.tid e.ts_ns;
             acc
           | Telemetry.Span_end ->
             let start = Hashtbl.find starts e.tid in
             Hashtbl.remove starts e.tid;
             (e.ts_ns - start) :: acc
           | Telemetry.Instant | Telemetry.Counter | Telemetry.Gauge -> acc)
       [] (Telemetry.events sink))

let count t name =
  match Hashtbl.find_opt t.spans name with Some s -> s.count | None -> 0

let total_ms t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> Measure.ms_of_ns s.total_ns
  | None -> 0.

let self_ms t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> Measure.ms_of_ns s.self_ns
  | None -> 0.

let counter t name =
  Option.value ~default:0. (Hashtbl.find_opt t.counters name)

(* The per-layer metrics every workload reads the same way from the
   solver's and the verifier's spans and counters, per operation. *)
let span_metrics t ~ops =
  let per x = x /. float_of_int ops in
  let hits = counter t "engine.cache_hits" in
  let misses = counter t "engine.cache_misses" in
  [ ("core.explore.run.count", per (float_of_int (count t "explore.run")), "count");
    ("core.explore.run.ms", per (total_ms t "explore.run"), "ms");
    ("core.explore.baseline.ms", per (total_ms t "explore.baseline"), "ms");
    ("core.explore.assign.ms", per (total_ms t "explore.assign"), "ms");
    ("core.explore.te.ms", per (total_ms t "explore.te"), "ms");
    ("core.explore.evaluate.ms", per (total_ms t "explore.evaluate"), "ms");
    ("core.assign.greedy.self_ms", per (self_ms t "assign.greedy"), "ms");
    ("core.engine.probe.count", per (float_of_int (count t "engine.probe")), "count");
    ("core.engine.probe.ms", per (total_ms t "engine.probe"), "ms");
    ("core.engine.commit.count", per (float_of_int (count t "engine.commit")), "count");
    ("core.engine.commit.ms", per (total_ms t "engine.commit"), "ms");
    ("core.engine.create.ms", per (total_ms t "engine.create"), "ms");
    ("core.engine.cache_hit_ratio",
     (if hits +. misses > 0. then hits /. (hits +. misses) else 0.), "ratio");
    ("core.prefetch.run.ms", per (total_ms t "te.run"), "ms");
    ("analysis.verify.count", per (float_of_int (count t "check.run")), "count");
    ("analysis.verify.ms", per (total_ms t "check.run"), "ms");
    ("analysis.diagnostics", per (counter t "analysis.diagnostics"), "count") ]

(* Write the kept span events as a Chrome trace_event document. *)
let write t ~file =
  let dir = Filename.dirname file in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Mhla_util.Json.to_channel oc
        (Mhla_util.Json.obj
           [ ("traceEvents",
              Mhla_util.Json.arr
                (List.rev_map Mhla_obs.Trace_export.event_to_json t.kept));
             ("displayTimeUnit", Mhla_util.Json.str "ms") ]);
      output_char oc '\n')
