(* Timing, sampling and heap helpers shared by the workloads.

   Every timing reads one source, CLOCK_MONOTONIC through Bechamel's
   stub: it never steps backwards or freezes when NTP adjusts the wall
   clock, which [Unix.gettimeofday] does. The telemetry collector of a
   traced run is handed the same clock, so span times and the
   benchmark's own timings are comparable. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let ms_of_ns ns = float_of_int ns /. 1e6

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the samples at or below it. No interpolation, so a percentile of a
   workload made of whole passes over fixed inputs always lands inside
   one input's samples instead of averaging two unrelated inputs. *)
let percentile p samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  end

let median samples = percentile 0.5 samples

let sum = List.fold_left ( +. ) 0.

let mean = function [] -> 0. | l -> sum l /. float_of_int (List.length l)

(* Whole passes of [f] until [seconds] have gone by (at least
   [min_passes]). *)
let passes ~seconds ~min_passes f =
  let t0 = now_ns () in
  let rec go acc k =
    if k >= min_passes && seconds_since t0 >= seconds then List.rev acc
    else go (f () :: acc) (k + 1)
  in
  go [] 0

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

type 'a measured = {
  setup_s : float;
  peak_heap_mb : float;
  runs : 'a list;  (** one result per pass *)
}

(* Set up, then run whole passes over the state built, for [seconds].
   Set-up is timed once before the first pass and again after every
   pass (that state is dropped), so its samples span the run as the
   operations' do; [setup_s] is their median. The peak heap is read
   after set-up and the first pass, a fixed amount of work: how much
   higher the heap climbs over further passes depends on when the major
   GC happens to run, not on the program. *)
let setup_and_passes ~seconds ~setup pass =
  let timed () =
    let t0 = now_ns () in
    let st = setup () in
    (st, seconds_since t0)
  in
  let st, t = timed () in
  let times = ref [ t ] in
  let heap = ref 0. in
  let runs =
    passes ~seconds ~min_passes:2 (fun () ->
        let r = pass st in
        if !heap = 0. then heap := peak_heap_mb ();
        times := snd (timed ()) :: !times;
        r)
  in
  { setup_s = median !times; peak_heap_mb = !heap; runs }

(* What one workload run reports. [metrics] are (name, value, unit). *)
type report = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : string list;  (** human-readable lines printed before the result *)
}

(* Each operation's best time over the passes of a run, in operation
   order: [passes] holds one list of per-operation times per pass.

   The benchmark repeats every operation and keeps its fastest time
   because the machines it runs on are shared: their speed drifts by up
   to 1.8x over seconds to minutes, with the program unchanged. That
   noise only ever slows an operation down, so the fastest of several
   repeats is the steady estimate of the operation's own cost, where a
   median would follow the neighbours' load. *)
let best passes =
  match passes with
  | [] -> []
  | first :: rest -> List.fold_left (List.map2 Float.min) first rest

(* The end-to-end metrics every workload reports from an untraced run.
   An operation is one app exploration (paper-pareto) or one request
   (serve-mixed); [best_ms] is
   each operation's best time and [work] the work one pass of them
   does. The latency percentiles are taken across operations: [tail] is
   the one the workload reports beside the median. *)
let end_to_end m ~work ~times ~tail ~work_unit =
  let best_ms = best (List.map times m.runs) in
  let n = List.length best_ms in
  let notes =
    [ Fmt.str "%d operation(s), each timed %d time(s); %s" n (List.length m.runs)
        work_unit;
      Fmt.str "op_ms_tail is p%g of the operations' best times, %d above it"
        (100. *. tail)
        (n - int_of_float (ceil (tail *. float_of_int n))) ]
  in
  ( [ ("setup_s", m.setup_s, "s");
      ("work_per_s", work /. (sum best_ms /. 1e3), "1/s");
      ("op_ms_p50", percentile 0.5 best_ms, "ms");
      ("op_ms_tail", percentile tail best_ms, "ms");
      ("peak_heap_mb", m.peak_heap_mb, "MB") ],
    notes )
