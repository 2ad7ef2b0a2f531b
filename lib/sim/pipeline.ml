type stream = {
  issues : int;
  bytes_per_issue : int;
  transfer_cycles : int;
  compute_cycles : int;
  lookahead : int;
  setup_cycles : int;
}

type outcome = {
  total_cycles : int;
  stall_cycles : int;
  dma_busy_cycles : int;
}

let validate_stream ~context s =
  let reject fmt = Mhla_util.Error.invalidf ~context fmt in
  if s.issues <= 0 then reject "issues must be positive (got %d)" s.issues;
  if s.transfer_cycles < 0 || s.compute_cycles < 0 || s.lookahead < 0
     || s.setup_cycles < 0 || s.bytes_per_issue < 0
  then reject "negative parameter"

let validate ~channels s =
  validate_stream ~context:"Pipeline.run" s;
  if channels < 1 then
    Mhla_util.Error.invalidf ~context:"Pipeline.run"
      "channels must be >= 1 (got %d)" channels

type fault_outcome = {
  fault_result : outcome;
  retries : int;
  fallbacks : int;
  failed_attempts : int;
  jitter_total_cycles : int;
}

(* Iteration [it] consumes buffer [it]. Transfer [it] is issued by the
   CPU at the start of iteration [it - lookahead] (time 0 when that is
   in the past), queues on the earliest-free DMA channel, and must
   finish before iteration [it] begins computing.

   Every DMA attempt is filtered through the fault model. A failed
   attempt still occupies its channel for the full (jittered) latency —
   the bus does not know the data is corrupt until the transfer ends —
   then backs off and retries on the same channel. Exhausted retries
   leave a [max_int] completion sentinel; the consuming iteration then
   degrades to a synchronous refetch (CPU pays setup and waits out the
   whole transfer) instead of blocking forever. [deadline_patience]
   applies the same fallback to transfers that are merely late. *)
let run_faulty f ~channels s =
  validate ~channels s;
  Faults.validate f;
  let completion = Array.make s.issues 0 in
  let cpu = ref 0 in
  let channel_free = Array.make channels 0 in
  let dma_busy = ref 0 in
  let stalls = ref 0 in
  let retries = ref 0 in
  let fallbacks = ref 0 in
  let failed_attempts = ref 0 in
  let jitter_total = ref 0 in
  let issue j =
    (* The CPU programs the engine, then the transfer queues on the
       earliest-free channel. *)
    cpu := !cpu + s.setup_cycles;
    let best = ref 0 in
    Array.iteri
      (fun c free -> if free < channel_free.(!best) then best := c)
      channel_free;
    let c = !best in
    let rec attempt_loop attempt earliest =
      let start = max earliest channel_free.(c) in
      let jitter = Faults.jitter_cycles f ~transfer:j ~attempt in
      jitter_total := !jitter_total + jitter;
      let latency = s.transfer_cycles + jitter in
      let finish = start + latency in
      channel_free.(c) <- finish;
      dma_busy := !dma_busy + latency;
      if Faults.attempt_fails f ~transfer:j ~attempt then begin
        incr failed_attempts;
        if attempt >= f.Faults.max_retries then max_int
        else begin
          incr retries;
          attempt_loop (attempt + 1)
            (finish + Faults.backoff_cycles ~attempt)
        end
      end
      else finish
    in
    completion.(j) <- attempt_loop 0 !cpu
  in
  (* Synchronous refetch: the CPU reprograms the engine and sits out
     the whole nominal transfer. The wait is a stall; the reissued
     burst is real bus traffic. *)
  let fallback () =
    incr fallbacks;
    cpu := !cpu + s.setup_cycles;
    stalls := !stalls + s.transfer_cycles;
    cpu := !cpu + s.transfer_cycles;
    dma_busy := !dma_busy + s.transfer_cycles
  in
  for it = 0 to s.issues - 1 do
    (* Transfers whose initiation point is this iteration's start:
       iteration 0 primes the pipeline with the first lookahead+1
       buffers, later iterations top it up with one. *)
    if it = 0 then
      for j = 0 to min s.lookahead (s.issues - 1) do
        issue j
      done
    else if it + s.lookahead < s.issues then issue (it + s.lookahead);
    let ready = completion.(it) in
    if ready = max_int then fallback ()
    else begin
      match f.Faults.deadline_patience with
      | Some d when ready - !cpu > d -> fallback ()
      | _ ->
        if ready > !cpu then begin
          stalls := !stalls + (ready - !cpu);
          cpu := ready
        end
    end;
    cpu := !cpu + s.compute_cycles
  done;
  {
    fault_result =
      {
        total_cycles = !cpu;
        stall_cycles = !stalls;
        dma_busy_cycles = !dma_busy;
      };
    retries = !retries;
    fallbacks = !fallbacks;
    failed_attempts = !failed_attempts;
    jitter_total_cycles = !jitter_total;
  }

let run ~channels s = (run_faulty Faults.none ~channels s).fault_result

let analytic_stall s =
  validate_stream ~context:"Pipeline.run" s;
  let hidden = min s.transfer_cycles (s.lookahead * s.compute_cycles) in
  s.issues * (s.transfer_cycles - hidden)

let steady_state_stall ~channels s =
  validate ~channels s;
  if s.lookahead = 0 then s.issues * s.transfer_cycles
  else begin
    (* Up to [lookahead + 1] transfers are in flight at once (the one
       being awaited plus the ones issued ahead), bounded by the
       channel count; each iteration then waits for a
       [transfer / overlap] slice, of which the CPU covers compute plus
       one setup. *)
    let overlap = min (s.lookahead + 1) channels in
    let service = s.transfer_cycles / overlap in
    s.issues * max 0 (service - s.compute_cycles - s.setup_cycles)
  end
