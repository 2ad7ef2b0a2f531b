module Telemetry = Mhla_obs.Telemetry
module Error = Mhla_util.Error
module Json = Mhla_util.Json
module Hierarchy = Mhla_arch.Hierarchy
module Layer = Mhla_arch.Layer
module Dma = Mhla_arch.Dma

type arbitration = Earliest_free | Round_robin

type waitstates = { first_cycles : int; seq_cycles : int; beat_bytes : int }

type config = {
  channels : int;
  queue_depth : int;
  arbitration : arbitration;
  shared_bus : bool;
  invalidate_on_miss : bool;
  waitstates : waitstates option;
}

let neutral ~channels =
  {
    channels;
    queue_depth = max_int;
    arbitration = Earliest_free;
    shared_bus = false;
    invalidate_on_miss = false;
    waitstates = None;
  }

let of_hierarchy ?(queue_depth = max_int) ?(arbitration = Earliest_free)
    ?(shared_bus = false) ?(invalidate_on_miss = false) h =
  let channels =
    if Hierarchy.has_dma h then (Hierarchy.dma_exn h).Dma.channels else 1
  in
  let main = Hierarchy.layer h (Hierarchy.main_memory_level h) in
  let beat_bytes =
    List.fold_left
      (fun acc (l : Layer.t) -> min acc l.Layer.bandwidth_bytes_per_cycle)
      main.Layer.bandwidth_bytes_per_cycle h.Hierarchy.layers
  in
  {
    channels;
    queue_depth;
    arbitration;
    shared_bus;
    invalidate_on_miss;
    waitstates =
      Some
        {
          first_cycles = main.Layer.latency_cycles;
          seq_cycles = 1;
          beat_bytes;
        };
  }

let validate c =
  let reject fmt = Error.invalidf ~context:"Event.run" fmt in
  if c.channels < 1 then reject "channels must be >= 1 (got %d)" c.channels;
  if c.queue_depth < 1 then
    reject "queue depth must be >= 1 (got %d)" c.queue_depth;
  match c.waitstates with
  | None -> ()
  | Some w ->
    if w.first_cycles < 0 then
      reject "first-access waitstate must be >= 0 (got %d)" w.first_cycles;
    if w.seq_cycles < 1 then
      reject "sequential waitstate must be >= 1 (got %d)" w.seq_cycles;
    if w.beat_bytes < 1 then
      reject "beat bytes must be >= 1 (got %d)" w.beat_bytes

let transfer_latency c (s : Pipeline.stream) =
  match c.waitstates with
  | None -> s.transfer_cycles
  | Some w ->
    if s.bytes_per_issue <= 0 then 0
    else
      w.first_cycles
      + (w.seq_cycles * ((s.bytes_per_issue + w.beat_bytes - 1) / w.beat_bytes))

type outcome = {
  total_cycles : int;
  stall_cycles : int;
  dma_busy_cycles : int;
  bus_wait_cycles : int;
  demand_fetches : int;
  invalidated_prefetches : int;
  deferred_issues : int;
  events_processed : int;
  channel_busy_cycles : int array;
}

(* --- the event queue --------------------------------------------------- *)

(* A binary min-heap keyed on (time, rank, seq): rank orders
   simultaneous events (completions fire before the CPU acts on the
   same cycle, so a transfer finishing exactly when the CPU arrives is
   a hit, as in Pipeline.run's [max]); seq makes the whole order — and
   hence the simulation — deterministic. *)
module Heap = struct
  type 'a entry = { time : int; rank : int; seq : int; ev : 'a }
  type 'a t = { mutable a : 'a entry array; mutable len : int }

  let create dummy = { a = Array.make 64 dummy; len = 0 }

  let before x y =
    x.time < y.time
    || (x.time = y.time
        && (x.rank < y.rank || (x.rank = y.rank && x.seq < y.seq)))

  let push t e =
    if t.len = Array.length t.a then begin
      let bigger = Array.make (2 * t.len) e in
      Array.blit t.a 0 bigger 0 t.len;
      t.a <- bigger
    end;
    t.a.(t.len) <- e;
    t.len <- t.len + 1;
    let i = ref (t.len - 1) in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      before t.a.(!i) t.a.(parent)
    do
      let parent = (!i - 1) / 2 in
      let tmp = t.a.(parent) in
      t.a.(parent) <- t.a.(!i);
      t.a.(!i) <- tmp;
      i := parent
    done

  let pop t =
    let root = t.a.(0) in
    t.len <- t.len - 1;
    t.a.(0) <- t.a.(t.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.len && before t.a.(l) t.a.(!smallest) then smallest := l;
      if r < t.len && before t.a.(r) t.a.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = t.a.(!smallest) in
        t.a.(!smallest) <- t.a.(!i);
        t.a.(!i) <- tmp;
        i := !smallest
      end
    done;
    root.ev

  let is_empty t = t.len = 0
end

(* --- the simulator ----------------------------------------------------- *)

type event =
  | Complete of int  (** this transfer's burst has finished *)
  | Cpu_step

(* What a transfer stream element is doing right now. *)
type tstate =
  | Unissued  (** not (or no longer) set up by the CPU *)
  | Queued  (** in the prefetch queue, waiting for a channel *)
  | Flying  (** on a channel *)
  | Done  (** data arrived *)

(* What the CPU does when its next Cpu_step fires. *)
type cpu_action =
  | Begin_iteration
  | Enqueue of int * int list
      (** setup of this transfer just finished; the rest still to issue *)
  | Consume
  | Finish_demand
  | Blocked

let rank_complete = 0
let rank_cpu = 1

let run ?(telemetry = Telemetry.noop) cfg (s : Pipeline.stream) =
  validate cfg;
  Pipeline.validate_stream ~context:"Event.run" s;
  Telemetry.span telemetry ~cat:"sim" "sim.event"
    ~args:(fun () ->
      [ ("issues", Telemetry.Int s.issues);
        ("lookahead", Telemetry.Int s.lookahead);
        ("channels", Telemetry.Int cfg.channels);
        ("queue_depth",
         Telemetry.Int (if cfg.queue_depth = max_int then 0 else cfg.queue_depth)) ])
  @@ fun () ->
  let latency = transfer_latency cfg s in
  let heap = Heap.create { Heap.time = 0; rank = 0; seq = 0; ev = Cpu_step } in
  let seq = ref 0 in
  let schedule time rank ev =
    Heap.push heap { Heap.time; rank; seq = !seq; ev };
    incr seq
  in
  let st = Array.make s.issues Unissued in
  let consumed = Array.make s.issues false in
  let holds_slot = Array.make s.issues false in
  let channel_free = Array.make cfg.channels 0 in
  let channel_busy = Array.make cfg.channels 0 in
  let last_channel = ref (cfg.channels - 1) in
  let prefetch_q = Queue.create () in
  let deferred = Queue.create () in
  let outstanding = ref 0 in
  let bus_free = ref 0 in
  let stalls = ref 0 in
  let dma_busy = ref 0 in
  let bus_wait = ref 0 in
  let demand_fetches = ref 0 in
  let invalidated = ref 0 in
  let deferrals = ref 0 in
  let events = ref 0 in
  let it = ref 0 in
  let action = ref Begin_iteration in
  let wait_from = ref (-1) in
  let finished_at = ref (-1) in
  let release_slot j =
    if holds_slot.(j) then begin
      holds_slot.(j) <- false;
      decr outstanding
    end
  in
  (* Claim the shared bus for [latency] cycles from [start]; returns
     the (possibly delayed) data-phase start. *)
  let claim_bus start =
    if not cfg.shared_bus then start
    else begin
      let data_start = max start !bus_free in
      bus_wait := !bus_wait + (data_start - start);
      data_start
    end
  in
  let start_transfer ~now ~channel j =
    let data_start = claim_bus (max now channel_free.(channel)) in
    let finish = data_start + latency in
    if cfg.shared_bus then bus_free := finish;
    channel_free.(channel) <- finish;
    dma_busy := !dma_busy + latency;
    channel_busy.(channel) <- channel_busy.(channel) + latency;
    st.(j) <- Flying;
    Telemetry.instant telemetry ~cat:"sim" "esim.dispatch"
      ~args:(fun () ->
        [ ("transfer", Telemetry.Int j);
          ("channel", Telemetry.Int channel);
          ("start", Telemetry.Int data_start);
          ("finish", Telemetry.Int finish) ]);
    schedule finish rank_complete (Complete j)
  in
  let pick_channel now =
    match cfg.arbitration with
    | Earliest_free ->
      (* Pipeline.run's argmin scan: the longest-idle free channel,
         lowest index on ties. *)
      let best = ref (-1) in
      Array.iteri
        (fun c free ->
          if free <= now && (!best < 0 || free < channel_free.(!best)) then
            best := c)
        channel_free;
      if !best < 0 then None else Some !best
    | Round_robin ->
      let n = cfg.channels in
      let found = ref None in
      for k = 1 to n do
        let c = (!last_channel + k) mod n in
        if !found = None && channel_free.(c) <= now then found := Some c
      done;
      !found
  in
  let rec try_dispatch now =
    if not (Queue.is_empty prefetch_q) then begin
      match pick_channel now with
      | None -> ()
      | Some c ->
        let j = Queue.pop prefetch_q in
        last_channel := c;
        start_transfer ~now ~channel:c j;
        try_dispatch now
    end
  in
  (* The CPU fetches a block itself: setup, then the whole transfer as
     a stall, contending for the shared bus like any DMA burst. *)
  let demand_fetch ~now j =
    let after_setup = now + s.setup_cycles in
    let start = claim_bus after_setup in
    let finish = start + latency in
    if cfg.shared_bus then bus_free := finish;
    dma_busy := !dma_busy + latency;
    stalls := !stalls + (finish - after_setup);
    consumed.(j) <- true;
    release_slot j;
    Telemetry.instant telemetry ~cat:"sim" "esim.demand"
      ~args:(fun () ->
        [ ("transfer", Telemetry.Int j);
          ("start", Telemetry.Int start);
          ("finish", Telemetry.Int finish) ]);
    action := Finish_demand;
    schedule finish rank_cpu Cpu_step
  in
  (* The GBA prefetch-buffer rule: a demand miss flushes every
     queued-but-unstarted prefetch; flushed transfers must be set up
     again from scratch (they rejoin via the deferred list). *)
  let flush_queue ~now =
    let n = Queue.length prefetch_q in
    if n > 0 then begin
      Queue.iter
        (fun j ->
          st.(j) <- Unissued;
          release_slot j;
          if not consumed.(j) then Queue.push j deferred)
        prefetch_q;
      Queue.clear prefetch_q;
      invalidated := !invalidated + n;
      Telemetry.instant telemetry ~cat:"sim" "esim.invalidate"
        ~args:(fun () ->
          [ ("flushed", Telemetry.Int n); ("at", Telemetry.Int now) ])
    end
  in
  let proceed_compute ~now =
    let next = now + s.compute_cycles in
    incr it;
    if !it >= s.issues then finished_at := next
    else begin
      action := Begin_iteration;
      schedule next rank_cpu Cpu_step
    end
  in
  let note_stall ~now =
    if !wait_from >= 0 then begin
      let cycles = now - !wait_from in
      if cycles > 0 then begin
        stalls := !stalls + cycles;
        Telemetry.instant telemetry ~cat:"sim" "esim.stall"
          ~args:(fun () ->
            [ ("iteration", Telemetry.Int !it);
              ("cycles", Telemetry.Int cycles) ])
      end;
      wait_from := -1
    end
  in
  let rec process_issues ~now = function
    | [] ->
      action := Consume;
      consume ~now
    | j :: rest ->
      if consumed.(j) || st.(j) <> Unissued then process_issues ~now rest
      else if !outstanding >= cfg.queue_depth then begin
        (* Prefetch buffer full: postpone; reconsidered next iteration
           (or degrades to a demand fetch when its consumer arrives). *)
        incr deferrals;
        Queue.push j deferred;
        process_issues ~now rest
      end
      else begin
        action := Enqueue (j, rest);
        schedule (now + s.setup_cycles) rank_cpu Cpu_step
      end
  and consume ~now =
    let j = !it in
    match st.(j) with
    | Done ->
      note_stall ~now;
      consumed.(j) <- true;
      release_slot j;
      Telemetry.instant telemetry ~cat:"sim" "esim.consume"
        ~args:(fun () ->
          [ ("transfer", Telemetry.Int j); ("at", Telemetry.Int now) ]);
      proceed_compute ~now
    | Flying ->
      (* A miss: the demanded data is still in flight. Under the GBA
         prefetch-buffer rule the miss flushes every queued-but-unstarted
         prefetch; the in-flight burst itself is awaited. *)
      if cfg.invalidate_on_miss then flush_queue ~now;
      if !wait_from < 0 then wait_from := now;
      action := Blocked
    | Queued ->
      if cfg.invalidate_on_miss then begin
        flush_queue ~now;
        incr demand_fetches;
        demand_fetch ~now j
      end
      else begin
        (* All channels are saturated; wait for the queued transfer to
           reach one, as Pipeline's per-channel booking does. *)
        if !wait_from < 0 then wait_from := now;
        action := Blocked
      end
    | Unissued ->
      (* Deferred past its consumer (or flushed): fetch on demand. *)
      incr demand_fetches;
      note_stall ~now;
      demand_fetch ~now j
  in
  let cpu_step ~now =
    match !action with
    | Begin_iteration ->
      let scheduled =
        if !it = 0 then List.init (min s.lookahead (s.issues - 1) + 1) Fun.id
        else if !it + s.lookahead < s.issues then [ !it + s.lookahead ]
        else []
      in
      let queued_behind = List.of_seq (Queue.to_seq deferred) in
      Queue.clear deferred;
      process_issues ~now (queued_behind @ scheduled)
    | Enqueue (j, rest) ->
      st.(j) <- Queued;
      holds_slot.(j) <- true;
      incr outstanding;
      Queue.push j prefetch_q;
      Telemetry.instant telemetry ~cat:"sim" "esim.issue"
        ~args:(fun () ->
          [ ("transfer", Telemetry.Int j); ("at", Telemetry.Int now) ]);
      try_dispatch now;
      process_issues ~now rest
    | Consume -> consume ~now
    | Finish_demand -> proceed_compute ~now
    | Blocked ->
      (* Woken by the completion of the awaited transfer. *)
      action := Consume;
      consume ~now
  in
  let complete ~now j =
    st.(j) <- Done;
    Telemetry.instant telemetry ~cat:"sim" "esim.complete"
      ~args:(fun () ->
        [ ("transfer", Telemetry.Int j); ("at", Telemetry.Int now) ]);
    (if !action = Blocked && !it = j then begin
       action := Consume;
       schedule now rank_cpu Cpu_step
     end);
    try_dispatch now
  in
  schedule 0 rank_cpu Cpu_step;
  while !finished_at < 0 && not (Heap.is_empty heap) do
    let entry = heap.Heap.a.(0) in
    let now = entry.Heap.time in
    let ev = Heap.pop heap in
    incr events;
    match ev with
    | Cpu_step -> cpu_step ~now
    | Complete j -> complete ~now j
  done;
  if !finished_at < 0 then
    Error.internalf ~context:"Event.run"
      "event queue drained before the stream finished (iteration %d of %d)"
      !it s.issues;
  {
    total_cycles = !finished_at;
    stall_cycles = !stalls;
    dma_busy_cycles = !dma_busy;
    bus_wait_cycles = !bus_wait;
    demand_fetches = !demand_fetches;
    invalidated_prefetches = !invalidated;
    deferred_issues = !deferrals;
    events_processed = !events;
    channel_busy_cycles = channel_busy;
  }

let outcome_to_json o =
  Json.obj
    [ ("total_cycles", Json.int o.total_cycles);
      ("stall_cycles", Json.int o.stall_cycles);
      ("dma_busy_cycles", Json.int o.dma_busy_cycles);
      ("bus_wait_cycles", Json.int o.bus_wait_cycles);
      ("demand_fetches", Json.int o.demand_fetches);
      ("invalidated_prefetches", Json.int o.invalidated_prefetches);
      ("deferred_issues", Json.int o.deferred_issues);
      ("events_processed", Json.int o.events_processed);
      ("channel_busy_cycles",
       Json.arr (Array.to_list (Array.map Json.int o.channel_busy_cycles)))
    ]
