(* Tests for MHLA step 2: Time Extensions (the paper's Figure 1). *)

module Build = Mhla_ir.Build
module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Mapping = Mhla_core.Mapping
module Prefetch = Mhla_core.Prefetch
module Presets = Mhla_arch.Presets

(* Input-array convolution: the image is never written, so prefetches
   can extend across every enclosing loop. *)
let conv () =
  let open Build in
  program "conv"
    ~arrays:
      [ array "image" [ 34; 34 ]; array "coeff" [ 3; 3 ];
        array "out" [ 32; 32 ] ]
    [ loop "y" 32
        [ loop "x" 32
            [ loop "ky" 3
                [ loop "kx" 3
                    [ stmt "mac" ~work:4
                        [ rd "image" [ i "y" +$ i "ky"; i "x" +$ i "kx" ];
                          rd "coeff" [ i "ky"; i "kx" ];
                          wr "out" [ i "y"; i "x" ] ] ] ] ] ] ]

(* The source array is (re)written inside the refresh loop: no freedom. *)
let in_place_update () =
  let open Build in
  program "update"
    ~arrays:[ array "state" [ 16; 16 ] ]
    [ loop "t" 8
        [ loop "k" 16
            [ stmt "relax" ~work:4
                [ rd "state" [ i "t" -$ i "t"; i "k" ];
                  wr "state" [ c 1; i "k" ] ] ] ] ]

let mapped ?(budget = 512) ?(dma = true) program =
  let h = Presets.two_level ~dma ~onchip_bytes:budget () in
  (Assign.greedy program h).Assign.mapping

let plan_for schedule ~array =
  List.find_opt
    (fun (p : Prefetch.plan) ->
      p.Prefetch.bt.Mapping.bt_candidate.Candidate.array = array)
    schedule.Prefetch.plans

let test_no_dma_means_no_te () =
  let m = mapped ~dma:false (conv ()) in
  let schedule = Prefetch.run m in
  Alcotest.(check int) "TE not applicable without an engine" 0
    (List.length schedule.Prefetch.plans)

let test_writebacks_not_prefetched () =
  let m = mapped (conv ()) in
  let schedule = Prefetch.run m in
  List.iter
    (fun (p : Prefetch.plan) ->
      Alcotest.(check bool) "only fetches planned" false
        p.Prefetch.bt.Mapping.is_writeback)
    schedule.Prefetch.plans

let test_freedom_loops_of_input_array () =
  let m = mapped (conv ()) in
  let schedule = Prefetch.run m in
  match plan_for schedule ~array:"image" with
  | None -> Alcotest.fail "expected an image prefetch plan"
  | Some p ->
    (* Freedom starts at the refresh loop and walks outward; for an
       input array it reaches the outermost loop. *)
    (match p.Prefetch.bt.Mapping.bt_candidate.Candidate.refresh_iter with
    | Some refresh ->
      Alcotest.(check bool) "refresh loop first" true
        (List.hd p.Prefetch.freedom = refresh)
    | None -> Alcotest.fail "expected a refresh loop");
    Alcotest.(check bool) "freedom non-empty" true (p.Prefetch.freedom <> [])

let test_dependency_blocks_extension () =
  let m = mapped ~budget:128 (in_place_update ()) in
  let schedule = Prefetch.run m in
  List.iter
    (fun (p : Prefetch.plan) ->
      if p.Prefetch.bt.Mapping.bt_candidate.Candidate.array = "state" then begin
        Alcotest.(check (list string)) "no freedom" [] p.Prefetch.freedom;
        Alcotest.(check int) "nothing hidden" 0 p.Prefetch.hidden_cycles;
        Alcotest.(check bool) "flagged not-extendable" true
          (p.Prefetch.limit = Prefetch.Not_extendable)
      end)
    schedule.Prefetch.plans

(* Explicit placements so the candidate under test has a refresh loop,
   independent of what the greedy would pick. *)
let producer_consumer ~overlapping =
  let open Build in
  (* The writer fills rows 8..15; the reader streams row t (rows 0..7)
     unless [overlapping], in which case the writer hits rows 0..7. *)
  let writer_row = if overlapping then i "t" else i "w" +$ c 8 in
  program "prodcons"
    ~arrays:[ array "src" [ 16; 16 ]; array "sink" [ 8; 16 ] ]
    [ loop "t" 8
        [ loop "w" 8 [ stmt "writer" ~work:2 [ wr "src" [ writer_row; i "w" ] ] ];
          loop "r" 16
            [ stmt "reader" ~work:4
                [ rd "src" [ i "t"; i "r" ]; wr "sink" [ i "t"; i "r" ] ] ] ] ]

let planned_freedom ~overlapping =
  let p = producer_consumer ~overlapping in
  let h = Presets.two_level ~onchip_bytes:64 () in
  let m = Mapping.direct p h in
  let reader_ref = { Analysis.stmt = "reader"; index = 0 } in
  let candidate =
    match Analysis.find m.Mapping.infos reader_ref with
    | Some info ->
      List.find
        (fun (c : Candidate.t) -> c.Candidate.refresh_iter = Some "t")
        info.Analysis.candidates
    | None -> Alcotest.fail "reader access"
  in
  let m =
    Mapping.with_placement m reader_ref
      (Mapping.Chain [ { Mapping.candidate; layer = 0 } ])
  in
  let schedule = Prefetch.run m in
  match plan_for schedule ~array:"src" with
  | Some plan -> plan.Prefetch.freedom
  | None -> Alcotest.fail "expected a src prefetch plan"

let test_overlapping_producer_blocks () =
  Alcotest.(check (list string)) "no freedom when regions overlap" []
    (planned_freedom ~overlapping:true)

let test_disjoint_producer_is_free () =
  (* The writer touches rows 8..15, the reader's copy reads rows 0..7:
     the bounding boxes are disjoint, so the prefetch may extend. *)
  Alcotest.(check (list string)) "free across the refresh loop" [ "t" ]
    (planned_freedom ~overlapping:false)

let test_deferred_writebacks () =
  let m = mapped (conv ()) in
  (* Off by default: only fetches are planned. *)
  let default_schedule = Prefetch.run m in
  Alcotest.(check bool) "no writeback plans by default" false
    (List.exists
       (fun (p : Prefetch.plan) -> p.Prefetch.bt.Mapping.is_writeback)
       default_schedule.Prefetch.plans);
  (* Opted in: the out-array drain appears and can be hidden (nobody
     else touches out). *)
  let schedule = Prefetch.run ~defer_writebacks:true m in
  let wb =
    List.filter
      (fun (p : Prefetch.plan) -> p.Prefetch.bt.Mapping.is_writeback)
      schedule.Prefetch.plans
  in
  (match wb with
  | [] ->
    (* The mapping may have no off-chip write-back; then nothing to
       check. The conv out access is normally buffered, so fail. *)
    Alcotest.fail "expected a write-back plan for conv's out buffer"
  | plans ->
    List.iter
      (fun (p : Prefetch.plan) ->
        Alcotest.(check bool) "drain freedom found" true
          (p.Prefetch.freedom <> []))
      plans);
  (* More hiding than fetch-only TE, never less. *)
  Alcotest.(check bool) "deferring drains hides at least as much" true
    (Prefetch.total_hidden_cycles schedule
    >= Prefetch.total_hidden_cycles default_schedule);
  let before = Cost.evaluate m in
  let after = Prefetch.evaluate m schedule in
  Alcotest.(check bool) "still sound" true
    (after.Cost.total_cycles <= before.Cost.total_cycles
    && after.Cost.total_cycles >= (Cost.ideal m).Cost.total_cycles)

let test_deferred_writeback_blocked_by_reader () =
  (* A consumer inside the refresh loop reads the drained region: the
     drain of iteration t races iteration t+1's read and must stay
     synchronous. (A reader in a later phase would NOT block - the
     deferred drains all land in the nest's epilogue.) *)
  let open Build in
  let p =
    program "wbdep"
      ~arrays:[ array "sink" [ 8; 16 ]; array "final" [ 8 ] ]
      [ loop "t" 8
          [ loop "r" 16
              [ stmt "produce" ~work:4 [ wr "sink" [ i "t"; i "r" ] ] ];
            stmt "consume" ~work:2
              [ rd "sink" [ i "t"; c 0 ]; wr "final" [ i "t" ] ] ] ]
  in
  let h = Presets.two_level ~onchip_bytes:64 () in
  let m = Mapping.direct p h in
  let ref_ = { Analysis.stmt = "produce"; index = 0 } in
  let candidate =
    match Analysis.find m.Mapping.infos ref_ with
    | Some info ->
      List.find
        (fun (c : Candidate.t) -> c.Candidate.refresh_iter = Some "t")
        info.Analysis.candidates
    | None -> Alcotest.fail "produce access"
  in
  let m =
    Mapping.with_placement m ref_
      (Mapping.Chain [ { Mapping.candidate; layer = 0 } ])
  in
  let schedule = Prefetch.run ~defer_writebacks:true m in
  match
    List.find_opt
      (fun (p : Prefetch.plan) -> p.Prefetch.bt.Mapping.is_writeback)
      schedule.Prefetch.plans
  with
  | None -> Alcotest.fail "expected the sink drain to be planned"
  | Some plan ->
    Alcotest.(check (list string)) "reader blocks the drain" []
      plan.Prefetch.freedom

let test_hidden_clamped_and_consistent () =
  let m = mapped (conv ()) in
  let schedule = Prefetch.run m in
  List.iter
    (fun (p : Prefetch.plan) ->
      Alcotest.(check bool) "hidden <= bt_time" true
        (p.Prefetch.hidden_cycles <= p.Prefetch.bt_time);
      Alcotest.(check bool) "hidden >= 0" true (p.Prefetch.hidden_cycles >= 0);
      Alcotest.(check int) "extra buffers = granted loops"
        (List.length p.Prefetch.extended)
        p.Prefetch.extra_buffers;
      Alcotest.(check bool) "extended is a prefix of freedom" true
        (let rec prefix a b =
           match (a, b) with
           | [], _ -> true
           | x :: a', y :: b' -> x = y && prefix a' b'
           | _ :: _, [] -> false
         in
         prefix p.Prefetch.extended p.Prefetch.freedom))
    schedule.Prefetch.plans

let test_te_never_hurts () =
  let m = mapped (conv ()) in
  let schedule = Prefetch.run m in
  let before = Cost.evaluate m in
  let after = Prefetch.evaluate m schedule in
  Alcotest.(check bool) "cycles improve or stay" true
    (after.Cost.total_cycles <= before.Cost.total_cycles);
  Alcotest.(check (float 1e-9)) "energy unchanged by TE"
    before.Cost.total_energy_pj after.Cost.total_energy_pj;
  Alcotest.(check bool) "never beats the ideal bound" true
    (after.Cost.total_cycles >= (Cost.ideal m).Cost.total_cycles)

let test_priorities_follow_order () =
  let m = mapped (conv ()) in
  let schedule = Prefetch.run m in
  List.iteri
    (fun k (p : Prefetch.plan) ->
      Alcotest.(check int) "consecutive priorities" k p.Prefetch.dma_priority)
    schedule.Prefetch.plans;
  (* With the paper's order, sort factors never increase. *)
  let rec non_increasing = function
    | (a : Prefetch.plan) :: (b :: _ as rest) ->
      a.Prefetch.sort_factor >= b.Prefetch.sort_factor && non_increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted by time/size" true
    (non_increasing schedule.Prefetch.plans);
  let sorted =
    List.stable_sort
      (fun (a : Prefetch.candidate) b ->
        Float.compare b.Prefetch.sort_factor a.Prefetch.sort_factor)
      (Prefetch.candidates m)
  in
  Alcotest.(check bool) "run = plan over time/size-sorted candidates" true
    (schedule = Prefetch.plan m sorted)

let test_orders_cover_same_bts () =
  let m = mapped (conv ()) in
  let ids schedule =
    List.sort compare
      (List.map
         (fun (p : Prefetch.plan) -> p.Prefetch.bt.Mapping.bt_id)
         schedule.Prefetch.plans)
  in
  let reference = ids (Prefetch.run m) in
  let candidates = Prefetch.candidates m in
  let largest_first key =
    List.stable_sort
      (fun (a : Prefetch.candidate) b -> Int.compare (key b) (key a))
      candidates
  in
  List.iter
    (fun ordered ->
      Alcotest.(check (list string)) "same BT set" reference
        (ids (Prefetch.plan m ordered)))
    [ candidates;
      List.rev candidates;
      largest_first (fun c -> c.Prefetch.bt.Mapping.bytes_per_issue);
      largest_first (fun c -> c.Prefetch.bt_time) ]

(* [plan] walks the list it is given, but the fetch/drain partition is
   its own: a reversed list that leads with a drain still plans every
   fetch first, in the fetches' given order. *)
let test_plan_fetches_before_drains () =
  let m = mapped (conv ()) in
  let reversed = List.rev (Prefetch.candidates ~defer_writebacks:true m) in
  let is_drain (bt : Mapping.block_transfer) = bt.Mapping.is_writeback in
  let drains_first =
    match reversed with
    | (c : Prefetch.candidate) :: rest ->
      is_drain c.Prefetch.bt
      && List.exists
           (fun (c : Prefetch.candidate) -> not (is_drain c.Prefetch.bt))
           rest
    | [] -> false
  in
  Alcotest.(check bool) "input leads with a drain" true drains_first;
  let plans = (Prefetch.plan m reversed).Prefetch.plans in
  let kinds =
    List.map (fun (p : Prefetch.plan) -> is_drain p.Prefetch.bt) plans
  in
  Alcotest.(check (list bool)) "every fetch before every drain"
    (List.sort compare kinds) kinds;
  let fetch_ids bts =
    List.filter_map
      (fun (bt : Mapping.block_transfer) ->
        if is_drain bt then None else Some bt.Mapping.bt_id)
      bts
  in
  Alcotest.(check (list string)) "fetches keep the given order"
    (fetch_ids
       (List.map (fun (c : Prefetch.candidate) -> c.Prefetch.bt) reversed))
    (fetch_ids (List.map (fun (p : Prefetch.plan) -> p.Prefetch.bt) plans));
  List.iteri
    (fun k (p : Prefetch.plan) ->
      Alcotest.(check int) "consecutive priorities" k p.Prefetch.dma_priority)
    plans

let test_size_bound_blocks_extension () =
  (* Evaluate the same mapping against a platform with zero slack: no
     extension can be granted. Use Full transfers so even the refresh
     extension needs a whole buffer. *)
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let config =
    { Assign.default_config with
      Assign.transfer_mode = Candidate.Full;
      Assign.objective = Cost.Cycles }
  in
  let mapping = (Assign.greedy ~config program h).Assign.mapping in
  let peak =
    Mhla_lifetime.Occupancy.peak_bytes Mhla_lifetime.Occupancy.In_place
      (Mapping.layer_blocks mapping ~level:0)
  in
  let exact = Presets.two_level ~onchip_bytes:(max 1 peak) () in
  let tight = Mapping.with_hierarchy mapping exact in
  let schedule = Prefetch.run tight in
  List.iter
    (fun (p : Prefetch.plan) ->
      if p.Prefetch.freedom <> [] && p.Prefetch.bt_time > 0 then begin
        Alcotest.(check int) "no extension granted" 0 p.Prefetch.extra_buffers;
        Alcotest.(check bool) "size bound reported" true
          (p.Prefetch.limit = Prefetch.Size_bound)
      end)
    schedule.Prefetch.plans

let test_hidden_per_issue_lookup () =
  let m = mapped (conv ()) in
  let schedule = Prefetch.run m in
  Alcotest.(check int) "unknown id hides nothing" 0
    (Prefetch.hidden_per_issue schedule "no-such-bt");
  match schedule.Prefetch.plans with
  | p :: _ ->
    Alcotest.(check int) "lookup matches plan" p.Prefetch.hidden_cycles
      (Prefetch.hidden_per_issue schedule p.Prefetch.bt.Mapping.bt_id)
  | [] -> Alcotest.fail "expected at least one plan"

let test_total_hidden_cycles () =
  let m = mapped (conv ()) in
  let schedule = Prefetch.run m in
  let expected =
    List.fold_left
      (fun acc (p : Prefetch.plan) ->
        acc + (p.Prefetch.bt.Mapping.issues * p.Prefetch.hidden_cycles))
      0 schedule.Prefetch.plans
  in
  Alcotest.(check int) "sum matches" expected
    (Prefetch.total_hidden_cycles schedule);
  (* Consistency with the cost engine: hidden cycles = stall reduction. *)
  let before = (Cost.evaluate m).Cost.transfer_stall_cycles in
  let after = (Prefetch.evaluate m schedule).Cost.transfer_stall_cycles in
  Alcotest.(check int) "stall reduction" (before - after)
    (Prefetch.total_hidden_cycles schedule)

let () =
  Alcotest.run "prefetch"
    [
      ( "eligibility",
        [
          Alcotest.test_case "no dma" `Quick test_no_dma_means_no_te;
          Alcotest.test_case "writebacks excluded" `Quick
            test_writebacks_not_prefetched;
        ] );
      ( "freedom",
        [
          Alcotest.test_case "input array" `Quick
            test_freedom_loops_of_input_array;
          Alcotest.test_case "dependency blocks" `Quick
            test_dependency_blocks_extension;
          Alcotest.test_case "overlapping producer blocks" `Quick
            test_overlapping_producer_blocks;
          Alcotest.test_case "disjoint producer free" `Quick
            test_disjoint_producer_is_free;
          Alcotest.test_case "deferred write-backs" `Quick
            test_deferred_writebacks;
          Alcotest.test_case "drain blocked by reader" `Quick
            test_deferred_writeback_blocked_by_reader;
        ] );
      ( "extension",
        [
          Alcotest.test_case "hidden consistent" `Quick
            test_hidden_clamped_and_consistent;
          Alcotest.test_case "TE never hurts" `Quick test_te_never_hurts;
          Alcotest.test_case "size bound" `Quick
            test_size_bound_blocks_extension;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "priorities" `Quick test_priorities_follow_order;
          Alcotest.test_case "orders same BTs" `Quick
            test_orders_cover_same_bts;
          Alcotest.test_case "hidden lookup" `Quick
            test_hidden_per_issue_lookup;
          Alcotest.test_case "total hidden" `Quick test_total_hidden_cycles;
          Alcotest.test_case "fetches before drains" `Quick
            test_plan_fetches_before_drains;
        ] );
    ]
