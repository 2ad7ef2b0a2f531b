(* Tests for the program-order timeline and in-place occupancy. *)

module Build = Mhla_ir.Build
module Interval = Mhla_util.Interval
module Schedule = Mhla_lifetime.Schedule
module Occupancy = Mhla_lifetime.Occupancy
module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate

(* Two sequential phases sharing one input, like the cavity detector:
   slots: produce(0), consume(1), final(2). *)
let phased () =
  let open Build in
  program "phased"
    ~arrays:[ array "src" [ 4 ]; array "mid" [ 4 ]; array "dst" [ 4 ] ]
    [ loop "i" 4
        [ stmt "produce" [ rd "src" [ i "i" ]; wr "mid" [ i "i" ] ] ];
      loop "j" 4
        [ stmt "consume" [ rd "mid" [ i "j" ]; wr "dst" [ i "j" ] ] ];
      stmt "final" [ rd "dst" [ c 0 ] ] ]

let iv lo hi = Interval.make ~lo ~hi

let interval = Alcotest.testable Interval.pp ( = )

let test_schedule_slots () =
  let p = phased () in
  let s = Schedule.of_program p in
  Alcotest.(check int) "horizon" 3 (Schedule.horizon s);
  Alcotest.check interval "produce slot" (iv 0 1)
    (Schedule.stmt_interval s "produce");
  Alcotest.check interval "consume slot" (iv 1 2)
    (Schedule.stmt_interval s "consume");
  Alcotest.check interval "final slot" (iv 2 3)
    (Schedule.stmt_interval s "final");
  Alcotest.check interval "loop i" (iv 0 1) (Schedule.loop_interval s "i");
  Alcotest.check interval "loop j" (iv 1 2) (Schedule.loop_interval s "j")

let test_schedule_unknown_raises () =
  let s = Schedule.of_program (phased ()) in
  Alcotest.check_raises "unknown stmt" Not_found (fun () ->
      ignore (Schedule.stmt_interval s "zzz"));
  Alcotest.check_raises "unknown loop" Not_found (fun () ->
      ignore (Schedule.loop_interval s "zzz"))

let test_array_intervals () =
  let p = phased () in
  let s = Schedule.of_program p in
  Alcotest.check interval "src only in phase 1" (iv 0 1)
    (Schedule.array_interval s "src");
  Alcotest.check interval "mid spans both phases" (iv 0 2)
    (Schedule.array_interval s "mid");
  Alcotest.check interval "dst spans phase 2 and final" (iv 1 3)
    (Schedule.array_interval s "dst")

let test_nested_loop_intervals () =
  let open Build in
  let p =
    program "nested"
      ~arrays:[ array "a" [ 4 ] ]
      [ loop "o" 2
          [ loop "i1" 2 [ stmt "s1" [ rd "a" [ i "i1" ] ] ];
            loop "i2" 2 [ stmt "s2" [ rd "a" [ i "i2" ] ] ] ] ]
  in
  let s = Schedule.of_program p in
  Alcotest.check interval "outer covers both" (iv 0 2)
    (Schedule.loop_interval s "o");
  Alcotest.check interval "first inner" (iv 0 1)
    (Schedule.loop_interval s "i1");
  Alcotest.check interval "second inner" (iv 1 2)
    (Schedule.loop_interval s "i2")

let test_candidate_intervals () =
  let open Build in
  let p =
    program "cc"
      ~arrays:[ array "a" [ 16 ] ]
      [ loop "o" 4 [ loop "n" 4 [ stmt "s" [ rd "a" [ i "o" +$ i "n" ] ] ] ];
        stmt "tail" [ rd "a" [ c 0 ] ] ]
  in
  let s = Schedule.of_program p in
  let infos = Analysis.analyze p in
  let info = List.hd infos in
  let at level =
    List.find
      (fun (c : Candidate.t) -> c.Candidate.level = level)
      info.Analysis.candidates
  in
  (* Level 0 (hoisted) and level 1 (refresh o) live across the whole
     nest; the tail statement's level-0 candidate is unnested: one
     slot. *)
  Alcotest.check interval "level 0 covers the nest" (iv 0 1)
    (Schedule.candidate_interval s (at 0));
  Alcotest.check interval "level 1 covers loop o" (iv 0 1)
    (Schedule.candidate_interval s (at 1));
  let tail_info =
    match Analysis.find infos { Analysis.stmt = "tail"; index = 0 } with
    | Some i -> i
    | None -> Alcotest.fail "tail access"
  in
  let tail_c0 = List.hd tail_info.Analysis.candidates in
  Alcotest.check interval "unnested candidate" (iv 1 2)
    (Schedule.candidate_interval s tail_c0)

(* --- Occupancy -------------------------------------------------------- *)

let block label lo hi bytes = { Occupancy.label; interval = iv lo hi; bytes }

let test_occupancy_policies () =
  let blocks = [ block "a" 0 2 100; block "b" 2 4 80; block "c" 3 5 50 ] in
  Alcotest.(check int) "sum" 230 (Occupancy.peak_bytes Occupancy.Sum blocks);
  (* a alone, then b, then b+c. *)
  Alcotest.(check int) "in-place peak" 130
    (Occupancy.peak_bytes Occupancy.In_place blocks);
  Alcotest.(check bool) "fits in-place" true
    (Occupancy.fits Occupancy.In_place ~capacity:130 blocks);
  Alcotest.(check bool) "does not fit summed" false
    (Occupancy.fits Occupancy.Sum ~capacity:130 blocks)

let test_occupancy_empty_interval_still_charged () =
  let blocks = [ block "ghost" 3 3 64 ] in
  Alcotest.(check int) "widened to one slot" 64
    (Occupancy.peak_bytes Occupancy.In_place blocks)

let test_occupancy_empty_set () =
  Alcotest.(check int) "no blocks" 0
    (Occupancy.peak_bytes Occupancy.In_place []);
  Alcotest.(check bool) "fits trivially" true
    (Occupancy.fits Occupancy.In_place ~capacity:0 [])

let prop_in_place_never_exceeds_sum =
  QCheck2.Test.make ~name:"occupancy: in-place <= sum" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 15)
        (map3
           (fun lo len bytes -> block "b" lo (lo + len) bytes)
           (int_range 0 20) (int_range 0 8) (int_range 1 100)))
    (fun blocks ->
      Occupancy.peak_bytes Occupancy.In_place blocks
      <= Occupancy.peak_bytes Occupancy.Sum blocks)

let prop_in_place_at_least_largest =
  QCheck2.Test.make ~name:"occupancy: in-place >= largest block" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 15)
        (map3
           (fun lo len bytes -> block "b" lo (lo + len) bytes)
           (int_range 0 20) (int_range 0 8) (int_range 1 100)))
    (fun blocks ->
      let largest =
        List.fold_left (fun acc b -> max acc b.Occupancy.bytes) 0 blocks
      in
      Occupancy.peak_bytes Occupancy.In_place blocks >= largest)

(* --- allocator ---------------------------------------------------------- *)

module Allocator = Mhla_lifetime.Allocator

let allocate ~capacity blocks =
  match Allocator.allocate ~capacity blocks with
  | Ok alloc -> alloc
  | Error msg -> Alcotest.fail msg

let offset alloc label =
  List.find_map
    (fun (p : Allocator.placement) ->
      if p.Allocator.block.Occupancy.label = label then Some p.Allocator.offset
      else None)
    alloc.Allocator.placements

let test_allocator_disjoint_lifetimes_share_addresses () =
  let blocks = [ block "a" 0 2 100; block "b" 2 4 100 ] in
  let alloc = allocate ~capacity:100 blocks in
  Alcotest.(check (option int)) "a at 0" (Some 0)
    (offset alloc "a");
  Alcotest.(check (option int)) "b overlays a" (Some 0)
    (offset alloc "b");
  Alcotest.(check int) "high water = one block" 100
    alloc.Allocator.high_water_bytes;
  Alcotest.(check int) "no conflicts" 0
    (List.length (Allocator.conflicts alloc))

let test_allocator_concurrent_blocks_stack () =
  let blocks = [ block "a" 0 4 60; block "b" 1 3 40 ] in
  let alloc = allocate ~capacity:100 blocks in
  Alcotest.(check int) "stacked high water" 100
    alloc.Allocator.high_water_bytes;
  Alcotest.(check int) "no conflicts" 0
    (List.length (Allocator.conflicts alloc))

let test_allocator_rejects_oversized () =
  match Allocator.allocate ~capacity:50 [ block "big" 0 1 60 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let test_allocator_rejects_overflow () =
  match
    Allocator.allocate ~capacity:100
      [ block "a" 0 2 60; block "b" 1 3 60 ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let test_allocator_utilisation () =
  let alloc =
    allocate ~capacity:100
      [ block "a" 0 2 50; block "b" 2 4 50 ]
  in
  Alcotest.(check (float 1e-9)) "perfect overlay" 1.
    (Allocator.utilisation alloc)

let allocator_blocks_gen =
  QCheck2.Gen.(
    list_size (int_range 1 12)
      (map3
         (fun lo len bytes ->
           block (Printf.sprintf "b%d%d%d" lo len bytes) lo (lo + len) bytes)
         (int_range 0 10) (int_range 0 5) (int_range 1 60)))

let prop_allocator_no_conflicts =
  QCheck2.Test.make
    ~name:"allocator: placements never conflict in time and space"
    ~count:300 allocator_blocks_gen (fun blocks ->
      match Allocator.allocate ~capacity:100000 blocks with
      | Error _ -> false (* huge capacity must always fit *)
      | Ok alloc -> Allocator.conflicts alloc = [])

let prop_allocator_high_water_bounds =
  QCheck2.Test.make
    ~name:"allocator: peak <= high water <= sum" ~count:300
    allocator_blocks_gen (fun blocks ->
      match Allocator.allocate ~capacity:100000 blocks with
      | Error _ -> false
      | Ok alloc ->
        let peak = Occupancy.peak_bytes Occupancy.In_place blocks in
        let total = Occupancy.peak_bytes Occupancy.Sum blocks in
        peak <= alloc.Allocator.high_water_bytes
        && alloc.Allocator.high_water_bytes <= total)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "lifetime"
    [
      ( "schedule",
        [
          Alcotest.test_case "slots" `Quick test_schedule_slots;
          Alcotest.test_case "unknown raises" `Quick
            test_schedule_unknown_raises;
          Alcotest.test_case "array intervals" `Quick test_array_intervals;
          Alcotest.test_case "nested loops" `Quick test_nested_loop_intervals;
          Alcotest.test_case "candidate intervals" `Quick
            test_candidate_intervals;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "policies" `Quick test_occupancy_policies;
          Alcotest.test_case "empty interval charged" `Quick
            test_occupancy_empty_interval_still_charged;
          Alcotest.test_case "empty set" `Quick test_occupancy_empty_set;
          qc prop_in_place_never_exceeds_sum;
          qc prop_in_place_at_least_largest;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "disjoint lifetimes overlay" `Quick
            test_allocator_disjoint_lifetimes_share_addresses;
          Alcotest.test_case "concurrent blocks stack" `Quick
            test_allocator_concurrent_blocks_stack;
          Alcotest.test_case "oversized rejected" `Quick
            test_allocator_rejects_oversized;
          Alcotest.test_case "overflow rejected" `Quick
            test_allocator_rejects_overflow;
          Alcotest.test_case "utilisation" `Quick test_allocator_utilisation;
          qc prop_allocator_no_conflicts;
          qc prop_allocator_high_water_bounds;
        ] );
    ]
