(* Hand-computed checks of the analytic cost engine on a platform with
   round numbers. *)

let invalid ?hint context message =
  Mhla_util.Error.(Error (make ?hint Invalid_input ~context message))

module Build = Mhla_ir.Build
module Layer = Mhla_arch.Layer
module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Mapping = Mhla_core.Mapping
module Cost = Mhla_core.Cost

(* On-chip: rd 2, wr 3 pJ, 1 cycle, 8 B/cyc. Off-chip: rd/wr 10 pJ
   (burst halves it), 5 cycles, 2 B/cyc. DMA: 4 cycles, 2 pJ. *)
let platform ?(dma = true) () =
  let on =
    Layer.make ~burst_energy_factor:1.0 ~name:"sp" ~location:Layer.On_chip
      ~capacity_bytes:(Some 1024) ~read_energy_pj:2. ~write_energy_pj:3.
      ~latency_cycles:1 ~bandwidth_bytes_per_cycle:8
  in
  let off =
    Layer.make ~burst_energy_factor:0.5 ~name:"mm" ~location:Layer.Off_chip
      ~capacity_bytes:None ~read_energy_pj:10. ~write_energy_pj:10.
      ~latency_cycles:5 ~bandwidth_bytes_per_cycle:2
  in
  let dma =
    if dma then
      Some (Mhla_arch.Dma.make ~setup_cycles:4 ~setup_energy_pj:2. ~channels:1)
    else None
  in
  Mhla_arch.Hierarchy.make ?dma [ on; off ]

(* for i in 0..9: s reads a[i], 3 compute cycles. *)
let stream () =
  let open Build in
  program "stream"
    ~arrays:[ array "a" [ 10 ] ]
    [ loop "i" 10 [ stmt "s" ~work:3 [ rd "a" [ i "i" ] ] ] ]

let r0 = { Analysis.stmt = "s"; index = 0 }

let copied () =
  let m = Mapping.direct (stream ()) (platform ()) in
  let c0 =
    List.find
      (fun (c : Candidate.t) -> c.Candidate.level = 0)
      (match Analysis.find m.Mapping.infos r0 with
      | Some i -> i.Analysis.candidates
      | None -> Alcotest.fail "access")
  in
  Mapping.with_placement m r0
    (Mapping.Chain [ { Mapping.candidate = c0; layer = 0 } ])

let test_baseline_breakdown () =
  let b = Cost.evaluate (Mapping.direct (stream ()) (platform ())) in
  Alcotest.(check int) "compute" 30 b.Cost.compute_cycles;
  Alcotest.(check int) "access stalls: 10 x 5" 50 b.Cost.access_stall_cycles;
  Alcotest.(check int) "no transfers" 0 b.Cost.transfer_stall_cycles;
  Alcotest.(check int) "no dma" 0 b.Cost.dma_setup_cycles;
  Alcotest.(check int) "total" 80 b.Cost.total_cycles;
  Alcotest.(check (float 1e-9)) "energy: 10 reads x 10 pJ" 100.
    b.Cost.total_energy_pj

let test_copied_breakdown () =
  let b = Cost.evaluate (copied ()) in
  Alcotest.(check int) "compute" 30 b.Cost.compute_cycles;
  Alcotest.(check int) "access stalls: 10 x 1" 10 b.Cost.access_stall_cycles;
  (* One 10-byte transfer: 5 latency + ceil(10/2) burst. *)
  Alcotest.(check int) "transfer stall" 10 b.Cost.transfer_stall_cycles;
  Alcotest.(check int) "dma setup" 4 b.Cost.dma_setup_cycles;
  Alcotest.(check int) "total" 54 b.Cost.total_cycles;
  (* Access: 10 x 2 = 20. Transfer: 10 elems x (10*0.5 + 3) = 80.
     DMA: 2. *)
  Alcotest.(check (float 1e-9)) "access energy" 20. b.Cost.access_energy_pj;
  Alcotest.(check (float 1e-9)) "transfer energy" 80.
    b.Cost.transfer_energy_pj;
  Alcotest.(check (float 1e-9)) "dma energy" 2. b.Cost.dma_energy_pj;
  Alcotest.(check (float 1e-9)) "total energy" 102. b.Cost.total_energy_pj

let test_bt_cycles_per_issue () =
  let m = copied () in
  match Mapping.block_transfers m with
  | [ bt ] ->
    Alcotest.(check int) "latency + burst" 10 (Cost.bt_cycles_per_issue m bt)
  | _ -> Alcotest.fail "expected one BT"

let test_hiding_clamps () =
  let m = copied () in
  let eval hidden =
    (Cost.evaluate ~hidden_per_issue:(fun _ -> hidden) m).Cost.total_cycles
  in
  Alcotest.(check int) "no hiding" 54 (eval 0);
  Alcotest.(check int) "partial hiding" 48 (eval 6);
  Alcotest.(check int) "clamped to the issue time" 44 (eval 1_000_000);
  Alcotest.(check int) "negative hiding ignored" 54 (eval (-5));
  Alcotest.(check int) "ideal" 44 (Cost.ideal m).Cost.total_cycles

let test_energy_unaffected_by_hiding () =
  let m = copied () in
  let e hidden =
    (Cost.evaluate ~hidden_per_issue:(fun _ -> hidden) m).Cost.total_energy_pj
  in
  Alcotest.(check (float 1e-9)) "TE leaves energy unchanged" (e 0) (e 1000)

let test_loop_iteration_cycles () =
  let direct = Mapping.direct (stream ()) (platform ()) in
  Alcotest.(check int) "direct: work 3 + off-chip 5" 8
    (Cost.loop_iteration_cycles direct ~iter:"i");
  Alcotest.(check int) "copied: work 3 + on-chip 1" 4
    (Cost.loop_iteration_cycles (copied ()) ~iter:"i");
  Alcotest.check_raises "unknown iterator"
    (invalid "Cost.loop_iteration_cycles" "unknown iterator zzz")
    (fun () -> ignore (Cost.loop_iteration_cycles direct ~iter:"zzz"))

let test_loop_iteration_cycles_nested () =
  let open Build in
  let p =
    program "nested"
      ~arrays:[ array "a" [ 8 ] ]
      [ loop "o" 4
          [ loop "n" 8 [ stmt "s" ~work:2 [ rd "a" [ i "n" ] ] ];
            stmt "t" ~work:5 [] ] ]
  in
  let m = Mapping.direct p (platform ()) in
  (* One o-iteration: 8 x (2 + 5) inner + (5 + 0 accesses). *)
  Alcotest.(check int) "outer iteration" 61
    (Cost.loop_iteration_cycles m ~iter:"o");
  Alcotest.(check int) "inner iteration" 7
    (Cost.loop_iteration_cycles m ~iter:"n")

let test_scalar_objectives () =
  let b = Cost.evaluate (copied ()) in
  Alcotest.(check (float 1e-9)) "energy" 102. (Cost.scalar Cost.Energy b);
  Alcotest.(check (float 1e-9)) "cycles" 54. (Cost.scalar Cost.Cycles b);
  Alcotest.(check (float 1e-9)) "edp" (102. *. 54.)
    (Cost.scalar Cost.Energy_delay b)

let test_no_dma_platform () =
  let h = platform ~dma:false () in
  let m = Mapping.direct (stream ()) h in
  let c0 =
    List.find
      (fun (c : Candidate.t) -> c.Candidate.level = 0)
      (match Analysis.find m.Mapping.infos r0 with
      | Some i -> i.Analysis.candidates
      | None -> Alcotest.fail "access")
  in
  let m =
    Mapping.with_placement m r0
      (Mapping.Chain [ { Mapping.candidate = c0; layer = 0 } ])
  in
  let b = Cost.evaluate m in
  Alcotest.(check int) "no setup cycles without DMA" 0
    b.Cost.dma_setup_cycles;
  Alcotest.(check (float 1e-9)) "no dma energy" 0. b.Cost.dma_energy_pj;
  Alcotest.(check int) "transfer still stalls" 10
    b.Cost.transfer_stall_cycles

let prop_hiding_monotone =
  QCheck2.Test.make ~name:"cost: more hiding never increases cycles"
    ~count:100
    QCheck2.Gen.(pair (int_range 0 20) (int_range 0 20))
    (fun (h1, h2) ->
      let lo = min h1 h2 and hi = max h1 h2 in
      let m = copied () in
      (Cost.evaluate ~hidden_per_issue:(fun _ -> hi) m).Cost.total_cycles
      <= (Cost.evaluate ~hidden_per_issue:(fun _ -> lo) m).Cost.total_cycles)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "cost"
    [
      ( "breakdown",
        [
          Alcotest.test_case "baseline" `Quick test_baseline_breakdown;
          Alcotest.test_case "copied" `Quick test_copied_breakdown;
          Alcotest.test_case "bt cycles" `Quick test_bt_cycles_per_issue;
          Alcotest.test_case "no dma" `Quick test_no_dma_platform;
        ] );
      ( "hiding",
        [
          Alcotest.test_case "clamps" `Quick test_hiding_clamps;
          Alcotest.test_case "energy invariant" `Quick
            test_energy_unaffected_by_hiding;
          qc prop_hiding_monotone;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "loop iteration cycles" `Quick
            test_loop_iteration_cycles;
          Alcotest.test_case "nested loop cycles" `Quick
            test_loop_iteration_cycles_nested;
          Alcotest.test_case "objectives" `Quick test_scalar_objectives;
        ] );
    ]
