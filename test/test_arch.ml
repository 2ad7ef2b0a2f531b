(* Tests for the platform model: layers, DMA, energy model, hierarchies
   and presets. *)

module Layer = Mhla_arch.Layer

let invalid ?hint context message =
  Mhla_util.Error.(Error (make ?hint Invalid_input ~context message))

module Dma = Mhla_arch.Dma
module Energy_model = Mhla_arch.Energy_model
module Hierarchy = Mhla_arch.Hierarchy
module Presets = Mhla_arch.Presets

let sram ?(capacity = 1024) name =
  Energy_model.sram_layer ~name ~capacity_bytes:capacity

let sdram name = Energy_model.sdram_layer ~name

(* --- Layer ------------------------------------------------------------ *)

let test_layer_validation () =
  let mk ?(burst = 1.0) ?(cap = Some 64) ?(rd = 1.) ?(wr = 1.) ?(lat = 1)
      ?(bw = 1) () =
    ignore
      (Layer.make ~burst_energy_factor:burst ~name:"l"
         ~location:Layer.On_chip ~capacity_bytes:cap ~read_energy_pj:rd
         ~write_energy_pj:wr ~latency_cycles:lat ~bandwidth_bytes_per_cycle:bw)
  in
  Alcotest.check_raises "zero capacity"
    (invalid "Layer.make" "non-positive capacity in l") (fun () ->
      mk ~cap:(Some 0) ());
  Alcotest.check_raises "zero energy"
    (invalid "Layer.make" "non-positive energy in l") (fun () ->
      mk ~rd:0. ());
  Alcotest.check_raises "zero latency"
    (invalid "Layer.make" "non-positive latency in l") (fun () ->
      mk ~lat:0 ());
  Alcotest.check_raises "zero bandwidth"
    (invalid "Layer.make" "non-positive bandwidth in l") (fun () ->
      mk ~bw:0 ());
  Alcotest.check_raises "burst factor > 1"
    (invalid "Layer.make" "burst energy factor out of (0,1] in l")
    (fun () -> mk ~burst:1.5 ())

let test_layer_energy_and_cycles () =
  let l =
    Layer.make ~burst_energy_factor:0.5 ~name:"l" ~location:Layer.Off_chip
      ~capacity_bytes:None ~read_energy_pj:10. ~write_energy_pj:20.
      ~latency_cycles:4 ~bandwidth_bytes_per_cycle:4
  in
  Alcotest.(check (float 1e-9)) "burst read" 5. (Layer.burst_read_energy_pj l);
  Alcotest.(check (float 1e-9)) "burst write" 10.
    (Layer.burst_write_energy_pj l)

(* --- Dma -------------------------------------------------------------- *)

let test_dma_validation () =
  Alcotest.check_raises "negative setup"
    (invalid "Dma.make" "negative setup cycles") (fun () ->
      ignore (Dma.make ~setup_cycles:(-1) ~setup_energy_pj:0. ~channels:1));
  Alcotest.check_raises "zero channels"
    (invalid "Dma.make" "non-positive channel count") (fun () ->
      ignore (Dma.make ~setup_cycles:0 ~setup_energy_pj:0. ~channels:0))

(* --- Energy model ----------------------------------------------------- *)

let test_energy_monotone_in_capacity () =
  let e c = Energy_model.sram_read_energy_pj ~capacity_bytes:c in
  Alcotest.(check bool) "bigger SRAM costs more" true (e 4096 > e 512);
  Alcotest.(check bool) "strictly increasing" true
    (List.for_all2 ( < )
       (List.map e [ 256; 1024; 4096; 16384 ])
       (List.map e [ 512; 2048; 8192; 32768 ]))

let test_latency_steps () =
  let l c = Energy_model.sram_latency_cycles ~capacity_bytes:c in
  Alcotest.(check int) "small is 1 cycle" 1 (l 8192);
  Alcotest.(check int) "one step up" 2 (l 8193);
  Alcotest.(check int) "32k" 2 (l 32768);
  Alcotest.(check int) "128k" 3 (l (128 * 1024));
  Alcotest.(check bool) "monotone" true (l 1024 <= l 65536)

let test_energy_model_rejects_bad_capacity () =
  Alcotest.check_raises "zero"
    (invalid "Energy_model.sram_read_energy_pj" "non-positive capacity")
    (fun () -> ignore (Energy_model.sram_read_energy_pj ~capacity_bytes:0))

let test_sdram_layer_shape () =
  let l = sdram "mm" in
  Alcotest.(check bool) "off-chip" true (l.Layer.location = Layer.Off_chip);
  Alcotest.(check bool) "unbounded" true (l.Layer.capacity_bytes = None);
  Alcotest.(check bool) "burst cheaper than random" true
    (Layer.burst_read_energy_pj l < l.Layer.read_energy_pj)

let test_offchip_vs_onchip_ratio () =
  (* The paper's gains rest on a meaningful cost gap between layers. *)
  let on = sram ~capacity:1024 "sp" in
  let off = sdram "mm" in
  Alcotest.(check bool) "energy gap" true
    (off.Layer.read_energy_pj > 2. *. on.Layer.read_energy_pj);
  Alcotest.(check bool) "latency gap" true
    (off.Layer.latency_cycles > 2 * on.Layer.latency_cycles)

(* --- Hierarchy --------------------------------------------------------- *)

let test_hierarchy_shape_validation () =
  Alcotest.check_raises "empty" (invalid "Hierarchy.make" "no layers")
    (fun () -> ignore (Hierarchy.make []));
  Alcotest.check_raises "bounded last"
    (invalid "Hierarchy.make" "last layer sp must be unbounded")
    (fun () -> ignore (Hierarchy.make [ sram "sp" ]));
  Alcotest.check_raises "unbounded inner"
    (invalid "Hierarchy.make" "inner layer mm0 must be bounded")
    (fun () -> ignore (Hierarchy.make [ sdram "mm0"; sdram "mm" ]))

let test_hierarchy_accessors () =
  let h = Hierarchy.make [ sram "l1"; sram "l2"; sdram "mm" ] in
  Alcotest.(check int) "levels" 3 (Hierarchy.levels h);
  Alcotest.(check int) "main level" 2 (Hierarchy.main_memory_level h);
  Alcotest.(check (list int)) "on-chip levels" [ 0; 1 ]
    (Hierarchy.on_chip_levels h);
  Alcotest.(check string) "layer 1" "l2" (Hierarchy.layer h 1).Layer.name;
  Alcotest.check_raises "out of range"
    (invalid "Hierarchy.layer" "no level 9") (fun () ->
      ignore (Hierarchy.layer h 9))

let test_hierarchy_dma () =
  let h = Hierarchy.make [ sram "sp"; sdram "mm" ] in
  Alcotest.(check bool) "no dma" false (Hierarchy.has_dma h);
  Alcotest.check_raises "dma_exn"
    (invalid "Hierarchy.dma_exn"
       ~hint:"build the platform with a DMA engine or guard with has_dma"
       "platform has no DMA engine")
    (fun () -> ignore (Hierarchy.dma_exn h));
  let h =
    Hierarchy.make ~dma:Presets.default_dma [ sram "sp"; sdram "mm" ]
  in
  Alcotest.(check bool) "dma present" true (Hierarchy.has_dma h);
  Alcotest.(check bool) "dma_exn returns it" true
    (Hierarchy.dma_exn h == Presets.default_dma)

(* --- Presets ---------------------------------------------------------- *)

let test_presets_two_level () =
  let h = Presets.two_level ~onchip_bytes:2048 () in
  Alcotest.(check int) "levels" 2 (Hierarchy.levels h);
  Alcotest.(check bool) "has dma" true (Hierarchy.has_dma h);
  Alcotest.(check (option int)) "capacity" (Some 2048)
    (Hierarchy.layer h 0).Layer.capacity_bytes;
  let h = Presets.two_level ~dma:false ~onchip_bytes:2048 () in
  Alcotest.(check bool) "dma off" false (Hierarchy.has_dma h)

let test_presets_three_level () =
  let h = Presets.three_level ~l1_bytes:512 ~l2_bytes:8192 () in
  Alcotest.(check int) "levels" 3 (Hierarchy.levels h);
  Alcotest.(check bool) "L1 cheaper than L2" true
    ((Hierarchy.layer h 0).Layer.read_energy_pj
    < (Hierarchy.layer h 1).Layer.read_energy_pj)

let test_presets_multi_level () =
  let h = Presets.multi_level ~level_bytes:[ 512; 4096; 32768 ] () in
  Alcotest.(check int) "levels" 4 (Hierarchy.levels h);
  Alcotest.(check bool) "has dma" true (Hierarchy.has_dma h);
  Alcotest.(check (list int)) "on-chip levels" [ 0; 1; 2 ]
    (Hierarchy.on_chip_levels h);
  Alcotest.(check (list string)) "layer names"
    [ "L1"; "L2"; "L3"; "SDRAM" ]
    (List.map
       (fun l -> (Hierarchy.layer h l).Layer.name)
       [ 0; 1; 2; 3 ]);
  Alcotest.(check (list (option int))) "capacities"
    [ Some 512; Some 4096; Some 32768; None ]
    (List.map
       (fun l -> (Hierarchy.layer h l).Layer.capacity_bytes)
       [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "inner levels cost less" true
    ((Hierarchy.layer h 0).Layer.read_energy_pj
    < (Hierarchy.layer h 2).Layer.read_energy_pj);
  let no_dma = Presets.multi_level ~dma:false ~level_bytes:[ 512 ] () in
  Alcotest.(check bool) "dma off" false (Hierarchy.has_dma no_dma);
  Alcotest.check_raises "empty levels"
    (invalid "Presets.multi_level"
       ~hint:"give one byte budget per on-chip level" "no on-chip levels")
    (fun () -> ignore (Presets.multi_level ~level_bytes:[] ()))

let test_presets_budget_grid () =
  Alcotest.(check (list (list int))) "first axis varies slowest"
    [ [ 1; 10 ]; [ 1; 20 ]; [ 2; 10 ]; [ 2; 20 ] ]
    (Presets.budget_grid ~axes:[ [ 1; 2 ]; [ 10; 20 ] ]);
  Alcotest.(check (list (list int))) "axes dedupe and sort"
    [ [ 1 ]; [ 2 ] ]
    (Presets.budget_grid ~axes:[ [ 2; 1; 2 ] ]);
  Alcotest.check_raises "no axes"
    (invalid "Presets.budget_grid"
       "no axes (need one size list per on-chip level)") (fun () ->
      ignore (Presets.budget_grid ~axes:[]));
  Alcotest.check_raises "empty axis"
    (invalid "Presets.budget_grid" "axis 1 is empty") (fun () ->
      ignore (Presets.budget_grid ~axes:[ [ 1 ]; [] ]));
  Alcotest.check_raises "non-positive size"
    (invalid "Presets.budget_grid" "axis 0 has a non-positive size 0")
    (fun () -> ignore (Presets.budget_grid ~axes:[ [ 0; 1 ] ]))

let test_presets_budget_axes () =
  Alcotest.(check (list (list int))) "levels copies of the ladder"
    [ [ 256; 512 ]; [ 256; 512 ] ]
    (Presets.budget_axes ~levels:2 ~min_bytes:256 ~max_bytes:512);
  Alcotest.check_raises "zero levels"
    (invalid "Presets.budget_axes" "need at least one level (got 0)")
    (fun () ->
      ignore (Presets.budget_axes ~levels:0 ~min_bytes:256 ~max_bytes:512))

let test_presets_sweep_sizes () =
  Alcotest.(check (list int)) "powers of two"
    [ 256; 512; 1024; 2048 ]
    (Presets.sweep_sizes ~min_bytes:256 ~max_bytes:2048);
  Alcotest.(check (list int)) "single" [ 100 ]
    (Presets.sweep_sizes ~min_bytes:100 ~max_bytes:150);
  Alcotest.check_raises "bad bounds"
    (invalid "Presets.sweep_sizes" ~hint:"need 0 < min_bytes <= max_bytes"
       "bad bounds (min 10, max 5)") (fun () ->
      ignore (Presets.sweep_sizes ~min_bytes:10 ~max_bytes:5))

let () =
  Alcotest.run "arch"
    [
      ( "layer",
        [
          Alcotest.test_case "validation" `Quick test_layer_validation;
          Alcotest.test_case "energy and cycles" `Quick
            test_layer_energy_and_cycles;
        ] );
      ("dma", [ Alcotest.test_case "validation" `Quick test_dma_validation ]);
      ( "energy-model",
        [
          Alcotest.test_case "monotone energy" `Quick
            test_energy_monotone_in_capacity;
          Alcotest.test_case "latency steps" `Quick test_latency_steps;
          Alcotest.test_case "bad capacity" `Quick
            test_energy_model_rejects_bad_capacity;
          Alcotest.test_case "sdram shape" `Quick test_sdram_layer_shape;
          Alcotest.test_case "cost ratios" `Quick
            test_offchip_vs_onchip_ratio;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "shape validation" `Quick
            test_hierarchy_shape_validation;
          Alcotest.test_case "accessors" `Quick test_hierarchy_accessors;
          Alcotest.test_case "dma" `Quick test_hierarchy_dma;
        ] );
      ( "presets",
        [
          Alcotest.test_case "two level" `Quick test_presets_two_level;
          Alcotest.test_case "three level" `Quick test_presets_three_level;
          Alcotest.test_case "multi level" `Quick test_presets_multi_level;
          Alcotest.test_case "budget grid" `Quick test_presets_budget_grid;
          Alcotest.test_case "budget axes" `Quick test_presets_budget_axes;
          Alcotest.test_case "sweep sizes" `Quick test_presets_sweep_sizes;
        ] );
    ]
