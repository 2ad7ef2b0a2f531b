(* Time Extensions deep dive: how freedom loops, the size constraint
   and the DMA engine shape what prefetching can hide.

   Builds a synthetic kernel where the interesting cases all occur:
   - an input array whose prefetch can extend across every loop,
   - an array written inside the nest (dependency-bound),
   - a platform without a DMA engine (TE not applicable).

   Run with: dune exec examples/prefetch_tuning.exe *)

module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Mapping = Mhla_core.Mapping
module Prefetch = Mhla_core.Prefetch

(* Phase 1 writes [work]; phase 2 streams [input] and re-reads [work]:
   input prefetches are free to extend, work prefetches race phase 2's
   own updates and cannot. *)
let kernel =
  let open Mhla_ir.Build in
  program "prefetch_lab"
    ~arrays:
      [ array "input" [ 64; 64 ]; array "work" [ 64; 64 ];
        array "out" [ 64; 64 ] ]
    [ loop "p" 64
        [ loop "q" 64
            [ stmt "prepare" ~work:6
                [ rd "input" [ i "p"; i "q" ]; wr "work" [ i "p"; i "q" ] ] ] ];
      loop "y" 64
        [ loop "x" 64
            [ stmt "combine" ~work:6
                [ rd "input" [ i "y"; i "x" ];
                  rd "work" [ i "y"; i "x" ];
                  wr "work" [ i "y"; i "x" ];
                  wr "out" [ i "y"; i "x" ] ] ] ] ]

let show_schedule title schedule =
  Printf.printf "\n--- %s ---\n" title;
  match schedule.Prefetch.plans with
  | [] -> print_endline "  (no DMA block transfers: TE not applicable)"
  | plans -> List.iter (fun p -> Fmt.pr "  %a@." Prefetch.pp_plan p) plans

let main () =
  let budget = 512 in
  let with_dma = Mhla_arch.Presets.two_level ~onchip_bytes:budget () in
  let mapping = (Assign.greedy kernel with_dma).Assign.mapping in

  Printf.printf "mapping chosen by step 1 (budget %dB):\n%s\n" budget
    (Fmt.str "%a" Mapping.pp mapping);

  (* The paper's greedy order... *)
  let te = Prefetch.run mapping in
  show_schedule "TE, time/size order (the paper's Figure 1)" te;
  Printf.printf "hidden cycles: %d\n" (Prefetch.total_hidden_cycles te);

  (* ...versus other orders: sort the same candidates, then plan. *)
  let candidates = Prefetch.candidates mapping in
  let largest_first key =
    List.stable_sort
      (fun (a : Prefetch.candidate) b -> Int.compare (key b) (key a))
      candidates
  in
  List.iter
    (fun (label, ordered) ->
      let te = Prefetch.plan mapping ordered in
      Printf.printf "%-18s -> %d hidden cycles\n" label
        (Prefetch.total_hidden_cycles te))
    [ ("FIFO", candidates);
      ("by size",
       largest_first (fun c -> c.Prefetch.bt.Mapping.bytes_per_issue));
      ("by time", largest_first (fun c -> c.Prefetch.bt_time)) ];

  (* Tightening the size constraint starves the extensions. *)
  let peak =
    Mhla_lifetime.Occupancy.peak_bytes Mhla_lifetime.Occupancy.In_place
      (Mapping.layer_blocks mapping ~level:0)
  in
  let tight =
    Mapping.with_hierarchy mapping
      (Mhla_arch.Presets.two_level ~onchip_bytes:(max 1 peak) ())
  in
  show_schedule
    (Printf.sprintf "TE with zero slack (capacity = peak = %dB)" peak)
    (Prefetch.run tight);

  (* No engine: the tool degrades to step 1 alone. *)
  let no_dma = Mhla_arch.Presets.two_level ~dma:false ~onchip_bytes:budget () in
  let mapping_no_dma = (Assign.greedy kernel no_dma).Assign.mapping in
  show_schedule "platform without a transfer engine"
    (Prefetch.run mapping_no_dma);

  (* The cycle effect of each variant. *)
  Printf.printf "\ncycles: no TE %d, TE %d, ideal %d\n"
    (Cost.evaluate mapping).Cost.total_cycles
    (Prefetch.evaluate mapping te).Cost.total_cycles
    (Cost.ideal mapping).Cost.total_cycles

(* Structured-error guard: render Mhla_util.Error values with their
   context and hint, and exit with the error kind's code. *)
let () =
  match Mhla_util.Error.catch main with
  | Ok () -> ()
  | Error e ->
    prerr_endline (Mhla_util.Error.to_string e);
    exit (Mhla_util.Error.exit_code e)
