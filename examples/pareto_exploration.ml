(* Trade-off exploration: sweep the on-chip size for three applications
   and print the energy/size Pareto frontier - the "thorough trade-off
   exploration for different memory layer sizes" of the paper's
   abstract.

   Run with: dune exec examples/pareto_exploration.exe *)

module Cost = Mhla_core.Cost
module Explore = Mhla_core.Explore
module Pareto = Mhla_util.Pareto
module Report = Mhla_core.Report

let study name =
  let app = Mhla_apps.Registry.find_exn name in
  let program = Lazy.force app.Mhla_apps.Defs.program in
  let sizes = Mhla_arch.Presets.sweep_sizes ~min_bytes:128 ~max_bytes:8192 in
  let points = Explore.sweep ~sizes program in
  Printf.printf "\n=== %s ===\n" name;
  Mhla_util.Table.print (Report.sweep_table points);

  (* Interesting sizes only: the energy/size Pareto frontier. Bigger
     scratchpads capture more reuse but cost more per access, so the
     frontier has a genuine knee. *)
  let frontier =
    Pareto.Nd.of_list
      (List.map
         (fun (p : Explore.sweep_point) ->
           Pareto.Nd.point
             ~objectives:
               [| float_of_int p.Explore.onchip_bytes;
                  p.Explore.point_result.Explore.after_assign
                    .Cost.total_energy_pj |]
             p)
         points)
  in
  (* Lexicographic order over [| bytes; energy |]: by increasing size,
     so the last point has the lowest energy. *)
  let frontier = List.map Pareto.Nd.objectives (Pareto.Nd.to_list frontier) in
  Printf.printf "\nenergy/size Pareto frontier:\n";
  List.iter
    (fun v -> Printf.printf "  %6.0f B -> %12.0f pJ\n" v.(0) v.(1))
    frontier;
  match List.rev frontier with
  | best :: _ ->
    Printf.printf "sweet spot: %.0f B on-chip (%.0f pJ)\n" best.(0) best.(1)
  | [] -> ()

let main () =
  List.iter study [ "motion_estimation"; "cavity_detector"; "jpeg_encoder" ]

(* Structured-error guard: render Mhla_util.Error values with their
   context and hint, and exit with the error kind's code. *)
let () =
  match Mhla_util.Error.catch main with
  | Ok () -> ()
  | Error e ->
    prerr_endline (Mhla_util.Error.to_string e);
    exit (Mhla_util.Error.exit_code e)
