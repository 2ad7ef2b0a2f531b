let default_dma = Dma.make ~setup_cycles:10 ~setup_energy_pj:6.0 ~channels:2

let two_level ?(dma = true) ~onchip_bytes () =
  let layers =
    [ Energy_model.sram_layer ~name:"SP" ~capacity_bytes:onchip_bytes;
      Energy_model.sdram_layer ~name:"SDRAM" ]
  in
  if dma then Hierarchy.make ~dma:default_dma layers
  else Hierarchy.make layers

let three_level ?(dma = true) ~l1_bytes ~l2_bytes () =
  let layers =
    [ Energy_model.sram_layer ~name:"L1" ~capacity_bytes:l1_bytes;
      Energy_model.sram_layer ~name:"L2" ~capacity_bytes:l2_bytes;
      Energy_model.sdram_layer ~name:"SDRAM" ]
  in
  if dma then Hierarchy.make ~dma:default_dma layers
  else Hierarchy.make layers

let multi_level ?(dma = true) ~level_bytes () =
  if level_bytes = [] then
    Mhla_util.Error.invalidf ~context:"Presets.multi_level"
      ~hint:"give one byte budget per on-chip level"
      "no on-chip levels";
  let layers =
    List.mapi
      (fun i bytes ->
        Energy_model.sram_layer
          ~name:(Printf.sprintf "L%d" (i + 1))
          ~capacity_bytes:bytes)
      level_bytes
    @ [ Energy_model.sdram_layer ~name:"SDRAM" ]
  in
  if dma then Hierarchy.make ~dma:default_dma layers
  else Hierarchy.make layers

let budget_grid ~axes =
  if axes = [] then
    Mhla_util.Error.invalidf ~context:"Presets.budget_grid"
      "no axes (need one size list per on-chip level)";
  let axes =
    List.mapi
      (fun i axis ->
        if axis = [] then
          Mhla_util.Error.invalidf ~context:"Presets.budget_grid"
            "axis %d is empty" i;
        List.iter
          (fun b ->
            if b <= 0 then
              Mhla_util.Error.invalidf ~context:"Presets.budget_grid"
                "axis %d has a non-positive size %d" i b)
          axis;
        List.sort_uniq compare axis)
      axes
  in
  (* Canonical order: the first axis (level 0) varies slowest, each
     axis ascending — the order every consumer folds frontiers in. *)
  let rec product = function
    | [] -> [ [] ]
    | axis :: rest ->
      let tails = product rest in
      List.concat_map (fun v -> List.map (fun t -> v :: t) tails) axis
  in
  product axes

let sweep_sizes ~min_bytes ~max_bytes =
  if min_bytes <= 0 || max_bytes < min_bytes then
    Mhla_util.Error.invalidf ~context:"Presets.sweep_sizes"
      ~hint:"need 0 < min_bytes <= max_bytes" "bad bounds (min %d, max %d)"
      min_bytes max_bytes;
  let rec up acc size =
    if size > max_bytes then List.rev acc else up (size :: acc) (size * 2)
  in
  up [] min_bytes

let budget_axes ~levels ~min_bytes ~max_bytes =
  if levels <= 0 then
    Mhla_util.Error.invalidf ~context:"Presets.budget_axes"
      "need at least one level (got %d)" levels;
  let axis = sweep_sizes ~min_bytes ~max_bytes in
  List.init levels (fun _ -> axis)
