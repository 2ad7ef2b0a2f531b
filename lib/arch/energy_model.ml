(* The model's constants; DESIGN.md §2 gives their provenance. *)

let sram_base_pj = 5.5

let sram_slope_pj = 2.0

let sram_write_factor = 1.1

let sram_bandwidth = 8

let sdram_access_pj = 24.0

let sdram_latency_cycles = 8

let sdram_bandwidth = 1

let sdram_burst_energy_factor = 0.45

let sram_read_energy_pj ~capacity_bytes =
  if capacity_bytes <= 0 then
    Mhla_util.Error.invalidf ~context:"Energy_model.sram_read_energy_pj"
      "non-positive capacity";
  sram_base_pj +. (sram_slope_pj *. sqrt (float_of_int capacity_bytes /. 1024.))

(* One cycle up to 8 KiB, plus one per quadrupling: the log-depth of the
   decoder/word-line tree. *)
let sram_latency_cycles ~capacity_bytes =
  if capacity_bytes <= 0 then
    Mhla_util.Error.invalidf ~context:"Energy_model.sram_latency_cycles"
      "non-positive capacity";
  let rec grow latency threshold =
    if capacity_bytes <= threshold then latency
    else grow (latency + 1) (threshold * 4)
  in
  grow 1 8192

let sram_layer ~name ~capacity_bytes =
  let read = sram_read_energy_pj ~capacity_bytes in
  Layer.make ~burst_energy_factor:1.0 ~name ~location:Layer.On_chip
    ~capacity_bytes:(Some capacity_bytes) ~read_energy_pj:read
    ~write_energy_pj:(read *. sram_write_factor)
    ~latency_cycles:(sram_latency_cycles ~capacity_bytes)
    ~bandwidth_bytes_per_cycle:sram_bandwidth

let sdram_layer ~name =
  Layer.make ~burst_energy_factor:sdram_burst_energy_factor ~name
    ~location:Layer.Off_chip ~capacity_bytes:None
    ~read_energy_pj:sdram_access_pj ~write_energy_pj:sdram_access_pj
    ~latency_cycles:sdram_latency_cycles
    ~bandwidth_bytes_per_cycle:sdram_bandwidth
