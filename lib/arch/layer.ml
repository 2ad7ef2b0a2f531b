module Error = Mhla_util.Error

type location = On_chip | Off_chip

type t = {
  name : string;
  location : location;
  capacity_bytes : int option;
  read_energy_pj : float;
  write_energy_pj : float;
  latency_cycles : int;
  bandwidth_bytes_per_cycle : int;
  burst_energy_factor : float;
}

let make ~burst_energy_factor ~name ~location ~capacity_bytes
    ~read_energy_pj ~write_energy_pj ~latency_cycles
    ~bandwidth_bytes_per_cycle =
  let reject fmt = Error.invalidf ~context:"Layer.make" fmt in
  if name = "" then reject "empty name";
  (match capacity_bytes with
  | Some c when c <= 0 -> reject "non-positive capacity in %s" name
  | Some _ | None -> ());
  if read_energy_pj <= 0. || write_energy_pj <= 0. then
    reject "non-positive energy in %s" name;
  if latency_cycles <= 0 then reject "non-positive latency in %s" name;
  if bandwidth_bytes_per_cycle <= 0 then
    reject "non-positive bandwidth in %s" name;
  if burst_energy_factor <= 0. || burst_energy_factor > 1. then
    reject "burst energy factor out of (0,1] in %s" name;
  { name; location; capacity_bytes; read_energy_pj; write_energy_pj;
    latency_cycles; bandwidth_bytes_per_cycle; burst_energy_factor }

let burst_read_energy_pj t = t.read_energy_pj *. t.burst_energy_factor

let burst_write_energy_pj t = t.write_energy_pj *. t.burst_energy_factor

let pp ppf t =
  let pp_cap ppf = function
    | None -> Fmt.string ppf "unbounded"
    | Some c -> Fmt.pf ppf "%dB" c
  in
  Fmt.pf ppf "%s (%s, %a, rd %.1fpJ, wr %.1fpJ, lat %d, bw %dB/cyc)"
    t.name
    (match t.location with On_chip -> "on-chip" | Off_chip -> "off-chip")
    pp_cap t.capacity_bytes t.read_energy_pj t.write_energy_pj
    t.latency_cycles t.bandwidth_bytes_per_cycle
