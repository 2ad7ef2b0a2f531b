module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Explore = Mhla_core.Explore
module Mapping = Mhla_core.Mapping
module Report = Mhla_core.Report
module Telemetry = Mhla_obs.Telemetry
module Error = Mhla_util.Error
module Json = Mhla_util.Json

type entry = {
  policy : Policy.t;
  result : Explore.result;
  objective : float;
  verify : Mhla_analysis.Verify.report option;
}

type outcome = { winner : entry; entrants : entry list }

let race ?(config = Assign.default_config) ?jobs
    ?(telemetry = Telemetry.noop) ?reuse ?checkpoint
    ?(verify_live = false) ?suppress ~policies program hierarchy =
  if policies = [] then
    Error.invalidf ~context:"Portfolio.race"
      ~hint:"name at least one policy (see Registry.names)"
      "cannot race an empty portfolio";
  Telemetry.span telemetry ~cat:"portfolio"
    ~args:(fun () ->
      [
        ( "policies",
          Telemetry.Str
            (String.concat ","
               (List.map (fun (p : Policy.t) -> p.Policy.name) policies)) );
      ])
    "portfolio.race"
  @@ fun () ->
  let reuse =
    match reuse with
    | Some _ as r -> r
    | None -> Some (Mapping.precompute program)
  in
  let entrant child (p : Policy.t) =
    Telemetry.span child ~cat:"portfolio"
      ~args:(fun () -> [ ("policy", Telemetry.Str p.Policy.name) ])
      "portfolio.entrant"
    @@ fun () ->
    let result =
      Policy.run ~config ~telemetry:child ?reuse ?checkpoint p program
        hierarchy
    in
    let verify =
      if verify_live then begin
        let report = Mhla_analysis.Verify.check_result ?suppress result in
        Mhla_analysis.Verify.require report;
        Some report
      end
      else None
    in
    {
      policy = p;
      result;
      objective = Cost.scalar config.Assign.objective result.Explore.after_te;
      verify;
    }
  in
  (* Entrants come back in field order whatever [jobs] is, and the fold
     keeps the earliest entry on ties — the winner is a pure function
     of the field, never of scheduling. *)
  let entrants =
    Mhla_util.Domain_pool.map_with ?jobs
      ~init:(fun i -> Telemetry.child telemetry ~tid:(i + 1))
      ~around:(fun child k ->
        Telemetry.span child ~cat:"portfolio" "portfolio.worker" k)
      ~finish:(Telemetry.merge_children telemetry)
      entrant policies
  in
  let winner =
    match entrants with
    | [] -> assert false
    | e :: rest ->
        List.fold_left
          (fun best c -> if c.objective < best.objective then c else best)
          e rest
  in
  Telemetry.instant telemetry ~cat:"portfolio"
    ~args:(fun () ->
      [
        ("winner", Telemetry.Str winner.policy.Policy.name);
        ("objective", Telemetry.Float winner.objective);
      ])
    "portfolio.winner";
  { winner; entrants }

let to_json ~id outcome =
  Json.obj
    [
      ("winner", Json.str outcome.winner.policy.Policy.name);
      ("objective", Json.float outcome.winner.objective);
      ( "entrants",
        Json.arr
          (List.map
             (fun e ->
               Json.obj
                 [
                   ("policy", Json.str e.policy.Policy.name);
                   ("objective", Json.float e.objective);
                 ])
             outcome.entrants) );
      ("result", Report.result_to_json ~name:id outcome.winner.result);
    ]
