module Error = Mhla_util.Error
module Json = Mhla_util.Json
module Telemetry = Mhla_obs.Telemetry

let passes =
  [
    Bounds.pass;
    Dma_race.pass;
    Capacity.pass;
    Interference.pass;
    Determinism.pass;
    Lints.pass;
  ]

let pass_names = List.map (fun (p : Pass.t) -> p.Pass.name) passes

type report = {
  subject : string;
  diagnostics : Diagnostic.t list;
  passes_run : string list;
  suppressed : int;
}

(* Total order, exact duplicates collapsed: two passes proving the same
   fact from the same evidence is one finding. Byte-stable whatever
   order (or parallelism) produced the input. *)
let normalize diagnostics =
  let sorted = List.sort Diagnostic.compare_for_report diagnostics in
  let rec dedupe = function
    | a :: (b :: _ as rest) ->
      if Diagnostic.compare_for_report a b = 0 then dedupe rest
      else a :: dedupe rest
    | tail -> tail
  in
  dedupe sorted

let check_known ~what names =
  List.iter
    (fun n ->
      if not (List.mem n pass_names) then
        Error.invalidf ~context:"Verify.run"
          ~hint:("passes: " ^ String.concat ", " pass_names)
          "unknown pass %S in %s" n what)
    names

let run ?only ?(skip = []) ?(suppress = Suppress.empty)
    ?(telemetry = Telemetry.noop) (s : Pass.subject) =
  Option.iter (check_known ~what:"only") only;
  check_known ~what:"skip" skip;
  let enabled (p : Pass.t) =
    (match only with None -> true | Some names -> List.mem p.Pass.name names)
    && not (List.mem p.Pass.name skip)
  in
  let selected = List.filter enabled passes in
  Telemetry.span telemetry ~cat:"analysis" "check.run" @@ fun () ->
  let diagnostics =
    List.concat_map
      (fun (p : Pass.t) ->
        Telemetry.span telemetry ~cat:"analysis" ("check." ^ p.Pass.name)
        @@ fun () ->
        let found = p.Pass.run s in
        Telemetry.count telemetry ~cat:"analysis" "analysis.diagnostics"
          (List.length found);
        found)
      selected
  in
  let diagnostics, suppressed = Suppress.apply suppress diagnostics in
  {
    subject = s.Pass.program.Mhla_ir.Program.name;
    diagnostics = normalize diagnostics;
    passes_run = List.map (fun (p : Pass.t) -> p.Pass.name) selected;
    suppressed;
  }

let check_result ?suppress (result : Mhla_core.Explore.result) =
  run ?suppress
    (Pass.of_mapping ~schedule:result.Mhla_core.Explore.te
       result.Mhla_core.Explore.assign.Mhla_core.Assign.mapping)

let promote_warnings r =
  { r with diagnostics = List.map Diagnostic.promote_warnings r.diagnostics }

let by_severity severity r =
  List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.severity = severity)
    r.diagnostics

let errors r = by_severity Diagnostic.Error r

let warnings r = by_severity Diagnostic.Warning r

let ok r = errors r = []

let require report =
  match errors report with
  | [] -> ()
  | first :: _ as errors ->
    Error.internalf ~context:"verify-live"
      "solver output failed live verification: %d error(s); first: %s"
      (List.length errors)
      (Fmt.str "%a" Diagnostic.pp first)

let pp_report ppf r =
  List.iter (fun d -> Fmt.pf ppf "%a@," Diagnostic.pp d) r.diagnostics;
  Fmt.pf ppf "check %s: %d error(s), %d warning(s) from %d pass(es)%t — %s"
    r.subject
    (List.length (errors r))
    (List.length (warnings r))
    (List.length r.passes_run)
    (fun ppf ->
      if r.suppressed > 0 then Fmt.pf ppf ", %d suppressed" r.suppressed)
    (if ok r then "OK" else "FAIL")

let report_to_json r =
  Json.obj
    [
      ("subject", Json.str r.subject);
      ("passes", Json.arr (List.map Json.str r.passes_run));
      ("errors", Json.int (List.length (errors r)));
      ("warnings", Json.int (List.length (warnings r)));
      ("suppressed", Json.int r.suppressed);
      ("ok", Json.bool (ok r));
      ( "diagnostics",
        Json.arr (List.map Diagnostic.to_json r.diagnostics) );
    ]
