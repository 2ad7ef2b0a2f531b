module Assign = Mhla_core.Assign
module Engine = Mhla_core.Engine
module Error = Mhla_util.Error
module Explore = Mhla_core.Explore
module Mapping = Mhla_core.Mapping

type t = { inc : Incremental.t }

let start ?transfer_mode ?reuse ?policy ?suppress program hierarchy =
  let origin = Mapping.direct ?transfer_mode ?reuse program hierarchy in
  { inc = Incremental.create ?policy ?suppress origin }

let of_config ?reuse ?suppress (config : Assign.config) program hierarchy =
  start ~transfer_mode:config.Assign.transfer_mode
    ~policy:config.Assign.policy ?reuse ?suppress program hierarchy

let on_commit t move = Incremental.apply t.inc move

let finish t (result : Explore.result) =
  (* The search walked [current]; the answer is the best state seen —
     diff over, then install the TE schedule. *)
  Incremental.rebase t.inc result.Explore.assign.Assign.mapping;
  Incremental.set_schedule t.inc (Some result.Explore.te);
  Incremental.report t.inc

let check t result =
  let report = finish t result in
  (match Verify.errors report with
  | [] -> ()
  | first :: _ as errors ->
    Error.internalf ~context:"verify-live"
      "solver output failed live verification: %d error(s); first: %s"
      (List.length errors)
      (Fmt.str "%a" Diagnostic.pp first));
  report

let stats t = Incremental.stats t.inc
