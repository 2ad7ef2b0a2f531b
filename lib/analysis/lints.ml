module Access = Mhla_ir.Access
module Candidate = Mhla_reuse.Candidate
module Mapping = Mhla_core.Mapping
module Program = Mhla_ir.Program
module Stmt = Mhla_ir.Stmt

let name = "lints"

let diag ~code ~severity ?loc fmt =
  Diagnostic.makef ~code ~severity ~pass:name ?loc fmt

let array_lints (program : Program.t) =
  let usage =
    Program.fold_stmts program ~init:[] ~f:(fun acc ctx ->
        List.fold_left
          (fun acc (a : Access.t) ->
            (a.Access.array, a.Access.direction) :: acc)
          acc ctx.Program.stmt.Stmt.accesses)
  in
  List.filter_map
    (fun (decl : Mhla_ir.Array_decl.t) ->
      let arr = decl.Mhla_ir.Array_decl.name in
      let touched dir =
        List.exists (fun (a, d) -> a = arr && d = dir) usage
      in
      let loc = Diagnostic.location ~array:arr () in
      if not (touched Access.Read || touched Access.Write) then
        Some
          (diag ~code:"MHLA301" ~severity:Diagnostic.Warning ~loc
             "array is declared but never accessed")
      else if not (touched Access.Read) then
        Some
          (diag ~code:"MHLA302" ~severity:Diagnostic.Warning ~loc
             "array is written but never read")
      else None)
    program.Program.arrays

let loop_lints (program : Program.t) =
  let rec used_below iter = function
    | Program.Stmt s ->
      List.exists
        (fun (a : Access.t) -> List.mem iter (Access.iterators a))
        s.Stmt.accesses
    | Program.Loop l -> List.exists (used_below iter) l.Program.body
  in
  let rec walk acc = function
    | Program.Stmt _ -> acc
    | Program.Loop l ->
      let loc = Diagnostic.location ~iter:l.Program.iter () in
      let acc =
        if l.Program.trip = 1 then
          diag ~code:"MHLA304" ~severity:Diagnostic.Info ~loc
            "loop has a trip count of 1"
          :: acc
        else acc
      in
      let acc =
        if
          not
            (List.exists (used_below l.Program.iter) l.Program.body)
        then
          diag ~code:"MHLA303" ~severity:Diagnostic.Info ~loc
            "iterator appears in no subscript beneath its loop"
          :: acc
        else acc
      in
      List.fold_left walk acc l.Program.body
  in
  List.rev (List.fold_left walk [] program.Program.body)

(* Chains run innermost link first and buffers must shrink inward: an
   inner link as large as the next outer one keeps the same data twice
   without saving a single transfer. *)
let placement_chain_lints
    ((ref_ : Mhla_reuse.Analysis.access_ref), placement) =
  match placement with
  | Mapping.Direct -> []
  | Mapping.Chain links ->
    let rec pairs = function
      | (inner : Mapping.chain_link) :: (outer :: _ as rest) ->
        let ci = inner.Mapping.candidate
        and co = outer.Mapping.candidate in
        let here =
          if ci.Candidate.footprint_bytes >= co.Candidate.footprint_bytes
          then
            [
              diag ~code:"MHLA305" ~severity:Diagnostic.Warning
                ~loc:
                  (Diagnostic.location ~stmt:ref_.Mhla_reuse.Analysis.stmt
                     ~access_index:ref_.Mhla_reuse.Analysis.index
                     ~layer:inner.Mapping.layer ())
                "link %s (%dB) does not shrink the outer link %s (%dB)"
                ci.Candidate.id ci.Candidate.footprint_bytes
                co.Candidate.id co.Candidate.footprint_bytes;
            ]
          else []
        in
        here @ pairs rest
      | [ _ ] | [] -> []
    in
    pairs links

let chain_lints (m : Mapping.t) =
  List.concat_map placement_chain_lints m.Mapping.placements

let transfer_lints (m : Mapping.t) =
  List.filter_map
    (fun (bt : Mapping.block_transfer) ->
      let c = bt.Mapping.bt_candidate in
      (* Promoted-array fills/drains borrow a proxy candidate whose
         reuse figures do not describe the stream; only judge genuine
         chain refills. *)
      if bt.Mapping.bt_id <> c.Candidate.id || bt.Mapping.is_writeback then
        None
      else begin
        let factor = Candidate.reuse_factor m.Mapping.transfer_mode c in
        if factor <= 1.0 then
          Some
            (diag ~code:"MHLA306" ~severity:Diagnostic.Warning
               ~loc:
                 (Diagnostic.location ~array:c.Candidate.array
                    ~bt:bt.Mapping.bt_id ())
               "fetch stream serves %.2f accesses per element moved — the \
                copy does not amortise its traffic"
               factor)
        else None
      end)
    (Mapping.block_transfers m)

let run (s : Pass.subject) =
  let program_side = array_lints s.Pass.program @ loop_lints s.Pass.program in
  match s.Pass.mapping with
  | None -> program_side
  | Some m -> program_side @ chain_lints m @ transfer_lints m

let pass =
  {
    Pass.name;
    codes = [ "MHLA301"; "MHLA302"; "MHLA303"; "MHLA304"; "MHLA305";
              "MHLA306" ];
    run;
  }
