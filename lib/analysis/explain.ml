module Error = Mhla_util.Error

type entry = {
  code : string;
  severity : Diagnostic.severity;
  pass : string;
  condition : string;  (** the catalogue's one-line trigger *)
  detail : string;  (** how the finding is derived, and what to do *)
}

(* The derivation story per code: what analysis produces the finding
   and from which facts — the static half of the provenance whose
   dynamic half is each diagnostic's trail. *)
let details =
  [
    ( "MHLA001",
      "Every enclosing iterator sweeps its full range [0, trip-1], so \
       the affine subscript's exact range is the closed form: the \
       constant plus each positive (for the maximum) or negative (for \
       the minimum) coefficient times trip-1. Its maximum reaches at or \
       past the declared extent. The finding's trail lists each \
       contributing iterator range. Fix the subscript or the \
       declaration; out-of-bounds footprints corrupt every downstream \
       size estimate." );
    ( "MHLA002",
      "Same derivation as MHLA001, for the minimum: the subscript's \
       derived lower bound is negative." );
    ( "MHLA101",
      "The checker recomputes the transfer's freedom loops from scratch \
       — walking outward from the refresh loop until a loop carries a \
       writer (or, for a drain, any access) of an overlapping region, \
       by bounding-box dependence over the affine accesses — and the \
       granted extension is not a prefix of that freedom: the prefetch \
       crosses a data dependency and would fetch stale data." );
    ( "MHLA102",
      "Each granted extension loop needs one extra destination buffer; \
       the plan provisions fewer than its prefetch distance, so the \
       incoming window overwrites a buffer still being read." );
    ( "MHLA103",
      "One issue of the transfer takes latency + burst cycles on the \
       slower of the two layers; the plan claims to hide more than \
       that per issue, which no schedule can deliver." );
    ( "MHLA104",
      "A plan exists for a transfer the platform cannot prefetch: no \
       DMA engine, zero issues, or a source that is not the off-chip \
       store." );
    ( "MHLA201",
      "The pass recomputes the layer's peak occupancy from first \
       principles on the program-order timeline: every placed buffer \
       over its lifetime (shared buffers once, over the hull of their \
       sharers), every promoted array, plus the TE double buffers alive \
       over their granted loops' spans — folded under the subject's \
       sizing policy. The peak exceeds the layer's declared \
       capacity." );
    ( "MHLA203",
      "The granted TE loop's span on the program-order timeline does \
       not enclose the extended transfer's buffer lifetime: the double \
       buffer is alive during a program phase its data does not belong \
       to, interfering with whatever lives there. Both spans are \
       derived from the loop tree, never read off the plan." );
    ( "MHLA204",
      "The greedy TE pass assigns DMA priorities by position; plans \
       whose priorities are not the contiguous sequence 0..n-1 in \
       schedule order leave the engine's arbitration undefined." );
    ( "MHLA301",
      "No statement of the program accesses the declared array." );
    ( "MHLA302",
      "Statements write the array but none reads it: the stores can \
       never be observed." );
    ( "MHLA303",
      "No subscript beneath the loop uses its iterator: every \
       iteration touches the same data." );
    ( "MHLA304",
      "The loop's trip count is 1: it is not a loop." );
    ( "MHLA305",
      "Chains must shrink inward; an inner link at least as large as \
       its outer neighbour keeps the same data twice without saving a \
       transfer." );
    ( "MHLA306",
      "The fetch stream's reuse factor (accesses served per element \
       moved, under the active transfer mode) is at most 1: the copy \
       does not amortise its own traffic." );
    ( "MHLA401",
      "The TE greedy order sorts by a per-transfer key and breaks ties \
       by enumeration position. The checker recomputes the key from \
       the mapping; two adjacent plans tie, so their relative DMA \
       priority is an accident of input order — harmless, but worth \
       knowing when two runs differ." );
    ( "MHLA402",
      "The closed-form subscript boxes of one statement's read and \
       write of the same array overlap: the statement carries a \
       recurrence, so its iterations are ordered and \
       iteration-reordering transforms are not sound." );
  ]

let owning_pass code =
  List.find_map
    (fun (p : Pass.t) ->
      if List.mem code p.Pass.codes then Some p.Pass.name else None)
    Verify.passes

let find code =
  match Diagnostic.catalogue_entry code with
  | None -> None
  | Some (code, severity, condition) ->
    Some
      {
        code;
        severity;
        pass =
          (match owning_pass code with Some p -> p | None -> "unregistered");
        condition;
        detail =
          (match List.assoc_opt code details with
          | Some d -> d
          | None -> "(no extended explanation recorded)");
      }

let explain code =
  match find code with
  | Some e -> e
  | None ->
    Error.invalidf ~context:"Explain.explain"
      ~hint:"codes are listed by `mhla check --help` and DESIGN.md"
      "unknown diagnostic code %S" code

let pp ppf e =
  Fmt.pf ppf "@[<v>%s (%a, pass %s)@,@,@[<hov>trigger: %a@]@,@,@[<hov>%a@]\
              @,@,suppress with a .mhla-lint line: %s [field=value]...@]"
    e.code Diagnostic.pp_severity e.severity e.pass Fmt.text e.condition
    Fmt.text e.detail e.code
