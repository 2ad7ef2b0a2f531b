module Json = Mhla_util.Json
module Error = Mhla_util.Error
module Cost = Mhla_core.Cost
module Explore = Mhla_core.Explore
module Candidate = Mhla_reuse.Candidate
module Faults = Mhla_sim.Faults

type arch =
  | Two_level of { onchip_bytes : int; dma : bool }
  | Three_level of { l1_bytes : int; l2_bytes : int; dma : bool }
  | Multi_level of { level_bytes : int list; dma : bool }

type kind =
  | Solve
  | Pareto of { axes : int list list }
  | Portfolio of { policies : string list }
  | Simulate of { channels : int option; queue_depth : int option }

type inject = No_inject | Raise

type fault_spec = { faults : Faults.t; trials : int }

type t = {
  id : string;
  program : Mhla_ir.Program.t;
  arch : arch;
  kind : kind;
  objective : Cost.objective;
  transfer_mode : Candidate.transfer_mode;
  search : Explore.search;
  policy : Mhla_policy.Policy.t option;
  deadline_ms : int option;
  fault_spec : fault_spec option;
  inject : inject;
}

let on_chip_levels = function
  | Two_level _ -> 1
  | Three_level _ -> 2
  | Multi_level { level_bytes; _ } -> List.length level_bytes

let dma_of_arch = function
  | Two_level { dma; _ } | Three_level { dma; _ } | Multi_level { dma; _ }
    ->
    dma

let check_kind ~context ~arch ~transfer_mode ~fault_spec = function
  | Solve -> ()
  | Pareto { axes } ->
    if transfer_mode <> Candidate.Delta then
      Error.invalidf ~context
        "a pareto request cannot set a transfer mode (the \"mode\" field \
         carries \"pareto\")";
    if fault_spec <> None then
      Error.invalidf ~context
        "the faults rider applies to a single solve, not a pareto surface";
    let expected = on_chip_levels arch in
    if List.length axes <> expected then
      Error.invalidf ~context
        "the grid has %d axes but the arch has %d on-chip level(s)"
        (List.length axes) expected
  | Portfolio { policies } ->
    if fault_spec <> None then
      Error.invalidf ~context
        "the faults rider applies to a single solve, not a portfolio race";
    if policies = [] then
      Error.invalidf ~context "a portfolio must name at least one policy";
    (* Names are validated here — at the boundary — so a bad one is a
       decode error, not a worker crash mid-race. *)
    List.iter
      (fun name -> ignore (Mhla_policy.Registry.find ~context name))
      policies
  | Simulate _ ->
    if fault_spec <> None then
      Error.invalidf ~context
        "the faults rider drives the robustness trials, not the event \
         simulator"

(* [search] is the caller's explicit choice, if any: spelling out a
   search — even the default greedy — next to a policy or a portfolio
   is a conflict, since both already fix the step-1 search. *)
let check_policy ~context ~kind ~search policy =
  (match (policy, kind) with
  | Some _, (Pareto _ | Portfolio _) ->
    Error.invalidf ~context "the \"policy\" field applies to a single solve"
  | _ -> ());
  match (search, kind, policy) with
  | None, _, _ | Some _, (Solve | Pareto _ | Simulate _), None -> ()
  | Some _, Portfolio _, _ ->
    Error.invalidf ~context
      "\"search\" conflicts with a portfolio (each raced policy fixes its \
       own step-1 search)"
  | Some _, _, Some _ ->
    Error.invalidf ~context
      "\"policy\" conflicts with \"search\" (the policy already fixes the \
       step-1 search)"

(* --- value ranges -------------------------------------------------------- *)

(* Every value range is checked here, on the assembled record, so [make]
   and [of_json] reject the same values with the same text, at the
   leaf's wire path. An indexed path is built only when a check fails. *)
module Codec = Mhla_ir.Json_codec

let wire = Codec.Root "$"

let arch_at = Codec.Field (wire, "arch")

let grid_at = Codec.Field (wire, "grid")

let faults_at = Codec.Field (wire, "faults")

let not_a_size ~path b = Codec.fail ~path "sizes must be > 0 (got %d)" b

let below lo ~path k = Codec.fail ~path "must be >= %d (got %d)" lo k

let rec check_axis i j = function
  | [] -> ()
  | b :: rest ->
    if b <= 0 then
      not_a_size ~path:(Codec.Index (Codec.Index (grid_at, i), j)) b;
    check_axis i (j + 1) rest

let check_ranges t =
  (match t.arch with
  | Two_level { onchip_bytes = b; _ } when b <= 0 ->
    not_a_size ~path:(Codec.Field (arch_at, "onchip_bytes")) b
  | Three_level { l1_bytes = b; _ } when b <= 0 ->
    not_a_size ~path:(Codec.Field (arch_at, "l1_bytes")) b
  | Three_level { l2_bytes = b; _ } when b <= 0 ->
    not_a_size ~path:(Codec.Field (arch_at, "l2_bytes")) b
  | Multi_level { level_bytes = []; _ } ->
    Codec.fail ~path:(Codec.Field (arch_at, "level_bytes"))
      "must name at least one level"
  | Multi_level { level_bytes; _ } ->
    List.iteri
      (fun k b ->
        if b <= 0 then
          not_a_size
            ~path:(Codec.Index (Codec.Field (arch_at, "level_bytes"), k))
            b)
      level_bytes
  | Two_level _ | Three_level _ -> ());
  (match t.kind with
  | Pareto { axes = [] } ->
    Codec.fail ~path:grid_at "the grid must name at least one axis"
  | Pareto { axes } ->
    List.iteri
      (fun i axis ->
        if axis = [] then
          Codec.fail ~path:(Codec.Index (grid_at, i))
            "an axis must name at least one size";
        check_axis i 0 axis)
      axes
  | Simulate { channels = Some k; _ } when k < 1 ->
    below 1 ~path:(Codec.Field (wire, "channels")) k
  | Simulate { queue_depth = Some k; _ } when k < 1 ->
    below 1 ~path:(Codec.Field (wire, "queue_depth")) k
  | _ -> ());
  (match (t.search, t.deadline_ms) with
  | Explore.Annealing { iterations = k; _ }, _ when k < 1 ->
    below 1 ~path:(Codec.Field (Codec.Field (wire, "search"), "iterations")) k
  | _, Some k when k < 0 ->
    below 0 ~path:(Codec.Field (wire, "deadline_ms")) k
  | _ -> ());
  match t.fault_spec with
  | Some
      { faults = { Faults.jitter = Faults.Uniform { max_extra_cycles = k }; _ };
        _ }
    when k < 0 ->
    below 0 ~path:(Codec.Field (faults_at, "jitter")) k
  | Some { faults = { Faults.failure_permille = p; _ }; _ }
    when p < 0 || p > 1000 ->
    Codec.fail ~path:(Codec.Field (faults_at, "failure_permille"))
      "must be in 0..1000 (got %d)" p
  | Some { trials = k; _ } when k < 1 ->
    below 1 ~path:(Codec.Field (faults_at, "trials")) k
  | _ -> ()

let build ~context ~kind ~objective ~transfer_mode ?search ?policy
    ?deadline_ms ?fault_spec ~inject ~id ~arch program =
  let t =
    {
      id;
      program;
      arch;
      kind;
      objective;
      transfer_mode;
      search = Option.value search ~default:Explore.Greedy;
      policy;
      deadline_ms;
      fault_spec;
      inject;
    }
  in
  check_ranges t;
  check_kind ~context ~arch ~transfer_mode ~fault_spec kind;
  check_policy ~context ~kind ~search policy;
  t

let make ?(kind = Solve) ?(objective = Cost.Energy_delay)
    ?(transfer_mode = Candidate.Delta) ?search ?policy ?deadline_ms
    ?fault_spec ?(inject = No_inject) ~id ~arch program =
  build ~context:"Request.make" ~kind ~objective ~transfer_mode ?search
    ?policy ?deadline_ms ?fault_spec ~inject ~id ~arch program

let hierarchy t =
  match t.arch with
  | Two_level { onchip_bytes; dma } ->
    Mhla_arch.Presets.two_level ~dma ~onchip_bytes ()
  | Three_level { l1_bytes; l2_bytes; dma } ->
    Mhla_arch.Presets.three_level ~dma ~l1_bytes ~l2_bytes ()
  | Multi_level { level_bytes; dma } ->
    Mhla_arch.Presets.multi_level ~dma ~level_bytes ()

let dma t = dma_of_arch t.arch

(* --- encoding ---------------------------------------------------------- *)

let objective_name = function
  | Cost.Energy -> "energy"
  | Cost.Cycles -> "cycles"
  | Cost.Energy_delay -> "energy-delay"

let mode_name = function
  | Candidate.Full -> "full"
  | Candidate.Delta -> "delta"

let arch_to_json = function
  | Two_level { onchip_bytes; dma } ->
    Json.obj
      [ ("onchip_bytes", Json.int onchip_bytes); ("dma", Json.bool dma) ]
  | Three_level { l1_bytes; l2_bytes; dma } ->
    Json.obj
      [ ("l1_bytes", Json.int l1_bytes); ("l2_bytes", Json.int l2_bytes);
        ("dma", Json.bool dma) ]
  | Multi_level { level_bytes; dma } ->
    Json.obj
      [ ("level_bytes", Json.arr (List.map Json.int level_bytes));
        ("dma", Json.bool dma) ]

(* The wire spells the kind in "mode", so a transfer-mode override
   survives only on a single solve, a policy only by its registry name,
   a fault model only by seed, uniform jitter and failure rate, and a
   seed only if it fits a JSON integer (OCaml's 63-bit [int]).
   Anything else exists in memory only: rendering it would silently
   change the job. *)
let in_memory_only fmt = Error.invalidf ~context:"Request.to_json" fmt

let wire_seed what seed =
  let s = Int64.to_int seed in
  if Int64.of_int s <> seed then
    in_memory_only "the %s seed %Ld does not fit the wire's 63-bit integer"
      what seed;
  s

let search_to_json = function
  | Explore.Greedy -> Json.obj [ ("kind", Json.str "greedy") ]
  | Explore.First_improvement ->
    Json.obj [ ("kind", Json.str "first-improvement") ]
  | Explore.Annealing { seed; iterations } ->
    Json.obj
      [ ("kind", Json.str "anneal");
        ("seed", Json.int (wire_seed "anneal" seed));
        ("iterations", Json.int iterations) ]

(* The fault model the wire's three numbers decode to, shared by both
   directions so that rendering can check it loses nothing. It skips
   [Faults.make]'s validation, whose errors name no field, so that
   [check_ranges] reports a bad knob at its wire path. *)
let wire_faults ~seed ~jitter ~failure_permille =
  {
    (Faults.make ~seed ()) with
    Faults.jitter =
      (if jitter = 0 then Faults.No_jitter
       else Faults.Uniform { max_extra_cycles = jitter });
    failure_permille;
  }

let fault_spec_to_json { faults; trials } =
  let seed = wire_seed "fault" faults.Faults.seed in
  let jitter =
    match faults.Faults.jitter with
    | Faults.Uniform { max_extra_cycles } -> max_extra_cycles
    | Faults.No_jitter -> 0
  in
  let failure_permille = faults.Faults.failure_permille in
  if
    wire_faults ~seed:(Int64.of_int seed) ~jitter ~failure_permille <> faults
  then
    in_memory_only
      "fault model [%s] has no wire form (only its seed, uniform jitter \
       and failure_permille travel)"
      (Fmt.to_to_string Faults.pp faults);
  Json.obj
    [ ("seed", Json.int seed);
      ("jitter", Json.int jitter);
      ("failure_permille", Json.int failure_permille);
      ("trials", Json.int trials) ]

let to_json t =
  (match t.kind with
  | Portfolio _ | Simulate _ when t.transfer_mode <> Candidate.Delta ->
    in_memory_only "a %s transfer mode on a non-solve job has no wire form"
      (mode_name t.transfer_mode)
  | _ -> ());
  (match t.policy with
  | Some p when not (List.mem p Mhla_policy.Registry.builtins) ->
    in_memory_only "policy %S is not a registry policy"
      p.Mhla_policy.Policy.name
  | _ -> ());
  Json.obj
    ([ ("id", Json.str t.id);
       ("program", Mhla_ir.Json_codec.program_to_json t.program);
       ("arch", arch_to_json t.arch) ]
    @ (if t.objective = Cost.Energy_delay then []
       else [ ("objective", Json.str (objective_name t.objective)) ])
    @ (match t.kind with
      | Pareto { axes } ->
        [ ("mode", Json.str "pareto");
          ("grid",
           Json.arr
             (List.map (fun axis -> Json.arr (List.map Json.int axis)) axes))
        ]
      | Portfolio { policies } ->
        (* The field is always re-emitted explicitly — even when it
           came from the default — so of_json ∘ to_json stays the
           identity whatever the default evolves into. *)
        [ ("mode", Json.str "portfolio");
          ("policies", Json.arr (List.map Json.str policies)) ]
      | Simulate { channels; queue_depth } ->
        ("mode", Json.str "simulate")
        :: ((match channels with
            | None -> []
            | Some c -> [ ("channels", Json.int c) ])
           @
           match queue_depth with
           | None -> []
           | Some d -> [ ("queue_depth", Json.int d) ])
      | Solve ->
        if t.transfer_mode = Candidate.Delta then []
        else [ ("mode", Json.str (mode_name t.transfer_mode)) ])
    @ (match t.search with
      | Explore.Greedy -> []
      | s -> [ ("search", search_to_json s) ])
    @ (match t.policy with
      | None -> []
      | Some p -> [ ("policy", Json.str p.Mhla_policy.Policy.name) ])
    @ (match t.deadline_ms with
      | None -> []
      | Some ms -> [ ("deadline_ms", Json.int ms) ])
    @ (match t.fault_spec with
      | None -> []
      | Some fs -> [ ("faults", fault_spec_to_json fs) ])
    @
    match t.inject with
    | No_inject -> []
    | Raise -> [ ("inject", Json.str "raise") ])

(* --- decoding ---------------------------------------------------------- *)

(* Every field decodes on the program codec's kit, so any decode
   failure reads "Json_codec: <path>: <message>", the path built as the
   decoder descends. Decoding checks shapes and types only; [build]
   checks the values. *)

let ints = Codec.items Codec.as_int

let allowed_top =
  [ "id"; "program"; "arch"; "objective"; "mode"; "grid"; "search";
    "policy"; "policies"; "channels"; "queue_depth"; "deadline_ms";
    "faults"; "inject" ]

let arch_of_json ~path j =
  let fields = Codec.as_obj ~path j in
  let dma =
    Option.value ~default:true (Codec.get_opt Codec.as_bool ~path fields "dma")
  in
  let size name = Codec.get Codec.as_int ~path fields name in
  match
    List.sort compare (List.filter (( <> ) "dma") (List.map fst fields))
  with
  | [ "onchip_bytes" ] -> Two_level { onchip_bytes = size "onchip_bytes"; dma }
  | [ "l1_bytes"; "l2_bytes" ] ->
    Three_level { l1_bytes = size "l1_bytes"; l2_bytes = size "l2_bytes"; dma }
  | [ "level_bytes" ] ->
    Multi_level { level_bytes = Codec.get ints ~path fields "level_bytes"; dma }
  | _ ->
    Codec.fail ~path
      "expected {\"onchip_bytes\", \"dma\"?}, {\"l1_bytes\", \"l2_bytes\", \
       \"dma\"?} or {\"level_bytes\", \"dma\"?}"

let objective_of_json ~path j =
  match Codec.as_str ~path j with
  | "energy" -> Cost.Energy
  | "cycles" -> Cost.Cycles
  | "energy-delay" -> Cost.Energy_delay
  | s ->
    Codec.fail ~path "bad objective %S (energy | cycles | energy-delay)" s

(* Search names resolve through the one policy-layer registry, so the
   wire, the CLI and the tests accept exactly the same spellings and
   report unknown names with the same structured error. Only annealing
   takes a seed and an iteration count. Any other field (or those two
   on another kind) would be decoded and then ignored, so it is
   rejected at its own path. *)
let search_of_json ~path j =
  let fields = Codec.as_obj ~path j in
  let iterations = Codec.get_opt Codec.as_int ~path fields "iterations" in
  let kind = Codec.get Codec.as_str ~path fields "kind" in
  let seed = Codec.get_opt Codec.as_int ~path fields "seed" in
  let search =
    Mhla_policy.Registry.search_of_name ~context:"Request.of_json"
      ~seed:(Int64.of_int (Option.value seed ~default:42))
      ~iterations:(Option.value iterations ~default:4000)
      kind
  in
  let takes =
    match search with
    | Explore.Annealing _ -> [ "kind"; "seed"; "iterations" ]
    | Explore.Greedy | Explore.First_improvement -> [ "kind" ]
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem name takes) then
        Codec.fail ~path:(Codec.Field (path, name))
          "the %s search takes no %S field (expected one of: %s)"
          (Mhla_policy.Registry.search_name search)
          name (String.concat ", " takes))
    fields;
  search

let fault_spec_of_json ~path j =
  let fields = Codec.as_obj ~path j in
  Codec.check_fields ~path
    ~allowed:[ "seed"; "jitter"; "failure_permille"; "trials" ]
    fields;
  let int name ~default =
    Option.value ~default (Codec.get_opt Codec.as_int ~path fields name)
  in
  {
    faults =
      wire_faults
        ~seed:(Int64.of_int (int "seed" ~default:42))
        ~jitter:(int "jitter" ~default:0)
        ~failure_permille:(int "failure_permille" ~default:0);
    trials = int "trials" ~default:4;
  }

let inject_of_json ~path j =
  match Codec.as_str ~path j with
  | "raise" -> Raise
  | s -> Codec.fail ~path "bad inject %S" s

let of_json j =
  let path = wire in
  let fields = Codec.as_obj ~path j in
  Codec.check_fields ~path ~allowed:allowed_top fields;
  let id = Codec.get Codec.as_str ~path fields "id" in
  let program =
    Codec.program_of_json_exn
      ~path:(Codec.Field (path, "program"))
      (Codec.field ~path fields "program")
  in
  let arch = Codec.get arch_of_json ~path fields "arch" in
  let opt name decode = Codec.get_opt decode ~path fields name in
  let objective =
    Option.value ~default:Cost.Energy_delay (opt "objective" objective_of_json)
  in
  let mode = opt "mode" Codec.as_str in
  let kind, transfer_mode =
    match mode with
    | None -> (Solve, Candidate.Delta)
    | Some "full" -> (Solve, Candidate.Full)
    | Some "delta" -> (Solve, Candidate.Delta)
    | Some "pareto" ->
      (Pareto { axes = Codec.get (Codec.items ints) ~path fields "grid" },
       Candidate.Delta)
    | Some "portfolio" ->
      let policies =
        Option.value ~default:Mhla_policy.Registry.default_portfolio_names
          (opt "policies" (Codec.items Codec.as_str))
      in
      (Portfolio { policies }, Candidate.Delta)
    | Some "simulate" ->
      ( Simulate
          { channels = opt "channels" Codec.as_int;
            queue_depth = opt "queue_depth" Codec.as_int },
        Candidate.Delta )
    | Some s ->
      Codec.fail ~path:(Codec.Field (path, "mode"))
        "bad mode %S (full | delta | pareto | portfolio | simulate)" s
  in
  List.iter
    (fun (name, owner) ->
      if List.mem_assoc name fields && mode <> Some owner then
        Codec.fail ~path:(Codec.Field (path, name))
          "only valid when \"mode\" is %S" owner)
    [ ("grid", "pareto"); ("policies", "portfolio");
      ("channels", "simulate"); ("queue_depth", "simulate") ];
  let search = opt "search" search_of_json in
  let policy =
    Option.map
      (Mhla_policy.Registry.find ~context:"Request.of_json")
      (opt "policy" Codec.as_str)
  in
  let deadline_ms = opt "deadline_ms" Codec.as_int in
  let fault_spec = opt "faults" fault_spec_of_json in
  let inject =
    Option.value ~default:No_inject (opt "inject" inject_of_json)
  in
  build ~context:"Request.of_json" ~kind ~objective ~transfer_mode ?search
    ?policy ?deadline_ms ?fault_spec ~inject ~id ~arch program

let id_of_json = function
  | Json.Obj fields -> (
    match List.assoc_opt "id" fields with
    | Some (Json.Str s) -> Some s
    | Some _ | None -> None)
  | _ -> None

let equal a b = Json.equal (to_json a) (to_json b)
