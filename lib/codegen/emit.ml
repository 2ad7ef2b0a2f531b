module Affine = Mhla_ir.Affine
module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Mapping = Mhla_core.Mapping
module Prefetch = Mhla_core.Prefetch

let buffer_name (c : Candidate.t) =
  Printf.sprintf "%s_cc%d_%03x" c.Candidate.array c.Candidate.level
    (Hashtbl.hash c.Candidate.share_key land 0xfff)

(* Split a subscript into its window-relative part (terms of the
   sweeping iterators, what indexes the buffer) and its window-origin
   part (fixed iterators + constant, where the window sits in the
   array). *)
let split_subscript ~free expr =
  let pick keep =
    List.fold_left
      (fun acc iter ->
        if keep iter then
          Affine.add acc (Affine.var ~coeff:(Affine.coeff expr iter) iter)
        else acc)
      (Affine.const 0) (Affine.iterators expr)
  in
  let relative = pick free in
  let origin =
    Affine.offset (Affine.constant_part expr) (pick (fun i -> not (free i)))
  in
  (relative, origin)

let subscripts_to_string exprs =
  String.concat "" (List.map (fun e -> Fmt.str "[%a]" Affine.pp e) exprs)

(* One selected (shared) buffer with everything needed to print it. *)
type buffer_use = {
  candidate : Candidate.t;
  layer : int;
  access : Mhla_ir.Access.t;  (** representative access *)
  loops : (string * int) list;  (** its enclosing loops *)
  source : string;  (** parent buffer or array identifier *)
  plan : Prefetch.plan option;
}

let collect_uses ?schedule (m : Mapping.t) =
  let plan_of (c : Candidate.t) =
    match schedule with
    | None -> None
    | Some s ->
      List.find_opt
        (fun (p : Prefetch.plan) ->
          p.Prefetch.bt.Mapping.bt_candidate.Candidate.id = c.Candidate.id)
        s.Prefetch.plans
  in
  let seen = Hashtbl.create 16 in
  let uses = ref [] in
  List.iter
    (fun (ref_, placement) ->
      match placement with
      | Mapping.Direct -> ()
      | Mapping.Chain links ->
        let info =
          match Analysis.find m.Mapping.infos ref_ with
          | Some i -> i
          | None -> assert false
        in
        let access =
          match
            Mhla_ir.Program.find_context m.Mapping.program
              ~stmt:ref_.Analysis.stmt
          with
          | Some ctx ->
            List.nth ctx.Mhla_ir.Program.stmt.Mhla_ir.Stmt.accesses
              ref_.Analysis.index
          | None -> assert false
        in
        let rec walk = function
          | [] -> ()
          | (link : Mapping.chain_link) :: rest ->
            let c = link.Mapping.candidate in
            let key = (c.Candidate.share_key, link.Mapping.layer) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              let source =
                match rest with
                | next :: _ -> buffer_name next.Mapping.candidate
                | [] -> info.Analysis.array
              in
              uses :=
                {
                  candidate = c;
                  layer = link.Mapping.layer;
                  access;
                  loops = info.Analysis.loops;
                  source;
                  plan = plan_of c;
                }
                :: !uses
            end;
            walk rest
        in
        walk links)
    m.Mapping.placements;
  List.rev !uses

let depth_of use =
  match use.plan with
  | Some p when p.Prefetch.extra_buffers > 0 -> p.Prefetch.extra_buffers + 1
  | Some _ | None -> 1

let free_of use =
  let level = use.candidate.Candidate.level in
  let names =
    List.filteri (fun i _ -> i >= level) use.loops |> List.map fst
  in
  fun iter -> List.mem iter names

(* --- declarations ------------------------------------------------------ *)

let declare_arrays buf (m : Mapping.t) =
  List.iter
    (fun (a : Mhla_ir.Array_decl.t) ->
      let name = a.Mhla_ir.Array_decl.name in
      let level = Mapping.array_layer m name in
      let home =
        if level = Mhla_arch.Hierarchy.main_memory_level m.Mapping.hierarchy
        then "off-chip"
        else Printf.sprintf "L%d scratchpad (promoted)" level
      in
      Buffer.add_string buf
        (Printf.sprintf "/* %-28s */ elem%d_t %s%s;\n" home
           a.Mhla_ir.Array_decl.element_bytes name
           (String.concat ""
              (List.map (Printf.sprintf "[%d]") a.Mhla_ir.Array_decl.dims))))
    m.Mapping.program.Mhla_ir.Program.arrays

let declare_buffers buf uses =
  List.iter
    (fun use ->
      let c = use.candidate in
      let depth = depth_of use in
      let shape =
        if depth > 1 then
          Printf.sprintf "[%d][%d]" depth c.Candidate.footprint_bytes
        else Printf.sprintf "[%d]" c.Candidate.footprint_bytes
      in
      Buffer.add_string buf
        (Printf.sprintf "/* L%d scratchpad, serves %-8s */ elem%d_t %s%s;\n"
           use.layer c.Candidate.array c.Candidate.element_bytes
           (buffer_name c) shape))
    uses

(* --- transfers ---------------------------------------------------------- *)

let origin_string use =
  let free = free_of use in
  let origins =
    List.map
      (fun e -> snd (split_subscript ~free e))
      use.access.Mhla_ir.Access.index
  in
  subscripts_to_string origins

let fetch_line use =
  let c = use.candidate in
  let name = buffer_name c in
  let bytes = c.Candidate.bytes_per_issue in
  match use.plan with
  | Some p when p.Prefetch.extended <> [] ->
    let iter =
      match c.Candidate.refresh_iter with Some it -> it | None -> "?"
    in
    let depth = depth_of use in
    let slot =
      if depth > 1 then Printf.sprintf "[(%s + 1) %% %d]" iter depth else ""
    in
    Printf.sprintf
      "dma_fetch_async(/*prio*/ %d, %s%s, &%s%s /* next %s */, %d); /* TE: \
       %d loop(s) early, hides %d/%d cycles */"
      p.Prefetch.dma_priority name slot use.source (origin_string use) iter
      bytes p.Prefetch.extra_buffers p.Prefetch.hidden_cycles
      p.Prefetch.bt_time
  | Some _ | None ->
    Printf.sprintf "dma_fetch(%s, &%s%s, %d); /* synchronous */" name
      use.source (origin_string use) bytes

let drain_line use =
  let c = use.candidate in
  Printf.sprintf "dma_drain(&%s%s, %s, %d); /* write-back */" use.source
    (origin_string use) (buffer_name c) c.Candidate.bytes_per_issue

(* --- scratchpad address map -------------------------------------------- *)

(* Concrete offsets for every buffer and promoted array on each on-chip
   layer, with TE double buffers included in the sizes. *)
let address_map buf (m : Mapping.t) uses =
  let module Occ = Mhla_lifetime.Occupancy in
  let module Sched = Mhla_lifetime.Schedule in
  List.iter
    (fun level ->
      let layer = Mhla_arch.Hierarchy.layer m.Mapping.hierarchy level in
      let capacity =
        match layer.Mhla_arch.Layer.capacity_bytes with
        | Some c -> c
        | None -> assert false
      in
      let buffer_blocks =
        List.filter_map
          (fun use ->
            if use.layer <> level then None
            else
              Some
                {
                  Occ.label = buffer_name use.candidate;
                  interval =
                    Sched.candidate_interval m.Mapping.schedule use.candidate;
                  bytes =
                    depth_of use * use.candidate.Candidate.footprint_bytes;
                })
          uses
      in
      let array_blocks =
        List.filter_map
          (fun (array, l) ->
            if l <> level then None
            else
              match Mhla_ir.Program.find_array m.Mapping.program array with
              | Some decl ->
                Some
                  {
                    Occ.label = array;
                    interval = Sched.array_interval m.Mapping.schedule array;
                    bytes = Mhla_ir.Array_decl.size_bytes decl;
                  }
              | None -> None)
          m.Mapping.array_layers
      in
      let blocks = buffer_blocks @ array_blocks in
      if blocks <> [] then begin
        match Mhla_lifetime.Allocator.allocate ~capacity blocks with
        | Ok alloc ->
          Buffer.add_string buf
            (Printf.sprintf
               "/* L%d address map (capacity %dB, high water %dB):\n" level
               capacity
               alloc.Mhla_lifetime.Allocator.high_water_bytes);
          List.iter
            (fun (p : Mhla_lifetime.Allocator.placement) ->
              Buffer.add_string buf
                (Printf.sprintf "   0x%04x..0x%04x  %s\n" p.Mhla_lifetime.Allocator.offset
                   (p.Mhla_lifetime.Allocator.offset
                   + p.Mhla_lifetime.Allocator.block.Occ.bytes - 1)
                   p.Mhla_lifetime.Allocator.block.Occ.label))
            alloc.Mhla_lifetime.Allocator.placements;
          Buffer.add_string buf "*/\n"
        | Error msg ->
          Buffer.add_string buf
            (Printf.sprintf "/* L%d address map unavailable: %s */\n" level
               msg)
      end)
    (Mhla_arch.Hierarchy.on_chip_levels m.Mapping.hierarchy)

(* --- the loop tree ------------------------------------------------------ *)

let emit ?schedule (m : Mapping.t) =
  let uses = collect_uses ?schedule m in
  (* Where each transfer is issued. *)
  let is_read u = u.candidate.Candidate.direction = Mhla_ir.Access.Read in
  let refresh_of u = u.candidate.Candidate.refresh_iter in
  let outermost_of u =
    match u.loops with (iter, _) :: _ -> Some iter | [] -> None
  in
  let fetches_at iter =
    List.filter (fun u -> is_read u && refresh_of u = Some iter) uses
  in
  let drains_at iter =
    List.filter (fun u -> (not (is_read u)) && refresh_of u = Some iter) uses
  in
  let hoisted_before iter =
    List.filter
      (fun u -> refresh_of u = None && outermost_of u = Some iter)
      uses
  in
  (* Access rewriting: (stmt, index) -> innermost link. *)
  let rewrites = Hashtbl.create 32 in
  List.iter
    (fun (ref_, placement) ->
      match placement with
      | Mapping.Direct -> ()
      | Mapping.Chain (link :: _) ->
        Hashtbl.replace rewrites
          (ref_.Analysis.stmt, ref_.Analysis.index)
          link.Mapping.candidate
      | Mapping.Chain [] -> ())
    m.Mapping.placements;
  let use_of_candidate c =
    List.find
      (fun u -> u.candidate.Candidate.share_key = c.Candidate.share_key)
      uses
  in
  let render_access stmt_name index (a : Mhla_ir.Access.t) =
    let amp = if Mhla_ir.Access.is_write a then "&" else "" in
    match Hashtbl.find_opt rewrites (stmt_name, index) with
    | None ->
      Printf.sprintf "%s%s%s" amp a.Mhla_ir.Access.array
        (subscripts_to_string a.Mhla_ir.Access.index)
    | Some c ->
      let use = use_of_candidate c in
      let free = free_of use in
      let relative =
        List.map (fun e -> fst (split_subscript ~free e)) a.Mhla_ir.Access.index
      in
      let depth = depth_of use in
      let slot =
        match (depth > 1, c.Candidate.refresh_iter) with
        | true, Some iter -> Printf.sprintf "[%s %% %d]" iter depth
        | _, _ -> ""
      in
      Printf.sprintf "%s%s%s%s" amp (buffer_name c) slot
        (subscripts_to_string relative)
  in
  let buf = Buffer.create 4096 in
  let line indent s =
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf
    (Printf.sprintf "/* %s, transformed by MHLA%s */\n"
       m.Mapping.program.Mhla_ir.Program.name
       (match schedule with Some _ -> " + Time Extensions" | None -> ""));
  declare_arrays buf m;
  declare_buffers buf uses;
  address_map buf m uses;
  Buffer.add_char buf '\n';
  let rec node indent = function
    | Mhla_ir.Program.Stmt s ->
      let args =
        List.mapi (render_access s.Mhla_ir.Stmt.name) s.Mhla_ir.Stmt.accesses
      in
      line indent
        (Printf.sprintf "%s(%s); /* %d cycles */" s.Mhla_ir.Stmt.name
           (String.concat ", " args)
           s.Mhla_ir.Stmt.work_cycles)
    | Mhla_ir.Program.Loop l ->
      let iter = l.Mhla_ir.Program.iter in
      List.iter (fun u -> line indent (fetch_line u)) (hoisted_before iter);
      line indent
        (Printf.sprintf "for (int %s = 0; %s < %d; %s++) {" iter iter
           l.Mhla_ir.Program.trip iter);
      List.iter (fun u -> line (indent + 1) (fetch_line u)) (fetches_at iter);
      List.iter (node (indent + 1)) l.Mhla_ir.Program.body;
      List.iter (fun u -> line (indent + 1) (drain_line u)) (drains_at iter);
      line indent "}"
  in
  List.iter (node 0) m.Mapping.program.Mhla_ir.Program.body;
  Buffer.contents buf
