(* Tests for the dynamic reference executor: its address layout, its
   event counts and the soundness of the static footprints against it. *)

module Build = Mhla_ir.Build
module Interp = Mhla_trace.Interp
module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate

let conv ?(n = 8) () =
  let open Build in
  program "conv"
    ~arrays:
      [ array "image" [ n + 2; n + 2 ]; array "coeff" [ 3; 3 ];
        array "out" [ n; n ] ]
    [ loop "y" n
        [ loop "x" n
            [ loop "ky" 3
                [ loop "kx" 3
                    [ stmt "mac" ~work:2
                        [ rd "image" [ i "y" +$ i "ky"; i "x" +$ i "kx" ];
                          rd "coeff" [ i "ky"; i "kx" ];
                          wr "out" [ i "y"; i "x" ] ] ] ] ] ] ]

(* --- layout / addresses ------------------------------------------------ *)

let test_layout_is_disjoint_and_aligned () =
  let p = conv () in
  let layout = Interp.layout p in
  Alcotest.(check int) "all arrays placed" 3 (List.length layout);
  List.iter
    (fun (_, base) ->
      Alcotest.(check int) "8-byte aligned" 0 (base mod 8))
    layout;
  (* Address ranges must not overlap. *)
  let ranges =
    List.map
      (fun (name, base) ->
        let decl =
          match Mhla_ir.Program.find_array p name with
          | Some d -> d
          | None -> assert false
        in
        (base, base + Mhla_ir.Array_decl.size_bytes decl))
      layout
  in
  let rec pairwise = function
    | (lo1, hi1) :: rest ->
      List.iter
        (fun (lo2, hi2) ->
          Alcotest.(check bool) "disjoint" false (lo1 < hi2 && lo2 < hi1))
        rest;
      pairwise rest
    | [] -> ()
  in
  pairwise ranges

let test_address_row_major () =
  let p = conv () in
  let layout = Interp.layout p in
  let base = List.assoc "image" layout in
  Alcotest.(check int) "origin" base
    (Interp.address layout p ~array:"image" ~indices:[ 0; 0 ]);
  Alcotest.(check int) "row stride" (base + 10)
    (Interp.address layout p ~array:"image" ~indices:[ 1; 0 ]);
  Alcotest.(check int) "column step" (base + 1)
    (Interp.address layout p ~array:"image" ~indices:[ 0; 1 ])

let test_address_bounds_checked () =
  let p = conv () in
  let layout = Interp.layout p in
  try
    ignore (Interp.address layout p ~array:"image" ~indices:[ 10; 0 ]);
    Alcotest.fail "expected out-of-bounds failure"
  with Mhla_util.Error.Error _ -> ()

(* --- event counts vs the static model ---------------------------------- *)

let test_event_count_matches_static () =
  let p = conv () in
  Alcotest.(check int) "events = analytic access count"
    (Mhla_ir.Program.total_access_count p)
    (Interp.count_events p)

let test_event_count_all_apps_small () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let p = Lazy.force app.Mhla_apps.Defs.small in
      Alcotest.(check int)
        (app.Mhla_apps.Defs.name ^ ": dynamic = static")
        (Mhla_ir.Program.total_access_count p)
        (Interp.count_events p))
    Mhla_apps.Registry.all

(* --- footprints vs touched addresses ----------------------------------- *)

let test_touched_matches_footprint_conv () =
  let p = conv () in
  (* The image window of one (y, x) iteration: 3x3 = 9 addresses. *)
  let touched =
    Interp.touched_addresses p ~stmt:"mac" ~access_index:0
      ~fix:[ ("y", 2); ("x", 3) ]
  in
  Alcotest.(check int) "3x3 window" 9 (List.length touched);
  (* One full y iteration (x, ky, kx sweep): 3 rows x 10 cols. *)
  let touched =
    Interp.touched_addresses p ~stmt:"mac" ~access_index:0 ~fix:[ ("y", 0) ]
  in
  Alcotest.(check int) "3-line window" 30 (List.length touched)

(* Property: for every app (small), at every level, the candidate's
   analytic footprint bounds the dynamically touched bytes of the first
   refresh window. The box model may over-approximate but never
   under-approximates. *)
let test_footprint_is_sound_all_apps () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let p = Lazy.force app.Mhla_apps.Defs.small in
      let infos = Analysis.analyze p in
      List.iter
        (fun (info : Analysis.info) ->
          List.iter
            (fun (c : Candidate.t) ->
              let fix =
                List.filteri
                  (fun k _ -> k < c.Candidate.level)
                  info.Analysis.loops
                |> List.map (fun (iter, _) -> (iter, 0))
              in
              let touched =
                Interp.touched_addresses p
                  ~stmt:info.Analysis.ref_.Analysis.stmt
                  ~access_index:info.Analysis.ref_.Analysis.index ~fix
              in
              let touched_bytes =
                List.length touched * c.Candidate.element_bytes
              in
              if touched_bytes > c.Candidate.footprint_bytes then
                Alcotest.failf "%s %s: touched %dB > footprint %dB"
                  app.Mhla_apps.Defs.name c.Candidate.id touched_bytes
                  c.Candidate.footprint_bytes)
            info.Analysis.candidates)
        infos)
    Mhla_apps.Registry.all

let test_footprint_exact_for_dense_windows () =
  (* conv's image access has stride-1 subscripts: the box is exact. *)
  let p = conv () in
  let infos = Analysis.analyze p in
  let info = List.hd infos in
  List.iter
    (fun (c : Candidate.t) ->
      let fix =
        List.filteri (fun k _ -> k < c.Candidate.level) info.Analysis.loops
        |> List.map (fun (iter, _) -> (iter, 0))
      in
      let touched =
        Interp.touched_addresses p ~stmt:"mac" ~access_index:0 ~fix
      in
      Alcotest.(check int)
        ("exact at level " ^ string_of_int c.Candidate.level)
        c.Candidate.footprint_bytes
        (List.length touched * c.Candidate.element_bytes))
    info.Analysis.candidates

(* The delta-transfer model against ground truth: the bytes a sliding
   window must newly fetch equal the addresses of window t+1 that were
   not in window t. Exact for the dense conv window; never
   underestimated on any app. *)
let window_addresses p info (c : Candidate.t) ~refresh_value =
  let fix =
    List.mapi
      (fun k (iter, _) ->
        if k = c.Candidate.level - 1 then (iter, refresh_value)
        else (iter, 0))
      (List.filteri
         (fun k _ -> k < c.Candidate.level)
         info.Analysis.loops)
  in
  Interp.touched_addresses p ~stmt:info.Analysis.ref_.Analysis.stmt
    ~access_index:info.Analysis.ref_.Analysis.index ~fix

let test_delta_matches_interp_conv () =
  let p = conv () in
  let infos = Analysis.analyze p in
  let info = List.hd infos (* the image window *) in
  List.iter
    (fun (c : Candidate.t) ->
      match c.Candidate.refresh_iter with
      | None -> ()
      | Some _ ->
        let w0 = window_addresses p info c ~refresh_value:0 in
        let w1 = window_addresses p info c ~refresh_value:1 in
        let fresh =
          List.filter (fun a -> not (List.mem a w0)) w1
        in
        Alcotest.(check int)
          (Printf.sprintf "level %d delta bytes" c.Candidate.level)
          (List.length fresh * c.Candidate.element_bytes)
          c.Candidate.delta_bytes_per_issue)
    info.Analysis.candidates

(* The transfer model moves bounding boxes, not sparse sets: a strided
   window's "fresh" program addresses can exceed the box shift because
   they were already covered by the previous box's padding. Soundness
   is therefore: fresh <= delta + padding, where padding is the part of
   the box the program does not touch. *)
let test_delta_sound_all_apps () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let p = Lazy.force app.Mhla_apps.Defs.small in
      let infos = Analysis.analyze p in
      List.iter
        (fun (info : Analysis.info) ->
          List.iter
            (fun (c : Candidate.t) ->
              match c.Candidate.refresh_iter with
              | None -> ()
              | Some iter ->
                let trip =
                  match List.assoc_opt iter info.Analysis.loops with
                  | Some t -> t
                  | None -> 1
                in
                if trip > 1 then begin
                  let w0 = window_addresses p info c ~refresh_value:0 in
                  let w1 = window_addresses p info c ~refresh_value:1 in
                  let fresh =
                    List.filter (fun a -> not (List.mem a w0)) w1
                  in
                  let fresh_bytes =
                    List.length fresh * c.Candidate.element_bytes
                  in
                  let padding_bytes =
                    c.Candidate.footprint_bytes
                    - (List.length w0 * c.Candidate.element_bytes)
                  in
                  if
                    fresh_bytes
                    > c.Candidate.delta_bytes_per_issue + padding_bytes
                  then
                    Alcotest.failf
                      "%s %s: fresh %dB > delta %dB + padding %dB"
                      app.Mhla_apps.Defs.name c.Candidate.id fresh_bytes
                      c.Candidate.delta_bytes_per_issue padding_bytes
                end)
            info.Analysis.candidates)
        infos)
    Mhla_apps.Registry.all

let () =
  Alcotest.run "trace"
    [
      ( "interp",
        [
          Alcotest.test_case "layout" `Quick test_layout_is_disjoint_and_aligned;
          Alcotest.test_case "row major" `Quick test_address_row_major;
          Alcotest.test_case "bounds" `Quick test_address_bounds_checked;
          Alcotest.test_case "count matches static" `Quick
            test_event_count_matches_static;
          Alcotest.test_case "count all apps" `Quick
            test_event_count_all_apps_small;
        ] );
      ( "footprints",
        [
          Alcotest.test_case "conv windows" `Quick
            test_touched_matches_footprint_conv;
          Alcotest.test_case "sound on all apps" `Quick
            test_footprint_is_sound_all_apps;
          Alcotest.test_case "exact for dense windows" `Quick
            test_footprint_exact_for_dense_windows;
          Alcotest.test_case "delta exact on conv" `Quick
            test_delta_matches_interp_conv;
          Alcotest.test_case "delta sound on all apps" `Quick
            test_delta_sound_all_apps;
        ] );
    ]
