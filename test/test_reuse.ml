(* Tests for the data-reuse analysis: footprints, copy candidates and
   per-access candidate chains, hand-checked on a 3x3 convolution. *)

module Affine = Mhla_ir.Affine
module Build = Mhla_ir.Build
module Footprint = Mhla_reuse.Footprint
module Candidate = Mhla_reuse.Candidate
module Analysis = Mhla_reuse.Analysis

(* 64x64 output convolved from a 66x66 padded image with a 3x3 kernel:
   loops (outermost first) y:64, x:64, ky:3, kx:3. *)
let conv () =
  let open Build in
  program "conv"
    ~arrays:
      [ array "image" [ 66; 66 ]; array "coeff" [ 3; 3 ];
        array "out" [ 64; 64 ] ]
    [ loop "y" 64
        [ loop "x" 64
            [ loop "ky" 3
                [ loop "kx" 3
                    [ stmt "mac" ~work:2
                        [ rd "image" [ i "y" +$ i "ky"; i "x" +$ i "kx" ];
                          rd "coeff" [ i "ky"; i "kx" ];
                          wr "out" [ i "y"; i "x" ] ] ] ] ] ] ]

let conv_infos () = Analysis.analyze (conv ())

let image_info () =
  match Analysis.find (conv_infos ()) { Analysis.stmt = "mac"; index = 0 } with
  | Some info -> info
  | None -> Alcotest.fail "image access not found"

let candidate_at info level =
  List.find
    (fun (c : Candidate.t) -> c.Candidate.level = level)
    info.Analysis.candidates

(* --- Footprint -------------------------------------------------------- *)

let test_footprint_window () =
  let decl = Build.array "image" [ 66; 66 ] in
  let access =
    Build.(rd "image" [ i "y" +$ i "ky"; i "x" +$ i "kx" ])
  in
  let trip = function
    | "y" | "x" -> 64
    | "ky" | "kx" -> 3
    | _ -> Alcotest.fail "unknown iterator"
  in
  let fp free = Footprint.elements ~decl ~trip ~free access in
  Alcotest.(check int) "whole image" (66 * 66) (fp (fun _ -> true));
  Alcotest.(check int) "3-line window (x,ky,kx free)" (3 * 66)
    (fp (fun n -> n <> "y"));
  Alcotest.(check int) "3x3 window (ky,kx free)" 9
    (fp (fun n -> n = "ky" || n = "kx"));
  Alcotest.(check int) "single element (none free)" 1 (fp (fun _ -> false))

let test_footprint_clamped_to_array () =
  (* An access with a large stride cannot touch more elements than the
     array holds. *)
  let decl = Build.array "a" [ 8 ] in
  let access = Build.(rd "a" [ i "i" *$ 4 ]) in
  let trip _ = 10 in
  Alcotest.(check int) "clamped" 8
    (Footprint.elements ~decl ~trip ~free:(fun _ -> true) access)

let test_footprint_bytes_scale () =
  let decl = Build.array ~element_bytes:4 "a" [ 16 ] in
  let access = Build.(rd "a" [ i "i" ]) in
  let trip _ = 16 in
  Alcotest.(check int) "bytes = 4 * elements" 64
    (Footprint.bytes ~decl ~trip ~free:(fun _ -> true) access)

let test_overlap_sliding_window () =
  let decl = Build.array "image" [ 66; 66 ] in
  let access =
    Build.(rd "image" [ i "y" +$ i "ky"; i "x" +$ i "kx" ])
  in
  let trip = function "y" | "x" -> 64 | _ -> 3 in
  (* 3-line window advancing in y by 1: 2 of 3 lines overlap. *)
  Alcotest.(check int) "line overlap" (2 * 66)
    (Footprint.overlap_elements ~decl ~trip
       ~free:(fun n -> n <> "y")
       ~advance:"y" access);
  (* 3x3 window advancing in x by 1: a 3x2 sub-window overlaps. *)
  Alcotest.(check int) "column overlap" 6
    (Footprint.overlap_elements ~decl ~trip
       ~free:(fun n -> n = "ky" || n = "kx")
       ~advance:"x" access);
  (* Advancing a loop absent from the subscripts: full overlap. *)
  Alcotest.(check int) "irrelevant advance" 9
    (Footprint.overlap_elements ~decl ~trip
       ~free:(fun n -> n = "ky" || n = "kx")
       ~advance:"zzz" access)

(* --- Candidate -------------------------------------------------------- *)

let test_candidate_levels_conv () =
  let info = image_info () in
  Alcotest.(check int) "levels 0..4" 5 (List.length info.Analysis.candidates);
  let c0 = candidate_at info 0 in
  Alcotest.(check int) "level 0 = whole image" (66 * 66)
    c0.Candidate.footprint_bytes;
  Alcotest.(check int) "level 0 single issue" 1 c0.Candidate.issues;
  Alcotest.(check bool) "level 0 no refresh" true
    (c0.Candidate.refresh_iter = None);
  let c1 = candidate_at info 1 in
  Alcotest.(check int) "level 1 = 3 lines" (3 * 66)
    c1.Candidate.footprint_bytes;
  Alcotest.(check int) "level 1 issues = trip y" 64 c1.Candidate.issues;
  Alcotest.(check (option string)) "level 1 refresh" (Some "y")
    c1.Candidate.refresh_iter;
  let c2 = candidate_at info 2 in
  Alcotest.(check int) "level 2 = 3x3" 9 c2.Candidate.footprint_bytes;
  Alcotest.(check int) "level 2 issues" (64 * 64) c2.Candidate.issues;
  let c4 = candidate_at info 4 in
  Alcotest.(check int) "level 4 per-execution" 1 c4.Candidate.footprint_bytes;
  Alcotest.(check int) "level 4 issues = executions" (64 * 64 * 9)
    c4.Candidate.issues

let test_candidate_served_and_traffic () =
  let info = image_info () in
  List.iter
    (fun (c : Candidate.t) ->
      Alcotest.(check int)
        ("accesses served at level " ^ string_of_int c.Candidate.level)
        (64 * 64 * 3 * 3) c.Candidate.accesses_served;
      Alcotest.(check int)
        ("full traffic = issues x footprint at level "
        ^ string_of_int c.Candidate.level)
        (c.Candidate.issues * c.Candidate.bytes_per_issue)
        c.Candidate.total_bytes_full;
      Alcotest.(check bool)
        ("delta <= full at level " ^ string_of_int c.Candidate.level)
        true
        (c.Candidate.total_bytes_delta <= c.Candidate.total_bytes_full))
    info.Analysis.candidates

let test_candidate_delta_line_buffer () =
  (* Level-1 3-line buffer: first issue 198 B, the other 63 fetch one
     new 66 B line each. *)
  let c1 = candidate_at (image_info ()) 1 in
  Alcotest.(check int) "delta traffic" (198 + (63 * 66))
    c1.Candidate.total_bytes_delta;
  Alcotest.(check int) "delta per issue" 66 c1.Candidate.delta_bytes_per_issue

let test_candidate_reuse_factor () =
  let info = image_info () in
  let c2 = candidate_at info 2 in
  (* 36864 accesses vs 4096 issues x 9 elements: reuse factor 1. *)
  Alcotest.(check (float 1e-9)) "level 2 full reuse" 1.
    (Candidate.reuse_factor Candidate.Full c2);
  let c0 = candidate_at info 0 in
  Alcotest.(check bool) "level 0 high reuse" true
    (Candidate.reuse_factor Candidate.Full c0 > 8.)

(* One candidate per level 0 .. depth, outermost refresh loop first. *)
let test_candidate_level_range () =
  let decl = Build.array "a" [ 4; 4 ] in
  let access = Build.(rd "a" [ i "i"; i "j" ]) in
  let chain =
    Candidate.of_access ~decl ~loops:[ ("i", 4); ("j", 4) ] ~stmt:"s"
      ~access_index:1 access
  in
  Alcotest.(check (list int)) "levels" [ 0; 1; 2 ]
    (List.map (fun (c : Candidate.t) -> c.Candidate.level) chain);
  Alcotest.(check (list string)) "ids" [ "s/1@0"; "s/1@1"; "s/1@2" ]
    (List.map (fun (c : Candidate.t) -> c.Candidate.id) chain);
  Alcotest.(check (list (option string))) "refresh loops"
    [ None; Some "i"; Some "j" ]
    (List.map (fun (c : Candidate.t) -> c.Candidate.refresh_iter) chain);
  Alcotest.(check (list string)) "share keys"
    [ "a@whole"; "a@1:i:i;j"; "a@2:j:i;j" ]
    (List.map (fun (c : Candidate.t) -> c.Candidate.share_key) chain);
  Alcotest.(check int) "no loops: one candidate" 1
    (List.length
       (Candidate.of_access ~decl ~loops:[] ~stmt:"s" ~access_index:0 access))

let test_share_keys () =
  let open Build in
  let p =
    program "share"
      ~arrays:[ array "tab" [ 8 ]; array "img" [ 8; 8 ] ]
      [ loop "i" 8
          [ loop "j" 8
              [ stmt "s" ~work:1
                  [ rd "tab" [ i "j" ];
                    rd "tab" [ i "j" ];
                    rd "img" [ i "i"; i "j" ] ] ] ] ]
  in
  let infos = Analysis.analyze p in
  let find idx =
    match Analysis.find infos { Analysis.stmt = "s"; index = idx } with
    | Some info -> info
    | None -> Alcotest.fail "access not found"
  in
  let key idx level =
    (candidate_at (find idx) level).Candidate.share_key
  in
  Alcotest.(check string) "whole-table copies share" (key 0 0) (key 1 0);
  Alcotest.(check bool) "different arrays do not share" true
    (key 0 0 <> key 2 0);
  Alcotest.(check bool) "different levels do not share" true
    (key 0 0 <> key 0 1)

(* Candidate ids and share keys are pinned text: the engine's share
   groups and the bench's golden outputs key on them. *)
let test_share_keys_pinned () =
  let program = Lazy.force (Mhla_apps.Registry.find_exn "qsdpcm").program in
  let infos = Analysis.analyze program in
  let info =
    match Analysis.find infos { Analysis.stmt = "subsample"; index = 3 } with
    | Some info -> info
    | None -> Alcotest.fail "qsdpcm has no subsample/3"
  in
  List.iter
    (fun (level, id, key) ->
      let c = candidate_at info level in
      Alcotest.(check string) "id" id c.Candidate.id;
      Alcotest.(check string) "share key" key c.Candidate.share_key)
    [ (0, "subsample/3@0", "cur@0::2*ys + 1;2*xs + 1");
      (2, "subsample/3@2", "cur@2:xs:2*ys + 1;2*xs + 1") ]

(* --- Analysis --------------------------------------------------------- *)

let test_analysis_covers_all_accesses () =
  let infos = conv_infos () in
  Alcotest.(check int) "three accesses" 3 (List.length infos);
  let arrays = List.map (fun (i : Analysis.info) -> i.Analysis.array) infos in
  Alcotest.(check (list string)) "in statement order"
    [ "image"; "coeff"; "out" ] arrays

let test_useful_candidates_prune () =
  (* coeff[ky][kx] has the same 9-element footprint at levels 0, 1 and
     2; only level 0 (fewest transfers) should be kept, then the
     strictly smaller levels 3 and 4. *)
  let infos = conv_infos () in
  let coeff =
    match Analysis.find infos { Analysis.stmt = "mac"; index = 1 } with
    | Some info -> info
    | None -> Alcotest.fail "coeff access not found"
  in
  let useful = Analysis.useful_candidates coeff in
  Alcotest.(check (list int)) "kept levels" [ 0; 3; 4 ]
    (List.map (fun (c : Candidate.t) -> c.Candidate.level) useful)

(* Property: over random 2-deep nests, candidate footprints are
   monotonically non-increasing with level and bounded by the array. *)
let prop_candidate_monotone =
  QCheck2.Test.make ~name:"reuse: footprints shrink with level" ~count:200
    QCheck2.Gen.(
      quad (int_range 1 12) (int_range 1 12) (int_range 0 3) (int_range 0 3))
    (fun (t1, t2, c1, c2) ->
      let open Build in
      let dim = (t1 * 4) + (t2 * 4) + 20 in
      let p =
        program "r"
          ~arrays:[ array "a" [ dim ] ]
          [ loop "i" t1
              [ loop "j" t2
                  [ stmt "s"
                      [ rd "a" [ (i "i" *$ c1) +$ (i "j" *$ c2) ] ] ] ] ]
      in
      let infos = Analysis.analyze p in
      let info = List.hd infos in
      let fps =
        List.map
          (fun (c : Candidate.t) -> c.Candidate.footprint_bytes)
          info.Analysis.candidates
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | [ _ ] | [] -> true
      in
      non_increasing fps && List.for_all (fun f -> f >= 1 && f <= dim) fps)

let prop_candidate_issue_growth =
  QCheck2.Test.make ~name:"reuse: issues grow with level" ~count:200
    QCheck2.Gen.(pair (int_range 1 10) (int_range 1 10))
    (fun (t1, t2) ->
      let open Build in
      let p =
        program "r"
          ~arrays:[ array "a" [ t1 + t2 ] ]
          [ loop "i" t1
              [ loop "j" t2 [ stmt "s" [ rd "a" [ i "i" +$ i "j" ] ] ] ] ]
      in
      let info = List.hd (Analysis.analyze p) in
      let issues =
        List.map
          (fun (c : Candidate.t) -> c.Candidate.issues)
          info.Analysis.candidates
      in
      issues = [ 1; 1; t1; t1 * t2 ] |> ignore;
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | [ _ ] | [] -> true
      in
      non_decreasing issues)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "reuse"
    [
      ( "footprint",
        [
          Alcotest.test_case "conv window" `Quick test_footprint_window;
          Alcotest.test_case "clamped" `Quick test_footprint_clamped_to_array;
          Alcotest.test_case "bytes" `Quick test_footprint_bytes_scale;
          Alcotest.test_case "overlap" `Quick test_overlap_sliding_window;
        ] );
      ( "candidate",
        [
          Alcotest.test_case "conv levels" `Quick test_candidate_levels_conv;
          Alcotest.test_case "served / traffic" `Quick
            test_candidate_served_and_traffic;
          Alcotest.test_case "delta line buffer" `Quick
            test_candidate_delta_line_buffer;
          Alcotest.test_case "reuse factor" `Quick test_candidate_reuse_factor;
          Alcotest.test_case "level range" `Quick test_candidate_level_range;
          Alcotest.test_case "share keys" `Quick test_share_keys;
          Alcotest.test_case "share keys pinned" `Quick test_share_keys_pinned;
          qc prop_candidate_monotone;
          qc prop_candidate_issue_growth;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "covers accesses" `Quick
            test_analysis_covers_all_accesses;
          Alcotest.test_case "useful candidates" `Quick
            test_useful_candidates_prune;
        ] );
    ]
