(* Unit and property tests for Mhla_util. *)

let invalid ?hint context message =
  Mhla_util.Error.(Error (make ?hint Invalid_input ~context message))

module Pareto = Mhla_util.Pareto
module Interval = Mhla_util.Interval
module Prng = Mhla_util.Prng
module Stats = Mhla_util.Stats
module Table = Mhla_util.Table

let check_float = Alcotest.(check (float 1e-9))

(* --- Pareto: two objectives ------------------------------------------- *)

(* Most of the tool's frontiers are (size, cost) curves: the 2-D shape
   of [Pareto.Nd], whose lexicographic order is then "by increasing x". *)

module Nd = Pareto.Nd

let pt x y payload = Nd.point ~objectives:[| x; y |] payload

let test_pareto_dominates () =
  let p = pt 1. 2. () in
  let q = pt 2. 3. () in
  Alcotest.(check bool) "p dominates q" true (Nd.dominates p q);
  Alcotest.(check bool) "q does not dominate p" false (Nd.dominates q p);
  Alcotest.(check bool) "no self domination" false (Nd.dominates p p)

let test_pareto_add_keeps_non_dominated () =
  let front = Nd.of_list [ pt 1. 10. "a"; pt 2. 5. "b"; pt 3. 1. "c" ] in
  Alcotest.(check int) "all three kept" 3 (Nd.size front);
  let front = Nd.add (pt 2. 0.5 "d") front in
  (* d dominates b and c *)
  Alcotest.(check int) "dominated points dropped" 2 (Nd.size front)

let test_pareto_sorted_by_x () =
  let front = Nd.of_list [ pt 3. 1. "c"; pt 1. 10. "a"; pt 2. 5. "b" ] in
  let xs = List.map (fun p -> (Nd.objectives p).(0)) (Nd.to_list front) in
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3. ] xs

let test_pareto_empty () =
  Alcotest.(check bool) "empty" true (Nd.is_empty Nd.empty);
  Alcotest.(check int) "no points" 0 (List.length (Nd.to_list Nd.empty))

let pareto_points_gen =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (map2
         (fun x y -> pt (float_of_int x) (float_of_int y) ())
         (int_range 0 20) (int_range 0 20)))

let prop_pareto_no_internal_domination =
  QCheck2.Test.make ~name:"pareto: no frontier point dominates another"
    ~count:200 pareto_points_gen (fun points ->
      let front = Nd.to_list (Nd.of_list points) in
      List.for_all
        (fun p ->
          List.for_all (fun q -> p == q || not (Nd.dominates p q)) front)
        front)

let prop_pareto_covers_inputs =
  QCheck2.Test.make
    ~name:"pareto: every input is on the frontier or dominated" ~count:200
    pareto_points_gen (fun points ->
      let front = Nd.of_list points in
      let on_front p =
        List.exists
          (fun q -> Nd.objectives q = Nd.objectives p)
          (Nd.to_list front)
      in
      List.for_all (fun p -> on_front p || Nd.mem_dominated p front) points)

(* --- Pareto.Nd --------------------------------------------------------- *)

let expect_invalid name f =
  match f () with
  | exception Mhla_util.Error.Error { kind = Mhla_util.Error.Invalid_input; _ }
    ->
    ()
  | _ -> Alcotest.failf "%s: expected an Invalid_input error" name

let test_nd_point_basics () =
  let p = Nd.point ~objectives:[| 1.; 2.; 3. |] "p" in
  let q = Nd.point ~objectives:[| 1.; 2.; 4. |] "q" in
  Alcotest.(check bool) "p dominates q" true (Nd.dominates p q);
  Alcotest.(check bool) "q does not dominate p" false (Nd.dominates q p);
  Alcotest.(check bool) "no self domination" false (Nd.dominates p p);
  Alcotest.(check int) "dim" 3 (Nd.dim p);
  Alcotest.(check string) "payload" "p" (Nd.payload p);
  let mutated = Nd.objectives p in
  mutated.(0) <- 99.;
  Alcotest.(check (float 0.)) "objectives returns a copy" 1.
    (Nd.objectives p).(0)

let test_nd_point_rejected () =
  expect_invalid "empty vector" (fun () ->
      ignore (Nd.point ~objectives:[||] ()));
  expect_invalid "nan objective" (fun () ->
      ignore (Nd.point ~objectives:[| 1.; Float.nan |] ()));
  let p2 = Nd.point ~objectives:[| 1.; 2. |] () in
  let p3 = Nd.point ~objectives:[| 1.; 2.; 3. |] () in
  expect_invalid "dimension mismatch in dominates" (fun () ->
      ignore (Nd.dominates p2 p3));
  expect_invalid "dimension mismatch in add" (fun () ->
      ignore (Nd.add p3 (Nd.add p2 Nd.empty)))

let test_nd_frontier_behaviour () =
  let mk v payload = Nd.point ~objectives:v payload in
  let front =
    Nd.of_list
      [ mk [| 3.; 1.; 1. |] "a"; mk [| 1.; 3.; 1. |] "b";
        mk [| 1.; 1.; 3. |] "c" ]
  in
  Alcotest.(check int) "mutually non-dominated all kept" 3 (Nd.size front);
  Alcotest.(check (list string)) "lex storage order" [ "c"; "b"; "a" ]
    (List.map Nd.payload (Nd.to_list front));
  (* A dominating point sweeps out everything it covers. *)
  let front = Nd.add (mk [| 1.; 1.; 1. |] "d") front in
  Alcotest.(check (list string)) "dominated points dropped" [ "d" ]
    (List.map Nd.payload (Nd.to_list front));
  Alcotest.(check bool) "mem_dominated" true
    (Nd.mem_dominated (mk [| 2.; 2.; 2. |] "x") front);
  Alcotest.(check bool) "non-dominated not mem" false
    (Nd.mem_dominated (mk [| 1.; 1.; 1. |] "y") front);
  (* Equal vector: the incumbent payload survives. *)
  let front = Nd.add (mk [| 1.; 1.; 1. |] "late") front in
  Alcotest.(check (list string)) "first writer wins" [ "d" ]
    (List.map Nd.payload (Nd.to_list front));
  Alcotest.(check bool) "empty is empty" true (Nd.is_empty Nd.empty)

let nd_vector_gen =
  (* Tiny integral coordinates: plenty of exact ties and dominations. *)
  QCheck2.Gen.(
    map3
      (fun a b c -> [| float_of_int a; float_of_int b; float_of_int c |])
      (int_range 0 6) (int_range 0 6) (int_range 0 6))

let nd_points_gen =
  QCheck2.Gen.(
    list_size (int_range 0 40) (map (fun v -> Nd.point ~objectives:v ()) nd_vector_gen))

let nd_vectors front = List.map Nd.objectives (Nd.to_list front)

let prop_nd_of_list_non_dominated =
  QCheck2.Test.make ~name:"pareto.nd: of_list is mutually non-dominated"
    ~count:300 nd_points_gen (fun points ->
      let front = Nd.to_list (Nd.of_list points) in
      List.for_all
        (fun p ->
          List.for_all (fun q -> p == q || not (Nd.dominates p q)) front)
        front)

let prop_nd_insertion_order_invariant =
  QCheck2.Test.make
    ~name:"pareto.nd: the frontier is insertion-order invariant as a set"
    ~count:300 nd_points_gen (fun points ->
      nd_vectors (Nd.of_list points)
      = nd_vectors (Nd.of_list (List.rev points)))

let prop_nd_add_idempotent =
  QCheck2.Test.make
    ~name:"pareto.nd: re-adding any input leaves the frontier unchanged"
    ~count:300 nd_points_gen (fun points ->
      let front = Nd.of_list points in
      let reference = nd_vectors front in
      List.for_all
        (fun p -> nd_vectors (Nd.add p front) = reference)
        points)

let prop_nd_ties_first_writer_wins =
  QCheck2.Test.make
    ~name:"pareto.nd: equal objective vectors keep the earliest payload"
    ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) nd_vector_gen)
    (fun vectors ->
      let points = List.mapi (fun i v -> Nd.point ~objectives:v i) vectors in
      let front = Nd.of_list points in
      List.for_all
        (fun p ->
          match
            List.find_opt
              (fun q -> Nd.objectives q = Nd.objectives p)
              points
          with
          | Some first -> Nd.payload p = Nd.payload first
          | None -> false)
        (Nd.to_list front))

(* --- Interval --------------------------------------------------------- *)

let test_interval_make_rejects_reversed () =
  Alcotest.check_raises "hi < lo"
    (invalid "Interval.make" "hi (1) < lo (2)") (fun () ->
      ignore (Interval.make ~lo:2 ~hi:1))

let test_interval_basics () =
  let a = Interval.make ~lo:0 ~hi:4 in
  let b = Interval.make ~lo:4 ~hi:8 in
  Alcotest.(check bool) "half open: adjacent do not overlap" false
    (Interval.overlaps a b);
  Alcotest.(check bool) "overlap" true
    (Interval.overlaps a (Interval.make ~lo:3 ~hi:5));
  Alcotest.(check int) "length" 4 (Interval.length a);
  Alcotest.(check bool) "contains lo" true (Interval.contains a 0);
  Alcotest.(check bool) "excludes hi" false (Interval.contains a 4);
  let h = Interval.hull a b in
  Alcotest.(check int) "hull lo" 0 h.Interval.lo;
  Alcotest.(check int) "hull hi" 8 h.Interval.hi

let test_interval_hull_with_empty () =
  let e = Interval.make ~lo:5 ~hi:5 in
  let a = Interval.make ~lo:0 ~hi:2 in
  let h = Interval.hull e a in
  Alcotest.(check int) "empty hull lo" 0 h.Interval.lo;
  Alcotest.(check int) "empty hull hi" 2 h.Interval.hi

let test_peak_weight_hand () =
  let iv lo hi = Interval.make ~lo ~hi in
  Alcotest.(check int) "empty set" 0 (Interval.peak_weight []);
  Alcotest.(check int) "single" 7 (Interval.peak_weight [ (iv 0 3, 7) ]);
  (* Two disjoint blocks never stack. *)
  Alcotest.(check int) "disjoint" 5
    (Interval.peak_weight [ (iv 0 2, 5); (iv 2 4, 3) ]);
  (* Overlap stacks. *)
  Alcotest.(check int) "stacked" 8
    (Interval.peak_weight [ (iv 0 3, 5); (iv 2 4, 3) ]);
  Alcotest.(check int) "empty interval ignored" 5
    (Interval.peak_weight [ (iv 0 2, 5); (iv 1 1, 100) ])

let test_peak_weight_instant () =
  let iv lo hi = Interval.make ~lo ~hi in
  let peak, at =
    Interval.peak_weight_instant [ (iv 0 4, 1); (iv 2 6, 2); (iv 3 5, 4) ]
  in
  Alcotest.(check int) "peak" 7 peak;
  Alcotest.(check int) "at" 3 at

let interval_blocks_gen =
  QCheck2.Gen.(
    list_size (int_range 0 20)
      (map3
         (fun lo len w -> (Interval.make ~lo ~hi:(lo + len), w))
         (int_range 0 30) (int_range 0 10) (int_range 0 50)))

let brute_force_peak blocks =
  let peak = ref 0 in
  for t = 0 to 45 do
    let here =
      List.fold_left
        (fun acc (iv, w) -> if Interval.contains iv t then acc + w else acc)
        0 blocks
    in
    if here > !peak then peak := here
  done;
  !peak

let prop_peak_weight_matches_brute_force =
  QCheck2.Test.make ~name:"interval: sweep peak equals brute force"
    ~count:300 interval_blocks_gen (fun blocks ->
      Interval.peak_weight blocks = brute_force_peak blocks)

(* --- Prng ------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42L in
  let b = Prng.create ~seed:42L in
  let seq g = List.init 20 (fun _ -> Prng.int g ~bound:1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b)

let test_prng_copy_is_independent () =
  let a = Prng.create ~seed:7L in
  let b = Prng.copy a in
  ignore (Prng.next_int64 a);
  ignore (Prng.next_int64 a);
  let va = Prng.next_int64 a in
  let v1 = Prng.next_int64 b in
  Alcotest.(check bool) "copy starts at the copied state" false (va = v1)

let test_prng_bounds () =
  let g = Prng.create ~seed:1L in
  for _ = 1 to 1000 do
    let v = Prng.int g ~bound:17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in g ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done;
  for _ = 1 to 1000 do
    let v = Prng.float g in
    Alcotest.(check bool) "unit float" true (v >= 0. && v < 1.)
  done

let test_prng_errors () =
  let g = Prng.create ~seed:1L in
  Alcotest.check_raises "bound 0"
    (invalid "Prng.int" "bound must be positive (got 0)") (fun () ->
      ignore (Prng.int g ~bound:0));
  Alcotest.check_raises "hi < lo" (invalid "Prng.int_in" "hi (2) < lo (3)")
    (fun () -> ignore (Prng.int_in g ~lo:3 ~hi:2));
  Alcotest.check_raises "empty pick"
    (invalid "Prng.pick" "empty list") (fun () ->
      ignore (Prng.pick g []))

(* --- Stats ------------------------------------------------------------ *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ])

let test_stats_min_max_percentile () =
  check_float "min" 1. (Stats.percentile [ 3.; 1.; 2. ] ~p:0.);
  check_float "max" 3. (Stats.percentile [ 3.; 1.; 2. ] ~p:100.);
  check_float "median" 2. (Stats.percentile [ 1.; 2.; 3. ] ~p:50.);
  check_float "p0" 1. (Stats.percentile [ 1.; 2.; 3. ] ~p:0.);
  check_float "p100" 3. (Stats.percentile [ 1.; 2.; 3. ] ~p:100.);
  check_float "interpolated" 1.5 (Stats.percentile [ 1.; 2. ] ~p:50.)

let test_stats_gain () =
  check_float "60% gain" 60. (Stats.percent_gain ~baseline:100. ~improved:40.);
  check_float "negative gain" (-50.)
    (Stats.percent_gain ~baseline:100. ~improved:150.);
  Alcotest.check_raises "zero baseline"
    (invalid "Stats.percent_gain" "zero baseline") (fun () ->
      ignore (Stats.percent_gain ~baseline:0. ~improved:1.))

let test_stats_empty_rejected () =
  Alcotest.check_raises "mean of empty"
    (invalid "Stats.mean" "empty list") (fun () ->
      ignore (Stats.mean []))

(* --- Json ------------------------------------------------------------- *)

module Json = Mhla_util.Json

let test_json_compact () =
  let v =
    Json.obj
      [ ("name", Json.str "a\"b");
        ("n", Json.int 42);
        ("x", Json.float 1.5);
        ("ok", Json.bool true);
        ("none", Json.null);
        ("list", Json.arr [ Json.int 1; Json.int 2 ]) ]
  in
  Alcotest.(check string) "compact rendering"
    "{\"name\":\"a\\\"b\",\"n\":42,\"x\":1.5,\"ok\":true,\"none\":null,\"list\":[1,2]}"
    (Json.to_string v)

let test_json_escapes_control_chars () =
  let rendered = Json.to_string (Json.str "line1\nline2\ttab\x01") in
  Alcotest.(check string) "escaped"
    "\"line1\\nline2\\ttab\\u0001\"" rendered

let test_json_empty_containers () =
  Alcotest.(check string) "empty obj" "{}" (Json.to_string (Json.obj []));
  Alcotest.(check string) "empty arr" "[]" (Json.to_string (Json.arr []))

let test_json_rejects_nan () =
  Alcotest.check_raises "nan" (invalid "Json.float" "not representable")
    (fun () -> ignore (Json.float Float.nan));
  Alcotest.check_raises "inf" (invalid "Json.float" "not representable")
    (fun () -> ignore (Json.float Float.infinity))

let test_json_pretty_indents () =
  let v = Json.obj [ ("a", Json.arr [ Json.int 1 ]) ] in
  let pretty = Json.to_string ~indent:2 v in
  Alcotest.(check bool) "has newlines" true (String.contains pretty '\n');
  Alcotest.(check bool) "longer than compact" true
    (String.length pretty > String.length (Json.to_string v))

let test_json_float_roundtrip () =
  List.iter
    (fun f ->
      let s = Json.to_string (Json.float f) in
      Alcotest.(check (float 0.)) ("roundtrip " ^ s) f (float_of_string s))
    [ 0.1; 1e300; -3.25; 1. /. 3. ]

(* --- Json.parse ------------------------------------------------------- *)

let check_parses expected input =
  match Json.parse input with
  | Ok v ->
    Alcotest.(check bool)
      (Printf.sprintf "parse %S" input)
      true (Json.equal expected v)
  | Error e ->
    Alcotest.failf "parse %S failed: %s" input (Json.parse_error_to_string e)

let check_parse_error ~line ~col ~reason input =
  match Json.parse input with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" input
  | Error e ->
    Alcotest.(check int) (Printf.sprintf "%S: line" input) line e.Json.line;
    Alcotest.(check int) (Printf.sprintf "%S: column" input) col e.Json.col;
    let has_sub hay needle =
      let hn = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%S: reason %S in %S" input reason e.Json.reason)
      true (has_sub e.Json.reason reason)

let test_json_parse_values () =
  check_parses (Json.int 42) "  42  ";
  check_parses (Json.int (-7)) "-7";
  check_parses (Json.float 1.5) "1.5";
  check_parses (Json.float (-25.)) "-0.25e2";
  check_parses (Json.bool true) "true";
  check_parses (Json.bool false) "false";
  check_parses Json.null "null";
  check_parses (Json.str "A\xc3\xa9\t") "\"\\u0041\\u00e9\\t\"";
  (* surrogate pair: U+1F600 as UTF-8 *)
  check_parses (Json.str "\xf0\x9f\x98\x80") "\"\\ud83d\\ude00\"";
  check_parses
    (Json.obj
       [ ("a", Json.arr [ Json.int 1; Json.null ]);
         ("b", Json.obj []) ])
    " { \"a\" : [ 1 , null ] , \"b\" : { } } "

let test_json_parse_positions () =
  check_parse_error ~line:1 ~col:7 ~reason:"end of input" "{\"a\": ";
  check_parse_error ~line:1 ~col:9 ~reason:"expected object key" "{\"a\": 1,";
  check_parse_error ~line:1 ~col:3 ~reason:"bad escape" "\"a\\qb\"";
  check_parse_error ~line:1 ~col:8 ~reason:"duplicate key \"x\""
    "{\"x\":1,\"x\":2}";
  check_parse_error ~line:2 ~col:6 ~reason:"expected true" "{\n\"a\": tru\n}";
  check_parse_error ~line:1 ~col:2 ~reason:"unpaired surrogate" "\"\\ud800\"";
  check_parse_error ~line:1 ~col:3 ~reason:"trailing input" "1 2";
  check_parse_error ~line:1 ~col:1 ~reason:"integer out of range"
    "123456789012345678901234567890";
  check_parse_error ~line:1 ~col:3 ~reason:"unescaped control character"
    "\"a\nb\""

(* A string without escapes is sliced out of the input and a short
   integer accumulated while scanning; these pin that both fast paths
   hand over to the general ones with the same values and positions. *)
let test_json_parse_strings () =
  check_parses (Json.str "") "\"\"";
  check_parses (Json.str "plain") "\"plain\"";
  check_parses (Json.str "plain\nafter") "\"plain\\nafter\"";
  check_parses (Json.str "plain\"q\\/A") "\"plain\\\"q\\\\\\/\\u0041\"";
  check_parses (Json.str "caf\xc3\xa9") "\"caf\xc3\xa9\"";
  check_parses
    (Json.obj [ ("k\tey", Json.str "v") ])
    "{\"k\\tey\":\"v\"}";
  check_parse_error ~line:1 ~col:7 ~reason:"bad escape" "\"plain\\q\"";
  check_parse_error ~line:1 ~col:7 ~reason:"unescaped control character"
    "\"plain\x01x\"";
  check_parse_error ~line:1 ~col:9 ~reason:"unescaped control character"
    "\"pl\\nain\tx\"";
  check_parse_error ~line:1 ~col:7 ~reason:"unterminated string"
    "{\"k\": \"plain";
  check_parse_error ~line:1 ~col:7 ~reason:"unterminated string"
    "{\"k\": \"pl\\nain";
  check_parse_error ~line:1 ~col:7 ~reason:"truncated escape"
    "\"plain\\"

let test_json_parse_integers () =
  check_parses (Json.int 0) "-0";
  check_parses (Json.int 7) "007";
  check_parses (Json.int 999_999_999_999_999_999) "999999999999999999";
  check_parses (Json.int (-999_999_999_999_999_999)) "-999999999999999999";
  check_parses (Json.int 1_234_567_890_123_456_789) "1234567890123456789";
  check_parses (Json.int max_int) (string_of_int max_int);
  check_parses (Json.int min_int) "-4611686018427387904";
  check_parses (Json.arr [ Json.int 12; Json.int (-3) ]) "[12,-3]";
  check_parse_error ~line:1 ~col:1 ~reason:"integer out of range"
    "4611686018427387904";
  check_parse_error ~line:1 ~col:1 ~reason:"integer out of range"
    "-4611686018427387905";
  check_parse_error ~line:1 ~col:1 ~reason:"integer out of range"
    "9999999999999999999";
  check_parse_error ~line:1 ~col:5 ~reason:"integer out of range"
    "[1, 12345678901234567890]";
  check_parse_error ~line:1 ~col:2 ~reason:"expected digit" "-x"

let test_json_parse_depth_cap () =
  let deep k = String.make k '[' ^ String.make k ']' in
  (match Json.parse (deep Json.max_depth) with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "depth %d should parse: %s" Json.max_depth
      (Json.parse_error_to_string e));
  check_parse_error ~line:1 ~col:(Json.max_depth + 1) ~reason:"nesting deeper"
    (deep (Json.max_depth + 1))

let gen_json_doc =
  (* All-Int documents with distinct object keys: the fragment on which
     [parse] is the exact inverse of [to_string]. Strings mix plain
     runs with quotes, backslashes, control characters (rendered as
     escapes) and high bytes, so both string paths are exercised. *)
  QCheck2.Gen.(
    sized_size (int_range 0 4) @@ fix (fun self size ->
        let str_char =
          frequency
            [ (6, printable);
              (1, oneofl [ '"'; '\\'; '/' ]);
              (1, char_range '\000' '\031');
              (1, char_range '\128' '\255') ]
        in
        let leaf =
          oneof
            [ map Json.int (int_range (-1000) 1000);
              map Json.int (oneofl [ max_int; min_int; 0 ]);
              map Json.str (string_size ~gen:str_char (int_range 0 12));
              map Json.bool bool;
              return Json.null ]
        in
        if size = 0 then leaf
        else
          oneof
            [ leaf;
              map Json.arr (list_size (int_range 0 4) (self (size - 1)));
              map
                (fun vs ->
                  Json.obj (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) vs))
                (list_size (int_range 0 4) (self (size - 1))) ]))

let prop_json_parse_inverts_render =
  QCheck2.Test.make ~name:"json: parse inverts to_string (compact and pretty)"
    ~count:300 gen_json_doc (fun doc ->
      let ok rendered =
        match Json.parse rendered with
        | Ok v -> Json.equal doc v
        | Error _ -> false
      in
      ok (Json.to_string doc) && ok (Json.to_string ~indent:2 doc))

(* --- Table ------------------------------------------------------------ *)

let test_table_render () =
  let t =
    Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "10000" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  (match lines with
  | header :: rule :: row1 :: _ ->
    Alcotest.(check int) "aligned widths" (String.length header)
      (String.length rule);
    Alcotest.(check int) "rows aligned" (String.length header)
      (String.length row1)
  | _ -> Alcotest.fail "expected at least three lines");
  Alcotest.(check bool) "right aligned value" true
    (let last = List.nth lines 2 in
     String.length last > 0
     && last.[String.length last - 1] = '1')

let test_table_rejects_bad_row () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "row width"
    (invalid "Table.add_row" "2 cells for 1 columns") (fun () ->
      Table.add_row t [ "x"; "y" ])

(* --- Domain_pool ------------------------------------------------------- *)

module Domain_pool = Mhla_util.Domain_pool

let test_pool_recommended_jobs () =
  Alcotest.(check bool) "at least one worker" true
    (Domain_pool.recommended_jobs () >= 1)

let test_pool_matches_list_map () =
  let xs = List.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs %d = List.map" jobs)
        expected
        (Domain_pool.map ~jobs f xs))
    [ 1; 2; 4; 100 ];
  Alcotest.(check (list int)) "default jobs = List.map" expected
    (Domain_pool.map f xs)

let test_pool_order_with_uneven_work () =
  (* Cheap and expensive tasks interleaved: dynamic scheduling must not
     leak completion order into the result order. *)
  let xs = List.init 24 (fun i -> i) in
  let f x =
    let spin = if x mod 2 = 0 then 20_000 else 1 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := !acc + ((x + k) mod 7)
    done;
    (x, !acc land 0)
  in
  Alcotest.(check (list (pair int int)))
    "input order preserved" (List.map f xs)
    (Domain_pool.map ~jobs:4 f xs)

let test_pool_edge_cases () =
  Alcotest.(check (list int)) "empty list" []
    (Domain_pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ]
    (Domain_pool.map ~jobs:4 (fun x -> x * 3) [ 3 ]);
  Alcotest.(check (list int)) "jobs clamped below one" [ 2; 4 ]
    (Domain_pool.map ~jobs:(-3) (fun x -> 2 * x) [ 1; 2 ])

let test_pool_raises_earliest_failure () =
  let f x = if x mod 2 = 0 then failwith (string_of_int x) else x in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs %d: earliest failing input wins" jobs)
        (Failure "2")
        (fun () -> ignore (Domain_pool.map ~jobs f [ 1; 2; 3; 4; 5; 6 ])))
    [ 1; 3 ]

let test_pool_cancellation_skips_unstarted () =
  (* One early crash must stop the batch paying for the rest of the
     sweep: items claimed after the failure lands are skipped at the
     cursor. The spin makes honest items slow enough that the flag is
     set long before the cursor could cover the list. *)
  let executed = Atomic.make 0 in
  let spin () =
    for _ = 0 to 200_000 do
      ignore (Sys.opaque_identity 0)
    done
  in
  let items = List.init 64 Fun.id in
  Alcotest.check_raises "failure still wins" (Failure "boom") (fun () ->
      ignore
        (Domain_pool.map ~jobs:2
           (fun i ->
             if i = 0 then failwith "boom";
             spin ();
             Atomic.incr executed;
             i)
           items));
  Alcotest.(check bool)
    (Printf.sprintf "unstarted work skipped (executed %d of 63)"
       (Atomic.get executed))
    true
    (Atomic.get executed < 32)

let test_pool_sequential_failure_stops_early () =
  let executed = ref 0 in
  Alcotest.check_raises "sequential failure" (Failure "boom") (fun () ->
      ignore
        (Domain_pool.map ~jobs:1
           (fun i ->
             if i = 2 then failwith "boom";
             incr executed;
             i)
           [ 0; 1; 2; 3; 4 ]));
  Alcotest.(check int) "items after the failure never ran" 2 !executed

let test_table_cells () =
  Alcotest.(check string) "float" "1.50" (Table.cell_float 1.5);
  Alcotest.(check string) "float decimals" "1.5"
    (Table.cell_float ~decimals:1 1.5);
  Alcotest.(check string) "percent" "42.0%" (Table.cell_percent 42.);
  Alcotest.(check string) "int" "7" (Table.cell_int 7)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "pareto",
        [
          Alcotest.test_case "dominates" `Quick test_pareto_dominates;
          Alcotest.test_case "add drops dominated" `Quick
            test_pareto_add_keeps_non_dominated;
          Alcotest.test_case "sorted by x" `Quick test_pareto_sorted_by_x;
          Alcotest.test_case "empty" `Quick test_pareto_empty;
          qc prop_pareto_no_internal_domination;
          qc prop_pareto_covers_inputs;
        ] );
      ( "pareto.nd",
        [
          Alcotest.test_case "point basics" `Quick test_nd_point_basics;
          Alcotest.test_case "bad points rejected" `Quick
            test_nd_point_rejected;
          Alcotest.test_case "frontier behaviour" `Quick
            test_nd_frontier_behaviour;
          qc prop_nd_of_list_non_dominated;
          qc prop_nd_insertion_order_invariant;
          qc prop_nd_add_idempotent;
          qc prop_nd_ties_first_writer_wins;
        ] );
      ( "interval",
        [
          Alcotest.test_case "make rejects reversed" `Quick
            test_interval_make_rejects_reversed;
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "hull with empty" `Quick
            test_interval_hull_with_empty;
          Alcotest.test_case "peak weight hand cases" `Quick
            test_peak_weight_hand;
          Alcotest.test_case "peak instant" `Quick test_peak_weight_instant;
          qc prop_peak_weight_matches_brute_force;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "copy" `Quick test_prng_copy_is_independent;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "errors" `Quick test_prng_errors;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "min max percentile" `Quick
            test_stats_min_max_percentile;
          Alcotest.test_case "percent gain" `Quick test_stats_gain;
          Alcotest.test_case "empty rejected" `Quick
            test_stats_empty_rejected;
        ] );
      ( "json",
        [
          Alcotest.test_case "compact" `Quick test_json_compact;
          Alcotest.test_case "control chars" `Quick
            test_json_escapes_control_chars;
          Alcotest.test_case "empty containers" `Quick
            test_json_empty_containers;
          Alcotest.test_case "rejects nan" `Quick test_json_rejects_nan;
          Alcotest.test_case "pretty" `Quick test_json_pretty_indents;
          Alcotest.test_case "float roundtrip" `Quick
            test_json_float_roundtrip;
          Alcotest.test_case "parse values" `Quick test_json_parse_values;
          Alcotest.test_case "parse error positions" `Quick
            test_json_parse_positions;
          Alcotest.test_case "parse strings" `Quick test_json_parse_strings;
          Alcotest.test_case "parse integers" `Quick test_json_parse_integers;
          Alcotest.test_case "parse depth cap" `Quick
            test_json_parse_depth_cap;
          qc prop_json_parse_inverts_render;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "recommended jobs" `Quick
            test_pool_recommended_jobs;
          Alcotest.test_case "matches List.map" `Quick
            test_pool_matches_list_map;
          Alcotest.test_case "order with uneven work" `Quick
            test_pool_order_with_uneven_work;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "earliest failure wins" `Quick
            test_pool_raises_earliest_failure;
          Alcotest.test_case "cancellation skips unstarted work" `Quick
            test_pool_cancellation_skips_unstarted;
          Alcotest.test_case "sequential failure stops early" `Quick
            test_pool_sequential_failure_stops_early;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bad row" `Quick test_table_rejects_bad_row;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
