(* The seeded workload generator, shrinker and differential oracle
   behind `mhla fuzz`. *)

module Gen = Mhla_gen.Generate
module Interp = Mhla_trace.Interp
module Oracle = Mhla_gen.Oracle
module Program = Mhla_ir.Program
module Shrink = Mhla_gen.Shrink
module Snippet = Mhla_gen.Snippet

let render p = Fmt.str "%a" Program.pp p

let seeds lo hi = List.init (hi - lo + 1) (fun k -> Int64.of_int (lo + k))

let profiles =
  List.filter (fun (_, p) -> p <> Gen.Mixed) Gen.all_profiles

(* --- generation -------------------------------------------------------- *)

let test_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.case ~profile:Gen.Mixed ~seed () in
      let b = Gen.case ~profile:Gen.Mixed ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld: byte-identical program" seed)
        (render a.Gen.program) (render b.Gen.program);
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld: same budget" seed)
        a.Gen.onchip_bytes b.Gen.onchip_bytes)
    (seeds 1 20)

let test_resolved_profile_replays () =
  (* A Mixed case replays byte-identically under its resolved profile:
     what makes `mhla fuzz --replay` print the concrete profile. *)
  List.iter
    (fun seed ->
      let mixed = Gen.case ~profile:Gen.Mixed ~seed () in
      let direct = Gen.case ~profile:mixed.Gen.resolved ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld: mixed = resolved" seed)
        (render mixed.Gen.program)
        (render direct.Gen.program))
    (seeds 1 20)

let test_generated_programs_interpret_in_bounds () =
  (* The interpreter raises on any out-of-bounds subscript, so running
     it is the bounds proof; the count equality is the free differential. *)
  List.iter
    (fun (pname, profile) ->
      List.iter
        (fun seed ->
          let case = Gen.case ~profile ~seed () in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %Ld: dynamic = static events" pname seed)
            (Program.total_access_count case.Gen.program)
            (Interp.count_events case.Gen.program))
        (seeds 1 40))
    profiles

let test_budget_pure_and_sane () =
  List.iter
    (fun seed ->
      let case = Gen.case ~profile:Gen.Capacity_tight ~seed () in
      let again = Gen.budget_for ~profile:Gen.Capacity_tight case.Gen.program in
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld: budget_for is pure" seed)
        case.Gen.onchip_bytes again;
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: budget >= 24" seed)
        true (case.Gen.onchip_bytes >= 24))
    (seeds 1 20)

(* --- oracle ------------------------------------------------------------ *)

let test_oracle_clean_on_generated_programs () =
  (* Every generated program must pass the full battery at every
     profile — this is the `mhla check`-clean property the fuzz gate
     relies on. *)
  List.iter
    (fun (pname, profile) ->
      List.iter
        (fun seed ->
          let o = Oracle.run_case ~profile ~seed () in
          Alcotest.(check (list string))
            (Printf.sprintf "%s seed %Ld: no failures" pname seed)
            []
            (List.map
               (fun (f : Oracle.failure) ->
                 f.Oracle.check ^ ": " ^ f.Oracle.detail)
               o.Oracle.failures))
        (seeds 1 8))
    (("mixed", Gen.Mixed) :: profiles)

let contains ~needle s =
  let n = String.length needle and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* Each seeded drift must fail its check; the engine drift must trip
   both search comparisons, the greedy's and the annealing's. *)
let test_mutations_fire () =
  List.iter
    (fun (mutate, check, details) ->
      let o = Oracle.run_case ~mutate ~profile:Gen.Mixed ~seed:5L () in
      let fired =
        List.filter
          (fun (f : Oracle.failure) -> f.Oracle.check = check)
          o.Oracle.failures
      in
      Alcotest.(check bool) (check ^ " drift detected") true (fired <> []);
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s drift: a failure names %S" check needle)
            true
            (List.exists
               (fun (f : Oracle.failure) -> contains ~needle f.Oracle.detail)
               fired))
        details)
    [ ( Oracle.Drift_engine,
        "engine",
        [ "greedy decisions diverge"; "annealing decisions diverge" ] );
      (Oracle.Drift_interp, "interp", []) ]

(* --- shrinker ---------------------------------------------------------- *)

let test_shrink_known_bad_predicate_deterministic () =
  (* A structural predicate ("some statement writes a0") must shrink to
     the same byte-identical minimum on every run, and the minimum must
     be loop-free: deletion alone cannot get there (removing the only
     loop would drop the statement too), so this also proves the
     inlining edit works. *)
  let predicate p =
    Program.fold_stmts p ~init:false ~f:(fun acc ctx ->
        acc
        || List.exists Mhla_ir.Access.is_write
             ctx.Program.stmt.Mhla_ir.Stmt.accesses)
  in
  List.iter
    (fun seed ->
      let case = Gen.case ~profile:Gen.Te_hostile ~seed () in
      let a = Shrink.run ~predicate case.Gen.program in
      let b = Shrink.run ~predicate case.Gen.program in
      let name fmt = Printf.sprintf fmt seed in
      Alcotest.(check string)
        (name "seed %Ld: byte-identical minimum")
        (render a) (render b);
      Alcotest.(check bool) (name "seed %Ld: still satisfies") true
        (predicate a);
      let contexts = Program.contexts a in
      Alcotest.(check int) (name "seed %Ld: one statement left") 1
        (List.length contexts);
      Alcotest.(check (list (pair string int)))
        (name "seed %Ld: no loops left")
        []
        (List.concat_map
           (fun (c : Program.context) -> c.Program.loops)
           contexts);
      let s = (List.hd contexts).Program.stmt in
      Alcotest.(check int) (name "seed %Ld: one access left") 1
        (List.length s.Mhla_ir.Stmt.accesses);
      Alcotest.(check int) (name "seed %Ld: work shrunk to zero") 0
        s.Mhla_ir.Stmt.work_cycles)
    (seeds 1 10)

let test_shrink_rejecting_predicate_is_identity () =
  let case = Gen.case ~profile:Gen.Mixed ~seed:3L () in
  let out = Shrink.run ~predicate:(fun _ -> false) case.Gen.program in
  Alcotest.(check string) "input returned unchanged"
    (render case.Gen.program) (render out)

let test_shrink_counterexample_deterministic () =
  let o = Oracle.run_case ~mutate:Oracle.Drift_engine ~profile:Gen.Mixed
      ~seed:7L ()
  in
  Alcotest.(check bool) "engine drift present" true (o.Oracle.failures <> []);
  let shrink () =
    Oracle.shrink_counterexample ~mutate:Oracle.Drift_engine
      ~profile:o.Oracle.profile ~failing:[ "engine" ] o.Oracle.program
  in
  let a = shrink () and b = shrink () in
  Alcotest.(check string) "byte-identical shrunk counterexample" (render a)
    (render b);
  Alcotest.(check bool) "shrunk no larger" true
    (Program.total_access_count a
    <= Program.total_access_count o.Oracle.program)

(* --- snippet ----------------------------------------------------------- *)

let test_snippet_renders_structure () =
  let case = Gen.case ~profile:Gen.Te_hostile ~seed:11L () in
  let p = case.Gen.program in
  let s = Snippet.to_build p in
  let occurrences needle =
    let n = String.length needle and l = String.length s in
    let rec go i acc =
      if i + n > l then acc
      else go (i + 1) (acc + if String.sub s i n = needle then 1 else 0)
    in
    go 0 0
  in
  Alcotest.(check bool) "opens the DSL" true
    (String.length s > String.length "let open Mhla_ir.Build in"
    && String.sub s 0 25 = "let open Mhla_ir.Build in");
  Alcotest.(check int) "one program constructor" 1 (occurrences "program \"");
  Alcotest.(check int) "every array declared"
    (List.length p.Program.arrays)
    (occurrences "array ");
  Alcotest.(check int) "every statement rendered"
    (List.length (Program.contexts p))
    (occurrences "stmt \"");
  let rec count_loops nodes =
    List.fold_left
      (fun acc -> function
        | Program.Loop l -> acc + 1 + count_loops l.Program.body
        | Program.Stmt _ -> acc)
      0 nodes
  in
  Alcotest.(check int) "every loop rendered" (count_loops p.Program.body)
    (occurrences "loop \"")

let test_snippet_affine_forms () =
  (* Cover the affine rendering branches via a hand-built program. *)
  let p =
    let open Mhla_ir.Build in
    program "forms"
      ~arrays:[ array ~element_bytes:2 "a" [ 10; 40 ] ]
      [ loop "x" 3
          [ loop "y" 2
              [ stmt "s"
                  [ rd "a" [ i "x" *$ 2 +$ c 1; i "y" *$ 16 +$ i "x" ];
                    wr "a" [ c 0; c 7 ] ] ] ] ]
  in
  let s = Snippet.to_build p in
  let contains needle =
    let n = String.length needle and l = String.length s in
    let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "renders %S" frag) true
        (contains frag))
    [
      {|i "x" *$ 2 +$ c 1|}; {|i "x" +$ i "y" *$ 16|} ;
      {|c 0|}; {|c 7|}; {|loop "x" 3|}; {|~element_bytes:|} ;
    ]

let test_snippet_affine_forms_no_element_bytes () =
  (* element_bytes 1 must not be rendered (it is the Build default). *)
  let p =
    let open Mhla_ir.Build in
    program "plain"
      ~arrays:[ array "a" [ 4 ] ]
      [ stmt "s" [ rd "a" [ c 0 ] ] ]
  in
  let s = Snippet.to_build p in
  let contains needle =
    let n = String.length needle and l = String.length s in
    let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no ~element_bytes for the default" false
    (contains "~element_bytes")

let () =
  Alcotest.run "gen"
    [
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "mixed replays as resolved" `Quick
            test_resolved_profile_replays;
          Alcotest.test_case "in bounds at every profile" `Quick
            test_generated_programs_interpret_in_bounds;
          Alcotest.test_case "budget pure and sane" `Quick
            test_budget_pure_and_sane;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean on generated programs" `Slow
            test_oracle_clean_on_generated_programs;
          Alcotest.test_case "seeded drifts fire" `Quick test_mutations_fire;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "known-bad predicate, deterministic minimum"
            `Quick test_shrink_known_bad_predicate_deterministic;
          Alcotest.test_case "rejecting predicate is identity" `Quick
            test_shrink_rejecting_predicate_is_identity;
          Alcotest.test_case "counterexample shrink deterministic" `Quick
            test_shrink_counterexample_deterministic;
        ] );
      ( "snippet",
        [
          Alcotest.test_case "renders structure" `Quick
            test_snippet_renders_structure;
          Alcotest.test_case "affine forms" `Quick test_snippet_affine_forms;
          Alcotest.test_case "default element bytes omitted" `Quick
            test_snippet_affine_forms_no_element_bytes;
        ] );
    ]
