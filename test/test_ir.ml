(* Unit and property tests for the loop-nest IR. *)

let invalid ?hint context message =
  Mhla_util.Error.(Error (make ?hint Invalid_input ~context message))

module Affine = Mhla_ir.Affine
module Array_decl = Mhla_ir.Array_decl
module Access = Mhla_ir.Access
module Stmt = Mhla_ir.Stmt
module Program = Mhla_ir.Program
module Build = Mhla_ir.Build

(* --- Affine ----------------------------------------------------------- *)

let env_of alist name = List.assoc name alist

let test_affine_eval () =
  let e = Affine.add (Affine.var ~coeff:3 "i") (Affine.const 2) in
  Alcotest.(check int) "3i+2 at i=4" 14
    (Affine.eval e ~env:(env_of [ ("i", 4) ]));
  let e2 = Affine.add e (Affine.var ~coeff:(-1) "j") in
  Alcotest.(check int) "3i - j + 2" 9
    (Affine.eval e2 ~env:(env_of [ ("i", 4); ("j", 5) ]))

let test_affine_cancellation () =
  let e = Affine.add (Affine.var "i") (Affine.var ~coeff:(-1) "i") in
  Alcotest.(check (list string)) "i - i is constant" [] (Affine.iterators e);
  Alcotest.(check int) "coeff of cancelled var" 0 (Affine.coeff e "i")

let test_affine_scale () =
  let e = Affine.scale 2 (Affine.add (Affine.var "i") (Affine.const 3)) in
  Alcotest.(check int) "2*(i+3) coeff" 2 (Affine.coeff e "i");
  Alcotest.(check int) "2*(i+3) const" 6 (Affine.constant_part e);
  Alcotest.(check (list string)) "scale by 0" []
    (Affine.iterators (Affine.scale 0 (Affine.var "i")))

let test_affine_var_zero_coeff () =
  Alcotest.(check (list string)) "var with coeff 0 is constant" []
    (Affine.iterators (Affine.var ~coeff:0 "i"))

let test_affine_iterators_sorted () =
  let e = Affine.add (Affine.var "z") (Affine.var "a") in
  Alcotest.(check (list string)) "sorted" [ "a"; "z" ] (Affine.iterators e)

let test_affine_extent () =
  let trip = env_of [ ("i", 10); ("j", 4) ] in
  let e = Affine.add (Affine.var "i") (Affine.var ~coeff:2 "j") in
  (* i sweeps 0..9 (extent 9), 2j sweeps 0,2,4,6 (extent 6). *)
  Alcotest.(check int) "both free" 15
    (Affine.extent e ~trip ~free:(fun _ -> true));
  Alcotest.(check int) "only i free" 9
    (Affine.extent e ~trip ~free:(fun n -> n = "i"));
  Alcotest.(check int) "none free" 0
    (Affine.extent e ~trip ~free:(fun _ -> false));
  (* Negative coefficients count via their magnitude. *)
  let neg = Affine.var ~coeff:(-3) "j" in
  Alcotest.(check int) "negative coeff" 9
    (Affine.extent neg ~trip ~free:(fun _ -> true))

let test_affine_min_max () =
  let trip = env_of [ ("i", 10) ] in
  let e = Affine.add (Affine.var ~coeff:(-2) "i") (Affine.const 5) in
  Alcotest.(check int) "min of -2i+5" (-13) (Affine.min_value e ~trip);
  Alcotest.(check int) "max of -2i+5" 5 (Affine.max_value e ~trip)

let test_affine_min_max_trip_guard () =
  (* A non-positive trip is a caller bug; min/max must refuse it with a
     structured error instead of silently treating the range as empty. *)
  let e = Affine.var "i" in
  Alcotest.check_raises "min_value trip 0"
    (invalid "Affine.min_value" "iterator i has trip 0") (fun () ->
      ignore (Affine.min_value e ~trip:(fun _ -> 0)));
  Alcotest.check_raises "max_value trip -3"
    (invalid "Affine.max_value" "iterator i has trip -3") (fun () ->
      ignore (Affine.max_value e ~trip:(fun _ -> -3)))

let test_affine_rename () =
  let e = Affine.add (Affine.var ~coeff:2 "i") (Affine.var "j") in
  let r = Affine.rename (fun n -> n ^ "'") e in
  Alcotest.(check (list string)) "renamed iterators" [ "i'"; "j'" ]
    (Affine.iterators r);
  Alcotest.(check int) "coeff follows the rename" 2 (Affine.coeff r "i'");
  (* Colliding targets would silently merge coefficients; the mapping
     must be rejected as non-injective instead. *)
  Alcotest.check_raises "non-injective mapping"
    (invalid ~hint:"use distinct target names for every iterator"
       "Affine.rename" "mapping is not injective: i and j both rename to k")
    (fun () -> ignore (Affine.rename (fun _ -> "k") e))

let test_affine_subst () =
  let e = Affine.add (Affine.var ~coeff:3 "i") (Affine.const 2) in
  let replacement = Affine.add (Affine.var ~coeff:4 "o") (Affine.var "t") in
  let e' = Affine.subst ~iter:"i" ~replacement e in
  (* 3*(4o + t) + 2 = 12o + 3t + 2 *)
  Alcotest.(check int) "outer coeff" 12 (Affine.coeff e' "o");
  Alcotest.(check int) "inner coeff" 3 (Affine.coeff e' "t");
  Alcotest.(check int) "const" 2 (Affine.constant_part e');
  Alcotest.(check int) "old iterator gone" 0 (Affine.coeff e' "i");
  (* Substituting an absent iterator is the identity. *)
  Alcotest.(check bool) "identity" true
    (Affine.equal e (Affine.subst ~iter:"zzz" ~replacement e))

let test_affine_equal_compare () =
  let a = Affine.add (Affine.var "i") (Affine.const 1) in
  let b = Affine.offset 1 (Affine.var "i") in
  Alcotest.(check bool) "structurally equal" true (Affine.equal a b);
  Alcotest.(check int) "compare equal" 0 (Affine.compare a b)

(* The Format printer [Affine.pp] used before it printed through
   [Affine.to_string]: the keys built from these strings must not move. *)
let format_pp ppf e =
  let pp_term ppf (name, c) =
    if c = 1 then Fmt.string ppf name else Fmt.pf ppf "%d*%s" c name
  in
  let terms =
    List.map (fun name -> (name, Affine.coeff e name)) (Affine.iterators e)
  in
  match (terms, Affine.constant_part e) with
  | [], c -> Fmt.int ppf c
  | terms, 0 -> Fmt.(list ~sep:(any " + ") pp_term) ppf terms
  | terms, c ->
    Fmt.pf ppf "%a + %d" Fmt.(list ~sep:(any " + ") pp_term) terms c

let test_affine_to_string () =
  let v ?coeff name = Affine.var ?coeff name in
  let sum = List.fold_left Affine.add (Affine.const 0) in
  List.iter
    (fun (expected, e) ->
      Alcotest.(check string) expected expected (Affine.to_string e);
      Alcotest.(check string) (expected ^ " (Format)") expected
        (Fmt.str "%a" format_pp e);
      Alcotest.(check string) (expected ^ " (pp)") expected
        (Fmt.str "%a" Affine.pp e))
    [ ("0", Affine.const 0);
      ("-7", Affine.const (-7));
      ("i", v "i");
      ("-2*i + j", sum [ v "j"; v ~coeff:(-2) "i" ]);
      ("16*by + y + -3", sum [ v "y"; v ~coeff:16 "by"; Affine.const (-3) ]);
      ("2*xs + 1", Affine.offset 1 (v ~coeff:2 "xs")) ]

let affine_gen =
  QCheck2.Gen.(
    let term =
      map2
        (fun c v -> Affine.var ~coeff:c ("i" ^ string_of_int v))
        (int_range (-5) 5) (int_range 0 3)
    in
    map2
      (fun terms k -> List.fold_left Affine.add (Affine.const k) terms)
      (list_size (int_range 0 5) term)
      (int_range (-10) 10))

let prop_eval_additive =
  QCheck2.Test.make ~name:"affine: eval (a+b) = eval a + eval b" ~count:200
    (QCheck2.Gen.pair affine_gen affine_gen) (fun (a, b) ->
      let env name = (String.length name * 13) mod 7 in
      Affine.eval (Affine.add a b) ~env
      = Affine.eval a ~env + Affine.eval b ~env)

let prop_eval_within_min_max =
  QCheck2.Test.make ~name:"affine: min <= eval <= max over the domain"
    ~count:200
    (QCheck2.Gen.pair affine_gen (QCheck2.Gen.int_range 0 100))
    (fun (e, salt) ->
      let trip _ = 6 in
      let env name = (salt + String.length name) mod 6 in
      let v = Affine.eval e ~env in
      Affine.min_value e ~trip <= v && v <= Affine.max_value e ~trip)

let prop_to_string_matches_format =
  QCheck2.Test.make ~name:"affine: to_string = the Format printer" ~count:200
    affine_gen (fun e -> Affine.to_string e = Fmt.str "%a" format_pp e)

let prop_extent_spans_min_max =
  QCheck2.Test.make ~name:"affine: extent = max - min when all free"
    ~count:200 affine_gen (fun e ->
      let trip _ = 6 in
      Affine.extent e ~trip ~free:(fun _ -> true)
      = Affine.max_value e ~trip - Affine.min_value e ~trip)

(* --- Array_decl / Access / Stmt -------------------------------------- *)

let test_array_decl () =
  let a = Array_decl.make ~name:"img" ~dims:[ 4; 6 ] ~element_bytes:2 in
  Alcotest.(check int) "elements" 24 (Array_decl.elements a);
  Alcotest.(check int) "bytes" 48 (Array_decl.size_bytes a);
  Alcotest.(check int) "rank" 2 (Array_decl.rank a)

let test_array_decl_validation () =
  let mk name dims eb () =
    ignore (Array_decl.make ~name ~dims ~element_bytes:eb)
  in
  Alcotest.check_raises "empty name"
    (invalid "Array_decl.make" "empty name")
    (mk "" [ 1 ] 1);
  Alcotest.check_raises "no dims"
    (invalid "Array_decl.make" "no dimensions")
    (mk "a" [] 1);
  Alcotest.check_raises "zero dim"
    (invalid "Array_decl.make" "non-positive dimension in a")
    (mk "a" [ 4; 0 ] 1);
  Alcotest.check_raises "zero elem"
    (invalid "Array_decl.make" "non-positive element size in a")
    (mk "a" [ 4 ] 0)

let test_access () =
  let a = Access.read "img" [ Affine.var "i"; Affine.var "j" ] in
  Alcotest.(check bool) "is read" true (Access.is_read a);
  Alcotest.(check bool) "not write" false (Access.is_write a);
  Alcotest.(check (list string)) "iterators" [ "i"; "j" ] (Access.iterators a);
  Alcotest.check_raises "empty index"
    (invalid "Access.make" "empty index") (fun () ->
      ignore (Access.read "img" []))

let test_stmt () =
  let s =
    Stmt.make ~name:"s" ~work_cycles:3
      ~accesses:
        [ Access.read "a" [ Affine.var "i" ];
          Access.write "b" [ Affine.var "i" ] ]
  in
  Alcotest.(check int) "work" 3 s.Stmt.work_cycles;
  Alcotest.(check (list (pair string bool))) "accesses in order"
    [ ("a", false); ("b", true) ]
    (List.map
       (fun (a : Access.t) -> (a.Access.array, Access.is_write a))
       s.Stmt.accesses);
  Alcotest.check_raises "negative work"
    (invalid "Stmt.make" "negative work in s") (fun () ->
      ignore (Stmt.make ~name:"s" ~work_cycles:(-1) ~accesses:[]))

(* --- Program validation ---------------------------------------------- *)

let simple_program () =
  let open Build in
  program "p"
    ~arrays:[ array "a" [ 10 ]; array "b" [ 10 ] ]
    [ loop "i" 10 [ stmt "s" ~work:2 [ rd "a" [ i "i" ]; wr "b" [ i "i" ] ] ] ]

let expect_error pattern ~arrays ~body =
  match Program.make ~name:"p" ~arrays ~body with
  | Ok _ -> Alcotest.fail ("expected validation error for " ^ pattern)
  | Error msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) (pattern ^ " in " ^ msg) true (contains msg pattern)

let test_program_validation_errors () =
  let open Build in
  let a10 = array "a" [ 10 ] in
  expect_error "duplicate array" ~arrays:[ a10; a10 ]
    ~body:[ stmt "s" [ rd "a" [ c 0 ] ] ];
  expect_error "duplicate iterator" ~arrays:[ a10 ]
    ~body:
      [ loop "i" 2 [ stmt "s1" [ rd "a" [ c 0 ] ] ];
        loop "i" 2 [ stmt "s2" [ rd "a" [ c 0 ] ] ] ];
  expect_error "duplicate statement" ~arrays:[ a10 ]
    ~body:[ stmt "s" [ rd "a" [ c 0 ] ]; stmt "s" [ rd "a" [ c 0 ] ] ];
  expect_error "undeclared array" ~arrays:[ a10 ]
    ~body:[ stmt "s" [ rd "nope" [ c 0 ] ] ];
  expect_error "rank" ~arrays:[ a10 ]
    ~body:[ stmt "s" [ rd "a" [ c 0; c 0 ] ] ];
  expect_error "not an enclosing loop" ~arrays:[ a10 ]
    ~body:[ stmt "s" [ rd "a" [ i "ghost" ] ] ];
  expect_error "has trip" ~arrays:[ a10 ]
    ~body:[ loop "i" 0 [ stmt "s" [ rd "a" [ i "i" ] ] ] ];
  expect_error "empty body" ~arrays:[ a10 ] ~body:[ loop "i" 2 [] ]

let test_program_sibling_nests () =
  let open Build in
  match
    Program.make ~name:"p"
      ~arrays:[ array "a" [ 10 ] ]
      ~body:
        [ loop "i" 2 [ loop "j" 2 [ stmt "s1" [ rd "a" [ i "j" ] ] ] ];
          loop "k" 2 [ stmt "s2" [ rd "a" [ i "k" ] ] ] ]
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_program_contexts () =
  let p = simple_program () in
  let ctxs = Program.contexts p in
  Alcotest.(check int) "one statement" 1 (List.length ctxs);
  let ctx = List.hd ctxs in
  Alcotest.(check int) "executions" 10 (Program.executions ctx);
  Alcotest.(check (list (pair string int)))
    "loops outermost first"
    [ ("i", 10) ]
    ctx.Program.loops

let test_program_context_order () =
  let open Build in
  let p =
    program "p"
      ~arrays:[ array "a" [ 4 ] ]
      [ stmt "first" [ rd "a" [ c 0 ] ];
        loop "i" 4
          [ stmt "second" [ rd "a" [ i "i" ] ];
            stmt "third" [ rd "a" [ i "i" ] ] ];
        stmt "fourth" [ wr "a" [ c 1 ] ] ]
  in
  Alcotest.(check (list string))
    "source order"
    [ "first"; "second"; "third"; "fourth" ]
    (Program.stmt_names p)

let test_program_metrics () =
  let open Build in
  let p =
    program "p"
      ~arrays:[ array "a" [ 100 ]; array "b" [ 100 ] ]
      [ loop "i" 10
          [ loop "j" 5
              [ stmt "s" ~work:3 [ rd "a" [ i "i" ]; wr "b" [ i "j" ] ] ] ];
        stmt "t" ~work:7 [ rd "a" [ c 0 ] ] ]
  in
  Alcotest.(check int) "accesses to a" 51 (Program.total_accesses p ~array:"a");
  Alcotest.(check int) "accesses to b" 50 (Program.total_accesses p ~array:"b");
  Alcotest.(check int) "total work" 157 (Program.total_work_cycles p);
  Alcotest.(check int) "total accesses" 101 (Program.total_access_count p);
  Alcotest.(check (option int)) "trip of j" (Some 5)
    (Program.iterator_trip p "j");
  Alcotest.(check (option int)) "trip of ghost" None
    (Program.iterator_trip p "ghost")

let test_program_find () =
  let p = simple_program () in
  Alcotest.(check bool) "find_array" true (Program.find_array p "a" <> None);
  Alcotest.(check bool) "find_array missing" true
    (Program.find_array p "zzz" = None);
  (match Program.find_context p ~stmt:"s" with
  | Some ctx ->
    Alcotest.(check string) "found stmt" "s" ctx.Program.stmt.Stmt.name
  | None -> Alcotest.fail "statement not found");
  Alcotest.(check bool) "missing stmt" true
    (Program.find_context p ~stmt:"zzz" = None)

let test_program_pp_smoke () =
  let p = simple_program () in
  let s = Fmt.str "%a" Program.pp p in
  Alcotest.(check bool) "non-empty rendering" true (String.length s > 10)

(* --- Access boxes ----------------------------------------------------- *)

(* A random access of rank 1..2 over a loop nest of up to three
   iterators: trips 1..6, coefficients -4..4, constants -8..8. *)
let nest_access_gen =
  QCheck2.Gen.(
    let* trips = list_size (int_range 0 3) (int_range 1 6) in
    let loops = List.mapi (fun k t -> (Printf.sprintf "i%d" k, t)) trips in
    let subscript =
      let* coeffs = list_repeat (List.length loops) (int_range (-4) 4) in
      let+ const = int_range (-8) 8 in
      List.fold_left2
        (fun e (it, _) c -> Affine.add e (Affine.var ~coeff:c it))
        (Affine.const const) loops coeffs
    in
    let+ index = list_size (int_range 1 2) subscript in
    (loops, Access.make ~array:"a" ~direction:Access.Read ~index))

(* Every point of the iteration space, as an environment. *)
let rec points = function
  | [] -> [ [] ]
  | (it, trip) :: rest ->
    List.concat_map
      (fun env -> List.init trip (fun v -> (it, v) :: env))
      (points rest)

let prop_access_box_enumerated =
  QCheck2.Test.make ~name:"access box = brute-force min/max" ~count:300
    ~print:(fun (loops, (a : Access.t)) ->
      Fmt.str "loops [%s], index [%s]"
        (String.concat "; "
           (List.map (fun (it, t) -> Printf.sprintf "%s:%d" it t) loops))
        (String.concat "; " (List.map Affine.to_string a.Access.index)))
    nest_access_gen
    (fun (loops, a) ->
      let envs = points loops in
      let enumerated e =
        let values =
          List.map (fun env -> Affine.eval e ~env:(fun it -> List.assoc it env))
            envs
        in
        (List.fold_left min max_int values, List.fold_left max min_int values)
      in
      Access.box loops a = List.map enumerated a.Access.index)

let prop_builder_nests_validate =
  QCheck2.Test.make ~name:"ir: rectangular nests validate" ~count:100
    QCheck2.Gen.(list_size (int_range 1 3) (int_range 1 6))
    (fun trips ->
      let open Build in
      let names = List.mapi (fun k _ -> Printf.sprintf "l%d" k) trips in
      let subscript = List.map (fun n -> i n) names in
      let body =
        List.fold_right2
          (fun name trip inner -> [ loop name trip inner ])
          names trips
          [ stmt "s" [ rd "a" subscript ] ]
      in
      match Program.make ~name:"p" ~arrays:[ array "a" trips ] ~body with
      | Ok p ->
        Program.total_accesses p ~array:"a" = List.fold_left ( * ) 1 trips
      | Error _ -> false)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "ir"
    [
      ( "affine",
        [
          Alcotest.test_case "eval" `Quick test_affine_eval;
          Alcotest.test_case "cancellation" `Quick test_affine_cancellation;
          Alcotest.test_case "scale" `Quick test_affine_scale;
          Alcotest.test_case "var coeff 0" `Quick test_affine_var_zero_coeff;
          Alcotest.test_case "iterators sorted" `Quick
            test_affine_iterators_sorted;
          Alcotest.test_case "extent" `Quick test_affine_extent;
          Alcotest.test_case "min / max" `Quick test_affine_min_max;
          Alcotest.test_case "min / max trip guard" `Quick
            test_affine_min_max_trip_guard;
          Alcotest.test_case "rename" `Quick test_affine_rename;
          Alcotest.test_case "equal / compare" `Quick
            test_affine_equal_compare;
          Alcotest.test_case "to_string" `Quick test_affine_to_string;
          qc prop_eval_additive;
          qc prop_to_string_matches_format;
          qc prop_eval_within_min_max;
          qc prop_extent_spans_min_max;
        ] );
      ("subst", [ Alcotest.test_case "affine subst" `Quick test_affine_subst ]);
      ("ranges", [ qc prop_access_box_enumerated ]);
      ( "decls",
        [
          Alcotest.test_case "array decl" `Quick test_array_decl;
          Alcotest.test_case "array validation" `Quick
            test_array_decl_validation;
          Alcotest.test_case "access" `Quick test_access;
          Alcotest.test_case "stmt" `Quick test_stmt;
        ] );
      ( "program",
        [
          Alcotest.test_case "validation errors" `Quick
            test_program_validation_errors;
          Alcotest.test_case "sibling nests" `Quick test_program_sibling_nests;
          Alcotest.test_case "contexts" `Quick test_program_contexts;
          Alcotest.test_case "context order" `Quick test_program_context_order;
          Alcotest.test_case "metrics" `Quick test_program_metrics;
          Alcotest.test_case "find" `Quick test_program_find;
          Alcotest.test_case "pp smoke" `Quick test_program_pp_smoke;
          qc prop_builder_nests_validate;
        ] );
    ]
