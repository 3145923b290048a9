(* Additional edge-case coverage across the numeric substrates. *)

module R = Numerics.Rng
module V = Numerics.Vec
module M = Numerics.Matrix
module F = Numerics.Fft
module Sx = Numerics.Simplex

let checkf ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let vec_tests =
  [
    Alcotest.test_case "axpy accumulates" `Quick (fun () ->
        let y = [| 1.0; 2.0 |] in
        V.axpy ~alpha:2.0 [| 3.0; -1.0 |] y;
        checkf "y0" 7.0 y.(0);
        checkf "y1" 0.0 y.(1));
    Alcotest.test_case "dot rejects size mismatch" `Quick (fun () ->
        let raised =
          try
            ignore (V.dot [| 1.0 |] [| 1.0; 2.0 |]);
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "raises" true raised);
    Alcotest.test_case "norm of unit vectors" `Quick (fun () ->
        checkf "norm" 1.0 (V.norm [| 1.0; 0.0; 0.0 |]);
        checkf "norm2" 2.0 (V.norm2 [| 1.0; -1.0 |]));
    Alcotest.test_case "mean of empty is zero" `Quick (fun () ->
        checkf "mean" 0.0 (V.mean [||]));
  ]

let matrix_tests =
  [
    Alcotest.test_case "matmul matches hand computation" `Quick (fun () ->
        let a = M.init 2 3 (fun i j -> float_of_int ((i * 3) + j)) in
        let b = M.init 3 2 (fun i j -> float_of_int ((i * 2) + j)) in
        let c = M.matmul a b in
        (* row 0 of a = [0;1;2]; col 0 of b = [0;2;4] -> 10 *)
        checkf "c00" 10.0 (M.get c 0 0);
        checkf "c01" 13.0 (M.get c 0 1);
        checkf "c10" 28.0 (M.get c 1 0));
    Alcotest.test_case "transpose is an involution" `Quick (fun () ->
        let r = R.create 2 in
        let a = M.init 4 3 (fun _ _ -> R.gaussian r) in
        let b = M.transpose (M.transpose a) in
        for i = 0 to 3 do
          for j = 0 to 2 do
            checkf "elt" (M.get a i j) (M.get b i j)
          done
        done);
    Alcotest.test_case "matmul associativity (small)" `Quick (fun () ->
        let r = R.create 5 in
        let a = M.init 3 4 (fun _ _ -> R.gaussian r) in
        let b = M.init 4 2 (fun _ _ -> R.gaussian r) in
        let c = M.init 2 5 (fun _ _ -> R.gaussian r) in
        let left = M.matmul (M.matmul a b) c in
        let right = M.matmul a (M.matmul b c) in
        for i = 0 to 2 do
          for j = 0 to 4 do
            checkf ~eps:1e-9 "assoc" (M.get left i j) (M.get right i j)
          done
        done);
  ]

let fft_tests =
  [
    Alcotest.test_case "fft is linear" `Quick (fun () ->
        let r = R.create 4 in
        let n = 16 in
        let x = Array.init n (fun _ -> R.gaussian r) in
        let y = Array.init n (fun _ -> R.gaussian r) in
        let fwd v =
          let re = Array.copy v and im = Array.make n 0.0 in
          F.forward re im;
          (re, im)
        in
        let xr, xi = fwd x and yr, yi = fwd y in
        let s = Array.init n (fun i -> (2.0 *. x.(i)) +. y.(i)) in
        let sr, si = fwd s in
        for i = 0 to n - 1 do
          checkf ~eps:1e-8 "re" ((2.0 *. xr.(i)) +. yr.(i)) sr.(i);
          checkf ~eps:1e-8 "im" ((2.0 *. xi.(i)) +. yi.(i)) si.(i)
        done);
    Alcotest.test_case "parseval holds" `Quick (fun () ->
        let r = R.create 6 in
        let n = 32 in
        let x = Array.init n (fun _ -> R.gaussian r) in
        let re = Array.copy x and im = Array.make n 0.0 in
        F.forward re im;
        let time_e = Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x in
        let freq_e = ref 0.0 in
        for i = 0 to n - 1 do
          freq_e := !freq_e +. (re.(i) *. re.(i)) +. (im.(i) *. im.(i))
        done;
        checkf ~eps:1e-6 "parseval" time_e (!freq_e /. float_of_int n));
    Alcotest.test_case "length-1 fft is the identity" `Quick (fun () ->
        let re = [| 3.5 |] and im = [| -1.0 |] in
        F.forward re im;
        checkf "re" 3.5 re.(0);
        checkf "im" (-1.0) im.(0));
  ]

let simplex_tests =
  [
    Alcotest.test_case "equality-only system solves" `Quick (fun () ->
        (* x + y = 4; x - y = 2 -> (3, 1) *)
        let p =
          {
            Sx.n_vars = 2;
            objective = [| 1.0; 1.0 |];
            constraints =
              [
                { Sx.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Sx.Eq; rhs = 4.0 };
                { Sx.coeffs = [ (0, 1.0); (1, -1.0) ]; op = Sx.Eq; rhs = 2.0 };
              ];
          }
        in
        match fst (Sx.solve ~reserve:0 p) with
        | Sx.Optimal s ->
            checkf ~eps:1e-7 "x" 3.0 s.Sx.x.(0);
            checkf ~eps:1e-7 "y" 1.0 s.Sx.x.(1)
        | r -> Alcotest.failf "unexpected %a" Sx.pp_result r);
    Alcotest.test_case "redundant equalities tolerated" `Quick (fun () ->
        let p =
          {
            Sx.n_vars = 2;
            objective = [| 1.0; 2.0 |];
            constraints =
              [
                { Sx.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Sx.Eq; rhs = 3.0 };
                { Sx.coeffs = [ (0, 2.0); (1, 2.0) ]; op = Sx.Eq; rhs = 6.0 };
              ];
          }
        in
        match fst (Sx.solve ~reserve:0 p) with
        | Sx.Optimal s -> checkf ~eps:1e-7 "obj" 3.0 s.Sx.objective_value
        | r -> Alcotest.failf "unexpected %a" Sx.pp_result r);
    Alcotest.test_case "zero-variable objective works" `Quick (fun () ->
        let p =
          {
            Sx.n_vars = 1;
            objective = [| 0.0 |];
            constraints =
              [ { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Le; rhs = 5.0 } ];
          }
        in
        match fst (Sx.solve ~reserve:0 p) with
        | Sx.Optimal s -> checkf "obj" 0.0 s.Sx.objective_value
        | r -> Alcotest.failf "unexpected %a" Sx.pp_result r);
    Alcotest.test_case "bad variable index rejected" `Quick (fun () ->
        let p =
          {
            Sx.n_vars = 1;
            objective = [| 1.0 |];
            constraints =
              [ { Sx.coeffs = [ (3, 1.0) ]; op = Sx.Le; rhs = 1.0 } ];
          }
        in
        let raised =
          try
            ignore (Sx.solve ~reserve:0 p);
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "raises" true raised);
  ]

let rng_tests =
  [
    Alcotest.test_case "split streams differ from parent" `Quick (fun () ->
        let a = R.create 42 in
        let b = R.split a in
        let xs = List.init 20 (fun _ -> R.float a) in
        let ys = List.init 20 (fun _ -> R.float b) in
        Alcotest.(check bool) "different" true
          (not (List.equal Float.equal xs ys)));
    Alcotest.test_case "uniform respects bounds" `Quick (fun () ->
        let r = R.create 9 in
        for _ = 1 to 500 do
          let v = R.uniform r ~lo:(-2.5) ~hi:7.25 in
          Alcotest.(check bool) "in range" true (v >= -2.5 && v < 7.25)
        done);
    Alcotest.test_case "uniform rejects inverted bounds" `Quick (fun () ->
        let r = R.create 1 in
        let raised =
          try
            ignore (R.uniform r ~lo:2.0 ~hi:1.0);
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "raises" true raised);
  ]

let checks_extra_tests =
  [
    Alcotest.test_case "horizontal symmetry group checks" `Quick (fun () ->
        (* two devices mirrored about a horizontal axis *)
        let d i name =
          Netlist.Device.make ~id:i ~name ~kind:Netlist.Device.Nmos ~w:1.0
            ~h:1.0
            ~pins:[| { Netlist.Device.pin_name = "p"; ox = 0.5; oy = 0.5 } |]
        in
        let c =
          Netlist.Circuit.make
            ~constraints:
              (Netlist.Constraint_set.make
                 ~sym_groups:
                   [ Netlist.Constraint_set.sym_group
                       ~axis:Netlist.Constraint_set.Horizontal [ (0, 1) ] ]
                 ())
            ~name:"h" ~devices:[| d 0 "a"; d 1 "b" |]
            ~nets:
              [| Netlist.Net.make ~id:0 ~name:"n"
                   [| { Netlist.Net.dev = 0; pin = 0 };
                      { Netlist.Net.dev = 1; pin = 0 } |] |]
            ()
        in
        let l = Netlist.Layout.create c in
        Netlist.Layout.set l 0 ~x:1.0 ~y:0.0;
        Netlist.Layout.set l 1 ~x:1.0 ~y:3.0;
        Alcotest.(check int) "symmetric" 0
          (List.length (Netlist.Checks.symmetry_violations l));
        Netlist.Layout.set l 1 ~x:1.4 ~y:3.0;
        Alcotest.(check bool) "x offset breaks it" true
          (match Netlist.Checks.symmetry_violations l with
          | [] -> false
          | _ -> true));
    Alcotest.test_case "bottom_to_top ordering checks" `Quick (fun () ->
        let d i name =
          Netlist.Device.make ~id:i ~name ~kind:Netlist.Device.Nmos ~w:1.0
            ~h:1.0
            ~pins:[| { Netlist.Device.pin_name = "p"; ox = 0.5; oy = 0.5 } |]
        in
        let c =
          Netlist.Circuit.make
            ~constraints:
              (Netlist.Constraint_set.make
                 ~orders:
                   [ { Netlist.Constraint_set.order_dir =
                         Netlist.Constraint_set.Bottom_to_top;
                       chain = [ 0; 1 ] } ]
                 ())
            ~name:"v" ~devices:[| d 0 "a"; d 1 "b" |]
            ~nets:
              [| Netlist.Net.make ~id:0 ~name:"n"
                   [| { Netlist.Net.dev = 0; pin = 0 } |] |]
            ()
        in
        let l = Netlist.Layout.create c in
        Netlist.Layout.set l 0 ~x:0.0 ~y:0.0;
        Netlist.Layout.set l 1 ~x:0.0 ~y:2.0;
        Alcotest.(check int) "ok" 0
          (List.length (Netlist.Checks.ordering_violations l));
        Netlist.Layout.set l 1 ~x:0.0 ~y:0.5;
        Alcotest.(check bool) "violated" true
          (match Netlist.Checks.ordering_violations l with
          | [] -> false
          | _ -> true));
  ]

let suites =
  [
    ("more.vec", vec_tests);
    ("more.matrix", matrix_tests);
    ("more.fft", fft_tests);
    ("more.simplex", simplex_tests);
    ("more.rng", rng_tests);
    ("more.checks", checks_extra_tests);
  ]
