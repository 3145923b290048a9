(* Cross-cutting property tests: smoothing bounds, gradient structure,
   LP/ILP relationships, and placer invariants on randomised inputs. *)

module Q = QCheck2
module Sx = Numerics.Simplex
module I = Numerics.Ilp

let coords_gen k =
  Q.Gen.(array_size (pure k) (float_range (-20.0) 20.0))

let prop_wa_bounds =
  Q.Test.make ~name:"WA span is a lower bound of the exact span" ~count:300
    Q.Gen.(pair (int_range 2 8) (float_range 0.1 3.0))
    (fun (k, gamma) ->
      let rng = Numerics.Rng.create (k * 1000 + int_of_float (gamma *. 97.0)) in
      let coords =
        Array.init k (fun _ -> Numerics.Rng.uniform rng ~lo:(-20.0) ~hi:20.0)
      in
      let exact =
        Array.fold_left Float.max neg_infinity coords
        -. Array.fold_left Float.min infinity coords
      in
      let d = Array.make k 0.0 in
      let wa = Wirelength.Wa.span_grad ~gamma ~coords ~scale:1.0 ~dcoef:d in
      wa <= exact +. 1e-9 && wa >= 0.0)

let prop_lse_bounds =
  Q.Test.make ~name:"LSE span is an upper bound of the exact span" ~count:300
    Q.Gen.(pair (int_range 2 8) (float_range 0.1 3.0))
    (fun (k, gamma) ->
      let rng = Numerics.Rng.create (k * 991 + int_of_float (gamma *. 53.0)) in
      let coords =
        Array.init k (fun _ -> Numerics.Rng.uniform rng ~lo:(-20.0) ~hi:20.0)
      in
      let exact =
        Array.fold_left Float.max neg_infinity coords
        -. Array.fold_left Float.min infinity coords
      in
      let d = Array.make k 0.0 in
      let lse = Wirelength.Lse.span_grad ~gamma ~coords ~scale:1.0 ~dcoef:d in
      lse >= exact -. 1e-9)

(* Translation invariance of a span implies its gradient sums to 0. *)
let prop_span_grad_sums_zero =
  Q.Test.make ~name:"span gradients sum to zero" ~count:300
    Q.Gen.(int_range 2 9)
    (fun k ->
      let rng = Numerics.Rng.create (k * 7919) in
      let coords =
        Array.init k (fun _ -> Numerics.Rng.uniform rng ~lo:(-5.0) ~hi:5.0)
      in
      let d1 = Array.make k 0.0 and d2 = Array.make k 0.0 in
      ignore (Wirelength.Wa.span_grad ~gamma:0.7 ~coords ~scale:1.0 ~dcoef:d1);
      ignore (Wirelength.Lse.span_grad ~gamma:0.7 ~coords ~scale:1.0 ~dcoef:d2);
      let s a = Array.fold_left ( +. ) 0.0 a in
      abs_float (s d1) < 1e-9 && abs_float (s d2) < 1e-9)

(* The ILP optimum can never beat its LP relaxation. Costs of either
   sign, every variable at most 4, solved in the c >= 0 form
   ([Nonneg_form]), which moves both optima by the same offset. *)
let prop_ilp_weaker_than_lp =
  Q.Test.make ~name:"ILP objective >= LP relaxation objective" ~count:150
    Q.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let n = 2 + Numerics.Rng.int rng 3 in
      let m = 2 + Numerics.Rng.int rng 4 in
      let objective =
        Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:(-2.0) ~hi:2.0)
      in
      let constraints =
        List.init m (fun _ ->
            {
              Sx.coeffs =
                List.init n (fun j ->
                    (j, Numerics.Rng.uniform rng ~lo:(-1.0) ~hi:2.0));
              op = Sx.Le;
              rhs = Numerics.Rng.uniform rng ~lo:1.0 ~hi:8.0;
            })
      in
      let base =
        (Nonneg_form.complement ~ub:(fun _ -> Some 4.0)
           { Sx.n_vars = n; objective; constraints }).Nonneg_form.problem
      in
      match fst (Sx.solve ~reserve:0 base) with
      | Sx.Optimal lp ->
          let r = I.solve { I.base; kinds = Array.make n I.Integer } in
          (match r.I.status with
          | I.Ilp_optimal | I.Ilp_feasible ->
              r.I.objective_value >= lp.Sx.objective_value -. 1e-6
          | I.Ilp_infeasible -> true (* 0 is feasible: cannot happen *))
      | Sx.Infeasible | Sx.Iter_limit -> true)

(* ILP solutions respect integrality. Every cost is negative and every
   row has positive coefficients, so each variable is at most 6 / 0.3
   = 20; the c >= 0 form complements every variable under that bound,
   which keeps integrality. *)
let prop_ilp_integrality =
  Q.Test.make ~name:"ILP solutions are integral" ~count:150
    Q.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Numerics.Rng.create (seed + 31337) in
      let n = 2 + Numerics.Rng.int rng 3 in
      let objective = Array.init n (fun _ -> -1.0 -. Numerics.Rng.float rng) in
      let constraints =
        List.init (n + 1) (fun _ ->
            {
              Sx.coeffs =
                List.init n (fun j -> (j, 0.3 +. Numerics.Rng.float rng));
              op = Sx.Le;
              rhs = 2.0 +. (4.0 *. Numerics.Rng.float rng);
            })
      in
      let f =
        Nonneg_form.complement ~ub:(fun _ -> Some 20.0)
          { Sx.n_vars = n; objective; constraints }
      in
      let r =
        I.solve { I.base = f.Nonneg_form.problem; kinds = Array.make n I.Integer }
      in
      match r.I.status with
      | I.Ilp_optimal | I.Ilp_feasible ->
          Array.for_all
            (fun v -> abs_float (v -. Float.round v) < 1e-5)
            (Nonneg_form.original f r.I.x)
      | I.Ilp_infeasible -> true)

(* Random legal placements of the fixture evaluate consistently:
   hpwl via netview == hpwl via layout; steiner <= mst per net. *)
let prop_hpwl_consistency =
  Q.Test.make ~name:"netview and layout HPWL agree on random placements"
    ~count:200
    Q.Gen.(int_range 0 100000)
    (fun seed ->
      let c = Fixtures.diff_stage () in
      let rng = Numerics.Rng.create seed in
      let n = Netlist.Circuit.n_devices c in
      let xs = Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:0.0 ~hi:15.0) in
      let ys = Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:0.0 ~hi:15.0) in
      let l = Netlist.Layout.create c in
      Array.iteri (fun i x -> Netlist.Layout.set l i ~x ~y:ys.(i)) xs;
      let nv = Wirelength.Netview.of_circuit c in
      abs_float (Netlist.Layout.hpwl l -. Wirelength.Netview.hpwl nv ~xs ~ys)
      < 1e-9)

(* The island realisation used by SA and the dataset generator is
   always overlap-free and symmetric, for any sequence pair. *)
let prop_island_packing_legal =
  Q.Test.make ~name:"random island packings are legal" ~count:60
    Q.Gen.(int_range 0 100000)
    (fun seed ->
      let c = Circuits.Testcases.get_exn "CC-OTA" in
      let rng = Numerics.Rng.create seed in
      let islands = Array.of_list (Annealing.Island.decompose c) in
      let sp = Annealing.Seqpair.random rng (Array.length islands) in
      let widths = Array.map (fun (i : Annealing.Island.t) -> i.Annealing.Island.w) islands in
      let heights = Array.map (fun (i : Annealing.Island.t) -> i.Annealing.Island.h) islands in
      let xs, ys = Annealing.Seqpair.pack sp ~widths ~heights in
      let l = Netlist.Layout.create c in
      Array.iteri
        (fun b (isl : Annealing.Island.t) ->
          List.iter
            (fun (p : Annealing.Island.placed_dev) ->
              Netlist.Layout.set l p.Annealing.Island.dev
                ~x:(xs.(b) +. p.Annealing.Island.dx)
                ~y:(ys.(b) +. p.Annealing.Island.dy);
              Netlist.Layout.set_orient l p.Annealing.Island.dev
                p.Annealing.Island.orient)
            isl.Annealing.Island.devices)
        islands;
      Netlist.Layout.total_overlap l < 1e-6
      && (match Netlist.Checks.symmetry_violations l with
         | [] -> true
         | _ -> false))

(* FOM is monotone under uniform spreading (all metrics can only get
   worse when every wire gets longer and the area grows). *)
let prop_fom_monotone_spread =
  Q.Test.make ~name:"FOM does not improve under uniform spreading" ~count:25
    Q.Gen.(pair (int_range 0 10000) (float_range 1.3 2.5))
    (fun (seed, factor) ->
      let c = Circuits.Testcases.get_exn "CC-OTA" in
      let rng = Numerics.Rng.create seed in
      let islands = Array.of_list (Annealing.Island.decompose c) in
      let sp = Annealing.Seqpair.random rng (Array.length islands) in
      let widths = Array.map (fun (i : Annealing.Island.t) -> i.Annealing.Island.w) islands in
      let heights = Array.map (fun (i : Annealing.Island.t) -> i.Annealing.Island.h) islands in
      let xs, ys = Annealing.Seqpair.pack sp ~widths ~heights in
      let l = Netlist.Layout.create c in
      Array.iteri
        (fun b (isl : Annealing.Island.t) ->
          List.iter
            (fun (p : Annealing.Island.placed_dev) ->
              Netlist.Layout.set l p.Annealing.Island.dev
                ~x:(xs.(b) +. p.Annealing.Island.dx)
                ~y:(ys.(b) +. p.Annealing.Island.dy))
            isl.Annealing.Island.devices)
        islands;
      let f1 = Perfsim.Fom.fom l in
      let l2 = Netlist.Layout.copy l in
      for i = 0 to Netlist.Layout.n_devices l2 - 1 do
        Netlist.Layout.set l2 i
          ~x:(factor *. l2.Netlist.Layout.xs.(i))
          ~y:(factor *. l2.Netlist.Layout.ys.(i))
      done;
      Perfsim.Fom.fom l2 <= f1 +. 1e-9)

let pivots_counter = Telemetry.Counter.make "simplex.pivots"

(* The LP dual of Beale's cycling example, min b.u st A^T u >= -c,
   u >= 0; see "Beale cycling example terminates" in numerics.simplex *)
let beale_dual () =
  {
    Sx.n_vars = 3;
    objective = [| 0.0; 0.0; 1.0 |];
    constraints =
      [
        { Sx.coeffs = [ (0, 0.25); (1, 0.5) ]; op = Sx.Ge; rhs = 0.75 };
        { Sx.coeffs = [ (0, -60.0); (1, -90.0) ]; op = Sx.Ge; rhs = -150.0 };
        { Sx.coeffs = [ (0, -0.04); (1, -0.02); (2, 1.0) ]; op = Sx.Ge; rhs = 0.02 };
        { Sx.coeffs = [ (0, 9.0); (1, 3.0) ]; op = Sx.Ge; rhs = -6.0 };
      ];
  }

(* Random LPs for the dual simplex. Small-integer coefficients and
   right-hand sides around a nonnegative integer point make tied ratios
   and degenerate vertices common: rows mix Le/Ge/Eq and pass through
   or near the point (a rhs drawn freely now and then), a third of them
   are repeated with the same rhs, and a row contradicting an earlier
   one now and then makes about a quarter of the LPs infeasible. Every
   cost is >= 0, a third of them 0, so dual ratios tie. A tiny
   [max_iter] now and then covers the iteration limit. *)
let random_dual_lp seed =
  let rng = Numerics.Rng.create seed in
  let int lo hi = lo + Numerics.Rng.int rng (hi - lo + 1) in
  let n = int 1 7 in
  let x0 = Array.init n (fun _ -> float_of_int (int 0 3)) in
  let row () =
    let coeffs =
      List.filter_map
        (fun j ->
          match int 0 5 with
          | 0 | 1 -> None
          | 2 -> Some (j, Numerics.Rng.uniform rng ~lo:(-2.0) ~hi:2.0)
          | _ -> (
              match int (-3) 3 with 0 -> None | a -> Some (j, float_of_int a)))
        (List.init n Fun.id)
    in
    let ax0 =
      List.fold_left (fun acc (j, a) -> acc +. (a *. x0.(j))) 0.0 coeffs
    in
    let gap = float_of_int (int 0 3) in
    let k = int 0 9 in
    let op = if k < 5 then Sx.Le else if k < 8 then Sx.Ge else Sx.Eq in
    let rhs =
      if int 0 19 = 0 then float_of_int (int (-6) 6)
      else
        match op with Sx.Le -> ax0 +. gap | Sx.Ge -> ax0 -. gap | Sx.Eq -> ax0
    in
    { Sx.coeffs; op; rhs }
  in
  let rows = List.init (int 1 9) (fun _ -> row ()) in
  let tied = List.filter (fun _ -> int 0 2 = 0) rows in
  let contradiction =
    match rows with
    | { Sx.coeffs = _ :: _ as coeffs; op = Sx.Le | Sx.Eq; rhs } :: _
      when int 0 3 = 0 ->
        [ { Sx.coeffs; op = Sx.Ge; rhs = rhs +. 1.0 } ]
    | _ when int 0 9 = 0 ->
        [ { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Ge; rhs = 5.0 };
          { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Le; rhs = 2.0 } ]
    | _ -> []
  in
  let objective =
    Array.init n (fun _ ->
        match int 0 5 with
        | 0 | 1 -> 0.0
        | 2 -> Numerics.Rng.uniform rng ~lo:0.0 ~hi:3.0
        | _ -> float_of_int (int 1 3))
  in
  let max_iter = if int 0 9 = 0 then Some (int 0 3) else None in
  ( { Sx.n_vars = n; objective; constraints = rows @ tied @ contradiction },
    max_iter )

(* Warm-started branch and bound against the cold search it replaced
   ([Ilp_ref], which rebuilds and re-solves every node from scratch).
   Small integer data: Binary, Integer and Continuous variables, boxes
   on all but (now and then) one variable, Le/Ge/Eq rows through or
   near an integer point, rows sharing one rhs (tied ratios), and free
   right-hand sides that make some problems infeasible. Costs of
   either sign on the bounded variables are put in the c >= 0 form
   ([Nonneg_form]); the unboxed variable's cost is drawn >= 0. The two
   searches may visit different optimal vertices of a degenerate
   relaxation, so only the status and the objective are compared. *)
let random_ilp seed =
  let rng = Numerics.Rng.create seed in
  let int lo hi = lo + Numerics.Rng.int rng (hi - lo + 1) in
  let n = int 2 6 in
  let kinds =
    Array.init n (fun _ ->
        match int 0 4 with 0 | 1 -> I.Binary | 2 | 3 -> I.Integer | _ -> I.Continuous)
  in
  let top j = match kinds.(j) with I.Binary -> 1 | I.Integer | I.Continuous -> 3 in
  let x0 = Array.init n (fun j -> float_of_int (int 0 (top j))) in
  let tied = float_of_int (int 0 4) in
  let row () =
    let coeffs =
      List.filter_map
        (fun j ->
          match int (-3) 3 with
          | 0 -> None
          | a -> if int 0 3 = 0 then None else Some (j, float_of_int a))
        (List.init n Fun.id)
    in
    let ax0 = List.fold_left (fun acc (j, a) -> acc +. (a *. x0.(j))) 0.0 coeffs in
    let k = int 0 9 in
    let op = if k < 5 then Sx.Le else if k < 8 then Sx.Ge else Sx.Eq in
    let rhs =
      match int 0 5 with
      | 0 -> tied
      | 1 -> float_of_int (int (-3) 6)
      | _ -> (
          let gap = float_of_int (int 0 2) in
          match op with Sx.Le -> ax0 +. gap | Sx.Ge -> ax0 -. gap | Sx.Eq -> ax0)
    in
    { Sx.coeffs; op; rhs }
  in
  let unboxed = if int 0 9 = 0 then 0 else -1 in
  let boxes =
    List.filter_map
      (fun j ->
        if j = unboxed || kinds.(j) = I.Binary then None
        else Some { Sx.coeffs = [ (j, 1.0) ]; op = Sx.Le; rhs = float_of_int (top j) })
      (List.init n Fun.id)
  in
  let objective =
    Array.init n (fun j ->
        let c = float_of_int (int (-3) 3) in
        if j = unboxed then abs_float c else c)
  in
  let ub j =
    match kinds.(j) with
    | I.Binary -> Some 1.0
    | I.Integer | I.Continuous ->
        if j = unboxed then None else Some (float_of_int (top j))
  in
  let base =
    { Sx.n_vars = n; objective;
      constraints = List.init (int 1 6) (fun _ -> row ()) @ boxes }
  in
  { I.base = (Nonneg_form.complement ~ub base).Nonneg_form.problem; kinds }

let same_outcome (a : I.result) (b : I.result) =
  a.I.status = b.I.status
  &&
  match a.I.status with
  | I.Ilp_optimal | I.Ilp_feasible ->
      abs_float (a.I.objective_value -. b.I.objective_value)
      <= 1e-7 *. Float.max 1.0 (abs_float b.I.objective_value)
  | I.Ilp_infeasible -> true

let prop_ilp_matches_cold =
  Q.Test.make ~name:"warm branch and bound matches the cold reference"
    ~count:1000
    Q.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_ilp seed in
      same_outcome (I.solve p) (Ilp_ref.solve p))

(* The rows [Ilp.solve] relaxes at the root: binary bounds first. *)
let root_rows (p : I.problem) =
  let bounds =
    List.concat
      (List.mapi
         (fun j k ->
           if k = I.Binary then [ { Sx.coeffs = [ (j, 1.0) ]; op = Sx.Le; rhs = 1.0 } ]
           else [])
         (Array.to_list p.I.kinds))
  in
  { p.I.base with Sx.constraints = bounds @ p.I.base.Sx.constraints }

let counted counter f =
  let before = Telemetry.Counter.value counter in
  let r = f () in
  (r, Telemetry.Counter.value counter - before)

let prop_one_node_is_the_root_lp =
  Q.Test.make ~name:"one-node search returns the root LP's bits and pivots"
    ~count:300
    Q.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_ilp seed in
      let r, pivots = counted pivots_counter (fun () -> I.solve ~max_nodes:1 p) in
      let lp, lp_pivots =
        counted pivots_counter (fun () -> fst (Sx.solve ~reserve:0 (root_rows p)))
      in
      pivots = lp_pivots
      &&
      match (r.I.status, lp) with
      | (I.Ilp_optimal | I.Ilp_feasible), Sx.Optimal s ->
          let x =
            Array.mapi
              (fun j v ->
                if p.I.kinds.(j) <> I.Continuous && abs_float (v -. Float.round v) <= 1e-5
                then Float.round v
                else v)
              s.Sx.x
          in
          Array.for_all2 Float.equal x r.I.x
          && Int64.equal
               (Int64.bits_of_float s.Sx.objective_value)
               (Int64.bits_of_float r.I.objective_value)
      | (I.Ilp_optimal | I.Ilp_feasible), _ -> false
      | I.Ilp_infeasible, _ -> true)

(* Reserved rows and slack columns must not change a root pivot, nor
   move Bland's switch point. *)
let warm_root_same ?max_iter ~reserve p =
  let (r, _), pivots =
    counted pivots_counter (fun () -> Sx.solve ?max_iter ~reserve p)
  in
  let (r0, _), pivots0 =
    counted pivots_counter (fun () -> Sx.solve ?max_iter ~reserve:0 p)
  in
  pivots = pivots0
  &&
  match (r, r0) with
  | Sx.Optimal a, Sx.Optimal b ->
      Array.for_all2 Float.equal a.Sx.x b.Sx.x
      && Int64.equal
           (Int64.bits_of_float a.Sx.objective_value)
           (Int64.bits_of_float b.Sx.objective_value)
  | Sx.Infeasible, Sx.Infeasible
  | Sx.Iter_limit, Sx.Iter_limit -> true
  | _ -> false

let prop_reserve_keeps_root =
  Q.Test.make ~name:"a warm root solve takes the plain solve's pivots"
    ~count:500
    Q.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p, max_iter = random_dual_lp seed in
      warm_root_same ?max_iter ~reserve:(1 + (seed mod 6)) p)

(* max x + y  s.t.  2x + 3y <= 12,  3x + 2y <= 12 in its c >= 0 form:
   min x' + y' for x' = 4 - x, y' = 4 - y, LP optimum (1.6, 1.6) *)
let gap_lp () =
  { Sx.n_vars = 2;
    objective = [| 1.0; 1.0 |];
    constraints =
      [ { Sx.coeffs = [ (0, 2.0); (1, 3.0) ]; op = Sx.Ge; rhs = 8.0 };
        { Sx.coeffs = [ (0, 3.0); (1, 2.0) ]; op = Sx.Ge; rhs = 8.0 };
        { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Le; rhs = 4.0 };
        { Sx.coeffs = [ (1, 1.0) ]; op = Sx.Le; rhs = 4.0 } ] }

let with_row (p : Sx.problem) j op rhs =
  { p with Sx.constraints = p.Sx.constraints @ [ { Sx.coeffs = [ (j, 1.0) ]; op; rhs } ] }

let optimum = function
  | Sx.Optimal s -> s
  | r -> Alcotest.failf "expected an optimum, got %a" Sx.pp_result r

let check_close msg (a : Sx.solution) (b : Sx.solution) =
  let close u v = abs_float (u -. v) <= 1e-9 in
  Alcotest.(check bool) msg true
    (close a.Sx.objective_value b.Sx.objective_value
    && Array.for_all2 close a.Sx.x b.Sx.x)

(* A zero-cost LP, so every dual ratio is 0: its warm re-solve cycles
   under the dual Dantzig rule and also under a Bland switch that still
   breaks entering ties by the larger |a_j|. Rows
   1024 y_i - m_i.v = 1024000 leave each y_i basic at the root, so the
   added bound y_i >= 1000 + g_i / 1024 reads m_i.v >= g_i. *)
let dual_cycling () =
  let m =
    [| [| 3.0; 3.0; 6.0; 1.0 |]; [| 0.0; -4.0; 32.0; 0.0 |];
       [| -8.0; -2.0; -48.0; 0.25 |]; [| 0.0; -12.0; -2.0; -2.0 |] |]
  and g = [| 56.0; 0.0; 6.0; 0.0 |] in
  let lp =
    { Sx.n_vars = 8; objective = Array.make 8 0.0;
      constraints =
        List.init 4 (fun i ->
            { Sx.coeffs = (4 + i, 1024.0) :: List.init 4 (fun j -> (j, -.m.(i).(j)));
              op = Sx.Eq; rhs = 1024000.0 }) }
  in
  let bounds = List.init 4 (fun i -> (4 + i, 1000.0 +. (g.(i) /. 1024.0))) in
  (m, g, lp, bounds)

let ilp_warm_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ilp_matches_cold; prop_one_node_is_the_root_lp; prop_reserve_keeps_root ]
  @ [
      Alcotest.test_case "Beale LP: reserve keeps Bland's switch point" `Quick
        (fun () ->
          Alcotest.(check bool) "Beale's LP: same pivots and bits" true
            (warm_root_same ~reserve:40 (beale_dual ()));
          (* Beale's LP takes two dual pivots; the zero-cost LP of
             [dual_cycling] with its bound rows written as Ge rows
             cycles under the dual Dantzig rule from the slack basis
             until Bland's switch point (120 pivots), so a reserve that
             moved it would change the pivot count *)
          let _, _, lp, bounds = dual_cycling () in
          let rows =
            List.map (fun (j, b) -> { Sx.coeffs = [ (j, 1.0) ]; op = Sx.Ge; rhs = b }) bounds
          in
          let cycling = { lp with Sx.constraints = lp.Sx.constraints @ rows } in
          let _, pivots = counted pivots_counter (fun () -> Sx.solve ~reserve:0 cycling) in
          Alcotest.(check bool) "cycles until Bland's rule" true (pivots > 120);
          Alcotest.(check bool) "cycling LP: same pivots and bits" true
            (warm_root_same ~reserve:40 cycling));
      Alcotest.test_case "a dual-degenerate re-solve ends under Bland's rule" `Quick
        (fun () ->
          let m, g, lp, bounds = dual_cycling () in
          let root, w = Sx.solve ~reserve:4 lp in
          Alcotest.(check bool) "v nonbasic at the root" true
            (Array.for_all (fun v -> Float.equal v 0.0) (Array.sub (optimum root).Sx.x 0 4));
          List.iter (fun (j, b) -> Sx.add_bound w j Sx.Ge b) bounds;
          let cold =
            Dense_simplex_ref.solve
              { lp with
                Sx.constraints =
                  lp.Sx.constraints
                  @ List.map (fun (j, b) -> { Sx.coeffs = [ (j, 1.0) ]; op = Sx.Ge; rhs = b }) bounds }
          in
          match (Sx.resolve w, cold) with
          | Sx.Optimal s, Sx.Optimal _ ->
              Array.iteri
                (fun i row ->
                  let lhs = ref 0.0 in
                  Array.iteri (fun j a -> lhs := !lhs +. (a *. s.Sx.x.(j))) row;
                  Alcotest.(check bool) (Printf.sprintf "row %d holds" i) true
                    (!lhs >= g.(i) -. 1e-9))
                m
          | Sx.Infeasible, Sx.Infeasible -> ()
          | r, c ->
              Alcotest.failf "warm %a, cold %a" Sx.pp_result r Sx.pp_result c);
      Alcotest.test_case "an infeasible child, then its sibling" `Quick
        (fun () ->
          (* min x s.t. 4x >= 5: the root has x = 1.25, so the down
             child x <= 1 is solved first, warm from its parent, and is
             infeasible; the up child x >= 2 gives the optimum *)
          let lp =
            { Sx.n_vars = 1; objective = [| 1.0 |];
              constraints = [ { Sx.coeffs = [ (0, 4.0) ]; op = Sx.Ge; rhs = 5.0 } ] }
          in
          let root, w = Sx.solve ~reserve:1 lp in
          Alcotest.(check (float 1e-12)) "root" 1.25 (optimum root).Sx.x.(0);
          Sx.add_bound w 0 Sx.Le 1.0;
          Alcotest.(check bool) "down child infeasible" true
            (match Sx.resolve w with Sx.Infeasible -> true | _ -> false);
          let p = { I.base = lp; kinds = [| I.Integer |] } in
          let r = I.solve p and r_ref = Ilp_ref.solve p in
          Alcotest.(check bool) "optimal" true (r.I.status = I.Ilp_optimal);
          Alcotest.(check (float 1e-12)) "x" 2.0 r.I.x.(0);
          Alcotest.(check int) "nodes as the cold search" r_ref.I.nodes r.I.nodes);
      Alcotest.test_case "a backtrack restores the root" `Quick (fun () ->
          let root, w = Sx.solve ~reserve:3 (gap_lp ()) in
          let root = optimum root in
          Sx.save_root w;
          Sx.add_bound w 0 Sx.Ge 2.0;
          check_close "x' >= 2"
            (optimum (Dense_simplex_ref.solve (with_row (gap_lp ()) 0 Sx.Ge 2.0)))
            (optimum (Sx.resolve w));
          Sx.add_bound w 1 Sx.Ge 2.0;
          ignore (optimum (Sx.resolve w));
          (* back to the root: x' >= 2 and y' >= 2 must be gone *)
          Sx.reset w;
          let again, pivots = counted pivots_counter (fun () -> Sx.resolve w) in
          Alcotest.(check int) "root needs no pivot" 0 pivots;
          Alcotest.(check bool) "root bits" true
            (Array.for_all2 Float.equal root.Sx.x (optimum again).Sx.x);
          Sx.add_bound w 0 Sx.Le 1.0;
          check_close "x' <= 1 alone"
            (optimum (Dense_simplex_ref.solve (with_row (gap_lp ()) 0 Sx.Le 1.0)))
            (optimum (Sx.resolve w));
          let p = { I.base = gap_lp (); kinds = [| I.Integer; I.Integer |] } in
          Alcotest.(check bool) "search as the cold one" true
            (same_outcome (I.solve p) (Ilp_ref.solve p)));
      Alcotest.test_case "budget truncation is counted" `Quick (fun () ->
          let truncated = Telemetry.Counter.make "ilp.truncated" in
          let p = { I.base = gap_lp (); kinds = [| I.Integer; I.Integer |] } in
          let r, n = counted truncated (fun () -> I.solve ~max_nodes:2 p) in
          Alcotest.(check bool) "feasible at best" true (r.I.status <> I.Ilp_optimal);
          Alcotest.(check int) "counted once" 1 n;
          let r, n = counted truncated (fun () -> I.solve p) in
          Alcotest.(check bool) "proved" true (r.I.status = I.Ilp_optimal);
          Alcotest.(check int) "not counted" 0 n);
    ]

(* Dual simplex from the slack basis ([Simplex.solve]) against the
   dense two-phase reference kernel ([Dense_simplex_ref]). A degenerate
   LP may end at another optimal vertex, so the status and the
   objective are compared, and the dual answer is checked against every
   row. *)
let rel_close a b = abs_float (a -. b) <= 1e-9 *. Float.max 1.0 (abs_float b)

let satisfies (p : Sx.problem) (s : Sx.solution) =
  Array.for_all (fun v -> v >= -1e-9) s.Sx.x
  && List.for_all
       (fun (r : Sx.constr) ->
         let lhs =
           List.fold_left
             (fun acc (j, a) -> acc +. (a *. s.Sx.x.(j)))
             0.0 r.Sx.coeffs
         in
         let tol = 1e-7 *. Float.max 1.0 (abs_float r.Sx.rhs) in
         match r.Sx.op with
         | Sx.Le -> lhs <= r.Sx.rhs +. tol
         | Sx.Ge -> lhs >= r.Sx.rhs -. tol
         | Sx.Eq -> abs_float (lhs -. r.Sx.rhs) <= tol)
       p.Sx.constraints

let same_lp_outcome (p : Sx.problem) dual two_phase =
  match (dual, two_phase) with
  | Sx.Optimal a, Sx.Optimal b ->
      rel_close a.Sx.objective_value b.Sx.objective_value && satisfies p a
  | Sx.Infeasible, Sx.Infeasible -> true
  | _ -> false

let prop_dual_matches_two_phase =
  Q.Test.make ~name:"dual simplex from the slack basis matches two-phase"
    ~count:1000
    Q.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p, max_iter = random_dual_lp seed in
      let (dual, _), pivots =
        counted pivots_counter (fun () -> Sx.solve ~reserve:0 p)
      in
      same_lp_outcome p dual (Dense_simplex_ref.solve p)
      &&
      match max_iter with
      | None -> true
      | Some k -> (
          (* the budget counts the iteration that finds the optimum
             too: up to the pivots needed it stops the solve, above
             them the solve ends as the unbudgeted one *)
          match fst (Sx.solve ~max_iter:k ~reserve:0 p) with
          | Sx.Iter_limit -> pivots >= k
          | capped -> pivots < k && same_lp_outcome p capped dual))

(* One legalizer axis the way [Dp_ilp] writes it: coordinates in a
   box of width [extent], separation (difference) rows along a random
   device order, symmetric pairs about an axis variable as Eq rows,
   each net as (hi, span) rows over pins that may move with a flip
   variable, and f <= 1 rows. Costs: the net weights on span, an area
   weight on the extent. *)
let legalization_lp seed =
  let rng = Numerics.Rng.create seed in
  let int lo hi = lo + Numerics.Rng.int rng (hi - lo + 1) in
  let u lo hi = Numerics.Rng.uniform rng ~lo ~hi in
  let n = int 2 8 in
  let size = Array.init n (fun _ -> float_of_int (int 1 4)) in
  let flippable = Array.init n (fun _ -> int 0 2 > 0) in
  let fvar = Array.make n (-1) in
  let n_flip = ref 0 in
  Array.iteri
    (fun i f ->
      if f then begin
        fvar.(i) <- n + !n_flip;
        incr n_flip
      end)
    flippable;
  let n_nets = int 1 5 in
  let span k = n + !n_flip + (2 * k) and hi k = n + !n_flip + (2 * k) + 1 in
  let extent = n + !n_flip + (2 * n_nets) in
  let axis = extent + 1 in
  let n_vars = axis + 1 in
  let rows = ref [] in
  let add coeffs op rhs = rows := { Sx.coeffs; op; rhs } :: !rows in
  for i = 0 to n - 1 do
    add [ (i, 1.0) ] Sx.Ge (0.5 *. size.(i));
    add [ (i, 1.0); (extent, -1.0) ] Sx.Le (-0.5 *. size.(i))
  done;
  (* a random order; each device separated from some of those before
     it, now and then against the order, which can close a cycle *)
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = int 0 i in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  for k = 1 to n - 1 do
    for l = 0 to k - 1 do
      if int 0 2 = 0 then begin
        let lo, hi =
          if int 0 19 = 0 then (order.(k), order.(l)) else (order.(l), order.(k))
        in
        add [ (lo, 1.0); (hi, -1.0) ] Sx.Le (-0.5 *. (size.(lo) +. size.(hi)))
      end
    done
  done;
  if n >= 3 && int 0 1 = 0 then begin
    add [ (order.(0), 1.0); (order.(n - 1), 1.0); (axis, -2.0) ] Sx.Eq 0.0;
    add [ (order.(1), 1.0); (axis, -1.0) ] Sx.Eq 0.0
  end;
  let objective = Array.make n_vars 0.0 in
  for k = 0 to n_nets - 1 do
    objective.(span k) <- float_of_int (int 1 3);
    let pins =
      List.sort_uniq compare (List.init (int 2 4) (fun _ -> int 0 (n - 1)))
    in
    List.iter
      (fun i ->
        let off = u 0.0 size.(i) in
        let a = off -. (0.5 *. size.(i)) and b = size.(i) -. (2.0 *. off) in
        let f = if fvar.(i) >= 0 then [ (fvar.(i), b) ] else [] in
        add ((hi k, 1.0) :: (span k, -1.0) :: (i, -1.0)
             :: List.map (fun (v, c) -> (v, -.c)) f)
          Sx.Le a;
        add ((i, 1.0) :: (hi k, -1.0) :: f) Sx.Le (-.a))
      pins
  done;
  objective.(extent) <- u 0.1 5.0;
  let flips = List.filter (fun v -> v >= 0) (Array.to_list fvar) in
  let fbounds =
    List.map (fun v -> { Sx.coeffs = [ (v, 1.0) ]; op = Sx.Le; rhs = 1.0 }) flips
  in
  ({ Sx.n_vars; objective; constraints = fbounds @ List.rev !rows }, flips)

let prop_dual_pins_match_eq_rows =
  Q.Test.make
    ~name:"legalization LP: dual solve, pin bounds and resolve match Eq pins"
    ~count:300
    Q.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p, flips = legalization_lp seed in
      let relax, w = Sx.solve ~reserve:(List.length flips) p in
      same_lp_outcome p relax (Dense_simplex_ref.solve p)
      &&
      match relax with
      | Sx.Optimal s ->
          let up v = s.Sx.x.(v) > 0.5 in
          List.iter
            (fun v ->
              if up v then Sx.add_bound w v Sx.Ge 1.0
              else Sx.add_bound w v Sx.Le 0.0)
            flips;
          let pin v =
            { Sx.coeffs = [ (v, 1.0) ]; op = Sx.Eq;
              rhs = (if up v then 1.0 else 0.0) }
          in
          let pinned =
            { p with Sx.constraints = List.map pin flips @ p.Sx.constraints }
          in
          same_lp_outcome pinned (Sx.resolve w) (Dense_simplex_ref.solve pinned)
      | _ -> true)

let dual_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dual_matches_two_phase; prop_dual_pins_match_eq_rows ]
  @ [
      Alcotest.test_case "a negative or nan cost is refused" `Quick (fun () ->
          let lp c =
            { Sx.n_vars = 2; objective = [| 1.0; c |];
              constraints =
                [ { Sx.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Sx.Ge; rhs = 1.0 } ] }
          in
          let refused = Invalid_argument "Simplex.solve: negative cost" in
          List.iter
            (fun c ->
              Alcotest.check_raises (Printf.sprintf "cost %g" c) refused
                (fun () -> ignore (Sx.solve ~reserve:0 (lp c)));
              (* the branch and bound solves its root the same way *)
              Alcotest.check_raises (Printf.sprintf "ILP cost %g" c) refused
                (fun () ->
                  ignore (I.solve { I.base = lp c; kinds = [| I.Integer; I.Binary |] })))
            [ -1e-12; Float.nan ];
          (* -0 is not negative *)
          ignore (optimum (fst (Sx.solve ~reserve:0 (lp (-0.0)))));
          Alcotest.(check bool) "ILP with a -0 cost" true
            ((I.solve { I.base = lp (-0.0); kinds = [| I.Integer; I.Binary |] }).I.status
            = I.Ilp_optimal));
      Alcotest.test_case "an equality's slack leaves from either side" `Quick
        (fun () ->
          (* the Eq row's basic slack is fixed at 0: it starts at the
             rhs, above or below 0, and must leave either way *)
          let lp coeffs rhs =
            { Sx.n_vars = 2; objective = [| 1.0; 2.0 |];
              constraints = [ { Sx.coeffs; op = Sx.Eq; rhs } ] }
          in
          let dual p = fst (Sx.solve ~reserve:0 p) in
          let infeasible = function Sx.Infeasible -> true | _ -> false in
          let x_plus_y = [ (0, 1.0); (1, 1.0) ] in
          let minus = List.map (fun (j, a) -> (j, -.a)) x_plus_y in
          let best = { Sx.x = [| 3.0; 0.0 |]; objective_value = 3.0 } in
          check_close "x + y = 3" best (optimum (dual (lp x_plus_y 3.0)));
          check_close "-x - y = -3" best (optimum (dual (lp minus (-3.0))));
          Alcotest.(check bool) "x + y = -1" true
            (infeasible (dual (lp x_plus_y (-1.0))));
          Alcotest.(check bool) "-x - y = 1" true
            (infeasible (dual (lp minus 1.0))));
      Alcotest.test_case "an infeasible separation cycle is Infeasible" `Quick
        (fun () ->
          (* x0 + 1 <= x1, x1 + 1 <= x2, x2 + 1 <= x0, zero costs *)
          let sep lo hi =
            { Sx.coeffs = [ (lo, 1.0); (hi, -1.0) ]; op = Sx.Le; rhs = -1.0 }
          in
          let lp =
            { Sx.n_vars = 3; objective = Array.make 3 0.0;
              constraints = [ sep 0 1; sep 1 2; sep 2 0 ] }
          in
          (match Dense_simplex_ref.solve lp with
          | Sx.Infeasible -> ()
          | r -> Alcotest.failf "two-phase reference: %a" Sx.pp_result r);
          match Sx.solve ~max_iter:100 ~reserve:0 lp with
          | Sx.Infeasible, _ -> ()
          | r, _ -> Alcotest.failf "expected infeasible, got %a" Sx.pp_result r);
      Alcotest.test_case "reset needs a saved root" `Quick (fun () ->
          (* min x + y  s.t.  2x + 3y <= 12,  3x + 2y <= 12,  x >= 1 *)
          let lp =
            { Sx.n_vars = 2; objective = [| 1.0; 1.0 |];
              constraints =
                [ { Sx.coeffs = [ (0, 2.0); (1, 3.0) ]; op = Sx.Le; rhs = 12.0 };
                  { Sx.coeffs = [ (0, 3.0); (1, 2.0) ]; op = Sx.Le; rhs = 12.0 };
                  { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Ge; rhs = 1.0 } ] }
          in
          let _, w = Sx.solve ~reserve:1 lp in
          Alcotest.check_raises "reset"
            (Invalid_argument "Simplex.reset: no saved root")
            (fun () -> Sx.reset w);
          Sx.add_bound w 1 Sx.Ge 2.0;
          Alcotest.check_raises "save after a bound row"
            (Invalid_argument "Simplex.save_root: bound rows added")
            (fun () -> Sx.save_root w);
          check_close "x >= 1, y >= 2"
            { Sx.x = [| 1.0; 2.0 |]; objective_value = 3.0 }
            (optimum (Sx.resolve w)));
    ]

(* Reference equivalence of the density kernels: the workspace
   spectral solve, the cover-based electrostatic model and the
   table-based bell smoothing against the allocating kernels they
   replaced ([Density_ref]). Grids are small and mostly non-square;
   rectangles and devices stick out of the region, are wider than the
   whole grid, miss it entirely or have zero extent; one instance is
   reused for several rounds, so stale workspace state (the DC
   coefficient, a potential from an earlier solve, the normalisation
   table of a longer device list) would show. Every entry, gradient
   and value must be [Float.equal], down to the sign of a zero. *)
module M = Numerics.Matrix
module Sp = Numerics.Spectral
module ES = Density.Electrostatic

let same_bits a b =
  Float.equal a b && Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_matrix a b =
  M.rows a = M.rows b
  && M.cols a = M.cols b
  && Array.for_all2 same_bits (M.data a) (M.data b)

let rng_int rng lo hi = lo + Numerics.Rng.int rng (hi - lo + 1)
let rng_float rng lo hi = Numerics.Rng.uniform rng ~lo ~hi

(* a side of 1-12 bins, now and then the placers' 32 *)
let grid_side rng = if rng_int rng 0 7 = 0 then 32 else rng_int rng 1 12

let prop_spectral_matches_reference =
  Q.Test.make ~name:"spectral solve returns the reference kernel's bits"
    ~count:200
    Q.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let nx = grid_side rng and ny = grid_side rng in
      let sp = Sp.create ~nx ~ny and r = Density_ref.spectral_create ~nx ~ny in
      List.for_all
        (fun _ ->
          (* exact zeros exercise the product's zero skip *)
          let rho =
            M.init nx ny (fun _ _ ->
                match rng_int rng 0 3 with
                | 0 -> 0.0
                | 1 -> float_of_int (rng_int rng 0 3)
                | _ -> rng_float rng 0.0 2.0)
          in
          let f = Sp.solve_poisson sp rho in
          let fr = Density_ref.solve_poisson r rho in
          let same_field =
            same_matrix f.Sp.ex fr.Density_ref.ex
            && same_matrix f.Sp.ey fr.Density_ref.ey
          in
          (* the potential is read in some rounds only, so a later
             round must synthesise it afresh *)
          let same_psi =
            rng_int rng 0 1 = 0 || same_matrix (Sp.potential sp) fr.Density_ref.psi
          in
          same_field && same_psi
          && same_matrix (Sp.analyze sp rho) (Density_ref.analyze r rho))
        (List.init (rng_int rng 1 4) Fun.id))

(* a region away from the origin and its rectangles: inside, partly
   outside, wider than the whole region, fully outside, zero width *)
let random_region rng =
  let x0 = rng_float rng (-5.0) 5.0 and y0 = rng_float rng (-5.0) 5.0 in
  Geometry.Rect.make ~x0 ~y0 ~x1:(x0 +. rng_float rng 2.0 20.0)
    ~y1:(y0 +. rng_float rng 2.0 20.0)

let random_rect rng (reg : Geometry.Rect.t) =
  let rw = Geometry.Rect.width reg and rh = Geometry.Rect.height reg in
  let cx = reg.Geometry.Rect.x0 +. rng_float rng (-0.3 *. rw) (1.3 *. rw) in
  let cy = reg.Geometry.Rect.y0 +. rng_float rng (-0.3 *. rh) (1.3 *. rh) in
  match rng_int rng 0 5 with
  | 0 -> Geometry.Rect.of_center ~cx ~cy ~w:(1.5 *. rw) ~h:(rng_float rng 0.5 rh)
  | 1 ->
      Geometry.Rect.of_center ~cx:(reg.Geometry.Rect.x1 +. rw) ~cy ~w:1.0 ~h:1.0
  | 2 -> Geometry.Rect.of_center ~cx ~cy ~w:0.0 ~h:(rng_float rng 0.5 3.0)
  | _ ->
      Geometry.Rect.of_center ~cx ~cy ~w:(rng_float rng 0.1 (0.5 *. rw))
        ~h:(rng_float rng 0.1 (0.5 *. rh))

let prop_electrostatic_matches_reference =
  Q.Test.make
    ~name:"electrostatic model returns the reference kernel's bits"
    ~count:200
    Q.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let region = random_region rng in
      let nx = grid_side rng and ny = grid_side rng in
      let es = ES.create ~region ~nx ~ny in
      let r = Density_ref.es_create ~region ~nx ~ny in
      let probe = random_rect rng region in
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      let bits_pair (a, b) (c, d) = same_bits a c && same_bits b d in
      raises (fun () -> ES.grad es probe)
      && raises (fun () -> Density_ref.es_grad r probe)
      && List.for_all
           (fun _ ->
             let rects =
               Array.init (rng_int rng 0 8) (fun _ -> random_rect rng region)
             in
             ES.compute es rects;
             Density_ref.es_compute r rects;
             let target = rng_float rng 0.0 1.5 in
             let total_area = rng_float rng 0.0 50.0 in
             same_bits
               (ES.overflow es ~target ~total_area)
               (Density_ref.es_overflow r ~target ~total_area)
             && Array.for_all
                  (fun rc -> bits_pair (ES.grad es rc) (Density_ref.es_grad r rc))
                  (Array.append rects [| probe |])
             && (rng_int rng 0 1 = 0
                || same_bits (ES.energy es rects) (Density_ref.es_energy r rects)))
           (List.init (rng_int rng 1 4) Fun.id))

let prop_bell_matches_reference =
  Q.Test.make ~name:"bell smoothing returns the reference kernel's bits"
    ~count:200
    Q.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let region = random_region rng in
      let nx = grid_side rng and ny = grid_side rng in
      let target = rng_float rng 0.1 1.2 in
      let b = Density.Bell.create ~region ~nx ~ny ~target in
      let r = Density_ref.bell_create ~region ~nx ~ny ~target in
      (* the device count changes between rounds on one instance *)
      List.for_all
        (fun _ ->
          let rects =
            Array.init (rng_int rng 0 8) (fun _ -> random_rect rng region)
          in
          let n = Array.length rects in
          let mid a b = 0.5 *. (a +. b) in
          let xs = Array.map (fun (q : Geometry.Rect.t) -> mid q.x0 q.x1) rects in
          let ys = Array.map (fun (q : Geometry.Rect.t) -> mid q.y0 q.y1) rects in
          let widths = Array.map Geometry.Rect.width rects in
          let heights = Array.map Geometry.Rect.height rects in
          let g0 = Array.init (2 * n) (fun _ -> rng_float rng (-1.0) 1.0) in
          let gx = Array.sub g0 0 n and gy = Array.sub g0 n n in
          let gxr = Array.sub g0 0 n and gyr = Array.sub g0 n n in
          let v = Density.Bell.value_grad b ~widths ~heights ~xs ~ys ~gx ~gy in
          let vr =
            Density_ref.bell_value_grad r ~widths ~heights ~xs ~ys ~gx:gxr
              ~gy:gyr
          in
          same_bits v vr
          && Array.for_all2 same_bits gx gxr
          && Array.for_all2 same_bits gy gyr)
        (List.init (rng_int rng 1 4) Fun.id))

let density_equivalence_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_spectral_matches_reference; prop_electrostatic_matches_reference;
      prop_bell_matches_reference ]

let suites =
  [
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_wa_bounds; prop_lse_bounds; prop_span_grad_sums_zero;
          prop_ilp_weaker_than_lp; prop_ilp_integrality;
          prop_hpwl_consistency; prop_island_packing_legal;
          prop_fom_monotone_spread ] );
    ("ilp.warm", ilp_warm_tests);
    ("simplex.dual", dual_tests);
    ("density.equivalence", density_equivalence_tests);
  ]
