(* Detailed-placement invariants: exact constraint satisfaction of the
   ILP output and the structural properties of the two-stage LP flow. *)

module CS = Netlist.Constraint_set

let ilp_tests =
  [
    Alcotest.test_case "ilp dp satisfies symmetry to solver precision"
      `Quick (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
        match Eplace.Dp_ilp.run c ~gp with
        | None -> Alcotest.fail "dp infeasible"
        | Some r ->
            let l = r.Eplace.Dp_ilp.layout in
            List.iter
              (fun (g : CS.sym_group) ->
                let axis = Netlist.Checks.group_axis_position l g in
                List.iter
                  (fun (a, b) ->
                    Alcotest.(check (float 1e-5))
                      "pair midpoint on axis" axis
                      (0.5 *. (l.Netlist.Layout.xs.(a) +. l.Netlist.Layout.xs.(b)));
                    Alcotest.(check (float 1e-5))
                      "same y" l.Netlist.Layout.ys.(a) l.Netlist.Layout.ys.(b))
                  g.CS.pairs;
                List.iter
                  (fun s ->
                    Alcotest.(check (float 1e-5)) "self on axis" axis
                      l.Netlist.Layout.xs.(s))
                  g.CS.selfs)
              c.Netlist.Circuit.constraints.CS.sym_groups);
    Alcotest.test_case "ilp dp respects ordering chains exactly" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "CM-OTA1" in
        let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
        match Eplace.Dp_ilp.run c ~gp with
        | None -> Alcotest.fail "dp infeasible"
        | Some r ->
            Alcotest.(check int) "no ordering violations" 0
              (List.length
                 (Netlist.Checks.ordering_violations r.Eplace.Dp_ilp.layout)));
    Alcotest.test_case "second dp pass never increases the score" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "VGA" in
        let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
        match Eplace.Dp_ilp.run c ~gp with
        | None -> Alcotest.fail "dp infeasible"
        | Some r1 -> (
            match Eplace.Dp_ilp.run c ~gp:r1.Eplace.Dp_ilp.layout with
            | None -> Alcotest.fail "second pass infeasible"
            | Some r2 ->
                let score (l : Netlist.Layout.t) =
                  Netlist.Layout.area l *. Netlist.Layout.hpwl l
                in
                Alcotest.(check bool) "no regression" true
                  (score r2.Eplace.Dp_ilp.layout
                  <= 1.02 *. score r1.Eplace.Dp_ilp.layout)));
    Alcotest.test_case "dp.fell_back counts the overlap-only fallbacks"
      `Quick (fun () ->
        (* ePlace-A's three passes on Scaled-36 at the default seed: the
           all-pairs closure of the first pass is infeasible *)
        let fell_back = Telemetry.Counter.make "dp.fell_back" in
        let c = Circuits.Testcases.get_exn "Scaled-36" in
        let before = Telemetry.Counter.value fell_back in
        let rec passes gp k acc =
          if k = 0 then acc
          else
            match Eplace.Dp_ilp.run c ~gp with
            | None -> Alcotest.fail "dp infeasible"
            | Some r -> passes r.Eplace.Dp_ilp.layout (k - 1) (r :: acc)
        in
        let results =
          passes (Eplace.Global_place.run c).Eplace.Global_place.layout 3 []
        in
        let n =
          List.length (List.filter (fun r -> r.Eplace.Dp_ilp.fell_back) results)
        in
        Alcotest.(check bool) "some pass fell back" true (n > 0);
        Alcotest.(check int) "counter = fallbacks" n
          (Telemetry.Counter.value fell_back - before));
  ]

let lp_tests =
  [
    Alcotest.test_case "two-stage lp is legal and compact" `Quick (fun () ->
        let c = Circuits.Testcases.get_exn "Comp1" in
        let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
        match Prevwork.Lp_stages.run c ~gp with
        | None -> Alcotest.fail "lp infeasible"
        | Some r ->
            let l = r.Prevwork.Lp_stages.layout in
            Alcotest.(check bool) "legal" true (Netlist.Checks.is_legal l);
            (* compaction: output bbox no larger than the GP bbox grown
               by the device extents (sanity cap) *)
            Alcotest.(check bool) "not absurdly large" true
              (Netlist.Layout.area l
              <= 4.0 *. Netlist.Circuit.total_device_area c));
    Alcotest.test_case "no-flip flow keeps identity orientations" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "Comp1" in
        let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
        match Prevwork.Lp_stages.run c ~gp with
        | None -> Alcotest.fail "lp infeasible"
        | Some r ->
            Array.iter
              (fun o ->
                Alcotest.(check bool) "identity" true
                  (Geometry.Orient.equal o Geometry.Orient.identity))
              r.Prevwork.Lp_stages.layout.Netlist.Layout.orients);
    Alcotest.test_case "area stage binds the wirelength stage" `Quick
      (fun () ->
        (* the two-stage flow cannot produce larger area than legalizing
           with a pure-area objective would allow: check the extent cap
           by comparing against the ILP (joint) result's area on the
           same input: stage-1-first should be at most as large *)
        let c = Circuits.Testcases.get_exn "VCO1" in
        let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
        match (Prevwork.Lp_stages.run c ~gp, Eplace.Dp_ilp.run c ~gp) with
        | Some lp, Some ilp ->
            Alcotest.(check bool) "two-stage area <= joint area * 1.01" true
              (Netlist.Layout.area lp.Prevwork.Lp_stages.layout
              <= 1.01 *. Netlist.Layout.area ilp.Eplace.Dp_ilp.layout)
        | _ -> Alcotest.fail "flow failed");
  ]

(* Bit-level goldens of the LP-driven placers. The legalizer values were
   captured with the (hi, span) net rows solved by dual simplex from the
   slack basis; each LP's optimum equals the two-phase solve of the
   (lo, hi) rows to 1e-14 relative, but a degenerate LP's vertex can
   differ, and the next DP pass starts from it. Any kernel that picks a
   different optimal vertex (or rounds one entry differently on the way
   there) changes at least one of these bits. *)

let bits = Int64.bits_of_float

(* one character per device: I(dentity), X, Y or B(oth) mirrored *)
let orient_string (l : Netlist.Layout.t) =
  String.init (Array.length l.Netlist.Layout.orients) (fun i ->
      match l.Netlist.Layout.orients.(i) with
      | { Geometry.Orient.fx = false; fy = false } -> 'I'
      | { fx = true; fy = false } -> 'X'
      | { fx = false; fy = true } -> 'Y'
      | { fx = true; fy = true } -> 'B')

(* every coordinate's bits folded into one number *)
let coord_fingerprint (l : Netlist.Layout.t) =
  let h = ref 17L in
  let mix v = h := Int64.add (Int64.mul !h 1_000_003L) (bits v) in
  Array.iter mix l.Netlist.Layout.xs;
  Array.iter mix l.Netlist.Layout.ys;
  !h

let check_layout ~area ~hpwl ~orients ~coords (l : Netlist.Layout.t) =
  Alcotest.(check int64) "area bits" area (bits (Netlist.Layout.area l));
  Alcotest.(check int64) "hpwl bits" hpwl (bits (Netlist.Layout.hpwl l));
  Alcotest.(check string) "orientations" orients (orient_string l);
  Alcotest.(check int64) "coordinate bits" coords (coord_fingerprint l)

let eplace_once name =
  let params = { Eplace.Eplace_a.default_params with restarts = 1 } in
  match Eplace.Eplace_a.place ~params (Circuits.Testcases.get_exn name) with
  | Some r -> r.Eplace.Eplace_a.layout
  | None -> Alcotest.failf "ePlace-A failed on %s" name

(* a fixed four-island window with frozen pins; every ordering fits *)
let golden_window () =
  let module W = Matheuristic.Window_ilp in
  let items =
    [| { W.iw = 3.0; ih = 2.0 }; { W.iw = 2.0; ih = 5.0 };
       { W.iw = 4.0; ih = 1.0 }; { W.iw = 1.0; ih = 3.0 } |]
  in
  let on it = { W.p_item = Some it; p_x = 0.5; p_y = 0.5 } in
  let fixed x y = { W.p_item = None; p_x = x; p_y = y } in
  {
    W.items;
    nets =
      [
        { W.n_weight = 1.0; n_pins = [ on 0; on 1; fixed 0.0 4.0 ] };
        { W.n_weight = 2.0; n_pins = [ on 1; on 2 ] };
        { W.n_weight = 1.0; n_pins = [ on 2; on 3; fixed 9.0 0.0 ] };
        { W.n_weight = 1.0; n_pins = [ on 0; on 3 ] };
      ];
    frame_w = 25.0;
    frame_h = 25.0;
    area_lambda = 0.1;
  }

let golden_tests =
  [
    Alcotest.test_case "ePlace-A, one restart, VCO1: bits pinned" `Quick
      (fun () ->
        check_layout ~area:4643366167793660594L ~hpwl:4635222533767467895L
          ~orients:"BBYYIXYYXIIIIIIIIX" ~coords:7402874754836168790L
          (eplace_once "VCO1"));
    Alcotest.test_case "ePlace-A, one restart, Scaled-40: bits pinned" `Quick
      (fun () ->
        check_layout ~area:4636241895395625536L ~hpwl:4637590160534069578L
          ~orients:"IIXIXIIYBIXXXIXXIIIYYIXBIIXIIYBYYIIXXIIIIIIYYIXB"
          ~coords:7349849510661971588L
          (eplace_once "Scaled-40"));
    Alcotest.test_case "prev [11] two-stage LP, Comp1: bits pinned" `Quick
      (fun () ->
        let params =
          { Prevwork.Prev_analytical.default_params with restarts = 1 }
        in
        match
          Prevwork.Prev_analytical.place ~params
            (Circuits.Testcases.get_exn "Comp1")
        with
        | Some r ->
            check_layout ~area:4629672270987311194L ~hpwl:4627341656350559614L
              ~orients:"IIIIIIIIIIIIIIII" ~coords:8427130877533089950L
              r.Prevwork.Prev_analytical.layout
        | None -> Alcotest.fail "prev [11] failed on Comp1");
    Alcotest.test_case "window ILP objective: bits pinned" `Quick (fun () ->
        match Matheuristic.Window_ilp.solve (golden_window ()) with
        | Some s ->
            let obj = s.Matheuristic.Window_ilp.sol_objective in
            Alcotest.(check int64) "objective bits" 4626379012211684143L (bits obj);
            Alcotest.(check int) "nodes" 257 s.Matheuristic.Window_ilp.sol_nodes;
            (* the same optimum as a cold-rebuild search of the
               (Lx, Rx) form by two-phase simplex, which returned these
               bits in 229 nodes; the dual simplex on the (Rx, span)
               form rounds it differently *)
            let cold = Int64.float_of_bits 4626379012211684141L in
            Alcotest.(check bool) "cold optimum within 1e-12" true
              (abs_float (obj -. cold) <= 1e-12 *. abs_float cold)
        | None -> Alcotest.fail "window did not solve");
  ]

(* Bit-level goldens of the two analytical global placers themselves,
   before any legalizer can absorb a small drift. Captured before the
   density kernels were made allocation-free; a kernel rewrite that
   reorders one float operation changes at least one of these bits. *)
let gp_golden ~iterations ~overflow ~coords name =
  let r = Eplace.Global_place.run (Circuits.Testcases.get_exn name) in
  Alcotest.(check int) "iterations" iterations r.Eplace.Global_place.iterations;
  Alcotest.(check int64) "final overflow bits" overflow
    (bits r.Eplace.Global_place.final_overflow);
  Alcotest.(check int64) "coordinate bits" coords
    (coord_fingerprint r.Eplace.Global_place.layout)

let gp_golden_tests =
  [
    Alcotest.test_case "ePlace GP on Adder: bits pinned" `Quick
      (fun () -> gp_golden ~iterations:118 ~overflow:4583973849275101726L
          ~coords:(-5054103278434370069L) "Adder");
    Alcotest.test_case "ePlace GP on VCO2: bits pinned" `Quick
      (fun () -> gp_golden ~iterations:101 ~overflow:4584143403267357047L
          ~coords:(-7158962901970839785L) "VCO2");
    Alcotest.test_case "prev [11] GP on Comp1: bits pinned"
      `Quick (fun () ->
        let r = Prevwork.Ntu_gp.run (Circuits.Testcases.get_exn "Comp1") in
        Alcotest.(check int) "f_evals" 756 r.Prevwork.Ntu_gp.f_evals;
        Alcotest.(check int64) "coordinate bits" (-7634564603568154649L)
          (coord_fingerprint r.Prevwork.Ntu_gp.layout));
  ]

let suites =
  [
    ("dp.ilp_invariants", ilp_tests);
    ("dp.lp_stages", lp_tests);
    ("dp.goldens", golden_tests);
    ("gp.goldens", gp_golden_tests);
  ]
