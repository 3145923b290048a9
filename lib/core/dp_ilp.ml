(* Integrated ILP legalization + detailed placement (paper Sec. IV-B,
   Eq. 4): single-stage area + wirelength minimisation with device
   flipping, hard symmetry, alignment and ordering constraints.

   The paper's formulation decomposes exactly into independent x and y
   problems (every constraint touches one axis; the objective is
   separable), which we exploit: two small ILPs instead of one big one.

   Deviation noted in DESIGN.md: the paper adds relative-order
   constraints only for device pairs that overlap after global
   placement (Eq. 4e); we add one for *every* pair (direction taken
   from the global placement), which is the constraint-graph closure of
   that rule: any layout it admits is overlap-free. Pairs bound by a
   cross-coordinate equality (symmetric pairs, alignment pairs) or by
   an ordering chain have their separation axis forced to the
   consistent one. The closure can still be infeasible (it is on
   Scaled-240's first pass); [run] then falls back to the paper's
   overlap-only rule.

   Each multi-pin net e is a pair (hi_e, span_e) with lo_e = hi_e -
   span_e, so its wirelength term is w_e * span_e instead of
   w_e * hi_e - w_e * lo_e. The two are the same LP (span_e >= 0 holds
   at every feasible point, as lo_e <= pin <= hi_e), but every cost is
   now >= 0, so [Simplex.solve] solves each LP from the slack
   basis with no phase 1. *)

module CS = Netlist.Constraint_set
module Sx = Numerics.Simplex
module I = Numerics.Ilp

type flip_strategy =
  | Flip_exact  (* binaries solved by branch and bound *)
  | Flip_round  (* LP relaxation, round, one re-solve: near-exact, fast *)
  | Flip_off  (* no flipping, as in the prior work [11] *)

type params = {
  mu : float;  (* area weight in the DP objective (Eq. 4a) *)
  zeta : float;  (* utilization for the tilde W/H estimate *)
  flip : flip_strategy;
  max_nodes : int;  (* branch-and-bound budget per axis (Flip_exact) *)
  debug : bool;  (* print per-axis ILP status on infeasibility *)
}

let default_params =
  { mu = 0.35; zeta = 0.55; flip = Flip_round; max_nodes = 60;
    debug = false }

type axis = Place_common.Sep_plan.axis = X_axis | Y_axis

type sep = Place_common.Sep_plan.sep = { lo : int; hi : int; along : axis }

let plan_separations = Place_common.Sep_plan.plan

(* --- one-axis ILP --- *)

type axis_result = {
  coords : float array;
  flips : bool array;
  extent : float;  (* solved W or H *)
  nodes : int;
}

let solve_axis (p : params) (c : Netlist.Circuit.t) ~(axis : axis)
    ~(seps : sep list) ~tilde_other =
  let n = Netlist.Circuit.n_devices c in
  let cs = c.Netlist.Circuit.constraints in
  let dev i = Netlist.Circuit.device c i in
  let size i =
    let d = dev i in
    match axis with
    | X_axis -> d.Netlist.Device.w
    | Y_axis -> d.Netlist.Device.h
  in
  (* pin offset along this axis in the unflipped orientation *)
  let pin_off i pin =
    let d = dev i in
    let pq = d.Netlist.Device.pins.(pin) in
    match axis with
    | X_axis -> pq.Netlist.Device.ox
    | Y_axis -> pq.Netlist.Device.oy
  in
  (* flip variables only where they can matter *)
  let view = Netlist.Netview.of_circuit c in
  let needs_flip i =
    p.flip <> Flip_off
    && Array.exists
         (fun e ->
           Netlist.Net.degree (Netlist.Circuit.net c e) >= 2
           && Array.exists
                (fun (t : Netlist.Net.terminal) ->
                  t.Netlist.Net.dev = i
                  && abs_float (pin_off i t.Netlist.Net.pin -. (0.5 *. size i))
                     > 1e-9)
                (Netlist.Circuit.net c e).Netlist.Net.terminals)
         (Netlist.Netview.nets_of_device view i)
  in
  let fvar = Array.make n (-1) in
  let n_flip = ref 0 in
  for i = 0 to n - 1 do
    if needs_flip i then begin
      fvar.(i) <- n + !n_flip;
      incr n_flip
    end
  done;
  let multi_nets =
    Array.to_list c.Netlist.Circuit.nets
    |> List.filter (fun e -> Netlist.Net.degree e >= 2)
  in
  let n_nets = List.length multi_nets in
  let span_var k = n + !n_flip + (2 * k) in
  let hi_var k = n + !n_flip + (2 * k) + 1 in
  let extent_var = n + !n_flip + (2 * n_nets) in
  (* symmetry-axis variables for the groups active on this axis *)
  let groups =
    List.filter
      (fun (g : CS.sym_group) ->
        match (g.CS.sym_axis, axis) with
        | CS.Vertical, X_axis | CS.Horizontal, Y_axis -> true
        | CS.Vertical, Y_axis | CS.Horizontal, X_axis -> false)
      cs.CS.sym_groups
  in
  let axis_var =
    let base = extent_var + 1 in
    List.mapi (fun k g -> (g, base + k)) groups
  in
  let n_vars = extent_var + 1 + List.length groups in
  let objective = Array.make n_vars 0.0 in
  List.iteri
    (fun k (e : Netlist.Net.t) ->
      objective.(span_var k) <- e.Netlist.Net.weight)
    multi_nets;
  objective.(extent_var) <- p.mu *. tilde_other /. 2.0;
  let constraints = ref [] in
  let add coeffs op rhs = constraints := { Sx.coeffs; op; rhs } :: !constraints in
  (* boundary: size/2 <= coord <= extent - size/2 *)
  for i = 0 to n - 1 do
    add [ (i, 1.0) ] Sx.Ge (0.5 *. size i);
    add [ (i, 1.0); (extent_var, -1.0) ] Sx.Le (-0.5 *. size i)
  done;
  (* net bounds with flipping (Eq. 4b + 4d) *)
  List.iteri
    (fun k (e : Netlist.Net.t) ->
      Array.iter
        (fun (t : Netlist.Net.terminal) ->
          let i = t.Netlist.Net.dev in
          let off = pin_off i t.Netlist.Net.pin in
          let a = off -. (0.5 *. size i) in
          let b = size i -. (2.0 *. off) in
          let fterm = if fvar.(i) >= 0 then [ (fvar.(i), b) ] else [] in
          (* hi_e - span_e <= coord_i + a + f*b *)
          add ((hi_var k, 1.0) :: (span_var k, -1.0) :: (i, -1.0)
               :: List.map (fun (v, cf) -> (v, -.cf)) fterm)
            Sx.Le a;
          (* coord_i + a + f*b <= hi_e *)
          add ((i, 1.0) :: (hi_var k, -1.0) :: fterm) Sx.Le (-.a))
        e.Netlist.Net.terminals)
    multi_nets;
  (* separations along this axis (Eq. 4e / closure) *)
  List.iter
    (fun s ->
      if s.along = axis then
        add [ (s.lo, 1.0); (s.hi, -1.0) ] Sx.Le
          (-0.5 *. (size s.lo +. size s.hi)))
    seps;
  (* symmetry (Eq. 4f): mirrored coordinate about the group axis *)
  List.iter
    (fun ((g : CS.sym_group), av) ->
      List.iter
        (fun (q1, q2) -> add [ (q1, 1.0); (q2, 1.0); (av, -2.0) ] Sx.Eq 0.0)
        g.CS.pairs;
      List.iter (fun r -> add [ (r, 1.0); (av, -1.0) ] Sx.Eq 0.0) g.CS.selfs)
    axis_var;
  (* symmetry cross-coordinate: pairs of a vertical group share y (and
     dually); these groups are the ones *not* active on this axis *)
  List.iter
    (fun (g : CS.sym_group) ->
      let cross =
        match (g.CS.sym_axis, axis) with
        | CS.Vertical, Y_axis | CS.Horizontal, X_axis -> true
        | CS.Vertical, X_axis | CS.Horizontal, Y_axis -> false
      in
      if cross then
        List.iter
          (fun (q1, q2) -> add [ (q1, 1.0); (q2, -1.0) ] Sx.Eq 0.0)
          g.CS.pairs)
    cs.CS.sym_groups;
  (* alignment (Eq. 4g/4h) *)
  List.iter
    (fun (al : CS.align_pair) ->
      let a = al.CS.a and b = al.CS.b in
      match (al.CS.align_kind, axis) with
      | CS.Vcenter, X_axis | CS.Hcenter, Y_axis ->
          add [ (a, 1.0); (b, -1.0) ] Sx.Eq 0.0
      | CS.Bottom, Y_axis ->
          add [ (a, 1.0); (b, -1.0) ] Sx.Eq (0.5 *. (size a -. size b))
      | CS.Top, Y_axis ->
          add [ (a, 1.0); (b, -1.0) ] Sx.Eq (0.5 *. (size b -. size a))
      | _ -> ())
    cs.CS.aligns;
  (* ordering chains (Eq. 4i): consecutive members *)
  List.iter
    (fun (o : CS.order_chain) ->
      let active =
        match (o.CS.order_dir, axis) with
        | CS.Left_to_right, X_axis | CS.Bottom_to_top, Y_axis -> true
        | CS.Left_to_right, Y_axis | CS.Bottom_to_top, X_axis -> false
      in
      if active then begin
        let rec go = function
          | a :: (b :: _ as rest) ->
              add [ (a, 1.0); (b, -1.0) ] Sx.Le (-0.5 *. (size a +. size b));
              go rest
          | _ -> ()
        in
        go o.CS.chain
      end)
    cs.CS.orders;
  let base_constraints = List.rev !constraints in
  let lp constraints = { Sx.n_vars; objective; constraints } in
  (* Flip_round: solve the relaxation (f in [0,1]), then pin every flip
     to its rounded value by a bound row and re-solve warm by dual
     simplex: two LPs instead of a tree. *)
  let solve_round () =
    let fbounds =
      List.filter_map
        (fun v ->
          if v < 0 then None
          else Some { Sx.coeffs = [ (v, 1.0) ]; op = Sx.Le; rhs = 1.0 })
        (Array.to_list fvar)
    in
    match Sx.solve ~reserve:!n_flip (lp (fbounds @ base_constraints)) with
    | Sx.Optimal relax, w ->
        Array.iter
          (fun v ->
            if v >= 0 then
              if relax.Sx.x.(v) > 0.5 then Sx.add_bound w v Sx.Ge 1.0
              else Sx.add_bound w v Sx.Le 0.0)
          fvar;
        Sx.resolve w
    | r, _ -> r
  in
  let of_lp = function
    | Sx.Optimal s -> Ok (s.Sx.x, 1)
    | Sx.Infeasible -> Error ("infeasible", 1)
    | Sx.Iter_limit -> Error ("iteration-limit", 1)
  in
  let outcome =
    match p.flip with
    | Flip_exact -> (
        let kinds = Array.make n_vars I.Continuous in
        Array.iter (fun v -> if v >= 0 then kinds.(v) <- I.Binary) fvar;
        let r =
          I.solve ~max_nodes:p.max_nodes { I.base = lp base_constraints; kinds }
        in
        match r.I.status with
        | I.Ilp_optimal | I.Ilp_feasible -> Ok (r.I.x, r.I.nodes)
        | I.Ilp_infeasible -> Error ("infeasible", r.I.nodes))
    | Flip_round -> of_lp (solve_round ())
    | Flip_off ->
        of_lp (fst (Sx.solve ~reserve:0 (lp base_constraints)))
  in
  match outcome with
  | Ok (x, nodes) ->
      Some
        {
          coords = Array.sub x 0 n;
          flips = Array.init n (fun i -> fvar.(i) >= 0 && x.(fvar.(i)) > 0.5);
          extent = x.(extent_var);
          nodes;
        }
  | Error (status, nodes) ->
      if p.debug then
        Fmt.epr "dp_ilp: axis %s status %s nodes %d@."
          (match axis with X_axis -> "X" | Y_axis -> "Y")
          status nodes;
      None

(* --- public driver --- *)

let fell_back_counter = Telemetry.Counter.make "dp.fell_back"

type result = {
  layout : Netlist.Layout.t;
  runtime_s : float;
  nodes_x : int;
  nodes_y : int;
  fell_back : bool;  (* true when the all-pairs closure was infeasible *)
}

let run ?(params = default_params) (c : Netlist.Circuit.t)
    ~(gp : Netlist.Layout.t) =
  let go () =
  let total_area = Netlist.Circuit.total_device_area c in
  let tilde = sqrt (total_area /. params.zeta) in
  let attempt ~all_pairs =
    let seps = plan_separations c ~gp ~all_pairs in
    let solve name axis =
      Telemetry.Span.with_ ~name (fun () ->
          solve_axis params c ~axis ~seps ~tilde_other:tilde)
    in
    match solve "dp.axis_x" X_axis with
    | None -> None
    | Some rx -> (
        match solve "dp.axis_y" Y_axis with
        | None -> None
        | Some ry -> Some (rx, ry))
  in
  let solved, fell_back =
    match attempt ~all_pairs:true with
    | Some r -> (Some r, false)
    | None -> (attempt ~all_pairs:false, true)
  in
  Telemetry.Counter.add fell_back_counter (if fell_back then 1 else 0);
  match solved with
  | None -> None
  | Some (rx, ry) ->
      let l = Netlist.Layout.create c in
      for i = 0 to Netlist.Layout.n_devices l - 1 do
        Netlist.Layout.set l i ~x:rx.coords.(i) ~y:ry.coords.(i);
        Netlist.Layout.set_orient l i
          (Geometry.Orient.make ~fx:rx.flips.(i) ~fy:ry.flips.(i))
      done;
      Netlist.Layout.normalize l;
      Some
        {
          layout = l;
          runtime_s = 0.0;  (* patched below from the span measurement *)
          nodes_x = rx.nodes;
          nodes_y = ry.nodes;
          fell_back;
        }
  in
  let r, dt = Telemetry.Span.timed ~name:"dp" go in
  Option.map (fun r -> { r with runtime_s = dt }) r
