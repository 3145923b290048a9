(* Two-stage LP legalization and detailed placement of the prior work
   [11]: stage 1 compacts area (minimise the extents), stage 2
   minimises wirelength with the extents capped at the stage-1 optimum.
   No device flipping (the paper's reason (3) for its losses), and the
   two objectives are optimised sequentially instead of jointly (its
   structural difference from ePlace-A's single-stage ILP).

   As in ePlace-A's legalizer, a net is a pair (hi, span) with
   lo = hi - span, so both stages have costs >= 0 and are solved by
   dual simplex from the slack basis ([Simplex.solve]). *)

module CS = Netlist.Constraint_set
module SP = Place_common.Sep_plan
module Sx = Numerics.Simplex

type params = { zeta : float }

let default_params = { zeta = 0.55 }

type stage = Area_stage | Wirelength_stage of float (* extent cap *)

(* Build and solve one axis for one stage. Variable layout:
   0..n-1 device coords; then 2 per multi-net (span, hi) in wirelength
   stage; extent; one axis var per active symmetry group. *)
let solve_axis (c : Netlist.Circuit.t) ~(axis : SP.axis) ~(seps : SP.sep list)
    ~stage =
  let n = Netlist.Circuit.n_devices c in
  let cs = c.Netlist.Circuit.constraints in
  let dev i = Netlist.Circuit.device c i in
  let size i =
    let d = dev i in
    match axis with
    | SP.X_axis -> d.Netlist.Device.w
    | SP.Y_axis -> d.Netlist.Device.h
  in
  let pin_off i pin =
    let d = dev i in
    let pq = d.Netlist.Device.pins.(pin) in
    match axis with
    | SP.X_axis -> pq.Netlist.Device.ox
    | SP.Y_axis -> pq.Netlist.Device.oy
  in
  let with_nets = match stage with Area_stage -> false | Wirelength_stage _ -> true in
  let multi_nets =
    if with_nets then
      Array.to_list c.Netlist.Circuit.nets
      |> List.filter (fun e -> Netlist.Net.degree e >= 2)
    else []
  in
  let n_nets = List.length multi_nets in
  let span_var k = n + (2 * k) in
  let hi_var k = n + (2 * k) + 1 in
  let extent_var = n + (2 * n_nets) in
  let groups =
    List.filter
      (fun (g : CS.sym_group) ->
        match (g.CS.sym_axis, axis) with
        | CS.Vertical, SP.X_axis | CS.Horizontal, SP.Y_axis -> true
        | _ -> false)
      cs.CS.sym_groups
  in
  let axis_var = List.mapi (fun k g -> (g, extent_var + 1 + k)) groups in
  let n_vars = extent_var + 1 + List.length groups in
  let objective = Array.make n_vars 0.0 in
  (match stage with
  | Area_stage -> objective.(extent_var) <- 1.0
  | Wirelength_stage _ ->
      List.iteri
        (fun k (e : Netlist.Net.t) ->
          objective.(span_var k) <- e.Netlist.Net.weight)
        multi_nets);
  let constraints = ref [] in
  let add coeffs op rhs = constraints := { Sx.coeffs; op; rhs } :: !constraints in
  for i = 0 to n - 1 do
    add [ (i, 1.0) ] Sx.Ge (0.5 *. size i);
    add [ (i, 1.0); (extent_var, -1.0) ] Sx.Le (-0.5 *. size i)
  done;
  (match stage with
  | Wirelength_stage cap -> add [ (extent_var, 1.0) ] Sx.Le cap
  | Area_stage -> ());
  List.iteri
    (fun k (e : Netlist.Net.t) ->
      Array.iter
        (fun (t : Netlist.Net.terminal) ->
          let i = t.Netlist.Net.dev in
          let a = pin_off i t.Netlist.Net.pin -. (0.5 *. size i) in
          add [ (hi_var k, 1.0); (span_var k, -1.0); (i, -1.0) ] Sx.Le a;
          add [ (i, 1.0); (hi_var k, -1.0) ] Sx.Le (-.a))
        e.Netlist.Net.terminals)
    multi_nets;
  List.iter
    (fun (s : SP.sep) ->
      if s.SP.along = axis then
        add [ (s.SP.lo, 1.0); (s.SP.hi, -1.0) ] Sx.Le
          (-0.5 *. (size s.SP.lo +. size s.SP.hi)))
    seps;
  List.iter
    (fun ((g : CS.sym_group), av) ->
      List.iter
        (fun (q1, q2) -> add [ (q1, 1.0); (q2, 1.0); (av, -2.0) ] Sx.Eq 0.0)
        g.CS.pairs;
      List.iter (fun r -> add [ (r, 1.0); (av, -1.0) ] Sx.Eq 0.0) g.CS.selfs)
    axis_var;
  List.iter
    (fun (g : CS.sym_group) ->
      let cross =
        match (g.CS.sym_axis, axis) with
        | CS.Vertical, SP.Y_axis | CS.Horizontal, SP.X_axis -> true
        | _ -> false
      in
      if cross then
        List.iter
          (fun (q1, q2) -> add [ (q1, 1.0); (q2, -1.0) ] Sx.Eq 0.0)
          g.CS.pairs)
    cs.CS.sym_groups;
  List.iter
    (fun (al : CS.align_pair) ->
      let a = al.CS.a and b = al.CS.b in
      match (al.CS.align_kind, axis) with
      | CS.Vcenter, SP.X_axis | CS.Hcenter, SP.Y_axis ->
          add [ (a, 1.0); (b, -1.0) ] Sx.Eq 0.0
      | CS.Bottom, SP.Y_axis ->
          add [ (a, 1.0); (b, -1.0) ] Sx.Eq (0.5 *. (size a -. size b))
      | CS.Top, SP.Y_axis ->
          add [ (a, 1.0); (b, -1.0) ] Sx.Eq (0.5 *. (size b -. size a))
      | _ -> ())
    cs.CS.aligns;
  List.iter
    (fun (o : CS.order_chain) ->
      let active =
        match (o.CS.order_dir, axis) with
        | CS.Left_to_right, SP.X_axis | CS.Bottom_to_top, SP.Y_axis -> true
        | _ -> false
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
  match
    Sx.solve ~reserve:0
      { Sx.n_vars; objective; constraints = List.rev !constraints }
  with
  | Sx.Optimal s, _ ->
      Some (Array.init n (fun i -> s.Sx.x.(i)), s.Sx.x.(extent_var))
  | (Sx.Infeasible | Sx.Iter_limit), _ -> None

type result = { layout : Netlist.Layout.t; runtime_s : float }

(* Full two-stage flow on both axes. *)
let run ?(params = default_params) (c : Netlist.Circuit.t)
    ~(gp : Netlist.Layout.t) =
  ignore params.zeta;
  let go () =
  let attempt ~all_pairs =
    let seps = SP.plan c ~gp ~all_pairs in
    let axis_flow axis =
      match
        Telemetry.Span.with_ ~name:"dp.area_stage" (fun () ->
            solve_axis c ~axis ~seps ~stage:Area_stage)
      with
      | None -> None
      | Some (_, extent) -> (
          match
            Telemetry.Span.with_ ~name:"dp.wl_stage" (fun () ->
                solve_axis c ~axis ~seps
                  ~stage:(Wirelength_stage (extent +. 1e-6)))
          with
          | None -> None
          | Some (coords, _) -> Some coords)
    in
    match axis_flow SP.X_axis with
    | None -> None
    | Some xs -> (
        match axis_flow SP.Y_axis with
        | None -> None
        | Some ys -> Some (xs, ys))
  in
  let solved =
    match attempt ~all_pairs:true with
    | Some r -> Some r
    | None -> attempt ~all_pairs:false
  in
  match solved with
  | None -> None
  | Some (xs, ys) ->
      let l = Netlist.Layout.create c in
      for i = 0 to Netlist.Layout.n_devices l - 1 do
        Netlist.Layout.set l i ~x:xs.(i) ~y:ys.(i)
      done;
      Netlist.Layout.normalize l;
      Some { layout = l; runtime_s = 0.0 }
  in
  let r, dt = Telemetry.Span.timed ~name:"dp" go in
  Option.map (fun r -> { r with runtime_s = dt }) r
