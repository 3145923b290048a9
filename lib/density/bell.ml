(* NTUplace3's bell-shaped density smoothing, used by the prior
   analytical work's global placement. Each device spreads its area
   into nearby bins through a C1 bell function of the centre distance;
   the penalty is sum_b (D_b - target_b)^2.

   Along one axis, for device extent w and bin size wb, with
   d = |centre - bin centre|:

     p(d) = 1 - a d^2                      for d <= w/2 + wb
          = b (d - w/2 - 2 wb)^2           for w/2 + wb < d <= w/2 + 2 wb
          = 0                              otherwise
     a = 4 / ((w + 2 wb)(w + 4 wb)),  b = 2 / (wb (w + 4 wb))

   Each device's contributions are normalised to its exact area. *)

(* One axis of the current device: the bins whose centre may receive
   its weight, and the bell and its derivative at each of their
   centres (indexed by bin). *)
type axis = {
  centre : float array;  (* bin centres along the axis *)
  mutable lo : int;
  mutable hi : int;
  v : float array;
  dv : float array;
}

type t = {
  grid : Bin_grid.t;
  target : float;  (* target occupancy fraction per bin *)
  dmap : float array;  (* smoothed density, row-major nx x ny *)
  ax : axis;
  ay : axis;
  mutable norms : float array;  (* per-device normalisation *)
}

let create ~region ~nx ~ny ~target =
  let grid = Bin_grid.create ~region ~nx ~ny in
  let axis n centre =
    { centre = Array.init n (centre grid); lo = 0; hi = -1;
      v = Array.make n 0.0; dv = Array.make n 0.0 }
  in
  {
    grid;
    target;
    dmap = Array.make (nx * ny) 0.0;
    ax = axis nx Bin_grid.bin_center_x;
    ay = axis ny Bin_grid.bin_center_y;
    norms = [||];
  }

let[@inline] bell ~w ~wb d =
  (* wb > 0 and w >= 0 make both bell denominators strictly positive (N2) *)
  if wb <= 0.0 || w < 0.0 then invalid_arg "Bell.bell: extent";
  let d = abs_float d in
  let r1 = (0.5 *. w) +. wb in
  let r2 = (0.5 *. w) +. (2.0 *. wb) in
  if d <= r1 then begin
    let a = 4.0 /. ((w +. (2.0 *. wb)) *. (w +. (4.0 *. wb))) in
    1.0 -. (a *. d *. d)
  end
  else if d <= r2 then begin
    let b = 2.0 /. (wb *. (w +. (4.0 *. wb))) in
    b *. (d -. r2) *. (d -. r2)
  end
  else 0.0

let[@inline] bell_deriv ~w ~wb d =
  if wb <= 0.0 || w < 0.0 then invalid_arg "Bell.bell_deriv: extent";
  let s = if d < 0.0 then -1.0 else 1.0 in
  let ad = abs_float d in
  let r1 = (0.5 *. w) +. wb in
  let r2 = (0.5 *. w) +. (2.0 *. wb) in
  if ad <= r1 then begin
    let a = 4.0 /. ((w +. (2.0 *. wb)) *. (w +. (4.0 *. wb))) in
    -2.0 *. a *. ad *. s
  end
  else if ad <= r2 then begin
    let b = 2.0 /. (wb *. (w +. (4.0 *. wb))) in
    2.0 *. b *. (ad -. r2) *. s
  end
  else 0.0

(* Point [a] at the bins whose centre may receive weight from a device
   of extent [w] centred at [c], on an axis of bins of size [wb]
   starting at [x0]. *)
let[@inline] set_range a ~c ~w ~wb ~x0 =
  if wb <= 0.0 then invalid_arg "Bell.set_range: bin size";
  let r = (0.5 *. w) +. (2.0 *. wb) in
  let lo = int_of_float (Float.floor ((c -. r -. x0) /. wb -. 0.5)) in
  let hi = int_of_float (Float.ceil ((c +. r -. x0) /. wb -. 0.5)) in
  a.lo <- max 0 lo;
  a.hi <- min (Array.length a.centre - 1) hi

(* Evaluate the bell and its derivative at each bin centre of [a]'s
   range; true if some bell value is positive. *)
let[@inline] fill a ~c ~w ~wb =
  let pos = ref false in
  for i = a.lo to a.hi do
    let d = c -. a.centre.(i) in
    let v = bell ~w ~wb d in
    a.v.(i) <- v;
    a.dv.(i) <- bell_deriv ~w ~wb d;
    if v > 0.0 then pos := true
  done;
  !pos

let ensure_norms t n = if Array.length t.norms < n then t.norms <- Array.make n 0.0

(* Evaluate the quadratic density penalty and accumulate its gradient.
   widths/heights are device extents; xs/ys device centres. The bell
   factors of a device are tabulated once per axis, so a pass costs
   O(I + J) bell evaluations per device instead of O(I J). *)
let value_grad t ~widths ~heights ~xs ~ys ~gx ~gy =
  let g = t.grid in
  let nx = g.Bin_grid.nx and ny = g.Bin_grid.ny in
  let wb = g.Bin_grid.bw and hb = g.Bin_grid.bh in
  let x0 = g.Bin_grid.x0 and y0 = g.Bin_grid.y0 in
  let ba = wb *. hb in
  let n = Array.length xs in
  let ax = t.ax and ay = t.ay and dm = t.dmap in
  let axv = ax.v and axdv = ax.dv and ayv = ay.v and aydv = ay.dv in
  (* per-device normalisation and density accumulation *)
  ensure_norms t n;
  let norms = t.norms in
  Array.fill dm 0 (Array.length dm) 0.0;
  for d = 0 to n - 1 do
    let w = widths.(d) and h = heights.(d) in
    set_range ax ~c:xs.(d) ~w ~wb ~x0;
    set_range ay ~c:ys.(d) ~w:h ~wb:hb ~x0:y0;
    (* the y bell is only evaluated once some x bell is positive *)
    if fill ax ~c:xs.(d) ~w ~wb then
      ignore (fill ay ~c:ys.(d) ~w:h ~wb:hb : bool);
    let s = ref 0.0 in
    for i = ax.lo to ax.hi do
      let px = axv.(i) in
      if px > 0.0 then
        for j = ay.lo to ay.hi do
          s := !s +. (px *. ayv.(j))
        done
    done;
    norms.(d) <- (if !s > 1e-12 then w *. h /. !s else 0.0);
    if norms.(d) > 0.0 then
      for i = ax.lo to ax.hi do
        let px = axv.(i) in
        if px > 0.0 then
          for j = ay.lo to ay.hi do
            let py = ayv.(j) in
            if py > 0.0 then begin
              let k = (i * ny) + j in
              dm.(k) <- dm.(k) +. (norms.(d) *. px *. py)
            end
          done
      done
  done;
  (* penalty value: sum_b max(0, D_b - target_b)^2 (one-sided: bins
     below target are not penalised, they are simply empty space) *)
  let tgt = t.target *. ba in
  let value = ref 0.0 in
  for k = 0 to (nx * ny) - 1 do
    let e = dm.(k) -. tgt in
    if e > 0.0 then value := !value +. (e *. e)
  done;
  (* gradient, including the derivative of the per-device
     normalisation c_d = area_d / S_d with S_d = sum_b px py:

       dP/dx_d = c_d * sum_b 2 e_b px' py
                 - (c_d / S_d) * (sum_b px' py) * (sum_b 2 e_b px py)  *)
  for d = 0 to n - 1 do
    if norms.(d) > 0.0 then begin
      let w = widths.(d) and h = heights.(d) in
      set_range ax ~c:xs.(d) ~w ~wb ~x0;
      set_range ay ~c:ys.(d) ~w:h ~wb:hb ~x0:y0;
      ignore (fill ax ~c:xs.(d) ~w ~wb : bool);
      ignore (fill ay ~c:ys.(d) ~w:h ~wb:hb : bool);
      let a1 = ref 0.0 (* sum 2e px' py *) in
      let a2 = ref 0.0 (* sum 2e px py' *) in
      let b = ref 0.0 (* sum 2e px py *) in
      let s = ref 0.0 (* sum px py *) in
      let sx' = ref 0.0 and sy' = ref 0.0 in
      for i = ax.lo to ax.hi do
        let px = axv.(i) and px' = axdv.(i) in
        for j = ay.lo to ay.hi do
          let py = ayv.(j) and py' = aydv.(j) in
          s := !s +. (px *. py);
          sx' := !sx' +. (px' *. py);
          sy' := !sy' +. (px *. py');
          let e = dm.((i * ny) + j) -. tgt in
          if e > 0.0 then begin
            a1 := !a1 +. (2.0 *. e *. px' *. py);
            a2 := !a2 +. (2.0 *. e *. px *. py');
            b := !b +. (2.0 *. e *. px *. py)
          end
        done
      done;
      let c = norms.(d) in
      if !s > 1e-12 then begin
        gx.(d) <- gx.(d) +. ((c *. !a1) -. (c /. !s *. !sx' *. !b));
        gy.(d) <- gy.(d) +. ((c *. !a2) -. (c /. !s *. !sy' *. !b))
      end
    end
  done;
  !value
[@@placer_lint.hot]

let grid t = t.grid
