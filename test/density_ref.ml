(* Reference kernels for the density equivalence properties: the
   allocating spectral solve, electrostatic model and bell smoothing
   that the workspace kernels replaced. Every product makes fresh
   matrices through [get]/[set], every bin visit goes through a
   closure, and the bell is re-evaluated for every (i, j) bin. The
   workspace kernels must return the same bits as this code.
   Test-only. *)

module M = Numerics.Matrix
module BG = Density.Bin_grid

(* ----- spectral Poisson solve ----- *)

(* i-k-j product, skipping zero entries of [a], one entry at a time *)
let matmul a b =
  let c = M.create (M.rows a) (M.cols b) in
  for i = 0 to M.rows a - 1 do
    for k = 0 to M.cols a - 1 do
      let aik = M.get a i k in
      if not (Float.equal aik 0.0) then
        for j = 0 to M.cols b - 1 do
          M.set c i j (M.get c i j +. (aik *. M.get b k j))
        done
    done
  done;
  c

type spectral = {
  nx : int;
  ny : int;
  bx : M.t;
  by : M.t;
  sx : M.t;
  sy : M.t;
  wx : float array;
  wy : float array;
}

let spectral_create ~nx ~ny =
  let basis f n =
    M.init n n (fun u i ->
        f (Float.pi *. float_of_int u *. (float_of_int i +. 0.5)
           /. float_of_int n))
  in
  {
    nx;
    ny;
    bx = basis cos nx;
    by = basis cos ny;
    sx = basis sin nx;
    sy = basis sin ny;
    wx = Array.init nx (fun u -> Float.pi *. float_of_int u /. float_of_int nx);
    wy = Array.init ny (fun v -> Float.pi *. float_of_int v /. float_of_int ny);
  }

let analyze t rho =
  let tmp = matmul t.bx rho in
  let a = matmul tmp (M.transpose t.by) in
  let cu u n = if u = 0 then 1.0 /. float_of_int n else 2.0 /. float_of_int n in
  for u = 0 to t.nx - 1 do
    for v = 0 to t.ny - 1 do
      M.set a u v (M.get a u v *. cu u t.nx *. cu v t.ny)
    done
  done;
  a

let synth px py coef = matmul (M.transpose px) (matmul coef py)

type field = { psi : M.t; ex : M.t; ey : M.t }

let solve_poisson t rho =
  let a = analyze t rho in
  let coef_psi = M.create t.nx t.ny in
  let coef_ex = M.create t.nx t.ny in
  let coef_ey = M.create t.nx t.ny in
  for u = 0 to t.nx - 1 do
    for v = 0 to t.ny - 1 do
      let w2 = (t.wx.(u) *. t.wx.(u)) +. (t.wy.(v) *. t.wy.(v)) in
      if w2 > 0.0 then begin
        let auv = M.get a u v in
        M.set coef_psi u v (auv /. w2);
        M.set coef_ex u v (auv *. t.wx.(u) /. w2);
        M.set coef_ey u v (auv *. t.wy.(v) /. w2)
      end
    done
  done;
  {
    psi = synth t.bx t.by coef_psi;
    ex = synth t.sx t.by coef_ex;
    ey = synth t.bx t.sy coef_ey;
  }

(* ----- electrostatic density model ----- *)

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

(* [f ix iy area] for each bin overlapping [r], clipped to the region *)
let splat (g : BG.t) (r : Geometry.Rect.t) ~f =
  let xr0 = g.BG.x0 and yr0 = g.BG.y0 in
  let xr1 = g.BG.x0 +. (float_of_int g.BG.nx *. g.BG.bw) in
  let yr1 = g.BG.y0 +. (float_of_int g.BG.ny *. g.BG.bh) in
  let rx0 = clamp xr0 xr1 r.Geometry.Rect.x0 in
  let rx1 = clamp xr0 xr1 r.Geometry.Rect.x1 in
  let ry0 = clamp yr0 yr1 r.Geometry.Rect.y0 in
  let ry1 = clamp yr0 yr1 r.Geometry.Rect.y1 in
  if rx1 > rx0 && ry1 > ry0 then begin
    let i0 = int_of_float (Float.floor ((rx0 -. g.BG.x0) /. g.BG.bw)) in
    let i1 = int_of_float (Float.ceil ((rx1 -. g.BG.x0) /. g.BG.bw)) - 1 in
    let j0 = int_of_float (Float.floor ((ry0 -. g.BG.y0) /. g.BG.bh)) in
    let j1 = int_of_float (Float.ceil ((ry1 -. g.BG.y0) /. g.BG.bh)) - 1 in
    let i0 = max 0 i0 and i1 = min (g.BG.nx - 1) i1 in
    let j0 = max 0 j0 and j1 = min (g.BG.ny - 1) j1 in
    for i = i0 to i1 do
      let bx0 = g.BG.x0 +. (float_of_int i *. g.BG.bw) in
      let dx = Float.min rx1 (bx0 +. g.BG.bw) -. Float.max rx0 bx0 in
      if dx > 0.0 then
        for j = j0 to j1 do
          let by0 = g.BG.y0 +. (float_of_int j *. g.BG.bh) in
          let dy = Float.min ry1 (by0 +. g.BG.bh) -. Float.max ry0 by0 in
          if dy > 0.0 then f i j (dx *. dy)
        done
    done
  end

type electrostatic = {
  grid : BG.t;
  spectral : spectral;
  density : M.t;
  mutable field : field option;
}

let es_create ~region ~nx ~ny =
  {
    grid = BG.create ~region ~nx ~ny;
    spectral = spectral_create ~nx ~ny;
    density = M.create nx ny;
    field = None;
  }

let es_compute t (rects : Geometry.Rect.t array) =
  let g = t.grid in
  let inv_ba = 1.0 /. BG.bin_area g in
  for i = 0 to g.BG.nx - 1 do
    for j = 0 to g.BG.ny - 1 do
      M.set t.density i j 0.0
    done
  done;
  Array.iter
    (fun r ->
      splat g r ~f:(fun i j a ->
          M.set t.density i j (M.get t.density i j +. (a *. inv_ba))))
    rects;
  t.field <- Some (solve_poisson t.spectral t.density)

let es_field t =
  match t.field with
  | Some f -> f
  | None -> invalid_arg "Electrostatic: call compute first"

let es_energy t (rects : Geometry.Rect.t array) =
  let f = es_field t in
  let acc = ref 0.0 in
  Array.iter
    (fun r ->
      splat t.grid r ~f:(fun i j a -> acc := !acc +. (a *. M.get f.psi i j)))
    rects;
  0.5 *. !acc

let es_grad t (r : Geometry.Rect.t) =
  let f = es_field t in
  let fx = ref 0.0 and fy = ref 0.0 in
  splat t.grid r ~f:(fun i j a ->
      fx := !fx +. (a *. M.get f.ex i j);
      fy := !fy +. (a *. M.get f.ey i j));
  (-. !fx /. t.grid.BG.bw, -. !fy /. t.grid.BG.bh)

let es_overflow t ~target ~total_area =
  let g = t.grid in
  let ba = BG.bin_area g in
  let acc = ref 0.0 in
  for i = 0 to g.BG.nx - 1 do
    for j = 0 to g.BG.ny - 1 do
      let occ = M.get t.density i j in
      if occ > target then acc := !acc +. ((occ -. target) *. ba)
    done
  done;
  if total_area <= 0.0 then 0.0 else !acc /. total_area

(* ----- bell-shaped density smoothing ----- *)

type bell = { bgrid : BG.t; target : float; dmap : M.t }

let bell_create ~region ~nx ~ny ~target =
  { bgrid = BG.create ~region ~nx ~ny; target; dmap = M.create nx ny }

let bin_range1d ~c ~w ~wb ~x0 ~n =
  if wb <= 0.0 then invalid_arg "Bell.bin_range1d: bin size";
  let r = (0.5 *. w) +. (2.0 *. wb) in
  let lo = int_of_float (Float.floor ((c -. r -. x0) /. wb -. 0.5)) in
  let hi = int_of_float (Float.ceil ((c +. r -. x0) /. wb -. 0.5)) in
  (max 0 lo, min (n - 1) hi)

let bell_value_grad t ~widths ~heights ~xs ~ys ~gx ~gy =
  let bell = Density.Bell.bell and bell_deriv = Density.Bell.bell_deriv in
  let g = t.bgrid in
  let nx = g.BG.nx and ny = g.BG.ny in
  let wb = g.BG.bw and hb = g.BG.bh in
  let ba = BG.bin_area g in
  let n = Array.length xs in
  let norms = Array.make n 0.0 in
  for i = 0 to nx - 1 do
    for j = 0 to ny - 1 do
      M.set t.dmap i j 0.0
    done
  done;
  let add_device d =
    let w = widths.(d) and h = heights.(d) in
    let i0, i1 = bin_range1d ~c:xs.(d) ~w ~wb ~x0:g.BG.x0 ~n:nx in
    let j0, j1 = bin_range1d ~c:ys.(d) ~w:h ~wb:hb ~x0:g.BG.y0 ~n:ny in
    let s = ref 0.0 in
    for i = i0 to i1 do
      let px = bell ~w ~wb (xs.(d) -. BG.bin_center_x g i) in
      if px > 0.0 then
        for j = j0 to j1 do
          let py = bell ~w:h ~wb:hb (ys.(d) -. BG.bin_center_y g j) in
          s := !s +. (px *. py)
        done
    done;
    norms.(d) <- (if !s > 1e-12 then w *. h /. !s else 0.0);
    if norms.(d) > 0.0 then
      for i = i0 to i1 do
        let px = bell ~w ~wb (xs.(d) -. BG.bin_center_x g i) in
        if px > 0.0 then
          for j = j0 to j1 do
            let py = bell ~w:h ~wb:hb (ys.(d) -. BG.bin_center_y g j) in
            if py > 0.0 then
              M.set t.dmap i j (M.get t.dmap i j +. (norms.(d) *. px *. py))
          done
      done
  in
  for d = 0 to n - 1 do
    add_device d
  done;
  let tgt = t.target *. ba in
  let value = ref 0.0 in
  for i = 0 to nx - 1 do
    for j = 0 to ny - 1 do
      let e = M.get t.dmap i j -. tgt in
      if e > 0.0 then value := !value +. (e *. e)
    done
  done;
  for d = 0 to n - 1 do
    if norms.(d) > 0.0 then begin
      let w = widths.(d) and h = heights.(d) in
      let i0, i1 = bin_range1d ~c:xs.(d) ~w ~wb ~x0:g.BG.x0 ~n:nx in
      let j0, j1 = bin_range1d ~c:ys.(d) ~w:h ~wb:hb ~x0:g.BG.y0 ~n:ny in
      let a1 = ref 0.0 and a2 = ref 0.0 and b = ref 0.0 and s = ref 0.0 in
      let sx' = ref 0.0 and sy' = ref 0.0 in
      for i = i0 to i1 do
        let dx = xs.(d) -. BG.bin_center_x g i in
        let px = bell ~w ~wb dx in
        let px' = bell_deriv ~w ~wb dx in
        for j = j0 to j1 do
          let dy = ys.(d) -. BG.bin_center_y g j in
          let py = bell ~w:h ~wb:hb dy in
          let py' = bell_deriv ~w:h ~wb:hb dy in
          s := !s +. (px *. py);
          sx' := !sx' +. (px' *. py);
          sy' := !sy' +. (px *. py');
          let e = M.get t.dmap i j -. tgt in
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
