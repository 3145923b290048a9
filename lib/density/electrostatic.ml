(* The electrostatic density model of ePlace: devices are positive
   charges (charge = area); the density map is treated as a charge
   distribution; the potential solves Poisson's equation via the
   spectral solver; the force on a device is the field integrated over
   its footprint. The density gradient used by the placer is

     dN/dx_i = -(1/bw) * sum_b ovl(i, b) * xi_x(b)

   where ovl is the device/bin overlap area (bw converts from bin-index
   space to micrometres). *)

(* Hot loops index the row-major arrays directly: dev builds compile
   libraries -opaque, so a Matrix.get across the module boundary is a
   real call that boxes its float. *)
type t = {
  grid : Bin_grid.t;
  spectral : Numerics.Spectral.t;
  density : Numerics.Matrix.t;  (* occupancy fraction per bin *)
  (* the solver's field buffers, row-major; [||] until the first compute *)
  mutable ex : float array;
  mutable ey : float array;
  cover : Bin_grid.cover;
}

let create ~region ~nx ~ny =
  let grid = Bin_grid.create ~region ~nx ~ny in
  let spectral = Numerics.Spectral.create ~nx ~ny in
  let density = Numerics.Matrix.create nx ny in
  {
    grid;
    spectral;
    density;
    ex = [||];
    ey = [||];
    cover = Bin_grid.cover_create grid;
  }

let compute t (rects : Geometry.Rect.t array) =
  let g = t.grid in
  let ba = g.Bin_grid.bw *. g.Bin_grid.bh in
  (* positive bin area is a Bin_grid.create invariant (N2) *)
  if ba <= 0.0 then invalid_arg "Electrostatic.compute: bin area";
  let inv_ba = 1.0 /. ba in
  let d = Numerics.Matrix.data t.density in
  let c = t.cover and ny = g.Bin_grid.ny in
  Array.fill d 0 (Array.length d) 0.0;
  for r = 0 to Array.length rects - 1 do
    Bin_grid.cover g rects.(r) c;
    for i = c.Bin_grid.i0 to c.Bin_grid.i1 do
      let dx = c.Bin_grid.dx.(i) in
      if dx > 0.0 then
        for j = c.Bin_grid.j0 to c.Bin_grid.j1 do
          let dy = c.Bin_grid.dy.(j) in
          if dy > 0.0 then begin
            let k = (i * ny) + j in
            d.(k) <- d.(k) +. (dx *. dy *. inv_ba)
          end
        done
    done
  done;
  let f = Numerics.Spectral.solve_poisson t.spectral t.density in
  t.ex <- Numerics.Matrix.data f.Numerics.Spectral.ex;
  t.ey <- Numerics.Matrix.data f.Numerics.Spectral.ey
[@@placer_lint.hot]

let check_solved t =
  if Array.length t.ex = 0 then invalid_arg "Electrostatic: call compute first"

(* Potential energy N(v) = 1/2 sum_i q_i psi(cell_i). *)
let energy t (rects : Geometry.Rect.t array) =
  check_solved t;
  let psi = Numerics.Matrix.data (Numerics.Spectral.potential t.spectral) in
  let c = t.cover and ny = t.grid.Bin_grid.ny in
  let acc = ref 0.0 in
  for r = 0 to Array.length rects - 1 do
    Bin_grid.cover t.grid rects.(r) c;
    for i = c.Bin_grid.i0 to c.Bin_grid.i1 do
      let dx = c.Bin_grid.dx.(i) in
      if dx > 0.0 then
        for j = c.Bin_grid.j0 to c.Bin_grid.j1 do
          let dy = c.Bin_grid.dy.(j) in
          if dy > 0.0 then acc := !acc +. (dx *. dy *. psi.((i * ny) + j))
        done
    done
  done;
  0.5 *. !acc

(* Gradient of the energy w.r.t. the device centre: -integral of field
   over the footprint, converted to physical units. *)
let grad t (r : Geometry.Rect.t) =
  check_solved t;
  let c = t.cover and ny = t.grid.Bin_grid.ny in
  let fx = ref 0.0 and fy = ref 0.0 in
  Bin_grid.cover t.grid r c;
  for i = c.Bin_grid.i0 to c.Bin_grid.i1 do
    let dx = c.Bin_grid.dx.(i) in
    if dx > 0.0 then
      for j = c.Bin_grid.j0 to c.Bin_grid.j1 do
        let dy = c.Bin_grid.dy.(j) in
        if dy > 0.0 then begin
          let a = dx *. dy and k = (i * ny) + j in
          fx := !fx +. (a *. t.ex.(k));
          fy := !fy +. (a *. t.ey.(k))
        end
      done
  done;
  (* placer-lint: allow N2 bw and bh are > 0 by the Bin_grid.create invariant *) (* placer-lint: allow A1 the (gx, gy) pair is the signature's result, read at once by the caller; the only allocation per call *)
  ( -. !fx /. t.grid.Bin_grid.bw, -. !fy /. t.grid.Bin_grid.bh )
[@@placer_lint.hot]

(* Density overflow: fraction of total movable area sitting above the
   target occupancy — ePlace's convergence criterion. *)
let overflow t ~target ~total_area =
  let g = t.grid in
  let ba = Bin_grid.bin_area g in
  let acc = ref 0.0 in
  Array.iter
    (fun occ -> if occ > target then acc := !acc +. ((occ -. target) *. ba))
    (Numerics.Matrix.data t.density);
  if total_area <= 0.0 then 0.0 else !acc /. total_area

let grid t = t.grid
