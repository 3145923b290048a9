(* Spectral Poisson solver on a regular grid with Neumann boundary
   conditions, the core of ePlace's electrostatic density model.

   Basis: cos(w_u (i + 1/2)) with w_u = pi * u / M along each axis.
   For density rho = sum a_uv cos cos, the potential solving
   lap(psi) = -rho is psi = sum a_uv / (w_u^2 + w_v^2) cos cos, and the
   field xi = -grad(psi) has a sin expansion along the derivative axis.

   Transforms are products with precomputed basis matrices (O(M^2) per
   vector), written into buffers the solver owns, so a solve allocates
   nothing. At the placer's 32 x 32 grid a length-32 FFT-based DCT
   costs about as much as the direct basis product and rounds
   differently; `Fft` is a standalone transform, cross-checked against
   [dct_ii_direct] in the test suite, and is not used here. *)

type field = { ex : Matrix.t; ey : Matrix.t }

type t = {
  nx : int;
  ny : int;
  bx : Matrix.t;  (* bx.(u).(i) = cos(pi u (i+1/2) / nx) *)
  by : Matrix.t;
  sy : Matrix.t;  (* sy.(v).(j) = sin(pi v (j+1/2) / ny) *)
  bxt : Matrix.t;  (* transposes of bx, by and sx *)
  byt : Matrix.t;
  sxt : Matrix.t;
  wx : float array;  (* w_u = pi u / nx *)
  wy : float array;
  cx : float array;  (* orthogonality scaling: 1/nx for u = 0, else 2/nx *)
  cy : float array;
  tmp : Matrix.t;  (* the inner product of every transform *)
  a : Matrix.t;  (* cosine coefficients of the last analysed grid *)
  coef_psi : Matrix.t;
  coef_ex : Matrix.t;
  coef_ey : Matrix.t;
  psi : Matrix.t;
  field : field;
  mutable psi_stale : bool;  (* [psi] predates the last solve *)
}

let create ~nx ~ny =
  if nx <= 0 || ny <= 0 then invalid_arg "Spectral.create: size";
  let basis f n =
    (* redundant with the create guard above, but keeps the divisor
       provably positive inside this helper (N2) *)
    if n <= 0 then invalid_arg "Spectral.create: size";
    Matrix.init n n (fun u i ->
        f (Float.pi *. float_of_int u *. (float_of_int i +. 0.5)
           /. float_of_int n))
  in
  (* placer-lint: allow N2 nx and ny are >= 1, enforced above *)
  let scale n u = if u = 0 then 1.0 /. float_of_int n else 2.0 /. float_of_int n in
  let grid () = Matrix.create nx ny in
  let bx = basis cos nx and by = basis cos ny in
  {
    nx;
    ny;
    bx;
    by;
    sy = basis sin ny;
    bxt = Matrix.transpose bx;
    byt = Matrix.transpose by;
    sxt = Matrix.transpose (basis sin nx);
    wx = Array.init nx (fun u -> Float.pi *. float_of_int u /. float_of_int nx);
    wy = Array.init ny (fun v -> Float.pi *. float_of_int v /. float_of_int ny);
    cx = Array.init nx (scale nx);
    cy = Array.init ny (scale ny);
    tmp = grid ();
    a = grid ();
    coef_psi = grid ();
    coef_ex = grid ();
    coef_ey = grid ();
    psi = grid ();
    field = { ex = grid (); ey = grid () };
    psi_stale = false;
  }

(* Forward cosine analysis: a = Cx rho Cy^T with orthogonality scaling,
   so that rho.(i).(j) = sum_uv a.(u).(v) bx.(u).(i) by.(v).(j). *)
let analyze t rho =
  if Matrix.rows rho <> t.nx || Matrix.cols rho <> t.ny then
    invalid_arg "Spectral.analyze: grid size";
  Matrix.matmul_into t.tmp t.bx rho;
  (* tmp.(u).(j) = sum_i bx.(u).(i) rho.(i).(j) *)
  Matrix.matmul_into t.a t.tmp t.byt;
  let a = Matrix.data t.a in
  for u = 0 to t.nx - 1 do
    for v = 0 to t.ny - 1 do
      let k = (u * t.ny) + v in
      a.(k) <- a.(k) *. t.cx.(u) *. t.cy.(v)
    done
  done;
  t.a
[@@placer_lint.hot]

(* Synthesis with arbitrary per-axis basis: out = Px^T coef Py, with
   the transpose [pxt] precomputed. *)
let synth t ~out pxt py coef =
  Matrix.matmul_into t.tmp coef py;
  Matrix.matmul_into out pxt t.tmp
[@@placer_lint.hot]

let solve_poisson t rho =
  let a = Matrix.data (analyze t rho) in
  let cpsi = Matrix.data t.coef_psi in
  let cex = Matrix.data t.coef_ex and cey = Matrix.data t.coef_ey in
  for u = 0 to t.nx - 1 do
    for v = 0 to t.ny - 1 do
      let k = (u * t.ny) + v in
      let w2 = (t.wx.(u) *. t.wx.(u)) +. (t.wy.(v) *. t.wy.(v)) in
      (* w2 = 0 exactly for the (0,0) DC mode, which the Neumann
         solver drops; guarding on w2 itself (rather than u/v) makes
         the divisor provably positive (N2) *)
      if w2 > 0.0 then begin
        let auv = a.(k) in
        cpsi.(k) <- auv /. w2;
        cex.(k) <- auv *. t.wx.(u) /. w2;
        cey.(k) <- auv *. t.wy.(v) /. w2
      end
      else begin
        cpsi.(k) <- 0.0;
        cex.(k) <- 0.0;
        cey.(k) <- 0.0
      end
    done
  done;
  (* xi_x uses the sin basis along x (derivative axis), cos along y. *)
  synth t ~out:t.field.ex t.sxt t.by t.coef_ex;
  synth t ~out:t.field.ey t.bxt t.sy t.coef_ey;
  t.psi_stale <- true;
  t.field
[@@placer_lint.hot]

let potential t =
  if t.psi_stale then begin
    synth t ~out:t.psi t.bxt t.by t.coef_psi;
    t.psi_stale <- false
  end;
  t.psi
[@@placer_lint.hot]

(* Direct (O(n^2)) reference DCT-II, matching Fft.dct_ii's convention. *)
let dct_ii_direct x =
  let n = Array.length x in
  if n = 0 then [||]
  else
    Array.init n (fun k ->
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc :=
            !acc
            +. x.(i)
               *. cos
                    (Float.pi *. float_of_int k
                    *. ((2.0 *. float_of_int i) +. 1.0)
                    /. (2.0 *. float_of_int n))
        done;
        !acc)
