(* Dual simplex on a row-major tableau, from the slack basis.

   Problem form: minimize c.x subject to rows (a.x <= / = / >= b) and
   x >= 0, with every cost c_j >= 0. Sizes in this project are a few
   hundred rows and up to a couple of thousand columns, and the rows
   are sparse: a legalization pivot row is typically ~6 % nonzero. So
   the tableau is stored dense but every pivot updates only the nonzero
   entries of the (scaled) pivot row, collected once per pivot.

   No phase 1. [solve] gives every row its own basic column: a slack
   for a Le row and for a negated Ge row, an artificial (a slack fixed
   at 0, which never enters) for an Eq row. The rhs is kept whatever
   its sign. For costs >= 0 the reduced costs of that basis are the
   costs, so it is dual feasible, and dual simplex finishes the LP from
   it. With c >= 0 and x >= 0 the objective is bounded below by 0, so
   an LP is optimal, infeasible or stopped by the iteration budget.

   Column numbering: [structural | slack | reserved slack | artificial]
   followed by the rhs, each at its own stored column; the reduced-cost
   row [z] has the same layout.

   Anti-cycling: Dantzig's rule (the most infeasible row leaves)
   normally, switching to Bland's rule after a stall budget is spent.

   Warm starts. [solve ~reserve] builds the tableau with [reserve]
   spare rows and as many spare slack columns, between the slacks and
   the artificials, so they are all zero and never enter a root pivot.
   After an optimal solve, [add_bound] appends one bound row x_j <= b
   or x_j >= b with a spare slack basic in it, written in terms of the
   current basis. The reduced costs do not change, so the basis stays
   dual feasible and [resolve] restores primal feasibility by the same
   dual loop. [reset] returns the working tableau to the root optimum
   that [save_root] copied. *)

type op = Le | Ge | Eq

type constr = { coeffs : (int * float) list; op : op; rhs : float }

type problem = {
  n_vars : int;
  objective : float array;  (* minimized *)
  constraints : constr list;
}

type solution = { x : float array; objective_value : float }

type result =
  | Optimal of solution
  | Infeasible
  | Iter_limit

let eps = 1e-9

let pivots_counter = Telemetry.Counter.make "simplex.pivots"

type tableau = {
  mutable m : int;  (* rows in use *)
  ncols : int;  (* structural + slack + reserved slack + artificial *)
  art_start : int;  (* columns >= art_start are artificial *)
  bland_after : int;  (* stall budget, from the built rows and columns *)
  t : float array array;  (* m rows of length ncols + 1, then the reserved ones *)
  z : float array;  (* reduced-cost row, length ncols + 1 *)
  basis : int array;  (* basic column per row *)
  nz : int array;  (* scratch: nonzero columns of the pivot row *)
  mutable pivots : int;
}

(* The slack-basis tableau: every row with its own column basic and the
   rhs kept whatever its sign. A Le row takes a slack, a Ge row is
   negated and takes a slack, and an Eq row takes an artificial, i.e.
   a slack fixed at 0 that never enters. With every cost >= 0 the
   reduced costs are the costs themselves, so this basis is dual
   feasible. *)
let build ~reserve (p : problem) =
  let rows = Array.of_list p.constraints in
  let m = Array.length rows in
  let n_eq =
    Array.fold_left (fun n r -> if r.op = Eq then n + 1 else n) 0 rows
  in
  let art_start = p.n_vars + m - n_eq + reserve in
  let ncols = art_start + n_eq in
  (* reserved rows are allocated when first added *)
  let t =
    Array.init (m + reserve) (fun i ->
        if i < m then Array.make (ncols + 1) 0.0 else [||])
  in
  let tab =
    { m; ncols; art_start; bland_after = 5 * (m + ncols - reserve); t;
      z = Array.make (ncols + 1) 0.0; basis = Array.make (m + reserve) (-1);
      nz = Array.make (ncols + 1) 0; pivots = 0 }
  in
  let slack = ref p.n_vars and art = ref art_start in
  Array.iteri
    (fun i r ->
      let sign = match r.op with Le | Eq -> 1.0 | Ge -> -1.0 in
      let row = t.(i) in
      List.iter
        (fun (j, a) ->
          if j < 0 || j >= p.n_vars then invalid_arg "Simplex: var index";
          row.(j) <- row.(j) +. (sign *. a))
        r.coeffs;
      row.(ncols) <- sign *. r.rhs;
      let s = match r.op with Le | Ge -> slack | Eq -> art in
      row.(!s) <- 1.0;
      tab.basis.(i) <- !s;
      incr s)
    rows;
  Array.blit p.objective 0 tab.z 0 p.n_vars;
  tab

(* Skipping the zeros of the pivot row changes no value: r -. f *. 0.0
   can differ from r only in the sign of a zero. *)
let pivot tab ~row ~col =
  let pr = tab.t.(row) in
  let pv = pr.(col) in
  (* the ratio test only selects pivots with |pv| > eps, so this never
     fires; it turns a silent inf/nan tableau into a hard error (N2) *)
  if abs_float pv <= 0.0 then invalid_arg "Simplex.pivot: zero pivot";
  let inv = 1.0 /. pv in
  let nz = tab.nz and nnz = ref 0 in
  for s = 0 to tab.ncols do
    let v = pr.(s) in
    if abs_float v > 0.0 then begin
      pr.(s) <- v *. inv;
      nz.(!nnz) <- s;
      incr nnz
    end
  done;
  let nnz = !nnz in
  for i = 0 to tab.m - 1 do
    if i <> row then begin
      let r = tab.t.(i) in
      let f = r.(col) in
      if abs_float f > 0.0 then
        for k = 0 to nnz - 1 do
          let s = nz.(k) in
          r.(s) <- r.(s) -. (f *. pr.(s))
        done
    end
  done;
  let z = tab.z in
  let f = z.(col) in
  if abs_float f > 0.0 then
    for k = 0 to nnz - 1 do
      let s = nz.(k) in
      z.(s) <- z.(s) -. (f *. pr.(s))
    done;
  tab.basis.(row) <- col;
  tab.pivots <- tab.pivots + 1

(* The basic solution of an optimal tableau. *)
let extract (p : problem) tab =
  let x = Array.make p.n_vars 0.0 in
  for i = 0 to tab.m - 1 do
    if tab.basis.(i) < p.n_vars then
      x.(tab.basis.(i)) <- tab.t.(i).(tab.ncols)
  done;
  let obj = ref 0.0 in
  for j = 0 to p.n_vars - 1 do
    obj := !obj +. (p.objective.(j) *. x.(j))
  done;
  { x; objective_value = !obj }

(* The root optimum, rows stored sparse: window tableaux are 2-6 %
   nonzero, so the copy costs a small part of a second tableau. *)
type root = {
  root_rows : (int array * float array) array;  (* nonzero columns, values *)
  root_z : float array;
  root_basis : int array;
}

let sparse row =
  let n = Array.fold_left (fun n v -> if abs_float v > 0.0 then n + 1 else n) 0 row in
  let idx = Array.make n 0 and vals = Array.make n 0.0 and k = ref 0 in
  Array.iteri
    (fun c v ->
      if abs_float v > 0.0 then begin
        idx.(!k) <- c;
        vals.(!k) <- v;
        incr k
      end)
    row;
  (idx, vals)

type warm = {
  problem : problem;
  work : tableau;
  root_m : int;  (* rows of the root LP *)
  slack0 : int;  (* first reserved slack column *)
  mutable root : root option;  (* the root optimum, once copied *)
}

let save_root w =
  let tab = w.work in
  if tab.m <> w.root_m then invalid_arg "Simplex.save_root: bound rows added";
  w.root <-
    Some
      { root_rows = Array.init w.root_m (fun i -> sparse tab.t.(i));
        root_z = Array.copy tab.z;
        root_basis = Array.sub tab.basis 0 w.root_m }

let reset w =
  match w.root with
  | None -> invalid_arg "Simplex.reset: no saved root"
  | Some r ->
      let tab = w.work in
      for i = 0 to w.root_m - 1 do
        let row = tab.t.(i) and idx, vals = r.root_rows.(i) in
        Array.fill row 0 (Array.length row) 0.0;
        Array.iteri (fun k c -> row.(c) <- vals.(k)) idx
      done;
      Array.blit r.root_z 0 tab.z 0 (Array.length r.root_z);
      Array.blit r.root_basis 0 tab.basis 0 w.root_m;
      tab.m <- w.root_m

let add_bound w j op b =
  let tab = w.work in
  if j < 0 || j >= w.problem.n_vars then invalid_arg "Simplex.add_bound: var index";
  let k = tab.m in
  if k >= Array.length tab.t then invalid_arg "Simplex.add_bound: no reserved row";
  let sign =
    match op with
    | Le -> 1.0
    | Ge -> -1.0
    | Eq -> invalid_arg "Simplex.add_bound: Eq"
  in
  (* sign * x_j + s = sign * b, minus sign times x_j's row if x_j is
     basic; the reserved column s is zero in every row in use *)
  if Array.length tab.t.(k) = 0 then tab.t.(k) <- Array.make (tab.ncols + 1) 0.0
  else Array.fill tab.t.(k) 0 (tab.ncols + 1) 0.0;
  let r = tab.t.(k) in
  let basic = ref (-1) in
  for i = 0 to k - 1 do
    if tab.basis.(i) = j then basic := i
  done;
  if !basic < 0 then begin
    r.(j) <- sign;
    r.(tab.ncols) <- sign *. b
  end
  else begin
    let src = tab.t.(!basic) in
    for c = 0 to tab.ncols - 1 do
      let v = src.(c) in
      if abs_float v > 0.0 then r.(c) <- -.(sign *. v)
    done;
    r.(j) <- 0.0;
    r.(tab.ncols) <- sign *. (b -. src.(tab.ncols))
  end;
  let s = w.slack0 + (k - w.root_m) in
  r.(s) <- 1.0;
  tab.basis.(k) <- s;
  tab.m <- k + 1

(* Dual simplex from a dual-feasible basis: a row with a negative rhs
   leaves, and the non-artificial column with the smallest ratio
   z_j / -a_j enters. A basic artificial is fixed at 0, so its row also
   leaves on a positive rhs, and then the sign of the row is flipped
   for the ratio test. Until the stall budget is spent, the most
   infeasible row leaves and ratio ties go to the larger |a_j|, then to
   the smaller index. After it, Bland's rule: the row whose basic
   column has the smallest index leaves and ratio ties go to the
   smallest index alone, which cannot cycle. *)
let dual_iterate ~max_iter tab =
  let rhs = tab.ncols in
  let rec go k =
    if k >= max_iter then `Iter_limit
    else begin
      let bland = k >= tab.bland_after in
      let row = ref (-1) and worst = ref (-.eps) in
      for i = 0 to tab.m - 1 do
        let v = tab.t.(i).(rhs) in
        let v = if tab.basis.(i) >= tab.art_start then -.abs_float v else v in
        if not bland then begin
          if v < !worst then begin
            worst := v;
            row := i
          end
        end
        else if v < -.eps && (!row < 0 || tab.basis.(i) < tab.basis.(!row))
        then row := i
      done;
      if !row < 0 then `Optimal
      else begin
        let r = tab.t.(!row) in
        let up = r.(rhs) > 0.0 in
        let enter = ref (-1) and best = ref infinity and best_a = ref 0.0 in
        for j = 0 to tab.art_start - 1 do
          let a = if up then -.r.(j) else r.(j) in
          if a < -.eps then begin
            let ratio = Float.max 0.0 tab.z.(j) /. -.a in
            if
              ratio < !best -. eps
              || ((not bland) && ratio < !best +. eps && -.a > !best_a)
            then begin
              best := ratio;
              best_a := -.a;
              enter := j
            end
          end
        done;
        if !enter < 0 then `Infeasible
        else begin
          pivot tab ~row:!row ~col:!enter;
          go (k + 1)
        end
      end
    end
  in
  go 0

let resolve ?(max_iter = 20000) w =
  let tab = w.work in
  let before = tab.pivots in
  let result =
    match dual_iterate ~max_iter tab with
    | `Iter_limit -> Iter_limit
    | `Infeasible -> Infeasible
    | `Optimal -> Optimal (extract w.problem tab)
  in
  Telemetry.Counter.add pivots_counter (tab.pivots - before);
  result

let solve ?max_iter ~reserve p =
  if Array.length p.objective <> p.n_vars then
    invalid_arg "Simplex.solve: objective size";
  if reserve < 0 then invalid_arg "Simplex.solve: reserve";
  (* [not (c >= 0)] also refuses a nan cost *)
  if Array.exists (fun c -> not (c >= 0.0)) p.objective then
    invalid_arg "Simplex.solve: negative cost";
  let tab = build ~reserve p in
  let w =
    { problem = p; work = tab; root_m = tab.m;
      slack0 = tab.art_start - reserve; root = None }
  in
  (resolve ?max_iter w, w)

let pp_result ppf = function
  | Optimal s -> Fmt.pf ppf "optimal(%.6g)" s.objective_value
  | Infeasible -> Fmt.pf ppf "infeasible"
  | Iter_limit -> Fmt.pf ppf "iteration-limit"
