(* Two-phase primal simplex on a row-major tableau.

   Problem form: minimize c.x subject to rows (a.x <= / = / >= b) and
   x >= 0. Sizes in this project are a few hundred rows and up to a
   couple of thousand columns, and the rows are sparse: a legalization
   pivot row is typically ~6 % nonzero. So the tableau is stored dense
   but every pivot updates only the nonzero entries of the (scaled)
   pivot row, collected once per pivot.

   Column numbering. Logical columns are [structural | slack |
   artificial] followed by the rhs; pricing, Bland's rule and the
   basis all speak logical indices. A Ge row's artificial starts as
   +e_i and its slack as -e_i, and every pivot applies the same
   sign-symmetric update to both, so in every row the artificial entry
   is exactly the negated slack entry (up to the sign of a zero, which
   only a division could tell apart, and every division is guarded).
   Those artificials therefore have no stored column: [col]/[neg] map a
   logical column to its stored column and a negate flag. Eq-row
   artificials and the rhs keep stored columns; the reduced-cost row
   [z] keeps the full logical length.

   Anti-cycling: Dantzig pricing normally, switching to Bland's rule
   after a stall budget is exhausted; the dual loop of the warm
   re-solves switches the same way.

   Warm starts. [solve_warm ~reserve] builds the tableau with [reserve]
   spare rows and as many spare slack columns, logically between the
   Ge slacks and the artificials, so they are all zero and never enter
   a root pivot. After an optimal solve, [add_bound] appends one bound
   row x_j <= b or x_j >= b with a spare slack basic in it, written in
   terms of the current basis. The reduced costs do not change, so the
   basis stays dual feasible and [resolve] restores primal
   feasibility by dual simplex. [reset] returns the working tableau to
   the root optimum that [save_root] copied.

   No phase 1. [solve_dual] gives every row its own basic column: a
   slack for a Le row and for a negated Ge row, an artificial (a slack
   fixed at 0, which never enters) for an Eq row. For costs >= 0 the
   reduced costs of that basis are the costs, so it is dual feasible,
   and the same dual loop as a warm re-solve finishes the LP from it. *)

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
  | Unbounded
  | Iter_limit

let eps = 1e-9

let pivots_counter = Telemetry.Counter.make "simplex.pivots"

type tableau = {
  mutable m : int;  (* rows in use *)
  ncols : int;  (* logical columns: structural + slack + artificial *)
  art_start : int;  (* logical columns >= art_start are artificial *)
  rhs_col : int;  (* stored rhs column; rows have length rhs_col + 1 *)
  bland_after : int;  (* stall budget, from the built rows and columns *)
  t : float array array;  (* m stored rows, then the reserved ones *)
  z : float array;  (* reduced-cost row, logical length ncols + 1 *)
  basis : int array;  (* basic logical column per row *)
  col : int array;  (* logical -> stored column *)
  neg : bool array;  (* logical column is the negated stored column *)
  lcol : int array;  (* stored -> logical column (rhs -> ncols) *)
  ge_art : int array;  (* stored Ge-row slack -> its artificial, else -1 *)
  nz : int array;  (* scratch: nonzero stored columns of the pivot row *)
  mutable pivots : int;
}

(* A zero tableau of [m] rows, room for [reserve] more, every logical
   column at its own stored column and no basis yet. *)
let alloc ~m ~reserve ~ncols ~art_start ~rhs_col =
  (* reserved rows are allocated when first added *)
  let t =
    Array.init (m + reserve) (fun i ->
        if i < m then Array.make (rhs_col + 1) 0.0 else [||])
  in
  let lcol = Array.init (rhs_col + 1) Fun.id in
  lcol.(rhs_col) <- ncols;
  { m; ncols; art_start; rhs_col;
    bland_after = 5 * (m + ncols - reserve);
    t; z = Array.make (ncols + 1) 0.0; basis = Array.make (m + reserve) (-1);
    col = Array.init ncols Fun.id; neg = Array.make ncols false; lcol;
    ge_art = Array.make (rhs_col + 1) (-1); nz = Array.make (rhs_col + 1) 0;
    pivots = 0 }

(* Write one sparse row and its rhs into a zero stored row. *)
let fill_row (p : problem) row ~rhs_col coeffs rhs =
  List.iter
    (fun (j, a) ->
      if j < 0 || j >= p.n_vars then invalid_arg "Simplex: var index";
      row.(j) <- row.(j) +. a)
    coeffs;
  row.(rhs_col) <- rhs

let build ~reserve (p : problem) =
  let m = List.length p.constraints in
  let rows = Array.of_list p.constraints in
  (* Normalise to rhs >= 0. *)
  let rows =
    Array.map
      (fun r ->
        if r.rhs < 0.0 then
          {
            coeffs = List.map (fun (j, a) -> (j, -.a)) r.coeffs;
            op = (match r.op with Le -> Ge | Ge -> Le | Eq -> Eq);
            rhs = -.r.rhs;
          }
        else r)
      rows
  in
  let count op =
    Array.fold_left (fun acc r -> if r.op = op then acc + 1 else acc) 0 rows
  in
  let n_le = count Le and n_ge = count Ge and n_eq = count Eq in
  let art_start = p.n_vars + n_le + n_ge + reserve in
  let tab =
    alloc ~m ~reserve ~ncols:(art_start + n_ge + n_eq) ~art_start
      ~rhs_col:(art_start + n_eq)
  in
  let t = tab.t and basis = tab.basis and col = tab.col and neg = tab.neg in
  let lcol = tab.lcol and ge_art = tab.ge_art and rhs_col = tab.rhs_col in
  let slack = ref p.n_vars and art = ref art_start and eq = ref art_start in
  Array.iteri
    (fun i r ->
      fill_row p t.(i) ~rhs_col r.coeffs r.rhs;
      (match r.op with
      | Le ->
          t.(i).(!slack) <- 1.0;
          basis.(i) <- !slack;
          incr slack
      | Ge ->
          t.(i).(!slack) <- -1.0;
          col.(!art) <- !slack;
          neg.(!art) <- true;
          ge_art.(!slack) <- !art;
          basis.(i) <- !art;
          incr slack;
          incr art
      | Eq ->
          t.(i).(!eq) <- 1.0;
          col.(!art) <- !eq;
          lcol.(!eq) <- !art;
          basis.(i) <- !art;
          incr eq;
          incr art))
    rows;
  tab

(* The tableau of [solve_dual]: every row with its own column basic
   and the rhs kept whatever its sign. A Le row takes a slack, a Ge row
   is negated and takes a slack, and an Eq row takes an artificial,
   i.e. a slack fixed at 0 that never enters. With every cost >= 0 the
   reduced costs are the costs themselves, so this basis is dual
   feasible. *)
let build_dual ~reserve (p : problem) =
  let rows = Array.of_list p.constraints in
  let m = Array.length rows in
  let n_eq =
    Array.fold_left (fun n r -> if r.op = Eq then n + 1 else n) 0 rows
  in
  let art_start = p.n_vars + m - n_eq + reserve in
  let ncols = art_start + n_eq in
  let tab = alloc ~m ~reserve ~ncols ~art_start ~rhs_col:ncols in
  let slack = ref p.n_vars and art = ref art_start in
  Array.iteri
    (fun i r ->
      let coeffs, rhs =
        match r.op with
        | Le | Eq -> (r.coeffs, r.rhs)
        | Ge -> (List.map (fun (j, a) -> (j, -.a)) r.coeffs, -.r.rhs)
      in
      fill_row p tab.t.(i) ~rhs_col:ncols coeffs rhs;
      let s = match r.op with Le | Ge -> slack | Eq -> art in
      tab.t.(i).(!s) <- 1.0;
      tab.basis.(i) <- !s;
      incr s)
    rows;
  Array.blit p.objective 0 tab.z 0 p.n_vars;
  tab

(* Tableau entry of logical column [j] in stored row [r]. *)
let[@inline] entry tab r j =
  let v = r.(tab.col.(j)) in
  if tab.neg.(j) then -.v else v

(* z.(lcol s) -= f * v, and the same for the Ge artificial that reads
   stored column [s] negated. *)
let[@inline] sub_z tab s f v =
  let j = tab.lcol.(s) in
  tab.z.(j) <- tab.z.(j) -. (f *. v);
  let a = tab.ge_art.(s) in
  if a >= 0 then tab.z.(a) <- tab.z.(a) -. (f *. -.v)

(* Rebuild the reduced-cost row for cost vector [c] (length ncols,
   padded with zeros) under the current basis. *)
let price tab c =
  Array.fill tab.z 0 (tab.ncols + 1) 0.0;
  Array.blit c 0 tab.z 0 (Array.length c);
  for i = 0 to tab.m - 1 do
    let cb = if tab.basis.(i) < Array.length c then c.(tab.basis.(i)) else 0.0 in
    if not (Float.equal cb 0.0) then begin
      let row = tab.t.(i) in
      for s = 0 to tab.rhs_col do
        sub_z tab s cb row.(s)
      done
    end
  done

(* Skipping the zeros of the pivot row changes no value: r -. f *. 0.0
   can differ from r only in the sign of a zero. *)
let pivot tab ~row ~col =
  let pr = tab.t.(row) in
  let pv = entry tab pr col in
  (* the ratio test only selects pivots with |pv| > eps, so this never
     fires; it turns a silent inf/nan tableau into a hard error (N2) *)
  if abs_float pv <= 0.0 then invalid_arg "Simplex.pivot: zero pivot";
  let inv = 1.0 /. pv in
  let nz = tab.nz and nnz = ref 0 in
  for s = 0 to tab.rhs_col do
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
      let f = entry tab r col in
      if abs_float f > 0.0 then
        for k = 0 to nnz - 1 do
          let s = nz.(k) in
          r.(s) <- r.(s) -. (f *. pr.(s))
        done
    end
  done;
  let f = tab.z.(col) in
  if abs_float f > 0.0 then
    for k = 0 to nnz - 1 do
      let s = nz.(k) in
      sub_z tab s f pr.(s)
    done;
  tab.basis.(row) <- col;
  tab.pivots <- tab.pivots + 1

(* Run simplex iterations until optimal/unbounded/limit. Only logical
   columns below [limit] may enter: [ncols] in phase 1, [art_start]
   (no artificials) in phase 2. *)
let iterate ~max_iter tab ~limit =
  let bland_after = tab.bland_after in
  let rec go k =
    if k >= max_iter then `Iter_limit
    else begin
      (* entering column *)
      let enter = ref (-1) in
      if k < bland_after then begin
        let best = ref (-.eps) in
        for j = 0 to limit - 1 do
          if tab.z.(j) < !best then begin
            best := tab.z.(j);
            enter := j
          end
        done
      end
      else begin
        (* Bland: smallest index with negative reduced cost *)
        let j = ref 0 in
        while !enter < 0 && !j < limit do
          if tab.z.(!j) < -.eps then enter := !j;
          incr j
        done
      end;
      if !enter < 0 then `Optimal
      else begin
        (* ratio test *)
        let row = ref (-1) and best = ref infinity in
        for i = 0 to tab.m - 1 do
          let r = tab.t.(i) in
          let a = entry tab r !enter in
          if a > eps then begin
            let ratio = r.(tab.rhs_col) /. a in
            if
              ratio < !best -. eps
              || (ratio < !best +. eps
                 && (!row < 0 || tab.basis.(i) < tab.basis.(!row)))
            then begin
              best := ratio;
              row := i
            end
          end
        done;
        if !row < 0 then `Unbounded
        else begin
          pivot tab ~row:!row ~col:!enter;
          go (k + 1)
        end
      end
    end
  in
  go 0

(* The basic solution of an optimal tableau. *)
let extract (p : problem) tab =
  let x = Array.make p.n_vars 0.0 in
  for i = 0 to tab.m - 1 do
    if tab.basis.(i) < p.n_vars then
      x.(tab.basis.(i)) <- tab.t.(i).(tab.rhs_col)
  done;
  let obj = ref 0.0 in
  for j = 0 to p.n_vars - 1 do
    obj := !obj +. (p.objective.(j) *. x.(j))
  done;
  { x; objective_value = !obj }

let run ~max_iter (p : problem) tab =
  let has_art = tab.ncols > tab.art_start in
  let status_phase1 =
    if not has_art then `Optimal
    else begin
      (* Phase 1: minimise the sum of artificials. *)
      let c1 = Array.make tab.ncols 0.0 in
      for j = tab.art_start to tab.ncols - 1 do
        c1.(j) <- 1.0
      done;
      price tab c1;
      iterate ~max_iter tab ~limit:tab.ncols
    end
  in
  match status_phase1 with
  | `Iter_limit -> Iter_limit
  | `Unbounded -> Infeasible (* phase-1 objective is bounded below by 0 *)
  | `Optimal ->
      let phase1_obj =
        if not has_art then 0.0
        else begin
          let acc = ref 0.0 in
          for i = 0 to tab.m - 1 do
            if tab.basis.(i) >= tab.art_start then
              acc := !acc +. tab.t.(i).(tab.rhs_col)
          done;
          !acc
        end
      in
      if phase1_obj > 1e-6 then Infeasible
      else begin
        (* Drive any basic artificial (at value 0) out of the basis.
           Columns below art_start are stored at their logical index. *)
        for i = 0 to tab.m - 1 do
          if tab.basis.(i) >= tab.art_start then begin
            let col = ref (-1) in
            for j = 0 to tab.art_start - 1 do
              if !col < 0 && abs_float tab.t.(i).(j) > 1e-7 then col := j
            done;
            if !col >= 0 then pivot tab ~row:i ~col:!col
            (* else: redundant row; the artificial stays basic at 0 *)
          end
        done;
        (* Phase 2 *)
        let c2 = Array.make tab.ncols 0.0 in
        Array.blit p.objective 0 c2 0 p.n_vars;
        price tab c2;
        match iterate ~max_iter tab ~limit:tab.art_start with
        | `Iter_limit -> Iter_limit
        | `Unbounded -> Unbounded
        | `Optimal -> Optimal (extract p tab)
      end

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

let checked ~reserve (p : problem) =
  if Array.length p.objective <> p.n_vars then
    invalid_arg "Simplex.solve: objective size";
  if reserve < 0 then invalid_arg "Simplex.solve_warm: reserve"

let run_counted ~max_iter p tab =
  let result = run ~max_iter p tab in
  Telemetry.Counter.add pivots_counter tab.pivots;
  result

let warm_of p tab ~reserve =
  { problem = p; work = tab; root_m = tab.m;
    slack0 = tab.art_start - reserve; root = None }

let solve ?(max_iter = 20000) p =
  checked ~reserve:0 p;
  run_counted ~max_iter p (build ~reserve:0 p)

let solve_warm ?(max_iter = 20000) ~reserve p =
  checked ~reserve p;
  let tab = build ~reserve p in
  (run_counted ~max_iter p tab, warm_of p tab ~reserve)

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
  if Array.length tab.t.(k) = 0 then tab.t.(k) <- Array.make (tab.rhs_col + 1) 0.0
  else Array.fill tab.t.(k) 0 (tab.rhs_col + 1) 0.0;
  let r = tab.t.(k) in
  let basic = ref (-1) in
  for i = 0 to k - 1 do
    if tab.basis.(i) = j then basic := i
  done;
  if !basic < 0 then begin
    r.(j) <- sign;
    r.(tab.rhs_col) <- sign *. b
  end
  else begin
    let src = tab.t.(!basic) in
    for c = 0 to tab.rhs_col - 1 do
      let v = src.(c) in
      if abs_float v > 0.0 then r.(c) <- -.(sign *. v)
    done;
    r.(j) <- 0.0;
    r.(tab.rhs_col) <- sign *. (b -. src.(tab.rhs_col))
  end;
  let s = w.slack0 + (k - w.root_m) in
  r.(s) <- 1.0;
  tab.basis.(k) <- s;
  tab.m <- k + 1

(* Dual simplex from a dual-feasible basis: a row with a negative rhs
   leaves, and the column below [limit] with the smallest ratio
   z_j / -a_j enters. A basic artificial is fixed at 0, so its row
   also leaves on a positive rhs, and then the sign of the row is
   flipped for the ratio test. Until the stall budget is spent, the
   most infeasible row leaves and ratio ties go to the larger |a_j|,
   then to the smaller index. After it, Bland's rule: the row whose
   basic column has the smallest index leaves and ratio ties go to the
   smallest index alone, which cannot cycle. *)
let dual_iterate ~max_iter tab ~limit =
  let rec go k =
    if k >= max_iter then `Iter_limit
    else begin
      let bland = k >= tab.bland_after in
      let row = ref (-1) and worst = ref (-.eps) in
      for i = 0 to tab.m - 1 do
        let v = tab.t.(i).(tab.rhs_col) in
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
        let up = r.(tab.rhs_col) > 0.0 in
        let enter = ref (-1) and best = ref infinity and best_a = ref 0.0 in
        for j = 0 to limit - 1 do
          let a = if up then -.entry tab r j else entry tab r j in
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
    match dual_iterate ~max_iter tab ~limit:tab.art_start with
    | `Iter_limit -> Iter_limit
    | `Infeasible -> Infeasible
    | `Optimal -> Optimal (extract w.problem tab)
  in
  Telemetry.Counter.add pivots_counter (tab.pivots - before);
  result

let solve_dual ?max_iter ~reserve p =
  checked ~reserve p;
  (* [not (c >= 0)] also refuses a nan cost *)
  if Array.exists (fun c -> not (c >= 0.0)) p.objective then
    invalid_arg "Simplex.solve_dual: negative cost";
  let w = warm_of p (build_dual ~reserve p) ~reserve in
  (resolve ?max_iter w, w)

let pp_result ppf = function
  | Optimal s -> Fmt.pf ppf "optimal(%.6g)" s.objective_value
  | Infeasible -> Fmt.pf ppf "infeasible"
  | Unbounded -> Fmt.pf ppf "unbounded"
  | Iter_limit -> Fmt.pf ppf "iteration-limit"
