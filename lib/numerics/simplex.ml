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
   after a stall budget is exhausted. *)

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
  m : int;  (* rows *)
  ncols : int;  (* logical columns: structural + slack + artificial *)
  art_start : int;  (* logical columns >= art_start are artificial *)
  rhs_col : int;  (* stored rhs column; rows have length rhs_col + 1 *)
  t : float array array;  (* m stored rows *)
  z : float array;  (* reduced-cost row, logical length ncols + 1 *)
  basis : int array;  (* basic logical column per row *)
  col : int array;  (* logical -> stored column *)
  neg : bool array;  (* logical column is the negated stored column *)
  lcol : int array;  (* stored -> logical column (rhs -> ncols) *)
  ge_art : int array;  (* stored Ge-row slack -> its artificial, else -1 *)
  nz : int array;  (* scratch: nonzero stored columns of the pivot row *)
  mutable pivots : int;
}

let build (p : problem) =
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
  let art_start = p.n_vars + n_le + n_ge in
  let ncols = art_start + n_ge + n_eq in
  let rhs_col = art_start + n_eq in
  let t = Array.init m (fun _ -> Array.make (rhs_col + 1) 0.0) in
  let basis = Array.make m (-1) in
  let col = Array.init ncols Fun.id and neg = Array.make ncols false in
  let lcol = Array.init (rhs_col + 1) Fun.id in
  let ge_art = Array.make (rhs_col + 1) (-1) in
  lcol.(rhs_col) <- ncols;
  let slack = ref p.n_vars and art = ref art_start and eq = ref art_start in
  Array.iteri
    (fun i r ->
      List.iter
        (fun (j, a) ->
          if j < 0 || j >= p.n_vars then invalid_arg "Simplex: var index";
          t.(i).(j) <- t.(i).(j) +. a)
        r.coeffs;
      t.(i).(rhs_col) <- r.rhs;
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
  { m; ncols; art_start; rhs_col; t; z = Array.make (ncols + 1) 0.0; basis;
    col; neg; lcol; ge_art; nz = Array.make (rhs_col + 1) 0; pivots = 0 }

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

(* Run simplex iterations until optimal/unbounded/limit. [allowed j]
   restricts entering columns (used to ban artificials in phase 2). *)
let iterate ?(max_iter = 20000) tab ~allowed =
  let bland_after = 5 * (tab.m + tab.ncols) in
  let rec go k =
    if k >= max_iter then `Iter_limit
    else begin
      (* entering column *)
      let enter = ref (-1) in
      if k < bland_after then begin
        let best = ref (-.eps) in
        for j = 0 to tab.ncols - 1 do
          if allowed j && tab.z.(j) < !best then begin
            best := tab.z.(j);
            enter := j
          end
        done
      end
      else begin
        (* Bland: smallest index with negative reduced cost *)
        let j = ref 0 in
        while !enter < 0 && !j < tab.ncols do
          if allowed !j && tab.z.(!j) < -.eps then enter := !j;
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
      iterate ~max_iter tab ~allowed:(fun _ -> true)
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
        let allowed j = j < tab.art_start in
        match iterate ~max_iter tab ~allowed with
        | `Iter_limit -> Iter_limit
        | `Unbounded -> Unbounded
        | `Optimal ->
            let x = Array.make p.n_vars 0.0 in
            for i = 0 to tab.m - 1 do
              if tab.basis.(i) < p.n_vars then
                x.(tab.basis.(i)) <- tab.t.(i).(tab.rhs_col)
            done;
            let obj = ref 0.0 in
            for j = 0 to p.n_vars - 1 do
              obj := !obj +. (p.objective.(j) *. x.(j))
            done;
            Optimal { x; objective_value = !obj }
      end

let solve ?(max_iter = 20000) (p : problem) =
  if Array.length p.objective <> p.n_vars then
    invalid_arg "Simplex.solve: objective size";
  let tab = build p in
  let result = run ~max_iter p tab in
  Telemetry.Counter.add pivots_counter tab.pivots;
  result

let pp_result ppf = function
  | Optimal s -> Fmt.pf ppf "optimal(%.6g)" s.objective_value
  | Infeasible -> Fmt.pf ppf "infeasible"
  | Unbounded -> Fmt.pf ppf "unbounded"
  | Iter_limit -> Fmt.pf ppf "iteration-limit"
