(** Two-phase primal simplex for linear programs

    {[ minimize c.x  subject to  a_i.x (<= | = | >=) b_i,  x >= 0 ]}

    This powers the LP legalization / detailed placement of the prior
    analytical work and the LP relaxations inside the ILP
    branch-and-bound, whose nodes are warm-started by dual simplex
    (see {!section:warm}). Pricing is Dantzig's rule, with Bland's rule
    after a stall budget, in the primal and the dual loop alike.

    The tableau is stored row-major, but the rows it pivots on are
    sparse (a legalization pivot row is ~6 % nonzero), so a pivot
    collects the nonzero columns of the scaled pivot row once and
    updates every other row, and the reduced costs, only there. A Ge
    row's artificial column is not stored: it starts as the negated
    slack column, every pivot keeps that invariant
    (artificial = -slack), and it is read through a negate flag. Both
    are exact rewrites of the plain dense tableau: the same pivot
    sequence and the same bits of [x] (a skipped [r - f * 0] can only
    differ in the sign of a zero). Each call adds its pivots to the
    [simplex.pivots] telemetry counter. *)

type op = Le | Ge | Eq

type constr = { coeffs : (int * float) list; op : op; rhs : float }
(** Sparse row: list of (variable index, coefficient). *)

type problem = {
  n_vars : int;
  objective : float array;  (** length [n_vars]; minimized *)
  constraints : constr list;
}

type solution = { x : float array; objective_value : float }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit  (** safety valve; treat as a solver failure *)

val solve : ?max_iter:int -> problem -> result
(** The ratio test only admits pivot elements with [|pv| > eps], and
    the pivot routine turns a zero pivot into a hard error rather than
    a silent [inf]/[nan] tableau (placer-lint rule N2: division and
    reciprocal scaling are guarded). Degenerate problems — tied ratio
    tests, redundant constraints through one vertex, Beale-style
    cycling examples — terminate via the [max_iter] safety valve
    semantics and are pinned by tests.

    @raise Invalid_argument on malformed input (bad sizes or indices). *)

(** {2:warm Warm starts}

    Branch and bound re-solves one LP with a few bound rows added.
    Adding rows leaves the reduced costs alone, so an optimal basis
    stays dual feasible: the new row's slack is basic in it, possibly
    at a negative value, and dual simplex restores primal feasibility
    from there without a phase 1 or a rebuild. Only rows are ever
    added; nothing else may change the working tableau between
    re-solves, or the basis would lose that dual feasibility. *)

type warm
(** An LP solved by {!solve_warm}: its working tableau, with reserved
    rows and slack columns for bound rows, and, once the first bound
    row is added, a copy of the root optimum. *)

val solve_warm : ?max_iter:int -> reserve:int -> problem -> result * warm
(** [solve] with room for [reserve] bound rows. The reserved slack
    columns are zero and logically below the artificials, and Bland's
    switch point counts only the LP's own rows and columns, so the
    pivots, the bits of the result and the [simplex.pivots] count are
    those of [solve]. The [warm] is usable only if the result is
    [Optimal]. *)

val add_bound : warm -> int -> op -> float -> unit
(** [add_bound w j op b] adds the row [x_j op b] ([Le] or [Ge]) to the
    working tableau, written in terms of the current basis. The first
    call copies the tableau as the root optimum.
    @raise Invalid_argument on [Eq], a bad index, or more rows than
    reserved. *)

val resolve : ?max_iter:int -> warm -> result
(** Dual simplex on the working tableau from its current, dual-feasible
    basis: [Optimal], [Infeasible] (a row with a negative rhs and no
    entering column), or [Iter_limit]. Adds its pivots to
    [simplex.pivots]. After [Optimal], more rows may be added and
    resolved again. *)

val reset : warm -> unit
(** Return the working tableau to the root optimum: every added row is
    dropped. A no-op before the first {!add_bound}. *)

val pp_result : Format.formatter -> result -> unit
