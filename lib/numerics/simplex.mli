(** Simplex for linear programs

    {[ minimize c.x  subject to  a_i.x (<= | = | >=) b_i,  x >= 0 ]}

    Two algorithms solve an LP from scratch. {!solve} is two-phase primal
    simplex and takes any costs: it powers the window ILPs of the
    matheuristic and the root relaxations of the ILP branch and bound,
    whose other nodes are warm-started by dual simplex (see
    {!section:warm}). {!solve_dual} takes only costs [>= 0] and needs no
    phase 1: it runs the same dual loop from the slack basis. Both
    legalizers (ePlace-A's and the prior work's) write their LPs that
    way and use it. Pricing is Dantzig's rule, with Bland's rule after a
    stall budget, in the primal and the dual loop alike.

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
(** An LP solved by {!solve_warm} or {!solve_dual}: its working
    tableau, with reserved rows and slack columns for bound rows, and,
    once {!save_root} is called, a copy of the root optimum. *)

val solve_warm : ?max_iter:int -> reserve:int -> problem -> result * warm
(** [solve] with room for [reserve] bound rows. The reserved slack
    columns are zero and logically below the artificials, and Bland's
    switch point counts only the LP's own rows and columns, so the
    pivots, the bits of the result and the [simplex.pivots] count are
    those of [solve]. The [warm] is usable only if the result is
    [Optimal]. *)

val solve_dual : ?max_iter:int -> reserve:int -> problem -> result * warm
(** Dual simplex from the slack basis, with room for [reserve] bound
    rows. Every row has its own column basic, at the row's rhs whatever
    its sign: a slack for a [Le] row and for a negated [Ge] row, and
    for an [Eq] row a slack fixed at 0 that never enters and leaves the
    basis from either side. With every cost [>= 0] that basis is dual
    feasible, so there is no phase 1. The result is [Optimal],
    [Infeasible] or [Iter_limit], never [Unbounded]: [c >= 0] and
    [x >= 0] bound the objective below by 0. An optimum of a
    degenerate LP may be another vertex than {!solve}'s, at the same
    objective. The [warm] takes {!add_bound} and {!resolve} as one from
    {!solve_warm} does, and is usable only if the result is [Optimal].
    Adds its pivots to [simplex.pivots].
    @raise Invalid_argument on a negative or nan cost, or on malformed
    input. *)

val save_root : warm -> unit
(** Copy the working tableau as the root optimum that {!reset} returns
    to. Branch and bound calls it once, before its first branch; a
    caller that never resets does not pay for the copy.
    @raise Invalid_argument after a bound row was added. *)

val add_bound : warm -> int -> op -> float -> unit
(** [add_bound w j op b] adds the row [x_j op b] ([Le] or [Ge]) to the
    working tableau, written in terms of the current basis.
    @raise Invalid_argument on [Eq], a bad index, or more rows than
    reserved. *)

val resolve : ?max_iter:int -> warm -> result
(** Dual simplex on the working tableau from its current, dual-feasible
    basis: [Optimal], [Infeasible] (an infeasible row, i.e. a negative
    rhs or a basic artificial away from 0, with no entering column), or
    [Iter_limit]. Adds its pivots to [simplex.pivots]. After [Optimal],
    more rows may be added and resolved again. *)

val reset : warm -> unit
(** Return the working tableau to the root optimum of {!save_root}:
    every added row is dropped.
    @raise Invalid_argument before {!save_root}. *)

val pp_result : Format.formatter -> result -> unit
