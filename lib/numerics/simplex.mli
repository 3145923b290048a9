(** Two-phase primal simplex for linear programs

    {[ minimize c.x  subject to  a_i.x (<= | = | >=) b_i,  x >= 0 ]}

    This powers the LP legalization / detailed placement of the prior
    analytical work and the LP relaxations inside the ILP
    branch-and-bound. Pricing is Dantzig's rule, with Bland's rule
    after a stall budget.

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

val pp_result : Format.formatter -> result -> unit
