(** Spectral Poisson solver on a regular grid (Neumann boundary),
    implementing the Fourier step of the electrostatic density model.

    Given a charge density [rho] on an [nx] x [ny] grid (in bin units),
    [solve_poisson] returns the field [(ex, ey) = -grad psi] of the
    potential [psi] with [laplacian psi = -rho], evaluated at bin
    centres; {!potential} gives [psi] itself.

    A solver owns its workspace: every matrix it returns is one of its
    own buffers, overwritten by the next call, and a solve allocates
    nothing. *)

type t

val create : nx:int -> ny:int -> t
(** Precompute basis tables and allocate the workspace for an [nx] x
    [ny] grid. *)

val analyze : t -> Matrix.t -> Matrix.t
(** Cosine-series coefficients [a] of a grid function:
    [rho(i,j) = sum_uv a(u,v) cos(w_u (i+1/2)) cos(w_v (j+1/2))].
    The result is the solver's buffer, valid until the next
    [analyze] or [solve_poisson]. *)

type field = { ex : Matrix.t; ey : Matrix.t }

val solve_poisson : t -> Matrix.t -> field
(** Solve for the field of [rho]. The returned record and its matrices
    are the solver's own buffers (the same ones on every call), valid
    until the next solve. *)

val potential : t -> Matrix.t
(** The potential [psi] of the most recent [solve_poisson], synthesised
    on the first request after each solve (the placer's gradient never
    reads it). The solver's buffer, valid until the next solve. *)

val dct_ii_direct : float array -> float array
(** O(n^2) reference DCT-II with the same convention as {!Fft.dct_ii};
    the test suite checks the FFT transform against it. *)
