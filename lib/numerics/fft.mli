(** Radix-2 complex FFT and an FFT-based DCT-II.

    A standalone transform, checked in the test suite against
    {!Spectral.dct_ii_direct}. The spectral Poisson solver does not use
    it: at the placer's 32 x 32 grid a length-32 FFT-based DCT costs
    about as much as the direct basis product, and it rounds
    differently, which would change every global-placement result. *)

val is_pow2 : int -> bool

val forward : float array -> float array -> unit
(** In-place forward FFT of [(re, im)].
    @raise Invalid_argument unless lengths are equal powers of two. *)

val inverse : float array -> float array -> unit
(** In-place inverse FFT, normalised by 1/N. *)

val dct_ii : float array -> float array
(** Unnormalised DCT-II: [C.(k) = sum_n x.(n) cos(pi k (2n+1) / 2N)].
    @raise Invalid_argument unless the length is a power of two. *)
