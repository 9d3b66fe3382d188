"""Closed-form transformation brackets and their normalization coefficients.

Every value is an exact SurdValue.  Each formula is factored as an exact
rational k-sum times a single surd prefactor, so no surd addition is ever
needed here.  Three independent evaluation routes for the bracket are
provided (factored, fully expanded, Pochhammer series) plus the closed form
for the stretched sigma = N column; their mutual equality is a test, not an
assumption.

The factored route keeps its factors: bracket(n, sigma) = u_n v_sigma Q[n][sigma]
with u_n = sqrt((N-n)!)/|B(n, tau)| and v_sigma = |A(N, sigma)| Fnorm(sigma, tau)
positive surds and Q the signed rational k-sum.  A BracketTable stores u**2
as ints, each column of Q rescaled to a primitive integer vector, and v**2
times the square of that column's scale as rationals, so its orthogonality
is an integer matrix identity with one rational weight vector.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .exactnum import (
    DomainError,
    SurdValue,
    double_factorial,
    factorial,
    pochhammer,
    rational,
    signed_half_power,
)
from .labels import (
    Convention,
    LabelError,
    bracket_index_set,
    check_chain1,
    check_chain2,
    check_dimension,
)

__all__ = [
    "Convention",
    "BracketTable",
    "coeff_B",
    "coeff_A",
    "coeff_F",
    "bracket",
    "bracket_expanded",
    "bracket_pochhammer",
    "bracket_sigma_eq_N",
    "barred_sign",
    "table",
    "gegenbauer_coeffs",
    "verify_F_via_gegenbauer",
]


def coeff_B(nu: int, n: int, tau: int) -> SurdValue:
    """Normalization of the (n - tau)/2-fold pair-creation ladder on a seniority-tau seed."""
    check_dimension(nu)
    if tau < 0:
        raise LabelError(f"tau={tau} must be nonnegative here (evaluate at |tau|)")
    if n < tau:
        raise LabelError(f"n={n} must be >= tau={tau}")
    if (n - tau) % 2:
        raise LabelError(f"n - tau must be even, got n={n}, tau={tau}")
    value = SurdValue.sqrt(_coeff_B_sq(nu, n, tau))
    return -value if ((n - tau) // 2) % 2 else value


def _coeff_B_sq(nu: int, n: int, tau: int):
    return rational(
        double_factorial(2 * tau + nu - 2),
        double_factorial(n + tau + nu - 2) * double_factorial(n - tau),
    )


def coeff_A(nu: int, N: int, sigma: int) -> SurdValue:
    """Normalization of the (N - sigma)/2-fold full pair-creation ladder."""
    check_dimension(nu)
    if sigma < 0:
        raise LabelError(f"sigma={sigma} must be nonnegative")
    if N < sigma:
        raise LabelError(f"N={N} must be >= sigma={sigma}")
    if (N - sigma) % 2:
        raise LabelError(f"N - sigma must be even, got N={N}, sigma={sigma}")
    value = SurdValue.sqrt(_coeff_A_sq(nu, N, sigma))
    return -value if ((N - sigma) // 2) % 2 else value


def _coeff_A_sq(nu: int, N: int, sigma: int):
    return rational(
        double_factorial(2 * sigma + nu - 1),
        double_factorial(N + sigma + nu - 1) * double_factorial(N - sigma),
    )


def _coeff_F_norm_sq(nu: int, sigma: int, tau: int):
    return rational(
        factorial(sigma - tau) * double_factorial(2 * tau + nu - 2),
        double_factorial(2 * sigma + nu - 3) * factorial(sigma + tau + nu - 2),
    )


def coeff_F(nu: int, sigma: int, tau: int, k: int) -> SurdValue:
    """k-th expansion coefficient of the intrinsic deformed state over the seed family."""
    check_dimension(nu)
    if not 0 <= tau <= sigma:
        raise LabelError(f"need 0 <= tau <= sigma, got tau={tau}, sigma={sigma}")
    if not 0 <= k <= (sigma - tau) // 2:
        raise DomainError(
            f"k={k} outside 0 <= k <= floor((sigma-tau)/2) = {(sigma - tau) // 2}"
        )
    q = rational(_f_weights(nu, sigma, tau)[k], 2 ** ((sigma - tau) // 2) * factorial(sigma - tau))
    return SurdValue.sqrt(_coeff_F_norm_sq(nu, sigma, tau)).scale(q)


def _f_weights(nu: int, sigma: int, t: int) -> list[int]:
    """The integers w_k = F_k/Fnorm * 2**k_hi (sigma-t)!, k = 0..k_hi = (sigma-t)//2.

    w_k = (-1)**k (2 sigma+nu-3-2k)!! 2**(k_hi-k) (sigma-t)!/((sigma-t-2k)! k!),
    since (sigma-t)!/((sigma-t-2k)! k!) = C(sigma-t, 2k) (2k)!/k!.  Built from
    k_hi down by running products; top - 2 k_hi is 0 or 1.
    """
    top = sigma - t
    k_hi = top // 2
    weights = [0] * (k_hi + 1)
    w = double_factorial(2 * sigma + nu - 3 - 2 * k_hi) * (factorial(top) // factorial(k_hi))
    for k in range(k_hi, 0, -1):
        weights[k] = -w if k % 2 else w
        # |w_(k-1)| / |w_k| = 2 (2 sigma+nu-1-2k) k / ((top-2k+2)(top-2k+1)), exactly
        w = w * 2 * (2 * sigma + nu - 1 - 2 * k) * k // ((top - 2 * k + 2) * (top - 2 * k + 1))
    weights[0] = w
    return weights


def _validate_bracket_labels(nu: int, N: int, n: int, sigma: int, tau: int) -> int:
    """Admissibility of (n, tau) in chain I and (sigma, tau) in chain II; returns |tau|."""
    check_chain1(nu, N, n, tau)
    check_chain2(nu, N, sigma, tau)
    return abs(tau)


def barred_sign(n: int, tau: int) -> int:
    """Relative sign (-1)^((n-|tau|)/2) between barred and standard brackets."""
    return -1 if ((n - abs(tau)) // 2) % 2 else 1


def _block_core(
    nu: int,
    N: int,
    t: int,
    convention: Convention,
    ns: tuple[int, ...],
    sigmas: tuple[int, ...],
):
    """Integer and rational factors of the bracket block at |tau| = t.

    Returns (row_sq, col_sq, core) with bracket(n_a, sigma_i) =
    sqrt(row_sq[a] * col_sq[i]) * core[a][i] for the given rows and columns.
    row_sq[a] = (N-n)!/B(n)**2 is a positive int (see transform.operator_core).
    core[a][i] is the signed integer k-sum
    den_i * sum_k F_k/Fnorm * C(k + (N-sigma)/2, (n-t)/2) = sum_k w_k C(...),
    den_i = 2**k_hi (sigma-t)! with w_k = _f_weights(nu, sigma, t)[k],
    divided by the content g_i (gcd) of its column, so every nonzero column is
    primitive.  The positive rational col_sq[i] = A(sigma)**2 Fnorm(sigma)**2
    g_i**2 / den_i**2 carries the rest.  The signs of the ladder normalizations
    A and B, and the barred sign, are folded into core.
    """
    b_seed = double_factorial(2 * t + nu - 2)
    # (2t+nu-2)!! divides (n+t+nu-2)!! because n - t is even
    row_sq = tuple(
        factorial(N - n) * double_factorial(n + t + nu - 2) * double_factorial(n - t) // b_seed
        for n in ns
    )
    barred = convention is Convention.BARRED
    col_sq = []
    columns = []
    for sigma in sigmas:
        h = (N - sigma) // 2
        top = sigma - t
        k_hi = top // 2
        weights = _f_weights(nu, sigma, t)
        column = []
        for n in ns:
            m = (n - t) // 2
            # C(k + h, m) vanishes below k = m - h
            ksum = sum(
                weights[k] * math.comb(k + h, m) for k in range(max(0, m - h), k_hi + 1)
            )
            # A and B carry the signs (-1)**h and (-1)**m; the barred sign (-1)**m cancels B's
            column.append(-ksum if (h if barred else h + m) % 2 else ksum)
        g = math.gcd(*column) or 1  # a single-row block can have a zero column
        columns.append([q // g for q in column])
        # A**2 Fnorm**2 g**2 / den**2, using (2 sigma+nu-1)!!/(2 sigma+nu-3)!! = 2 sigma+nu-1
        col_sq.append(
            rational(
                (2 * sigma + nu - 1) * b_seed * g * g,
                double_factorial(N + sigma + nu - 1)
                * double_factorial(N - sigma)
                * factorial(sigma + t + nu - 2)
                * 4**k_hi
                * factorial(top),
            )
        )
    return row_sq, tuple(col_sq), tuple(zip(*columns))


def bracket(
    nu: int,
    N: int,
    n: int,
    sigma: int,
    tau: int,
    convention: Convention | str = Convention.STANDARD,
) -> SurdValue:
    """Overlap of the chain-I state (N, n, tau) with the chain-II state (N, sigma, tau).

    Factored route: sqrt((N-n)!) * A/B * sum_k F_k * C(k + (N-sigma)/2, (n-tau)/2),
    accumulated as an exact rational sum times one surd prefactor.
    """
    convention = Convention(convention)
    t = _validate_bracket_labels(nu, N, n, sigma, tau)
    (u_sq,), (v_sq,), ((q,),) = _block_core(nu, N, t, convention, (n,), (sigma,))
    return _entry(u_sq, v_sq, q)


def _entry(u_sq: int, v_sq, q: int) -> SurdValue:
    """The bracket u v q = sign(q) sqrt(u**2 v**2 q**2), reduced once."""
    if not q:
        return SurdValue.zero()
    return SurdValue(1 if q > 0 else -1, rational(u_sq * v_sq.numerator * q * q, v_sq.denominator))


def bracket_expanded(nu: int, N: int, n: int, sigma: int, tau: int) -> SurdValue:
    """Same bracket via the fully expanded single-radical form (standard convention)."""
    t = _validate_bracket_labels(nu, N, n, sigma, tau)
    e = (N - sigma - n + t) // 2
    k_lo = max(0, -e)
    k_hi = (sigma - t) // 2
    if k_lo > k_hi:
        return SurdValue.zero()
    ksum = rational(0)
    for k in range(k_lo, k_hi + 1):
        term = rational(
            double_factorial(2 * sigma + nu - 3 - 2 * k)
            * double_factorial(N - sigma + 2 * k),
            factorial(sigma - t - 2 * k)
            * double_factorial(2 * k)
            * double_factorial(N - sigma - n + t + 2 * k),
        )
        ksum += -term if k % 2 else term
    radicand = rational(
        factorial(N - n)
        * double_factorial(n + t + nu - 2)
        * factorial(sigma - t)
        * (2 * sigma + nu - 1),
        double_factorial(N + sigma + nu - 1)
        * double_factorial(N - sigma)
        * factorial(sigma + t + nu - 2)
        * double_factorial(n - t),
    )
    signed_sum = -ksum if e % 2 else ksum
    return SurdValue.sqrt(radicand).scale(signed_sum)


def bracket_pochhammer(nu: int, N: int, n: int, sigma: int, tau: int) -> SurdValue:
    """Same bracket via the Pochhammer-series form (standard convention).

    Half-integer Pochhammer arguments (even nu) stay exact rationals; no
    gamma function is evaluated anywhere.
    """
    t = _validate_bracket_labels(nu, N, n, sigma, tau)
    e = (N - sigma - n + t) // 2
    k_lo = max(0, -e)
    k_hi = (sigma - t) // 2
    if k_lo > k_hi:
        return SurdValue.zero()
    a_rise = rational(N - sigma + 2, 2)
    a_neg = rational(t - sigma, 2)
    a_neg_half = rational(t - sigma + 1, 2)
    a_den = rational(-2 * sigma - nu + 3, 2)
    ksum = rational(0)
    for k in range(k_lo, k_hi + 1):
        ksum += (
            pochhammer(a_rise, k)
            * pochhammer(a_neg, k)
            * pochhammer(a_neg_half, k)
            / (factorial(e + k) * pochhammer(a_den, k) * factorial(k))
        )
    prefactor = signed_half_power(e) * double_factorial(2 * sigma + nu - 1)
    radicand = rational(
        factorial(N - n)
        * double_factorial(N - sigma)
        * double_factorial(n + t + nu - 2),
        factorial(sigma - t)
        * double_factorial(n - t)
        * factorial(sigma + t + nu - 2)
        * double_factorial(N + sigma + nu - 1)
        * (2 * sigma + nu - 1),
    )
    return SurdValue.sqrt(radicand).scale(prefactor * ksum)


def bracket_sigma_eq_N(nu: int, N: int, n: int, tau: int) -> SurdValue:
    """Closed form of the sigma = N column; the sum collapses and the sign is +1."""
    t = _validate_bracket_labels(nu, N, n, N, tau)
    return SurdValue.sqrt(
        rational(
            factorial(N - t) * factorial(N + t + nu - 2),
            factorial(N - n)
            * double_factorial(n + t + nu - 2)
            * double_factorial(n - t)
            * double_factorial(2 * N + nu - 3),
        )
    )


@dataclass(frozen=True)
class BracketTable:
    """Full bracket matrix for fixed (nu, N, tau): rows n ascending, columns sigma ascending.

    Stored factored: the entry in row a, column i is
    sqrt(row_sq[a] * col_sq[i]) * core[a][i].  row_sq holds positive ints,
    core the signed integer k-sums with every nonzero column primitive, and
    col_sq positive rationals that carry each column's content and k-sum
    denominator (see _block_core).  entries is derived from these three, so
    the certified and the rendered numbers are the same.
    """

    nu: int
    N: int
    tau: int
    convention: Convention
    ns: tuple[int, ...]
    sigmas: tuple[int, ...]
    row_sq: tuple
    col_sq: tuple
    core: tuple[tuple, ...]

    @cached_property
    def entries(self) -> tuple[tuple[SurdValue, ...], ...]:
        return tuple(
            tuple(_entry(u_sq, v_sq, q) for v_sq, q in zip(self.col_sq, row))
            for u_sq, row in zip(self.row_sq, self.core)
        )

    @cached_property
    def floats(self) -> tuple[tuple[float, ...], ...]:
        """The correctly rounded double of every entry, computed once for every rendering."""
        return tuple(tuple(value.to_float() for value in row) for row in self.entries)

    def entry(self, n: int, sigma: int) -> SurdValue:
        return self.entries[self.ns.index(n)][self.sigmas.index(sigma)]

    def is_orthogonal(self) -> bool:
        """Exact orthogonality of rows and columns as rational matrix identities.

        With E = diag(u) Q diag(v), E^T E = 1 reads Q^T diag(u^2) Q = diag(v^-2)
        and E E^T = 1 reads Q diag(v^2) Q^T = diag(u^-2).  Q is an integer
        matrix, so only the weights v^2 need their denominators cleared.
        """
        columns = tuple(zip(*self.core))
        return _gram_is_inverse_diagonal(
            columns, self.row_sq, self.col_sq
        ) and _gram_is_inverse_diagonal(self.core, self.col_sq, self.row_sq)


def _gram_is_inverse_diagonal(vectors, weights, squares) -> bool:
    """Whether sum_k weights[k] x_i[k] x_j[k] = delta_ij / squares[i] for all i, j.

    The weights' denominators are cleared once, so with integer vectors the
    d**3 products run on integers.
    """
    w_den = math.lcm(*(w.denominator for w in weights))
    w_int = [w.numerator * (w_den // w.denominator) for w in weights]
    for i, x_i in enumerate(vectors):
        weighted = [w * x for w, x in zip(w_int, x_i)]
        for j in range(i, len(vectors)):
            dot = sum(map(operator.mul, weighted, vectors[j]))
            if i != j:
                if dot:
                    return False
                continue
            # dot = w_den / squares[i]
            square = squares[i]
            if dot * square.numerator != w_den * square.denominator:
                return False
    return True


def table(
    nu: int,
    N: int,
    tau: int,
    convention: Convention | str = Convention.STANDARD,
) -> BracketTable:
    """All brackets for fixed (nu, N, tau) as an exactly orthogonal matrix."""
    convention = Convention(convention)
    ns, sigmas = bracket_index_set(nu, N, tau)
    row_sq, col_sq, core = _block_core(nu, N, abs(tau), convention, ns, sigmas)
    return BracketTable(nu, N, tau, convention, ns, sigmas, row_sq, col_sq, core)


def gegenbauer_coeffs(lam, m: int) -> tuple:
    """Monomial coefficients of the ultraspherical polynomial of degree m.

    Built from the three-term recurrence
    m C_m = 2x(m + lam - 1) C_{m-1} - (m + 2 lam - 2) C_{m-2}; index = power.
    """
    lam = rational(lam)
    if lam <= 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if m < 0:
        raise DomainError(f"degree must be nonnegative, got {m}")
    prev = [rational(1)]
    if m == 0:
        return tuple(prev)
    cur = [rational(0), 2 * lam]
    for j in range(2, m + 1):
        nxt = [rational(0)] * (j + 1)
        a = 2 * (j + lam - 1)
        b = j + 2 * lam - 2
        for power, c in enumerate(cur):
            nxt[power + 1] += a * c
        for power, c in enumerate(prev):
            nxt[power] -= b * c
        prev, cur = cur, [c / j for c in nxt]
    return tuple(cur)


def verify_F_via_gegenbauer(nu: int, sigma: int, tau: int) -> bool:
    """Independent reconstruction of every F_k from the Gegenbauer expansion.

    The intrinsic deformed state is also reachable as (ratio of hyperspherical
    normalizations) * (pair-creation/2)^((sigma-tau)/2) * C_{sigma-tau}(t)
    with t the scalar mode over the square root of the pair creator.
    Expanding the polynomial through the recurrence and collecting powers must
    reproduce coeff_F for every k.  False indicates an implementation bug.
    """
    check_dimension(nu)
    if not 0 <= tau <= sigma:
        raise LabelError(f"need 0 <= tau <= sigma, got tau={tau}, sigma={sigma}")
    m = sigma - tau
    coeffs = gegenbauer_coeffs(rational(2 * tau + nu - 1, 2), m)
    for power, c in enumerate(coeffs):
        if (m - power) % 2 and c != 0:
            return False
    # Ratio of the two hyperspherical normalization constants at the stretched
    # configuration; the pi's, the (2 tau + nu - 3)!! prefactors and the
    # half-integer parts of the power of two cancel mechanically.
    ratio_radicand = rational(
        2**m
        * (2 * sigma + nu - 1)
        * factorial(m)
        * double_factorial(2 * tau + nu - 1)
        * factorial(2 * tau + nu - 2),
        double_factorial(2 * sigma + nu - 1)
        * factorial(sigma + tau + nu - 2)
        * (2 * tau + nu - 1),
    )
    base = SurdValue.sqrt(ratio_radicand) * SurdValue.sqrt(rational(1, 2**m))
    for k in range(m // 2 + 1):
        reconstructed = base.scale(coeffs[m - 2 * k])
        if reconstructed != coeff_F(nu, sigma, tau, k):
            return False
    return True
