"""Operator matrix elements: spherical-chain evaluation, then the two-step transform.

Matrix elements in the deformed chain are obtained by congruence with the
bracket table; every entry is certified against a direct oracle computation
with the constructed deformed states.  The congruence runs on the table's
rational factors: with table entries u_a Q[a][i] v_i, the deformed matrix is
v_i v_j (Q^T W Q)[i][j] with W = diag(u) M diag(u) an integer matrix.  Only
number-conserving scalar operators are supported, so the transform is
tau-diagonal.

Both routes run on integers and stay independent of each other.  The
table's Q is an integer matrix (each column's scale lives in its v**2), so
Q^T W Q is an integer product over the nonzero entries of W, and the v
factors enter once per entry, as one rational radicand.  The oracle route
takes the block of normalized overlaps <state_i|O state_j> as (sign, square)
pairs from fockoracle.overlap_squares, using only the constructed states.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .brackets import Convention, table
from .exactnum import SurdSumError, SurdValue, rational
from .fockoracle import (
    BosonOperator,
    NormalizedState,
    apply,
    b_number_operator,
    build_chain2_state,
    overlap_squares,
    pair_exchange_operator,
    s_number_operator,
)
from .labels import bracket_index_set

__all__ = [
    "OperatorSpec",
    "SphericalMatrix",
    "DeformedMatrix",
    "spherical_matrix",
    "boson_operator",
    "operator_core",
    "deformed_matrix",
    "deformed_matrix_oracle",
]


class OperatorSpec(Enum):
    """Built-in rotation-scalar, number-conserving operators."""

    B_NUMBER = "bnum"
    S_NUMBER = "snum"
    PAIRING = "pair"


@dataclass(frozen=True)
class SphericalMatrix:
    """Matrix in the oscillator chain, rows/columns indexed by n ascending."""

    nu: int
    N: int
    tau: int
    op: OperatorSpec
    ns: tuple[int, ...]
    entries: tuple[tuple[SurdValue, ...], ...]


@dataclass(frozen=True)
class DeformedMatrix:
    """Matrix in the deformed chain, rows/columns indexed by sigma ascending.

    oracle_backed is always empty: every entry is exact.  It is kept because
    the transform JSON of format_version 1 carries it.
    """

    nu: int
    N: int
    tau: int
    op: OperatorSpec
    convention: Convention
    sigmas: tuple[int, ...]
    entries: tuple[tuple[SurdValue, ...], ...]
    oracle_backed: frozenset = frozenset()


def spherical_matrix(nu: int, N: int, tau: int, op: OperatorSpec) -> SphericalMatrix:
    """Closed-form matrix in the oscillator chain.

    Number operators are diagonal.  The pairing operator moves one boson pair
    between the scalar mode and the b space, so it is tridiagonal in steps of
    two in n; its entries follow from the quasi-spin ladder action combined
    with scalar-mode counting, and carry the ladder-normalization phase.
    """
    op = OperatorSpec(op)
    ns, _ = bracket_index_set(nu, N, tau)
    t = abs(tau)
    d = len(ns)
    zero = SurdValue.zero()
    entries = [[zero] * d for _ in range(d)]
    if op is OperatorSpec.B_NUMBER:
        for i, n in enumerate(ns):
            entries[i][i] = SurdValue.of_rational(n)
    elif op is OperatorSpec.S_NUMBER:
        for i, n in enumerate(ns):
            entries[i][i] = SurdValue.of_rational(N - n)
    else:
        for i in range(1, d):
            n = ns[i]
            radicand = rational(
                (N - n + 2) * (N - n + 1) * (n - t) * (n + t + nu - 2), 4
            )
            value = SurdValue(-1, radicand)
            entries[i - 1][i] = value
            entries[i][i - 1] = value
    return SphericalMatrix(nu, N, tau, op, ns, tuple(tuple(row) for row in entries))


def boson_operator(op: OperatorSpec, nu: int) -> BosonOperator:
    """The same operator as an explicit boson expression for the oracle route."""
    op = OperatorSpec(op)
    if op is OperatorSpec.B_NUMBER:
        return b_number_operator(nu)
    if op is OperatorSpec.S_NUMBER:
        return s_number_operator(nu)
    return pair_exchange_operator(nu)


def deformed_matrix_oracle(
    nu: int,
    N: int,
    tau: int,
    op: OperatorSpec,
    convention: Convention = Convention.STANDARD,
) -> DeformedMatrix:
    """Direct matrix in the deformed chain from the constructed oracle states."""
    op = OperatorSpec(op)
    convention = Convention(convention)
    _, sigmas = bracket_index_set(nu, N, tau)
    states = [build_chain2_state(nu, N, s, tau, convention) for s in sigmas]
    bosons = boson_operator(op, nu)
    # O|j> / sqrt(<j|j>) is the ket, so each overlap is the entry <i|O|j> itself
    kets = [NormalizedState(apply(bosons, st.state), st.norm_sq) for st in states]
    zero = SurdValue.zero()
    entries = tuple(
        tuple(SurdValue(sign, square) if sign else zero for sign, square in row)
        for row in overlap_squares(states, kets)
    )
    return DeformedMatrix(nu, N, tau, op, convention, sigmas, entries)


def operator_core(sph: SphericalMatrix, row_sq) -> tuple[tuple[int, ...], ...]:
    """W = diag(u) M diag(u) as integers, with row_sq[a] = u_a**2 of the bracket table.

    u_n**2 = (N-n)! (n+t+nu-2)!! (n-t)!! / (2t+nu-2)!! is an integer, because
    n - t is even and so (2t+nu-2)!! divides (n+t+nu-2)!!.  The number
    operators give u_n**2 n and u_n**2 (N-n); for pairing,
    u_{n-2} u_n sqrt(r) = u_n**2 (N-n+2)(N-n+1)/2, an integer too.  An entry
    that is not an integer (an irrational one would need sums of unlike
    surds) raises SurdSumError.
    """
    d = len(row_sq)
    rows = []
    for a in range(d):
        row = []
        for b in range(d):
            m = sph.entries[a][b]
            if m.is_zero:
                row.append(0)
                continue
            square = row_sq[a] * row_sq[b] * m.radicand
            root = math.isqrt(square.numerator)
            if square.denominator != 1 or root * root != square.numerator:
                raise SurdSumError(
                    f"operator {sph.op.value} at nu={sph.nu} N={sph.N} tau={sph.tau}: "
                    f"u_a u_b M[a][b] is not an integer at (a, b) = ({a}, {b})"
                )
            row.append(root if m.sign > 0 else -root)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _block_table(nu: int, N: int, t: int, convention: Convention):
    """The bracket table at |tau| = t, built once per block for all of its operators."""
    return table(nu, N, t, convention)


def deformed_matrix(
    nu: int,
    N: int,
    tau: int,
    op: OperatorSpec,
    convention: Convention = Convention.STANDARD,
) -> DeformedMatrix:
    """Two-step transform: congruence of the spherical matrix by the bracket table.

    Entry (i, j) is v_i v_j (Q^T W Q)[i][j].  W (see operator_core) and the
    table's core Q are integer matrices, so Q^T W Q is an integer product that
    visits only the nonzero entries of W; each entry's radicand is then one
    rational.
    """
    op = OperatorSpec(op)
    convention = Convention(convention)
    sph = spherical_matrix(nu, N, tau, op)
    tab = _block_table(nu, N, abs(tau), convention)
    w = operator_core(sph, tab.row_sq)
    nonzero = [(a, b, x) for a, row in enumerate(w) for b, x in enumerate(row) if x]
    columns = []  # per column i: x_i, W x_i, and v_i**2 as (num, den)
    for x, v_sq in zip(zip(*tab.core), tab.col_sq):
        wx = [0] * len(x)
        for a, b, w_ab in nonzero:
            wx[a] += w_ab * x[b]
        columns.append((x, wx, v_sq.numerator, v_sq.denominator))
    zero = SurdValue.zero()
    entries = []
    for x_i, _, num_i, den_i in columns:
        row = []
        for _, wx_j, num_j, den_j in columns:
            t = sum(map(operator.mul, x_i, wx_j))
            if not t:
                row.append(zero)
                continue
            radicand = rational(num_i * num_j * t * t, den_i * den_j)
            row.append(SurdValue(1 if t > 0 else -1, radicand))
        entries.append(tuple(row))
    return DeformedMatrix(nu, N, tau, op, convention, tab.sigmas, tuple(entries))
