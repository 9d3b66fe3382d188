"""Operator matrix elements: spherical-chain evaluation, then the two-step transform.

Matrix elements in the deformed chain are obtained by congruence with the
bracket table; every entry is certified against a direct oracle computation
with the constructed deformed states.  The congruence runs on the table's
rational factors: with table entries u_a Q[a][i] v_i, the deformed matrix is
v_i v_j (Q^T W Q)[i][j] with W = diag(u) M diag(u) rational.  Only
number-conserving scalar operators are supported, so the transform is
tau-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ._backend import rational
from .brackets import Convention, as_convention, table
from .exactnum import GaussianRational, SurdSumError, SurdValue, rational_sqrt
from .fockoracle import (
    BosonOperator,
    apply,
    b_number_operator,
    build_chain2_state,
    inner,
    s_number_operator,
)
from .fockoracle import _real_part  # exactness guard shared with the oracle
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


def as_operator(value) -> OperatorSpec:
    if isinstance(value, OperatorSpec):
        return value
    return OperatorSpec(value)


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
    op = as_operator(op)
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
    op = as_operator(op)
    if op is OperatorSpec.B_NUMBER:
        return b_number_operator(nu)
    if op is OperatorSpec.S_NUMBER:
        return s_number_operator(nu)
    half = GaussianRational(rational(1, 2), rational(0))
    up = BosonOperator(
        [(half, ((j, 2),), ((0, 2),)) for j in range(1, nu + 1)]
    )
    down = BosonOperator(
        [(half, ((0, 2),), ((j, 2),)) for j in range(1, nu + 1)]
    )
    return up + down


def _oracle_entry(states, i: int, j: int, applied) -> SurdValue:
    value = _real_part(inner(states[i].state, applied[j]))
    if not value:
        return SurdValue.zero()
    square = value * value / (states[i].norm_sq * states[j].norm_sq)
    return SurdValue(1 if value > 0 else -1, square)


def deformed_matrix_oracle(
    nu: int,
    N: int,
    tau: int,
    op: OperatorSpec,
    convention: Convention = Convention.STANDARD,
) -> DeformedMatrix:
    """Direct matrix in the deformed chain from the constructed oracle states."""
    op = as_operator(op)
    convention = as_convention(convention)
    _, sigmas = bracket_index_set(nu, N, tau)
    states = [build_chain2_state(nu, N, s, tau, convention) for s in sigmas]
    operator = boson_operator(op, nu)
    applied = [apply(operator, st.state) for st in states]
    d = len(sigmas)
    entries = tuple(
        tuple(_oracle_entry(states, i, j, applied) for j in range(d)) for i in range(d)
    )
    return DeformedMatrix(nu, N, tau, op, convention, sigmas, entries)


def operator_core(sph: SphericalMatrix, row_sq) -> tuple[tuple, ...]:
    """W = diag(u) M diag(u) as rationals, with row_sq[a] = u_a**2 of the bracket table.

    For pairing, u_{n-2} u_n sqrt(r) = u_n**2 (N-n+2)(N-n+1)/2.  An entry that
    is not rational would need sums of unlike surds, so it raises SurdSumError.
    """
    d = len(row_sq)
    zero = rational(0)
    rows = []
    for a in range(d):
        row = []
        for b in range(d):
            m = sph.entries[a][b]
            if m.is_zero:
                row.append(zero)
                continue
            root = rational_sqrt(row_sq[a] * row_sq[b] * m.radicand)
            if root is None:
                raise SurdSumError(
                    f"operator {sph.op.value} at nu={sph.nu} N={sph.N} tau={sph.tau}: "
                    f"u_a u_b M[a][b] is not rational at (a, b) = ({a}, {b})"
                )
            row.append(root if m.sign > 0 else -root)
        rows.append(tuple(row))
    return tuple(rows)


def deformed_matrix(
    nu: int,
    N: int,
    tau: int,
    op: OperatorSpec,
    convention: Convention = Convention.STANDARD,
) -> DeformedMatrix:
    """Two-step transform: congruence of the spherical matrix by the bracket table.

    Entry (i, j) is v_i v_j (Q^T W Q)[i][j], summed over the nonzero entries
    of W in exact rational arithmetic.
    """
    op = as_operator(op)
    convention = as_convention(convention)
    sph = spherical_matrix(nu, N, tau, op)
    tab = table(nu, N, tau, convention)
    w = operator_core(sph, tab.row_sq)
    q = tab.core
    terms = [(a, b, x) for a, row in enumerate(w) for b, x in enumerate(row) if x]
    zero = rational(0)
    entries = []
    for i, vi_sq in enumerate(tab.col_sq):
        row = []
        for j, vj_sq in enumerate(tab.col_sq):
            t = sum((q[a][i] * x * q[b][j] for a, b, x in terms), zero)
            row.append(SurdValue((t > 0) - (t < 0), vi_sq * vj_sq * t * t))
        entries.append(tuple(row))
    return DeformedMatrix(nu, N, tau, op, convention, tab.sigmas, tuple(entries))
