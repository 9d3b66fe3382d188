"""Quantum-number bookkeeping for the two subalgebra chains.

The spherical chain carries (N, n, tau): N total bosons, n of them outside
the scalar mode, tau the boson seniority.  The deformed chain carries
(N, sigma, tau).  nu = 2 is special: the abelian label tau is signed there,
and all coefficient formulas evaluate at |tau| (opposite-sign tau label
conjugate one-dimensional irreps; brackets between them vanish).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .exactnum import rational

__all__ = [
    "Convention",
    "UnsupportedDimensionError",
    "LabelError",
    "ChainILabel",
    "ChainIILabel",
    "QuasiSpinLabel",
    "check_dimension",
    "check_chain1",
    "check_chain2",
    "enumerate_chain1",
    "enumerate_chain2",
    "bracket_index_set",
    "quasispin_labels",
]


class Convention(Enum):
    """Choice of deformed-chain realization; they differ by a pair-operator sign."""

    STANDARD = "standard"
    BARRED = "barred"


class UnsupportedDimensionError(ValueError):
    """Raised for nu < 2; the two-chain lattice needs at least two dimensions."""


class LabelError(ValueError):
    """A quantum-number combination that violates the branching rules."""


def check_dimension(nu: int) -> None:
    if nu < 2:
        raise UnsupportedDimensionError(f"dimension nu must be >= 2, got {nu}")


def _check_shell(nu: int, N: int, tau: int) -> None:
    """The (nu, N, tau) checks shared by both chains; a negative tau only exists at nu = 2."""
    check_dimension(nu)
    if N < 0:
        raise LabelError(f"N={N} must be nonnegative")
    if tau < 0 and nu != 2:
        raise LabelError(f"negative tau={tau} only exists for nu=2")


def check_chain1(nu: int, N: int, n: int, tau: int) -> None:
    """Raise LabelError unless (N, n, tau) is an admissible oscillator-chain label."""
    _check_shell(nu, N, tau)
    t = abs(tau)
    if not 0 <= n <= N:
        raise LabelError(f"n={n} violates 0 <= n <= N={N}")
    if n < t:
        raise LabelError(f"n={n} violates n >= |tau|={t} (U(nu) > SO(nu) branching)")
    if (n - t) % 2:
        raise LabelError(
            f"n - tau must be even, got n={n}, tau={tau} (U(nu) > SO(nu) branching)"
        )


def check_chain2(nu: int, N: int, sigma: int, tau: int) -> None:
    """Raise LabelError unless (N, sigma, tau) is an admissible deformed-chain label."""
    _check_shell(nu, N, tau)
    t = abs(tau)
    if not 0 <= sigma <= N:
        raise LabelError(f"sigma={sigma} violates 0 <= sigma <= N={N}")
    if (N - sigma) % 2:
        raise LabelError(
            f"N - sigma must be even, got N={N}, sigma={sigma} "
            "(U(nu+1) > SO(nu+1) branching)"
        )
    if sigma < t:
        raise LabelError(
            f"sigma={sigma} violates sigma >= |tau|={t} (SO(nu+1) > SO(nu) branching)"
        )


@dataclass(frozen=True, order=True)
class ChainILabel:
    """Validated (N, n, tau) triple of the oscillator chain."""

    nu: int
    N: int
    n: int
    tau: int

    def __post_init__(self):
        check_chain1(self.nu, self.N, self.n, self.tau)


@dataclass(frozen=True, order=True)
class ChainIILabel:
    """Validated (N, sigma, tau) triple of the deformed chain."""

    nu: int
    N: int
    sigma: int
    tau: int

    def __post_init__(self):
        check_chain2(self.nu, self.N, self.sigma, self.tau)


@dataclass(frozen=True)
class QuasiSpinLabel:
    """(q, q0) pair of the pair-ladder SU(1,1) acting on the b-boson space."""

    q: object
    q0: object

    def __post_init__(self):
        if not self.q > 0:
            raise LabelError(f"q={self.q} must be positive")
        if self.q0 < self.q:
            raise LabelError(f"q0={self.q0} must be >= q={self.q}")
        steps = self.q0 - self.q
        if steps.denominator != 1:
            raise LabelError(f"q0 - q = {steps} must be a nonnegative integer")


def enumerate_chain1(nu: int, N: int) -> list[ChainILabel]:
    """All (n, tau) labels of the oscillator chain for total boson number N."""
    _check_shell(nu, N, 0)
    out = []
    for n in range(N + 1):
        taus = range(-n, n + 1, 2) if nu == 2 else range(n % 2, n + 1, 2)
        for tau in taus:
            out.append(ChainILabel(nu, N, n, tau))
    return out


def enumerate_chain2(nu: int, N: int) -> list[ChainIILabel]:
    """All (sigma, tau) labels of the deformed chain for total boson number N."""
    _check_shell(nu, N, 0)
    out = []
    for sigma in range(N % 2, N + 1, 2):
        taus = range(-sigma, sigma + 1) if nu == 2 else range(sigma + 1)
        for tau in taus:
            out.append(ChainIILabel(nu, N, sigma, tau))
    return out


def bracket_index_set(nu: int, N: int, tau: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row (n) and column (sigma) index lists of the bracket matrix for fixed tau.

    Both lists have the same length floor((N - |tau|)/2) + 1: the change of
    basis is square within each tau block.
    """
    _check_shell(nu, N, tau)
    t = abs(tau)
    if t > N:
        raise LabelError(f"tau={tau} inadmissible for N={N}: |tau| <= N required")
    ns = tuple(range(t, N + 1, 2))
    sigma_lo = t if (N - t) % 2 == 0 else t + 1
    sigmas = tuple(range(sigma_lo, N + 1, 2))
    if len(ns) != len(sigmas):
        raise LabelError(
            f"bracket block at nu={nu} N={N} tau={tau} is not square: "
            f"{len(ns)} rows, {len(sigmas)} columns"
        )
    return ns, sigmas


def quasispin_labels(nu: int, n: int, tau: int) -> QuasiSpinLabel:
    """Map a chain-I (n, tau) content onto the SU(1,1) labels (q, q0)."""
    check_dimension(nu)
    t = abs(tau)
    if n < t or (n - t) % 2:
        raise LabelError(f"(n={n}, tau={tau}) is not valid chain-I content")
    return QuasiSpinLabel(q=rational(2 * t + nu, 4), q0=rational(2 * n + nu, 4))
