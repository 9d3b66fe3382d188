"""Full-space reference for the orbit-reduced Fock oracle, for the tests only.

A state here is a dict {occ: c} of ints over every monomial, in the
oracle's basis where mode 2 is beta_2 = -i b_2, with its rational scale
kept beside it; nothing is folded into permutation orbits.  `apply`,
`weighted`, `dot` and `casimir_image` are the oracle's full-space routines
from before states were stored by orbit, and `chain_states` builds both
chains' states with them, ladder by ladder and kernel by kernel, in the
same order and with the same phases as the oracle.
"""

from __future__ import annotations

import math

from chainbrackets.exactnum import rational
from chainbrackets.fockoracle import (
    CasimirGroup,
    _kernel_ints,
    _mixings,
    _product_on,
    _rotations,
    creation_power,
    pair_annihilation_full,
    pair_creation_b,
    pair_creation_full,
)


def nonzero(terms: dict) -> dict:
    return {occ: c for occ, c in terms.items() if c}


def apply(op, terms: dict) -> dict:
    """op's integer terms acting on every monomial; the scale 1/op.den is left out."""
    out: dict = {}
    for c, ann, moves in op.terms:
        for occ, a in terms.items():
            factor = 1
            for mode, power in ann:
                factor *= math.perm(occ[mode], power)
            if not factor:
                continue
            new = list(occ)
            for mode, d in moves:
                new[mode] += d
            key = tuple(new)
            out[key] = out.get(key, 0) + a * c * factor
    return nonzero(out)


def weighted(terms: dict) -> list[tuple]:
    """(occ, c * w) with w = prod occ_j! = <occ|occ>."""
    return [(occ, c * math.prod(map(math.factorial, occ))) for occ, c in terms.items()]


def dot(bra: list[tuple], terms: dict) -> int:
    """Integer part of <psi|phi> for bra = weighted(psi) and phi's terms."""
    return sum(a * terms.get(occ, 0) for occ, a in bra)


def norm_sq(terms: dict, scale):
    d = dot(weighted(terms), terms)
    assert d > 0
    return d * scale * scale


_ROWS: dict = {}


def casimir_image(nu: int, terms: dict, group: CasimirGroup, barred: bool) -> dict:
    """sum_G G**2 = sum_g sign * g**2 over the group's generators on every monomial, rows memoized."""
    gens = _rotations(nu)
    if group is CasimirGroup.SO_NU_PLUS_ONE:
        gens += _mixings(nu, barred)
    out: dict = {}
    for occ, a in terms.items():
        key = (nu, group, barred, occ)
        row = _ROWS.get(key)
        if row is None:
            acc: dict = {}
            for g, sign in gens:
                _product_on(g, g, occ, sign, acc)
            row = _ROWS[key] = nonzero(acc)
        for new, c in row.items():
            out[new] = out.get(new, 0) + a * c
    return nonzero(out)


def _canonical(terms: dict, scale) -> tuple[dict, object]:
    g = math.gcd(*terms.values())
    if scale < 0:
        g = -g
    return {occ: c // g for occ, c in terms.items()}, scale * g


def _seed(nu: int, t: int) -> dict:
    """(b_1^dag + beta_2^dag)^t: the binomials C(t, j)."""
    return {(0, t - j, j) + (0,) * (nu - 2): math.comb(t, j) for j in range(t + 1)}


def chain_states(nu: int, n_max: int) -> tuple[dict, dict]:
    """Both chains' raw states up to N = n_max as (terms, scale), keyed as the oracle's builders.

    chain1[N, n, t] and chain2[N, sigma, t, barred], with t = |tau|.
    """
    chain1: dict = {}
    for t in range(n_max + 1):
        terms, scale = _seed(nu, t), rational(1)
        for n in range(t, n_max + 1, 2):
            if n > t:
                terms, scale = apply(pair_creation_b(nu), terms), -scale
            for N in range(n, n_max + 1):
                chain1[N, n, t] = (apply(creation_power(0, N - n), terms), scale) if N > n else (terms, scale)
    chain2: dict = {}
    for t in range(n_max + 1):
        for sigma in range(t, n_max + 1):
            for barred in (False, True):
                span = [chain1[sigma, t + 2 * q, t] for q in range((sigma - t) // 2 + 1)]
                vec, _ = _kernel_ints([apply(pair_annihilation_full(nu, barred), v) for v, _ in span])
                out: dict = {}
                for c, (v, _) in zip(vec, span):
                    for occ, a in v.items():
                        out[occ] = out.get(occ, 0) + a * c
                terms, scale = _canonical(nonzero(out), span[0][1] / vec[0])
                for N in range(sigma, n_max + 1, 2):
                    if N > sigma:
                        terms, scale = apply(pair_creation_full(nu, barred), terms), -scale
                    chain2[N, sigma, t, barred] = (terms, scale)
    return chain1, chain2
