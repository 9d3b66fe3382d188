"""Full-space reference for the orbit-reduced Fock oracle, for the tests only.

A state here is a dict {occ: (re, im)} of Gaussian integers over every
monomial, with its rational scale kept beside it; nothing is folded into
permutation orbits.  `apply`, `weighted`, `dot` and `casimir_image` are the
oracle's full-space routines from before states were stored by orbit, and
`chain_states` builds both chains' states with them, ladder by ladder and
kernel by kernel, in the same order and with the same phases as the oracle.
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
    return {occ: c for occ, c in terms.items() if c[0] or c[1]}


def apply(op, terms: dict) -> dict:
    """op's Gaussian-integer terms acting on every monomial; the scale 1/op.den is left out."""
    out: dict = {}
    for cr, ci, ann, moves in op.terms:
        for occ, (ar, ai) in terms.items():
            factor = 1
            for mode, power in ann:
                factor *= math.perm(occ[mode], power)
            if not factor:
                continue
            new = list(occ)
            for mode, d in moves:
                new[mode] += d
            key = tuple(new)
            r0, i0 = out.get(key, (0, 0))
            out[key] = (r0 + (ar * cr - ai * ci) * factor, i0 + (ar * ci + ai * cr) * factor)
    return nonzero(out)


def weighted(terms: dict) -> list[tuple]:
    """(occ, re * w, im * w) with w = prod occ_j! = <occ|occ>."""
    out = []
    for occ, (re, im) in terms.items():
        w = math.prod(map(math.factorial, occ))
        out.append((occ, re * w, im * w))
    return out


def dot(bra: list[tuple], terms: dict) -> tuple[int, int]:
    """Integer parts of <psi|phi> for bra = weighted(psi) and phi's terms."""
    re = im = 0
    for occ, ar, ai in bra:
        br, bi = terms.get(occ, (0, 0))
        re += ar * br + ai * bi
        im += ar * bi - ai * br
    return re, im


def norm_sq(terms: dict, scale):
    re, im = dot(weighted(terms), terms)
    assert im == 0 and re > 0
    return re * scale * scale


_ROWS: dict = {}


def casimir_image(nu: int, terms: dict, group: CasimirGroup, barred: bool) -> dict:
    """sum_g g**2 over the group's generators on every monomial, with rows memoized per monomial."""
    gens = _rotations(nu)
    if group is CasimirGroup.SO_NU_PLUS_ONE:
        gens += _mixings(nu, barred)
    out: dict = {}
    for occ, (ar, ai) in terms.items():
        key = (nu, group, barred, occ)
        row = _ROWS.get(key)
        if row is None:
            acc: dict = {}
            for g in gens:
                _product_on(g, g, occ, 1, acc)
            row = _ROWS[key] = nonzero(acc)
        for new, (cr, ci) in row.items():
            r0, i0 = out.get(new, (0, 0))
            out[new] = (r0 + ar * cr - ai * ci, i0 + ar * ci + ai * cr)
    return nonzero(out)


def _canonical(terms: dict, scale) -> tuple[dict, object]:
    g = math.gcd(*(x for pair in terms.values() for x in pair))
    if scale < 0:
        g = -g
    return {occ: (re // g, im // g) for occ, (re, im) in terms.items()}, scale * g


def _seed(nu: int, t: int) -> dict:
    phases = ((1, 0), (0, 1), (-1, 0), (0, -1))
    return {
        (0, t - j, j) + (0,) * (nu - 2): tuple(x * math.comb(t, j) for x in phases[j % 4])
        for j in range(t + 1)
    }


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
                xr, xi = vec[0]
                out: dict = {}
                for (cr, ci), (v, _) in zip(vec, span):
                    for occ, (re, im) in v.items():
                        r0, i0 = out.get(occ, (0, 0))
                        out[occ] = (r0 + re * cr - im * ci, i0 + re * ci + im * cr)
                out = nonzero({occ: (re * xr + im * xi, im * xr - re * xi) for occ, (re, im) in out.items()})
                terms, scale = _canonical(out, span[0][1] / (xr * xr + xi * xi))
                for N in range(sigma, n_max + 1, 2):
                    if N > sigma:
                        terms, scale = apply(pair_creation_full(nu, barred), terms), -scale
                    chain2[N, sigma, t, barred] = (terms, scale)
    return chain1, chain2
