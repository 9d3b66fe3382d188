"""Full-space reference for the orbit-reduced Fock oracle, for the tests only.

A state here is a dict {occ: c} of ints over every monomial, in the basis
where mode 2 is beta_2 = -i b_2, with its rational scale kept beside it;
nothing is folded into permutation orbits.  The oracle works in the helicity
modes b_+ and b_- instead, and its `FockState.view` is compared with these
states.  The operators here are the oracle's from before that change: the
seed (b_1^dag + beta_2^dag)^t with the binomials, and the pair and generator
operators with b_2^dag^2 = -beta_2^dag^2.  `apply`, `weighted`, `dot` and
`casimir_image` are the oracle's full-space routines from before states were
stored by orbit, and `chain_states` builds both chains' states with them,
ladder by ladder and kernel by kernel, in the same order and with the same
phases as the oracle.  Only mode-free routines come from the oracle:
`BosonOperator`, `_product_on`, `_kernel_ints` and `creation_power(0, p)`.
"""

from __future__ import annotations

import math

from chainbrackets.exactnum import rational
from chainbrackets.fockoracle import BosonOperator, CasimirGroup, _kernel_ints, _product_on, creation_power
from chainbrackets.transform import OperatorSpec


def _flip(j: int) -> int:
    """The sign of b_j^dag^2 and b_j^2 in the beta_2 basis: -1 for mode 2, else 1."""
    return -1 if j == 2 else 1


def pair_creation_b(nu: int) -> BosonOperator:
    return BosonOperator([(_flip(j), ((j, 2),), ()) for j in range(1, nu + 1)])


def pair_full(nu: int, barred: bool, creation: bool) -> BosonOperator:
    """s^dag^2 plus (standard) or minus (barred) the b-space pair creator, or the annihilator."""
    sign = -1 if barred else 1
    terms = [(1, ((0, 2),), ())] + [(sign * _flip(j), ((j, 2),), ()) for j in range(1, nu + 1)]
    return BosonOperator(terms if creation else [(c, ann, cre) for c, cre, ann in terms])


def boson_operator(op: OperatorSpec, nu: int) -> BosonOperator:
    """The transform's three operators: b-space and scalar numbers, and the pair exchange over 2."""
    if op is OperatorSpec.B_NUMBER:
        return BosonOperator([(1, ((j, 1),), ((j, 1),)) for j in range(1, nu + 1)])
    if op is OperatorSpec.S_NUMBER:
        return BosonOperator([(1, ((0, 1),), ((0, 1),))])
    up = [(_flip(j), ((j, 2),), ((0, 2),)) for j in range(1, nu + 1)]
    return BosonOperator(up + [(c, ann, cre) for c, cre, ann in up], den=2)


def generators(nu: int, group: CasimirGroup, barred: bool) -> list[tuple]:
    """(g, sign) of every generator G of the group, with G**2 = sign * g**2 and g real in the beta_2 basis.

    G is i(b_j^dag b_k - b_k^dag b_j) for the rotations and the standard
    mixings (j = 0), and s^dag b_k + b_k^dag s for the barred mixings.
    g = b_j^dag b_k + sign b_k^dag b_j, and G is g or +-i g: sign = +1
    exactly when hermitian != (2 in (j, k)).
    """
    pairs = [(j, k, False) for j in range(1, nu + 1) for k in range(j + 1, nu + 1)]
    if group is CasimirGroup.SO_NU_PLUS_ONE:
        pairs += [(0, k, barred) for k in range(1, nu + 1)]
    out = []
    for j, k, hermitian in pairs:
        sign = 1 if hermitian != (2 in (j, k)) else -1
        out.append((BosonOperator([(1, ((j, 1),), ((k, 1),)), (sign, ((k, 1),), ((j, 1),))]), sign))
    return out


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
    gens = generators(nu, group, barred)
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
                vec = _kernel_ints([apply(pair_full(nu, barred, False), v) for v, _ in span])
                out: dict = {}
                for c, (v, _) in zip(vec, span):
                    for occ, a in v.items():
                        out[occ] = out.get(occ, 0) + a * c
                terms, scale = _canonical(nonzero(out), span[0][1] / vec[0])
                for N in range(sigma, n_max + 1, 2):
                    if N > sigma:
                        terms, scale = apply(pair_full(nu, barred, True), terms), -scale
                    chain2[N, sigma, t, barred] = (terms, scale)
    return chain1, chain2


def canonical(terms: dict, scale) -> tuple[dict, object]:
    """(terms, scale) with coprime ints and a positive scale: one form per value, {} for zero."""
    terms = nonzero(terms)
    return _canonical(terms, scale) if terms else ({}, 0)


def view(psi) -> tuple[dict, object]:
    """The canonical form of an oracle state's beta_2-basis view, to compare with canonical(terms, scale)."""
    return canonical(*psi.view())
