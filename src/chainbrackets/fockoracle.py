"""Independent symbolic boson Fock-space oracle.

Both chains' basis states are constructed here from first principles: ladder
operators acting on a common seed, and exact kernel solving for the intrinsic
deformed states.  No closed form enters: of this package the module imports
only exactnum and labels, so overlaps of these states are the ground truth
against which every closed form is certified.

All arithmetic is exact and runs on Python ints; no floating point anywhere.
States and operators share one representation: Gaussian integers (re, im)
under one rational factor for the whole value, `FockState` and
`BosonOperator(terms, den)`.  So `apply` and the overlaps multiply integers
and touch the scale once per call; the only GaussianRational here is the
value `inner` returns.  The intrinsic deformed states come from
fraction-free (Bareiss) elimination over the Gaussian integers.  The two
state builders are the ladders: each state is cached once, in its builder,
and is one `apply` from the cached state below it.  The cached states share
their keys and Gaussian pairs: each distinct value is one object, the first
one cached.  Each overlap is one weighted integer dot, and one rule
(`_signed_square`) turns it into the (sign, square) pair that both
`oracle_bracket` and `overlap_squares` return.  No other module reads a
state's integers or scale.  A memo that outlives its object is a pure
constructor under lru_cache or a module dict (_SHARED, _WEIGHT, _SIZE,
_ROWS), and `clear_caches` empties them all.

Every state is built from the seed (b_1^dag + i b_2^dag)^tau with SO(nu)
scalars only, so it is symmetric under permutations of the modes
b_3..b_nu.  A FockState therefore stores one monomial per permutation orbit
(the representative, whose occ[3:] is non-increasing) with d = c * |orbit|.
`apply` pushes each representative through an operator that commutes with
those permutations and sums the output monomials into their representatives
(the fold); the Casimir rows are folded the same way.  An overlap is
sum conj(d) d' prod occ_j! prod_v m_v! / (nu - 2)! over the
representatives, with m_v the multiplicities of the values in occ[3:]; the
division is exact.  The weight prod occ_j! prod_v m_v! is memoized per key
and |orbit| per occ[3:], one int each.  At nu <= 3 every orbit is one
monomial and nothing is folded.  The full-space monomials exist only as the
derived view `FockState.terms`; `su11_commutator_check` composes operators
on single full-space monomials with `_product_on`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, wraps

from .exactnum import GaussianRational, rational
from .labels import (
    Convention,
    LabelError,
    check_chain1,
    check_chain2,
    check_dimension,
)

__all__ = [
    "KernelError",
    "SymmetryError",
    "CasimirGroup",
    "FockState",
    "BosonOperator",
    "NormalizedState",
    "apply",
    "inner",
    "overlap_squares",
    "seed_state",
    "build_chain1_state",
    "build_chain2_state",
    "oracle_bracket",
    "casimir_apply",
    "casimir_check",
    "is_exact_eigenstate",
    "su11_commutator_check",
    "state_to_json",
    "clear_caches",
]

_ONE = rational(1)
_ZERO_PAIR = (0, 0)
_SHARED: dict = {}  # the first cached object of each key and Gaussian pair; see _shared
_WEIGHT: dict = {}  # prod occ_j! prod_v m_v! of each orbit representative occ; see _weight
_SIZE: dict = {}  # |orbit| of each tail occ[3:]; see _orbit_size
_ROWS: dict = {}  # per nu, the Casimir rows and the numbering of their outputs; see casimir_apply


class KernelError(RuntimeError):
    """The pair-annihilation kernel did not come out one-dimensional: a bug."""


class SymmetryError(ValueError):
    """A state or operator that is not invariant under permutations of the modes b_3..b_nu.

    The oracle stores one monomial per permutation orbit, so it can neither
    hold such a state nor apply such an operator.
    """


class CasimirGroup(Enum):
    SO_NU = "so_nu"
    SO_NU_PLUS_ONE = "so_nu_plus_one"


def _multipliers(sa, sb) -> tuple[int, int]:
    """Integers ma, mb with sa = ma * c and sb = mb * c for one rational c."""
    if sa == sb:
        return 1, 1
    na, da = sa.numerator, sa.denominator
    nb, db = sb.numerator, sb.denominator
    g = math.gcd(na, nb)
    lcm = math.lcm(da, db)
    return na // g * (lcm // da), nb // g * (lcm // db)


def _nonzero(terms: dict) -> dict:
    return {occ: c for occ, c in terms.items() if c[0] or c[1]}


def _orbit_size(tail: tuple) -> int:
    """|orbit| = (nu - 2)! / prod_v m_v!, m_v the multiplicity of the value v in tail = rep[3:]; memoized."""
    size = _SIZE.get(tail)
    if size is None:
        size = _SIZE[tail] = math.factorial(len(tail)) // math.prod(map(math.factorial, map(tail.count, set(tail))))
    return size


def _arrangements(tail: tuple):
    """Every distinct ordering of tail."""
    if len(tail) < 2:
        yield tail
        return
    for v in set(tail):
        i = tail.index(v)
        for rest in _arrangements(tail[:i] + tail[i + 1 :]):
            yield (v,) + rest


def _fold(terms: dict) -> dict:
    """Sum each monomial's Gaussian integer into its orbit's representative."""
    out: dict = {}
    for occ, (re, im) in terms.items():
        rep = occ[:3] + tuple(sorted(occ[3:], reverse=True))
        r0, i0 = out.get(rep, _ZERO_PAIR)
        out[rep] = (r0 + re, i0 + im)
    return out


class FockState:
    """Finite linear combination of occupation monomials with exact complex coefficients.

    Keys are (nu+1)-tuples of occupation numbers, mode 0 being the scalar
    boson.  Monomials are unnormalized products of creation operators on the
    vacuum, so <occ|occ> = prod occ_j!.  The coefficient of occ is
    (re + i im) * scale: Gaussian integers under one rational scale, as a
    BosonOperator is Gaussian integers over one denominator.

    A state is symmetric under permutations of the modes 3..nu, and is
    stored by orbit: `orbits` maps each orbit's representative (occ[3:]
    non-increasing) to d = c * |orbit|, a nonzero Gaussian integer divisible
    by |orbit|.  `terms` is the derived full-space view {occ: c}, one entry
    per monomial.  The constructor takes such full-space terms; it drops
    zero pairs and raises SymmetryError unless the terms are symmetric.
    Instances are treated as immutable and may share their dict; the cached
    states also share their keys and pairs, one object per distinct value.
    """

    __slots__ = ("orbits", "scale")

    def __init__(self, terms: dict, scale=_ONE):
        terms = _nonzero(terms)
        self.orbits = _fold(terms)
        self.scale = scale
        # the folded orbits give back exactly the terms they came from iff those are symmetric
        if self.terms != terms:
            raise SymmetryError("the terms are not symmetric under permutations of the modes 3..nu")

    @classmethod
    def _of(cls, orbits: dict, scale) -> "FockState":
        """The state stored as orbits, which must hold nonzero pairs only."""
        psi = cls.__new__(cls)
        psi.orbits = orbits
        psi.scale = scale
        return psi

    @property
    def terms(self) -> dict:
        """Full-space view {occ: (re, im)}: every monomial, under the same scale."""
        out = {}
        for rep, (re, im) in self.orbits.items():
            size = _orbit_size(rep[3:])
            c = (re // size, im // size)
            head = rep[:3]
            for tail in _arrangements(rep[3:]):
                out[head + tail] = c
        return out

    @property
    def is_zero(self) -> bool:
        return not self.orbits

    def canonical(self) -> "FockState":
        """The same state with coprime full-space integers and a positive scale."""
        if not self.orbits:
            return self
        # |orbit| divides re and im, so gcd(re, im) // |orbit| is the gcd of the full-space pair
        g = math.gcd(*(math.gcd(re, im) // _orbit_size(occ[3:]) for occ, (re, im) in self.orbits.items()))
        if self.scale < 0:
            g = -g
        if g == 1:
            return self
        orbits = {occ: (re // g, im // g) for occ, (re, im) in self.orbits.items()}
        return FockState._of(orbits, self.scale * g)

    def times(self, scalar) -> "FockState":
        """Scale by an exact real scalar (int or rational); a nonzero one shares the integers."""
        if not scalar or not self.orbits:
            return FockState._of({}, _ONE)
        return FockState._of(self.orbits, self.scale * scalar)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        a, b = self.orbits, other.orbits
        if len(a) != len(b):
            return False
        if not a:
            return True
        ma, mb = _multipliers(self.scale, other.scale)
        for occ, (re, im) in a.items():
            o = b.get(occ)
            if o is None or re * ma != o[0] * mb or im * ma != o[1] * mb:
                return False
        return True

    def __hash__(self):
        c = self.canonical()
        return hash((frozenset(c.orbits.items()), c.scale if c.orbits else None))

    def __repr__(self) -> str:
        return f"FockState({len(self.orbits)} orbits)"


class BosonOperator:
    """Sum of normal-ordered creation/annihilation monomials over one denominator.

    Built from terms (cr, ci, cre, ann) and the positive integer den: the term
    acts as (cr + i ci) / den * prod b_dag^cre * prod b^ann, with cr, ci ints
    and cre/ann sparse tuples of (mode, power) pairs.  `terms` holds, per
    nonzero term, (cr, ci, ann, moves): the Gaussian integer, the annihilated
    (mode, power) pairs and the net (mode, shift) of occupation numbers,
    sorted by mode.  Products of operators are evaluated by composing their
    actions (`apply` on states, `_product_on` on one monomial), never
    symbolically.
    """

    __slots__ = ("terms", "den", "invariant_at")

    def __init__(self, terms, den: int = 1):
        self.den = den
        self.invariant_at: dict = {}
        out = []
        for cr, ci, cre, ann in terms:
            if not (cr or ci):
                continue
            shift = dict.fromkeys([mode for mode, _ in cre + ann], 0)
            for mode, power in ann:
                shift[mode] -= power
            for mode, power in cre:
                shift[mode] += power
            moves = tuple((mode, d) for mode, d in sorted(shift.items()) if d)
            out.append((cr, ci, tuple(ann), moves))
        self.terms = tuple(out)


def _is_invariant(op: BosonOperator, nu: int) -> bool:
    """Whether op may act on a state over the modes 0..nu; decided once per nu and memoized on op.

    An operator on a mode beyond nu raises LabelError.  At nu >= 4, op must
    commute with every permutation of the modes 3..nu: renaming the modes by
    the transposition (3 4) or by the cycle (3 4 ... nu), which generate the
    group, must only reorder op's terms.  Terms are compared as written, so
    an operator that splits one monomial into several terms unevenly across
    an orbit is refused too.
    """
    ok = op.invariant_at.get(nu)
    if ok is None:
        top = max((mode for _, _, ann, moves in op.terms for mode, _ in ann + moves), default=0)
        if top > nu:
            raise LabelError(f"the operator needs nu >= {top}, the state has nu={nu}")

        def renamed(perm: dict) -> list:
            return sorted(
                (cr, ci, sorted((perm.get(m, m), p) for m, p in ann), sorted((perm.get(m, m), d) for m, d in moves))
                for cr, ci, ann, moves in op.terms
            )

        cycle = {m: m + 1 if m < nu else 3 for m in range(3, nu + 1)}
        ok = op.invariant_at[nu] = nu <= 3 or renamed({}) == renamed({3: 4, 4: 3}) == renamed(cycle)
    return ok


def apply(op: BosonOperator, psi: FockState) -> FockState:
    """Exact linear action of op on psi, on the orbit integers.

    Each representative is pushed through op and the output monomials are
    folded into their representatives.  Only a term that moves a boson in or
    out of a mode >= 3 can leave a representative, so only its outputs are
    sorted, and only at nu >= 4.  Raises SymmetryError if op does not commute
    with the permutations of the modes 3..nu, and LabelError if op acts on a
    mode beyond nu; a zero psi gives zero.
    """
    nu = len(next(iter(psi.orbits), ())) - 1
    if psi.orbits and not _is_invariant(op, nu):
        raise SymmetryError("the operator does not commute with the permutations of the modes 3..nu")
    out: dict = {}
    get = out.get
    perm = math.perm
    items = psi.orbits.items()
    for cr, ci, ann, moves in op.terms:
        fold = nu > 3 and moves and moves[-1][0] > 2
        for occ, (ar, ai) in items:
            factor = 1
            for mode, power in ann:
                factor *= perm(occ[mode], power)
            if not factor:
                continue
            if moves:
                new = list(occ)
                for mode, d in moves:
                    new[mode] += d
                if fold:
                    new[3:] = sorted(new[3:], reverse=True)
                occ = tuple(new)
            if ci:
                vr = (ar * cr - ai * ci) * factor
                vi = (ar * ci + ai * cr) * factor
            else:
                factor *= cr
                vr = ar * factor
                vi = ai * factor
            prev = get(occ)
            out[occ] = (vr, vi) if prev is None else (prev[0] + vr, prev[1] + vi)
    return FockState._of(_nonzero(out), psi.scale if op.den == 1 else psi.scale / op.den)


def _product_on(a: BosonOperator, b: BosonOperator, occ: tuple, sign: int, out: dict) -> None:
    """Add sign * (a b)|occ> into out, with the scale 1/(a.den b.den) left out.

    Composes the integer terms of b, then a, on the one full-space monomial
    occ; no intermediate state is built and nothing is folded.  out maps
    occupation tuples to Gaussian integers (re, im) and may be left holding
    zeros.
    """
    get = out.get
    perm = math.perm
    for br, bi, ann, moves in b.terms:
        factor = sign
        for mode, power in ann:
            factor *= perm(occ[mode], power)
        if not factor:
            continue
        mid = occ
        if moves:
            new = list(occ)
            for mode, d in moves:
                new[mode] += d
            mid = tuple(new)
        vr, vi = br * factor, bi * factor
        for ar, ai, ann_a, moves_a in a.terms:
            factor = 1
            for mode, power in ann_a:
                factor *= perm(mid[mode], power)
            if not factor:
                continue
            key = mid
            if moves_a:
                new = list(mid)
                for mode, d in moves_a:
                    new[mode] += d
                key = tuple(new)
            re = (ar * vr - ai * vi) * factor
            im = (ar * vi + ai * vr) * factor
            prev = get(key)
            out[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)


def _weight(occ: tuple) -> int:
    """w = prod occ_j! * prod_v m_v!, memoized; occ[3:] is sorted, so each m_v is a run of equal neighbours."""
    w = run = 1
    for i in range(4, len(occ)):
        if occ[i] == occ[i - 1]:
            run += 1
            w *= run
        else:
            run = 1
    for x in occ:
        if x > 1:
            w *= math.factorial(x)
    _WEIGHT[occ] = w
    return w


def _dot(psi: FockState, phi: FockState) -> tuple[int, int]:
    """Integer parts (re, im) of <psi|phi> = (re + i im) * psi.scale * phi.scale.

    No rational is formed.  Over the representatives,
    <psi|phi> = sum conj(d) d' w / (nu - 2)!, w = prod occ_j! prod_v m_v!,
    since |orbit| prod_v m_v! = (nu - 2)!; each term is divisible by
    (nu - 2)!.  Only the orbits that both states hold are weighed, each with
    its memoized w.  States of different nu raise LabelError.
    """
    a, b = psi.orbits, phi.orbits
    if not a or not b:
        return 0, 0
    n, m = len(next(iter(a))), len(next(iter(b)))
    if n != m:
        raise LabelError(f"the states have different dimensions, nu={n - 1} and nu={m - 1}")
    get, weight = b.get, _WEIGHT.get
    re = im = 0
    for occ, (ar, ai) in a.items():
        other = get(occ)
        if other is not None:
            w = weight(occ) or _weight(occ)
            br, bi = other
            re += (ar * br + ai * bi) * w
            im += (ar * bi - ai * br) * w
    if n > 4:
        f = math.factorial(n - 3)
        if re % f or im % f:
            raise KernelError("an orbit overlap is not divisible by (nu - 2)!")
        re, im = re // f, im // f
    return re, im


def _real_dot(psi: FockState, phi: FockState) -> int:
    """Integer part of the real overlap <psi|phi>; a nonzero imaginary part raises KernelError."""
    re, im = _dot(psi, phi)
    if im:
        raise KernelError(f"expected a real inner product, got imaginary part {im * psi.scale * phi.scale}")
    return re


def inner(psi: FockState, phi: FockState) -> GaussianRational:
    """Boson Fock inner product <psi|phi> with the monomial weights prod occ_j!."""
    re, im = _dot(psi, phi)
    scale = psi.scale * phi.scale
    return GaussianRational(re * scale, im * scale)


# ---------------------------------------------------------------------------
# Operator constructors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def creation_power(mode: int, power: int) -> BosonOperator:
    return BosonOperator([(1, 0, ((mode, power),), ())])


@lru_cache(maxsize=None)
def pair_creation_b(nu: int) -> BosonOperator:
    """Sum of squared creation operators over the nu non-scalar modes."""
    return BosonOperator([(1, 0, ((j, 2),), ()) for j in range(1, nu + 1)])


@lru_cache(maxsize=None)
def pair_annihilation_b(nu: int) -> BosonOperator:
    return BosonOperator([(1, 0, (), ((j, 2),)) for j in range(1, nu + 1)])


@lru_cache(maxsize=None)
def pair_creation_full(nu: int, barred: bool = False) -> BosonOperator:
    """Scalar-squared plus (standard) or minus (barred) the b-space pair creator."""
    sign = -1 if barred else 1
    terms = [(1, 0, ((0, 2),), ())]
    terms += [(sign, 0, ((j, 2),), ()) for j in range(1, nu + 1)]
    return BosonOperator(terms)


@lru_cache(maxsize=None)
def pair_annihilation_full(nu: int, barred: bool = False) -> BosonOperator:
    sign = -1 if barred else 1
    terms = [(1, 0, (), ((0, 2),))]
    terms += [(sign, 0, (), ((j, 2),)) for j in range(1, nu + 1)]
    return BosonOperator(terms)


@lru_cache(maxsize=None)
def number_operator(nu: int) -> BosonOperator:
    return BosonOperator([(1, 0, ((j, 1),), ((j, 1),)) for j in range(nu + 1)])


@lru_cache(maxsize=None)
def b_number_operator(nu: int) -> BosonOperator:
    return BosonOperator([(1, 0, ((j, 1),), ((j, 1),)) for j in range(1, nu + 1)])


@lru_cache(maxsize=None)
def s_number_operator(nu: int) -> BosonOperator:
    return BosonOperator([(1, 0, ((0, 1),), ((0, 1),))])


@lru_cache(maxsize=None)
def pair_exchange_operator(nu: int) -> BosonOperator:
    """(1/2) sum_j (b_j^dag^2 s^2 + s^dag^2 b_j^2): moves one boson pair between s and the b space."""
    up = [(1, 0, ((j, 2),), ((0, 2),)) for j in range(1, nu + 1)]
    down = [(1, 0, ((0, 2),), ((j, 2),)) for j in range(1, nu + 1)]
    return BosonOperator(up + down, den=2)


def so_generator(nu: int, j: int, k: int) -> BosonOperator:
    """Antisymmetric generator i(b_j^dag b_k - b_k^dag b_j) for 1 <= j < k <= nu."""
    return BosonOperator([(0, 1, ((j, 1),), ((k, 1),)), (0, -1, ((k, 1),), ((j, 1),))])


def d_generator(nu: int, j: int, barred: bool = False) -> BosonOperator:
    """Mixing generator between the scalar mode and b_j.

    Standard realization: i(s^dag b_j - b_j^dag s); barred: s^dag b_j + b_j^dag s.
    """
    if barred:
        return BosonOperator([(1, 0, ((0, 1),), ((j, 1),)), (1, 0, ((j, 1),), ((0, 1),))])
    return BosonOperator([(0, 1, ((0, 1),), ((j, 1),)), (0, -1, ((j, 1),), ((0, 1),))])


@lru_cache(maxsize=None)
def quasispin_plus(nu: int) -> BosonOperator:
    """Q+ = (1/2) sum_j b_j^dag^2."""
    return BosonOperator([(1, 0, ((j, 2),), ()) for j in range(1, nu + 1)], den=2)


@lru_cache(maxsize=None)
def quasispin_minus(nu: int) -> BosonOperator:
    """Q- = (1/2) sum_j b_j^2."""
    return BosonOperator([(1, 0, (), ((j, 2),)) for j in range(1, nu + 1)], den=2)


@lru_cache(maxsize=None)
def quasispin_zero(nu: int) -> BosonOperator:
    """Q0 = (2 n_b + nu) / 4, with n_b the b-space boson count."""
    terms = [(2, 0, ((j, 1),), ((j, 1),)) for j in range(1, nu + 1)]
    return BosonOperator(terms + [(nu, 0, (), ())], den=4)


# ---------------------------------------------------------------------------
# State construction
# ---------------------------------------------------------------------------


def seed_state(nu: int, tau: int) -> FockState:
    """(b_1^dag + i b_2^dag)^tau on the vacuum: the common seniority-tau seed.

    Annihilated by the b-space pair annihilator for every nu >= 2 because the
    direction vector (1, i, 0, ...) is null under the sum of squares.
    """
    check_dimension(nu)
    if tau < 0:
        raise LabelError(f"tau={tau} must be nonnegative")
    terms = {}
    for j in range(tau + 1):
        c = math.comb(tau, j)
        terms[(0, tau - j, j) + (0,) * (nu - 2)] = ((c, 0), (0, c), (-c, 0), (0, -c))[j % 4]
    # modes 3..nu are empty: every monomial is its own orbit
    return FockState._of(terms, _ONE)


@dataclass(frozen=True)
class NormalizedState:
    """state / sqrt(norm_sq): an exactly unit-norm state in factored form.

    The raw FockState keeps exact Gaussian-integer coefficients under a
    rational scale (with the ladder phase already folded in); its exact
    squared norm is carried alongside so the pair has squared norm 1 without
    ever forming an irrational number.
    """

    state: FockState
    norm_sq: object

    def norm_squared(self):
        return _real_norm_sq(self.state) / self.norm_sq

    @cached_property
    def unit(self) -> tuple[int, int, int]:
        """sign(scale) and the integers num, den with scale**2 / norm_sq = num / den; computed once."""
        a, b = self.state.scale.numerator, self.state.scale.denominator
        return (1 if a > 0 else -1), a * a * self.norm_sq.denominator, b * b * self.norm_sq.numerator


def _real_norm_sq(psi: FockState):
    """<psi|psi> as one rational built from the integer dot."""
    nsq = _real_dot(psi, psi)
    if nsq <= 0:
        raise KernelError("state unexpectedly has nonpositive norm")
    return rational(nsq * psi.scale.numerator**2, psi.scale.denominator**2)


def _signed_square(dot: int, unit1: tuple, unit2: tuple) -> tuple:
    """(sign, square) of <1|2> / sqrt(<1|1> <2|2>), given the NormalizedState.unit of each.

    dot is the integer part of the raw overlap, <1|2> = dot * s1 * s2 with
    s1, s2 the states' scales, so the square is
    dot**2 * (s1**2 / norm_1) * (s2**2 / norm_2), one rational from integer
    products.
    """
    if not dot:
        return 0, rational(0)
    sign1, num1, den1 = unit1
    sign2, num2, den2 = unit2
    sign = sign1 * sign2 if dot > 0 else -sign1 * sign2
    return sign, rational(dot * dot * num1 * num2, den1 * den2)


def overlap_squares(bras: list[NormalizedState], kets: list[NormalizedState]) -> list[list[tuple]]:
    """(sign, square) of <bra_i|ket_j> for every pair, as oracle_bracket gives one; KernelError if complex."""
    kets = [(two.state, two.unit) for two in kets]
    block = []
    for one in bras:
        psi, unit = one.state, one.unit
        block.append([_signed_square(_real_dot(psi, phi), unit, u) for phi, u in kets])
    return block


def _cached_on(label):
    """Memoize a state builder on label(*args, **kwargs): the validated, canonical label.

    Every spelling of one label (an omitted, enum or string convention; -tau
    for tau at nu = 2) reaches the same cache entry.  The returned function
    carries the cache's cache_info and cache_clear, as an lru_cache does.
    """

    def decorate(build):
        cached = lru_cache(maxsize=None)(build)

        @wraps(build)
        def lookup(*args, **kwargs):
            return cached(*label(*args, **kwargs))

        lookup.cache_info = cached.cache_info
        lookup.cache_clear = cached.cache_clear
        return lookup

    return decorate


def _shared(psi: FockState) -> FockState:
    """psi with each key and pair of its orbits replaced by the first equal one cached.

    Keys have length nu + 1 >= 3 and pairs length 2, so one dict holds both without confusion.
    """
    share = _SHARED.setdefault
    return FockState._of({share(occ, occ): share(c, c) for occ, c in psi.orbits.items()}, psi.scale)


def _chain1_label(nu: int, N: int, n: int, tau: int) -> tuple:
    check_chain1(nu, N, n, tau)
    return nu, N, n, abs(tau)


@_cached_on(_chain1_label)
def build_chain1_state(nu: int, N: int, n: int, tau: int) -> NormalizedState:
    """Oscillator-chain state: scalar bosons on top of the pair ladder on the seed.

    The state depends on |tau| only, and is cached on it.  At N = n = tau it
    is the seed; at N = n, -P_b^dag on the state at (n - 2, n - 2), so the
    ladder phase (-1)^((n-tau)/2) rides along; above, s^dag^(N-n) on the
    state at (n, n).  No closed-form normalization: the exact norm is
    computed afterwards.
    """
    if N > n:
        psi = apply(creation_power(0, N - n), build_chain1_state(nu, n, n, tau).state)
    elif n > tau:
        below = build_chain1_state(nu, n - 2, n - 2, tau).state
        psi = apply(pair_creation_b(nu), below).times(-1)
    else:
        psi = seed_state(nu, tau)
    psi = _shared(psi)
    return NormalizedState(psi, _real_norm_sq(psi))


def _gauss_div(re: int, im: int, d: tuple[int, int]) -> tuple[int, int]:
    """The Gaussian integer (re + i im) / d; raises KernelError if the division is inexact."""
    dr, di = d
    if di:
        n = dr * dr + di * di
        re, im = re * dr + im * di, im * dr - re * di
    else:
        n = dr
    qr, rr = divmod(re, n)
    qi, ri = divmod(im, n)
    if rr or ri:
        raise KernelError("fraction-free elimination hit an inexact division")
    return qr, qi


def _kernel_ints(columns: list[dict]) -> tuple[list[tuple[int, int]], int]:
    """Kernel vector of a Gaussian-integer matrix given column by column, and its free column.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968):
    with pivot p in column c and previous pivot p_prev, every other row r
    becomes (p * r - r[c] * pivot_row) / p_prev.  Every entry stays a minor
    of the matrix, so the division is exact in Z[i], and at the end every
    pivot equals the last pivot d.  The free column's entry is d and pivot
    column c_r's entry is -(row r)[free], all integers.
    """
    ncols = len(columns)
    keys = sorted(set().union(*columns))
    rows = [[col.get(k, _ZERO_PAIR) for col in columns] for k in keys]
    prev = (1, 0)
    pivot_cols: list[int] = []
    for col in range(ncols):
        rank = len(pivot_cols)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != _ZERO_PAIR), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pivot_row = rows[rank]
        pr, pi = pivot_row[col]
        kept = []
        for i, row in enumerate(rows):
            if i != rank:
                fr, fi = row[col]
                row = [
                    _gauss_div(
                        pr * xr - pi * xi - fr * yr + fi * yi,
                        pr * xi + pi * xr - fr * yi - fi * yr,
                        prev,
                    )
                    for (xr, xi), (yr, yi) in zip(row, pivot_row)
                ]
                if i > rank and all(x == _ZERO_PAIR for x in row):
                    continue
            kept.append(row)
        rows = kept
        prev = (pr, pi)
        pivot_cols.append(col)
    free = [c for c in range(ncols) if c not in pivot_cols]
    if len(free) != 1:
        raise KernelError(
            f"pair-annihilation kernel has dimension {len(free)}, expected 1"
        )
    f0 = free[0]
    vec = [_ZERO_PAIR] * ncols
    vec[f0] = prev
    for r, col in enumerate(pivot_cols):
        xr, xi = rows[r][f0]
        vec[col] = (-xr, -xi)
    return vec, f0


def _chain2_intrinsic(nu: int, sigma: int, t: int, barred: bool) -> FockState:
    """Unique sigma-boson seed-built state killed by the full pair annihilator.

    Solved by fraction-free elimination over the span of
    (scalar^p)(pair-creator^q) seed with p + 2q = sigma - t, each element one
    apply of s^dag^p onto the cached chain-I state at (t + 2q, t + 2q), and
    normalized so the span's first element (q = 0) has coefficient 1; phase
    fixed so the coefficient of the pure scalar-power-times-seed monomial is
    positive.
    """
    span = []
    for q in range((sigma - t) // 2 + 1):
        p = sigma - t - 2 * q
        base = build_chain1_state(nu, t + 2 * q, t + 2 * q, t).state
        span.append(apply(creation_power(0, p), base) if p else base)
    down = pair_annihilation_full(nu, barred)
    # apply maps integer parts to integer parts whatever the scale, so the
    # kernel of the images' integer parts combines the spans' integer parts
    # (the ladder phases sit in the scales; only span[0]'s, the seed's 1, enters)
    # (folding scales each row by |orbit|, which leaves the kernel as it is)
    vec, _ = _kernel_ints([apply(down, v).orbits for v in span])
    xr, xi = vec[0]
    if not (xr or xi):
        raise KernelError("kernel vector has no pure scalar-ladder component")
    # dividing by x0 = xr + i xi: multiply each entry by its conjugate, scale by 1/|x0|^2
    out: dict = {}
    for (vr, vi), v in zip(vec, span):
        cr, ci = vr * xr + vi * xi, vi * xr - vr * xi
        for occ, (re, im) in v.orbits.items():
            prev = out.get(occ, _ZERO_PAIR)
            out[occ] = (prev[0] + re * cr - im * ci, prev[1] + re * ci + im * cr)
    state = FockState._of(_nonzero(out), span[0].scale / (xr * xr + xi * xi)).canonical()
    # canonical() makes the scale positive, so the phase shows in the integers;
    # the marker is an orbit of one monomial, so its d is its coefficient
    marker = (sigma - t, t) + (0,) * (nu - 1)
    lead_re, lead_im = state.orbits[marker]
    if lead_im != 0 or lead_re <= 0:
        raise KernelError("phase fixing failed: leading coefficient not positive real")
    return state


def _chain2_label(
    nu: int, N: int, sigma: int, tau: int, convention: Convention = Convention.STANDARD
) -> tuple:
    check_chain2(nu, N, sigma, tau)
    return nu, N, sigma, abs(tau), Convention(convention)


@_cached_on(_chain2_label)
def build_chain2_state(
    nu: int, N: int, sigma: int, tau: int, convention: Convention = Convention.STANDARD
) -> NormalizedState:
    """Deformed-chain state: full pair ladder on the intrinsic kernel state.

    The state depends on |tau| and the convention only, and is cached on
    them.  Independent of every closed form.  At N = sigma it is the
    intrinsic kernel state; above, the ladder phase (-1)^((N-sigma)/2) rides
    along the ladder, each rung one apply of -P^dag onto the cached state at
    N - 2.  The exact norm is computed afterwards.
    """
    barred = convention is Convention.BARRED
    if N == sigma:
        psi = _chain2_intrinsic(nu, sigma, tau, barred)
    else:
        below = build_chain2_state(nu, N - 2, sigma, tau, convention).state
        psi = apply(pair_creation_full(nu, barred), below).times(-1)
    psi = _shared(psi)
    return NormalizedState(psi, _real_norm_sq(psi))


def oracle_bracket(
    nu: int,
    N: int,
    n: int,
    sigma: int,
    tau: int,
    convention: Convention = Convention.STANDARD,
):
    """Sign and square of the overlap of the two constructed basis states.

    Returns (sign, square) with square = <1|2>^2 / (<1|1><2|2>) on the raw
    states, directly comparable to (sign, radicand) of the closed form.  The
    overlap is one integer dot.
    """
    one = build_chain1_state(nu, N, n, tau)
    two = build_chain2_state(nu, N, sigma, tau, convention)
    return _signed_square(_real_dot(one.state, two.state), one.unit, two.unit)


# ---------------------------------------------------------------------------
# Casimir operators and structure checks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rotations(nu: int) -> tuple[BosonOperator, ...]:
    """The SO(nu) generators so_generator(nu, j, k), 1 <= j < k <= nu."""
    return tuple(so_generator(nu, j, k) for j in range(1, nu + 1) for k in range(j + 1, nu + 1))


@lru_cache(maxsize=None)
def _mixings(nu: int, barred: bool) -> tuple[BosonOperator, ...]:
    """The mixings d_generator(nu, j, barred) that SO(nu+1) adds to the rotations."""
    return tuple(d_generator(nu, j, barred) for j in range(1, nu + 1))


def casimir_apply(
    nu: int,
    psi: FockState,
    group: CasimirGroup,
    convention: Convention = Convention.STANDARD,
) -> FockState:
    """Quadratic Casimir (sum of squared generators) applied exactly to psi.

    C_SO(nu) sums the rotations' squares; C_SO(nu+1) adds sum_j d_j**2 over
    the mixings.  _ROWS[nu] holds (ids, occs, tables): a numbering of orbit
    representatives, occs[ids[occ]] == occ, and one table of rows per part,
    filled as psi's orbits meet them.  rows[rep] is the flat tuple
    (id_1, re_1, im_1, id_2, ...) of the nonzero Gaussian-integer
    coefficients of sum_g g**2 |rep>, composed with `_product_on` and folded
    into representatives.  No g commutes with the permutations of the modes
    3..nu, but sum_g g**2 does, so the folded row is exact.  The SO(nu)
    table (part None) has no convention, so it serves both groups and both
    conventions.  A nonzero psi of another nu raises LabelError.
    """
    barred = Convention(convention) is Convention.BARRED
    dim = len(next(iter(psi.orbits), ())) - 1
    if psi.orbits and dim != nu:
        raise LabelError(f"the state has dimension nu={dim}, not nu={nu}")
    memo = _ROWS.get(nu)
    if memo is None:
        memo = _ROWS[nu] = ({}, [], {})
    ids, occs, tables = memo
    out: dict = {}
    get = out.get
    for part in (None,) if group is CasimirGroup.SO_NU else (None, barred):
        table = tables.get(part)
        if table is None:
            gens = _rotations(nu) if part is None else _mixings(nu, part)
            if any(g.den != 1 for g in gens):
                raise KernelError("a Casimir generator has non-integer coefficients")
            table = tables[part] = (gens, {})
        gens, rows = table
        for occ, (ar, ai) in psi.orbits.items():
            row = rows.get(occ)
            if row is None:
                acc: dict = {}
                for g in gens:
                    _product_on(g, g, occ, 1, acc)
                if nu > 3:
                    acc = _fold(acc)
                flat = []
                for key, (re, im) in acc.items():
                    if re or im:
                        i = ids.get(key)
                        if i is None:
                            i = ids[key] = len(occs)
                            occs.append(key)
                        flat += (i, re, im)
                row = rows[occ] = tuple(flat)
            it = iter(row)
            for i, cr, ci in zip(it, it, it):
                if ci:
                    vr, vi = ar * cr - ai * ci, ar * ci + ai * cr
                else:
                    vr, vi = ar * cr, ai * cr
                prev = get(i)
                out[i] = (vr, vi) if prev is None else (prev[0] + vr, prev[1] + vi)
    return FockState._of({occs[i]: c for i, c in out.items() if c[0] or c[1]}, psi.scale)


def casimir_check(
    nu: int,
    psi: FockState,
    group: CasimirGroup,
    convention: Convention = Convention.STANDARD,
):
    """Exact Rayleigh quotient <psi|C|psi> / <psi|psi>."""
    if psi.is_zero:
        raise LabelError("casimir_check needs a nonzero state")
    image = casimir_apply(nu, psi, group, convention)
    return rational(_real_dot(psi, image), _real_dot(psi, psi)) * image.scale / psi.scale


def is_exact_eigenstate(
    nu: int,
    psi: FockState,
    group: CasimirGroup,
    eigenvalue,
    convention: Convention = Convention.STANDARD,
) -> bool:
    """Termwise check C psi == eigenvalue * psi (exact, orbit by orbit).

    psi.times shares psi's integers, so no scaled copy of psi is made.
    """
    return casimir_apply(nu, psi, group, convention) == psi.times(rational(eigenvalue))


def _monomials(nu: int, cutoff: int):
    """All occupation tuples over nu+1 modes with total <= cutoff."""

    def rec(modes_left: int, budget: int):
        if modes_left == 1:
            for x in range(budget + 1):
                yield (x,)
            return
        for x in range(budget + 1):
            for rest in rec(modes_left - 1, budget - x):
                yield (x,) + rest

    yield from rec(nu + 1, cutoff)


def su11_commutator_check(nu: int, cutoff: int = 6) -> bool:
    """Quasi-spin commutators and pair-operator centralizer checks, symbolically.

    Verified exactly on every full-space occupation monomial with total
    boson number up to the cutoff: [Q+, Q-] = -2 Q0, [Q0, Q+-] = +-Q+-, the
    b-space pair creator commutes with all rotation generators, and the full
    pair creator commutes with rotation and mixing generators alike.  A single
    monomial is not symmetric under permutations of the modes 3..nu, so both
    sides are composed on it with `_product_on`, never held as a FockState.
    """
    check_dimension(nu)
    if cutoff < 0:
        raise LabelError(f"cutoff={cutoff} must be nonnegative")
    qp, qm, q0 = quasispin_plus(nu), quasispin_minus(nu), quasispin_zero(nu)
    rot, mix = _rotations(nu), _mixings(nu, False)
    pair_b = pair_creation_b(nu)
    pair_full = pair_creation_full(nu)
    one = BosonOperator([(1, 0, (), ())])

    def vanishes(occ: tuple, products) -> bool:
        """Whether the sum of sign * (a b)|occ> / (a.den b.den) over products (a, b, sign) is 0."""
        den = math.lcm(*(a.den * b.den for a, b, _ in products))
        out: dict = {}
        for a, b, sign in products:
            _product_on(a, b, occ, sign * den // (a.den * b.den), out)
        return not any(re or im for re, im in out.values())

    # each identity is a sum of (a, b, sign) products that must vanish
    identities = [
        ((qp, qm, 1), (qm, qp, -1), (q0, one, 2)),
        ((q0, qp, 1), (qp, q0, -1), (qp, one, -1)),
        ((q0, qm, 1), (qm, q0, -1), (qm, one, 1)),
    ]
    identities += [((p, g, 1), (g, p, -1)) for p, gens in ((pair_b, rot), (pair_full, rot + mix)) for g in gens]
    return all(vanishes(occ, products) for occ in _monomials(nu, cutoff) for products in identities)


def state_to_json(psi: FockState) -> list[dict]:
    """JSON-able dump: one record per monomial with rational-string coefficients."""
    scale = psi.scale
    return [
        {"occ": list(occ), "re": str(re * scale), "im": str(im * scale)}
        for occ, (re, im) in sorted(psi.terms.items())
    ]


# every cached function, collected at import below the last one: a module attribute
# rebound later (a tracing wrapper, a test's monkeypatch) cannot hide one from clear_caches
_CACHED = tuple(fn for fn in vars().values() if hasattr(fn, "cache_clear"))


def clear_caches() -> None:
    """Drop memoized states, shared values, orbit weights and sizes, Casimir rows and operators."""
    for fn in _CACHED:
        fn.cache_clear()
    for memo in (_SHARED, _WEIGHT, _SIZE, _ROWS):
        memo.clear()
