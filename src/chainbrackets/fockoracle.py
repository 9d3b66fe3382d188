"""Independent symbolic boson Fock-space oracle.

Both chains' basis states are constructed here from first principles: ladder
operators acting on a common seed, and exact kernel solving for the intrinsic
deformed states.  No closed form enters: of this package the module imports
only exactnum and labels, so overlaps of these states are the ground truth
against which every closed form is certified.

All arithmetic is exact and runs on Python ints; no floating point anywhere.
Modes 1 and 2 are b_+- = (b_1 +- i b_2)/sqrt(2).  Every state is built from
the seed b_+^dag^tau with SO(nu) scalars only, so each of its monomials has
n_+ - n_- = tau, and every operator here has integer coefficients (the
b-space pair is 2 b_+^dag b_-^dag + sum_{j>=3} b_j^dag^2).  So states and
operators are ints under one rational factor for the whole value,
`FockState` and `BosonOperator(terms, den)`; `FockState.view` and the
factors 2^tau of the norms turn them back into Cartesian values (see
FockState).  `apply` and the overlaps multiply integers and touch the scale
once per call; the only GaussianRational here is the real value `inner`
returns.  The intrinsic deformed states come from fraction-free (Bareiss)
elimination over the integers.  The two state builders are the ladders:
each state is cached once, in its builder, and is one `apply` from the
cached state below it.  The cached states share their keys and ints: each
distinct value is one object, the first one cached.  Each overlap is one
weighted integer dot, and one rule (`_signed_square`) turns it into the
(sign, square) pair that both `oracle_bracket` and `overlap_squares`
return.  No other module reads a state's integers or scale.  A memo that
outlives its object is a pure constructor under lru_cache or one of three
module dicts (_SHARED, _WEIGHT, _ROWS), and `clear_caches` empties them all.

The SO(nu) scalars also make every state symmetric under permutations of
the modes b_3..b_nu.  A FockState therefore stores one monomial per
permutation orbit (the representative, whose occ[3:] is non-increasing)
with d = c * |orbit|.  `apply` pushes each representative through an
operator that commutes with those permutations and sums the output
monomials into their representatives (the fold); the Casimir rows are folded
the same way.  An overlap is sum d d' prod occ_j! prod_v m_v! / (nu - 2)!
over the representatives, with m_v the multiplicities of the values in
occ[3:]; the division is exact.  The weight prod occ_j! prod_v m_v! is
memoized per key, one int each.  At nu <= 3 every orbit is one monomial
and `apply` folds nothing.  The full-space monomials exist only as the derived
views `FockState.pm_terms` and `FockState.view`; `su11_commutator_check`
composes operators on single full-space monomials with `_product_on`.
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
_SHARED: dict = {}  # the first cached object of each key and coefficient; see _shared
_WEIGHT: dict = {}  # prod occ_j! prod_v m_v! of each orbit representative occ; see _weight
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
    na, da = sa.numerator, sa.denominator
    nb, db = sb.numerator, sb.denominator
    g = math.gcd(na, nb)
    lcm = math.lcm(da, db)
    return na // g * (lcm // da), nb // g * (lcm // db)


def _nonzero(terms: dict) -> dict:
    return {occ: c for occ, c in terms.items() if c}


def _orbit_size(tail: tuple) -> int:
    """|orbit| = (nu - 2)! / prod_v m_v!, m_v the multiplicity of the value v in tail = rep[3:]."""
    return math.factorial(len(tail)) // math.prod(map(math.factorial, map(tail.count, set(tail))))


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
    """Sum each monomial's integer into its orbit's representative."""
    out: dict = {}
    for occ, c in terms.items():
        rep = occ[:3] + tuple(sorted(occ[3:], reverse=True))
        out[rep] = out.get(rep, 0) + c
    return out


@lru_cache(maxsize=None)
def _expansion(a: int, c: int) -> tuple[int, ...]:
    """The coefficient of x^(a+c-j) y^j in (x + y)^a (x - y)^c, for j = 0..a+c."""
    return tuple(
        sum(math.comb(a, j - q) * math.comb(c, q) * (-1) ** q for q in range(max(0, j - a), min(j, c) + 1))
        for j in range(a + c + 1)
    )


class FockState:
    """Finite linear combination of occupation monomials with exact coefficients.

    Keys are (nu+1)-tuples of occupation numbers of s, b_+, b_-, b_3..b_nu.
    Monomials are unnormalized products of creation operators on the vacuum,
    so <occ|occ> = prod occ_j!.  The coefficient of occ is c * scale: an int
    under one rational scale, as a BosonOperator is ints over one
    denominator.  The state stands for a Cartesian one with rational
    coefficients: b_+^dag acts as b_1^dag + i b_2^dag and b_-^dag as
    (b_1^dag - i b_2^dag)/2, so a monomial of helicity L = n_+ - n_- stands
    for 2^(L/2) times its image.  `view` gives that state, `inner` its inner
    product.

    A state is symmetric under permutations of the modes 3..nu, and is
    stored by orbit: `orbits` maps each orbit's representative (occ[3:]
    non-increasing) to d = c * |orbit|, a nonzero int divisible by |orbit|.
    `pm_terms` is the derived full-space view {occ: c}, one int per monomial.
    The constructor takes such full-space terms.  It raises LabelError
    unless every key has one length nu + 1 >= 3 and no negative entry, every
    coefficient is an int and the scale an int or a Fraction; it stores the
    scale as a Fraction, drops zeros (a zero scale gives the zero state, as
    times(0) does), and raises SymmetryError unless the terms are symmetric.
    Instances are treated as immutable and may share their dict; the cached
    states also share their keys and ints, one object per distinct value.
    """

    __slots__ = ("orbits", "scale")

    def __init__(self, terms: dict, scale=_ONE):
        lengths = {len(occ) for occ in terms}
        if len(lengths) > 1 or min(lengths, default=3) < 3 or any(min(occ) < 0 for occ in terms):
            raise LabelError("the keys must be occupation tuples of one length nu + 1 >= 3, none negative")
        if not all(isinstance(c, int) for c in terms.values()) or not isinstance(scale, (int, rational)):
            raise LabelError("the coefficients must be ints and the scale an int or a Fraction")
        terms = _nonzero(terms) if scale else {}
        self.orbits = _fold(terms)
        self.scale = rational(scale) if scale else _ONE
        # the folded orbits give back exactly the terms they came from iff those are symmetric
        if self.pm_terms != terms:
            raise SymmetryError("the terms are not symmetric under permutations of the modes 3..nu")

    @classmethod
    def _of(cls, orbits: dict, scale) -> "FockState":
        """The state stored as orbits, which must hold nonzero ints only."""
        psi = cls.__new__(cls)
        psi.orbits = orbits
        psi.scale = scale
        return psi

    @property
    def pm_terms(self) -> dict:
        """Full-space view {occ: c} in the b_+, b_- modes: every monomial's int, under the same scale."""
        out = {}
        for rep, d in self.orbits.items():
            tails = list(_arrangements(rep[3:]))  # |orbit| of them
            c = d // len(tails)
            head = rep[:3]
            for tail in tails:
                out[head + tail] = c
        return out

    def view(self) -> tuple[dict, object]:
        """(terms, scale): the Cartesian state with mode 2 beta_2 = -i b_2 (see state_to_json), ints under one scale.

        s^p b_+^a b_-^c x tail with int k stands for k 2^-c (b_1^dag + beta_2^dag)^a
        (b_1^dag - beta_2^dag)^c x tail: the ints carry 2^(m - c) and the scale
        is scale / 2^m, m the largest n_-.
        """
        m = max((occ[2] for occ in self.orbits), default=0)
        out: dict = {}
        for (p, a, c, *tail), k in self.pm_terms.items():
            for j, e in enumerate(_expansion(a, c)):
                if e:
                    key = (p, a + c - j, j, *tail)
                    out[key] = out.get(key, 0) + (k << m - c) * e
        return _nonzero(out), rational(self.scale, 1 << m) if m else self.scale

    @property
    def terms(self) -> dict:
        """The ints of view(), one per beta_2-basis monomial, under view()[1]."""
        return self.view()[0]

    @property
    def is_zero(self) -> bool:
        return not self.orbits

    def canonical(self) -> "FockState":
        """The same state with coprime full-space integers and a positive scale."""
        if not self.orbits:
            return self
        # |orbit| divides d, so d // |orbit| is the full-space int
        g = math.gcd(*(d // _orbit_size(occ[3:]) for occ, d in self.orbits.items()))
        if self.scale < 0:
            g = -g
        if g == 1:
            return self
        orbits = {occ: d // g for occ, d in self.orbits.items()}
        return FockState._of(orbits, self.scale * g)

    def times(self, scalar) -> "FockState":
        """Scale by an int or a Fraction, else LabelError; a nonzero scalar shares the integers."""
        if not isinstance(scalar, (int, rational)):
            raise LabelError("the scalar must be an int or a Fraction")
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
        for occ, d in a.items():
            o = b.get(occ)
            if o is None or d * ma != o * mb:
                return False
        return True

    def __hash__(self):
        c = self.canonical()
        return hash((frozenset(c.orbits.items()), c.scale if c.orbits else None))

    def __repr__(self) -> str:
        return f"FockState({len(self.orbits)} orbits)"


class BosonOperator:
    """Sum of normal-ordered creation/annihilation monomials over one denominator.

    Built from terms (c, cre, ann) and the positive integer den: the term acts
    as c / den * prod b_dag^cre * prod b^ann, with c an int and cre/ann
    sparse tuples of (mode, power) pairs; modes 1 and 2 are b_+ and b_-, as in FockState.
    `terms` holds, per nonzero term, (c, ann, moves): the int, the
    annihilated (mode, power) pairs and the net (mode, shift) of occupation
    numbers, sorted by mode.  Products of operators are evaluated by composing their
    actions (`apply` on states, `_product_on` on one monomial), never
    symbolically.
    """

    __slots__ = ("terms", "den", "invariant_at")

    def __init__(self, terms, den: int = 1):
        self.den = den
        self.invariant_at: dict = {}
        out = []
        for c, cre, ann in terms:
            if not c:
                continue
            shift = dict.fromkeys([mode for mode, _ in cre + ann], 0)
            for mode, power in ann:
                shift[mode] -= power
            for mode, power in cre:
                shift[mode] += power
            moves = tuple((mode, d) for mode, d in sorted(shift.items()) if d)
            out.append((c, tuple(ann), moves))
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
        top = max((mode for _, ann, moves in op.terms for mode, _ in ann + moves), default=0)
        if top > nu:
            raise LabelError(f"the operator needs nu >= {top}, the state has nu={nu}")

        def renamed(perm: dict) -> list:
            return sorted(
                (c, sorted((perm.get(m, m), p) for m, p in ann), sorted((perm.get(m, m), d) for m, d in moves))
                for c, ann, moves in op.terms
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
    for c, ann, moves in op.terms:
        fold = nu > 3 and moves and moves[-1][0] > 2
        for occ, x in items:
            factor = c
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
            out[occ] = get(occ, 0) + x * factor
    return FockState._of(_nonzero(out), psi.scale if op.den == 1 else psi.scale / op.den)


def _product_on(a: BosonOperator, b: BosonOperator, occ: tuple, sign: int, out: dict) -> None:
    """Add sign * (a b)|occ> into out, with the scale 1/(a.den b.den) left out.

    Composes the integer terms of b, then a, on the one full-space monomial
    occ; no intermediate state is built and nothing is folded.  out maps
    occupation tuples to ints and may be left holding zeros.
    """
    get = out.get
    perm = math.perm
    for cb, ann, moves in b.terms:
        factor = sign * cb
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
        for ca, ann_a, moves_a in a.terms:
            v = ca * factor
            for mode, power in ann_a:
                v *= perm(mid[mode], power)
            if not v:
                continue
            key = mid
            if moves_a:
                new = list(mid)
                for mode, d in moves_a:
                    new[mode] += d
                key = tuple(new)
            out[key] = get(key, 0) + v


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


def _dot(psi: FockState, phi: FockState) -> int:
    """The int dot with <psi|phi> = dot * psi.scale * phi.scale.

    No rational is formed.  Over the representatives,
    <psi|phi> = sum d d' w / (nu - 2)!, w = prod occ_j! prod_v m_v!,
    since |orbit| prod_v m_v! = (nu - 2)!; each term is divisible by
    (nu - 2)!.  Only the orbits that both states hold are weighed, each with
    its memoized w.  States of different nu raise LabelError.
    """
    a, b = psi.orbits, phi.orbits
    if not a or not b:
        return 0
    n, m = len(next(iter(a))), len(next(iter(b)))
    if n != m:
        raise LabelError(f"the states have different dimensions, nu={n - 1} and nu={m - 1}")
    get, weight = b.get, _WEIGHT.get
    total = 0
    for occ, x in a.items():
        y = get(occ)
        if y is not None:
            total += x * y * (weight(occ) or _weight(occ))
    if n > 4:
        total, rest = divmod(total, math.factorial(n - 3))
        if rest:
            raise KernelError("an orbit overlap is not divisible by (nu - 2)!")
    return total


def _helicity(psi: FockState) -> int:
    """n_+ - n_- of every monomial of psi, the tau of a built state; 0 for zero.  A mix raises LabelError."""
    found = {occ[1] - occ[2] for occ in psi.orbits}
    if len(found) > 1:
        raise LabelError("the state mixes helicities n_+ - n_-; a norm or a unit needs one")
    return found.pop() if found else 0


def inner(psi: FockState, phi: FockState) -> GaussianRational:
    """<psi|phi> of the Cartesian states psi and phi stand for (see FockState); its im is 0.

    Each helicity L's integer dot counts 2^L times.
    """
    parts: dict = {}
    for occ, x in psi.orbits.items():
        parts.setdefault(occ[1] - occ[2], {})[occ] = x
    total = sum(rational(2) ** L * _dot(FockState._of(part, 1), phi) for L, part in parts.items())
    return GaussianRational(total * psi.scale * phi.scale, rational(0))


# ---------------------------------------------------------------------------
# Operator constructors
# ---------------------------------------------------------------------------


def _pair(nu: int) -> list[tuple[int, tuple]]:
    """(c, (mode, power) pairs) of the b-space pair 2 b_+ b_- + sum_{j>=3} b_j^2, creators or annihilators alike."""
    return [(2, ((1, 1), (2, 1)))] + [(1, ((j, 2),)) for j in range(3, nu + 1)]


@lru_cache(maxsize=None)
def creation_power(mode: int, power: int) -> BosonOperator:
    """b_mode^dag^power; modes 1 and 2 are b_+ and b_-."""
    return BosonOperator([(1, ((mode, power),), ())])


@lru_cache(maxsize=None)
def pair_creation_b(nu: int) -> BosonOperator:
    """Sum of squared creation operators over the nu non-scalar modes: 2 b_+^dag b_-^dag + sum_{j>=3} b_j^dag^2."""
    return BosonOperator([(c, pw, ()) for c, pw in _pair(nu)])


@lru_cache(maxsize=None)
def pair_creation_full(nu: int, barred: bool = False) -> BosonOperator:
    """Scalar-squared plus (standard) or minus (barred) the b-space pair creator."""
    sign = -1 if barred else 1
    terms = [(1, ((0, 2),), ())]
    terms += [(sign * c, pw, ()) for c, pw in _pair(nu)]
    return BosonOperator(terms)


@lru_cache(maxsize=None)
def pair_annihilation_full(nu: int, barred: bool = False) -> BosonOperator:
    sign = -1 if barred else 1
    terms = [(1, (), ((0, 2),))]
    terms += [(sign * c, (), pw) for c, pw in _pair(nu)]
    return BosonOperator(terms)


@lru_cache(maxsize=None)
def number_operator(nu: int) -> BosonOperator:
    return BosonOperator([(1, ((j, 1),), ((j, 1),)) for j in range(nu + 1)])


@lru_cache(maxsize=None)
def b_number_operator(nu: int) -> BosonOperator:
    return BosonOperator([(1, ((j, 1),), ((j, 1),)) for j in range(1, nu + 1)])


@lru_cache(maxsize=None)
def s_number_operator(nu: int) -> BosonOperator:
    return BosonOperator([(1, ((0, 1),), ((0, 1),))])


@lru_cache(maxsize=None)
def pair_exchange_operator(nu: int) -> BosonOperator:
    """(1/2) sum_j (b_j^dag^2 s^2 + s^dag^2 b_j^2): moves one boson pair between s and the b space."""
    up = [(c, pw, ((0, 2),)) for c, pw in _pair(nu)]
    down = [(c, ((0, 2),), pw) for c, pw in _pair(nu)]
    return BosonOperator(up + down, den=2)


@lru_cache(maxsize=None)
def quasispin_plus(nu: int) -> BosonOperator:
    """Q+ = (1/2) sum_j b_j^dag^2."""
    return BosonOperator([(c, pw, ()) for c, pw in _pair(nu)], den=2)


@lru_cache(maxsize=None)
def quasispin_minus(nu: int) -> BosonOperator:
    """Q- = (1/2) sum_j b_j^2."""
    return BosonOperator([(c, (), pw) for c, pw in _pair(nu)], den=2)


@lru_cache(maxsize=None)
def quasispin_zero(nu: int) -> BosonOperator:
    """Q0 = (2 n_b + nu) / 4, with n_b the b-space boson count."""
    terms = [(2, ((j, 1),), ((j, 1),)) for j in range(1, nu + 1)]
    return BosonOperator(terms + [(nu, (), ())], den=4)


# ---------------------------------------------------------------------------
# State construction
# ---------------------------------------------------------------------------


def seed_state(nu: int, tau: int) -> FockState:
    """b_+^dag^tau on the vacuum: the common seniority-tau seed, the Cartesian (b_1^dag + i b_2^dag)^tau.

    Annihilated by the b-space pair annihilator 2 b_+ b_- + sum_{j>=3} b_j^2
    for every nu >= 2, because the direction vector (1, i, 0, ...) is null
    under the sum of squares.  Its one coefficient is 1.
    """
    check_dimension(nu)
    if tau < 0:
        raise LabelError(f"tau={tau} must be nonnegative")
    # modes 3..nu are empty: the monomial is its own orbit
    return FockState._of({(0, tau) + (0,) * (nu - 1): 1}, _ONE)


@dataclass(frozen=True)
class NormalizedState:
    """state / sqrt(norm_sq): an exactly unit-norm state in factored form.

    The raw FockState keeps exact integer coefficients under a rational
    scale (with the ladder phase already folded in); its exact Cartesian
    squared norm, 2^tau times its integer dot (see FockState), is carried
    alongside, so _real_norm_sq(state) / norm_sq == 1 without ever forming
    an irrational number.
    """

    state: FockState
    norm_sq: object

    @cached_property
    def unit(self) -> tuple[int, int, int]:
        """sign(scale) and the ints num, den with 2^L scale**2 / norm_sq = num / den, L the helicity; computed once."""
        a, b = self.state.scale.numerator, self.state.scale.denominator
        L = _helicity(self.state)
        num, den = a * a * self.norm_sq.denominator << max(L, 0), b * b * self.norm_sq.numerator << max(-L, 0)
        return (1 if a > 0 else -1), num, den


def _real_norm_sq(psi: FockState):
    """The Cartesian <psi|psi> of a state of one helicity L: 2^L times the integer dot, as one rational."""
    nsq = _dot(psi, psi)
    if nsq <= 0:
        raise KernelError("state unexpectedly has nonpositive norm")
    L = _helicity(psi)
    return rational(nsq * psi.scale.numerator**2 << max(L, 0), psi.scale.denominator**2 << max(-L, 0))


def _signed_square(dot: int, unit1: tuple, unit2: tuple) -> tuple:
    """(sign, square) of <1|2> / sqrt(<1|1> <2|2>), given the NormalizedState.unit of each.

    dot is the integer dot of two states of one helicity L, whose Cartesian
    overlap is <1|2> = 2^L dot s1 s2 with s1, s2 the states' scales, so the
    square is dot**2 (2^L s1**2 / norm_1) (2^L s2**2 / norm_2), one rational
    from integer products.
    """
    if not dot:
        return 0, rational(0)
    sign1, num1, den1 = unit1
    sign2, num2, den2 = unit2
    sign = sign1 * sign2 if dot > 0 else -sign1 * sign2
    return sign, rational(dot * dot * num1 * num2, den1 * den2)


def overlap_squares(bras: list[NormalizedState], kets: list[NormalizedState]) -> list[list[tuple]]:
    """(sign, square) of <bra_i|ket_j> for every pair, as oracle_bracket gives one."""
    kets = [(two.state, two.unit) for two in kets]
    block = []
    for one in bras:
        psi, unit = one.state, one.unit
        block.append([_signed_square(_dot(psi, phi), unit, u) for phi, u in kets])
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
    """psi with each key and int of its orbits replaced by the first equal one cached.

    Keys are tuples and coefficients ints, and no tuple equals an int, so one dict holds both.
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


def _kernel_ints(columns: list[dict]) -> list[int]:
    """Kernel vector of an integer matrix given column by column, as a list of ints.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968):
    with pivot p in column c and previous pivot p_prev, every other row r
    becomes (p * r - r[c] * pivot_row) / p_prev.  Every entry stays a minor
    of the matrix, so the division is exact, and at the end every pivot
    equals the last pivot d.  The free column's entry is d and pivot column
    c_r's entry is -(row r)[free], all integers.  A kernel of any dimension
    but 1 raises KernelError.
    """
    ncols = len(columns)
    keys = sorted(set().union(*columns))
    rows = [[col.get(k, 0) for col in columns] for k in keys]
    prev = 1
    pivot_cols: list[int] = []
    for col in range(ncols):
        rank = len(pivot_cols)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[col]
        kept = []
        for i, row in enumerate(rows):
            if i != rank:
                f = row[col]
                row = [divmod(p * x - f * y, prev) for x, y in zip(row, pivot_row)]
                if any(r for _, r in row):
                    raise KernelError("fraction-free elimination hit an inexact division")
                row = [q for q, _ in row]
                if i > rank and not any(row):
                    continue
            kept.append(row)
        rows = kept
        prev = p
        pivot_cols.append(col)
    free = [c for c in range(ncols) if c not in pivot_cols]
    if len(free) != 1:
        raise KernelError(f"pair-annihilation kernel has dimension {len(free)}, expected 1")
    f0 = free[0]
    vec = [0] * ncols
    vec[f0] = prev
    for r, col in enumerate(pivot_cols):
        vec[col] = -rows[r][f0]
    return vec


def _chain2_intrinsic(nu: int, sigma: int, t: int, barred: bool) -> FockState:
    """Unique sigma-boson seed-built state killed by the full pair annihilator.

    Solved by fraction-free elimination over the span of
    (scalar^p)(pair-creator^q) seed with p + 2q = sigma - t, each element one
    apply of s^dag^p onto the cached chain-I state at (t + 2q, t + 2q), and
    normalized so the span's first element (q = 0) has coefficient 1; the
    coefficient of the pure scalar-power-times-seed monomial must then be
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
    vec = _kernel_ints([apply(down, v).orbits for v in span])
    if not vec[0]:
        raise KernelError("kernel vector has no pure scalar-ladder component")
    out: dict = {}
    for c, v in zip(vec, span):
        for occ, d in v.orbits.items():
            out[occ] = out.get(occ, 0) + c * d
    # dividing by vec[0] makes span[0]'s coefficient 1
    state = FockState._of(_nonzero(out), span[0].scale / vec[0]).canonical()
    # canonical() makes the scale positive, so the phase shows in the integers;
    # the marker is an orbit of one monomial with occ_2 = 0, so its d is its coefficient
    marker = (sigma - t, t) + (0,) * (nu - 1)
    if state.orbits.get(marker, 0) <= 0:
        raise KernelError("phase fixing failed: leading coefficient not positive")
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
    return _signed_square(_dot(one.state, two.state), one.unit, two.unit)


# ---------------------------------------------------------------------------
# Casimir operators and structure checks
# ---------------------------------------------------------------------------


def _bilinear(*terms) -> BosonOperator:
    """sum c b_j^dag b_k over the given (c, j, k)."""
    return BosonOperator([(c, ((j, 1),), ((k, 1),)) for c, j, k in terms])


def _raising(k: int) -> tuple[BosonOperator, BosonOperator]:
    """X_k = b_+^dag b_k - b_k^dag b_- and Y_k = b_-^dag b_k - b_k^dag b_+; mode 0 is s."""
    return _bilinear((1, 1, k), (-1, k, 2)), _bilinear((1, 2, k), (-1, k, 1))


@lru_cache(maxsize=None)
def _rotations(nu: int) -> tuple[tuple[BosonOperator, BosonOperator, int], ...]:
    """(a, b, sign) with sum sign a b = C_SO(nu), the sum of the squared i(b_j^dag b_k - b_k^dag b_j).

    C_SO(nu) = (n_+ - n_-)**2 - sum_{k>=3} (X_k Y_k + Y_k X_k) - sum_{3<=j<k} E_jk**2,
    E_jk = b_j^dag b_k - b_k^dag b_j; the first factors a span the complexified so(nu).
    """
    h = _bilinear((1, 1, 1), (-1, 2, 2))
    out = [(h, h, 1)]
    for k in range(3, nu + 1):
        x, y = _raising(k)
        out += [(x, y, -1), (y, x, -1)]
    for j in range(3, nu + 1):
        for k in range(j + 1, nu + 1):
            e = _bilinear((1, j, k), (-1, k, j))
            out.append((e, e, -1))
    return tuple(out)


@lru_cache(maxsize=None)
def _mixings(nu: int, barred: bool) -> tuple[tuple[BosonOperator, BosonOperator, int], ...]:
    """(a, b, sign) of what SO(nu+1) adds to C_SO(nu): the squared mixings, 1 <= j <= nu.

    Standard, i(s^dag b_j - b_j^dag s): -(X_0 Y_0 + Y_0 X_0) - sum_{k>=3} E_0k**2.
    Barred, s^dag b_j + b_j^dag s: A B + B A + sum_{k>=3} D_k**2, with
    A = s^dag b_- + b_+^dag s, B = s^dag b_+ + b_-^dag s, D_k = s^dag b_k + b_k^dag s.
    """
    sign = 1 if barred else -1
    a, b = (_bilinear((1, 0, 2), (1, 1, 0)), _bilinear((1, 0, 1), (1, 2, 0))) if barred else _raising(0)
    squares = [_bilinear((1, 0, k), (sign, k, 0)) for k in range(3, nu + 1)]
    return ((a, b, sign), (b, a, sign)) + tuple((d, d, sign) for d in squares)


def casimir_apply(
    nu: int,
    psi: FockState,
    group: CasimirGroup,
    convention: Convention = Convention.STANDARD,
) -> FockState:
    """Quadratic Casimir (sum of squared generators) applied exactly to psi.

    C_SO(nu) sums the rotations' squares G**2; C_SO(nu+1) adds those of the
    mixings.  Both sums are written as sums of integer products sign * a b
    (see _rotations and _mixings, which build them once per nu).  _ROWS[nu]
    holds (ids, occs, tables): a numbering of orbit representatives,
    occs[ids[occ]] == occ, and tables[part] = rows, one dict per part, filled
    as psi's orbits meet them.  A part's generators must have integer
    coefficients, checked when its rows are created.  rows[rep] is the flat
    tuple (id_1, c_1, id_2, c_2, ...) of the nonzero integer coefficients of
    sum sign a b |rep>, composed with `_product_on` and folded into
    representatives.  No single product commutes with the permutations of
    the modes 3..nu, but the sum does, so the folded row is exact.  The SO(nu)
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
        gens = _rotations(nu) if part is None else _mixings(nu, part)
        rows = tables.get(part)
        if rows is None:
            if any(a.den != 1 or b.den != 1 for a, b, _ in gens):
                raise KernelError("a Casimir generator has non-integer coefficients")
            rows = tables[part] = {}
        for occ, d in psi.orbits.items():
            row = rows.get(occ)
            if row is None:
                acc: dict = {}
                for a, b, sign in gens:
                    _product_on(a, b, occ, sign, acc)
                flat = []
                for key, c in _fold(acc).items():
                    if c:
                        i = ids.get(key)
                        if i is None:
                            i = ids[key] = len(occs)
                            occs.append(key)
                        flat += (i, c)
                row = rows[occ] = tuple(flat)
            it = iter(row)
            for i, c in zip(it, it):
                out[i] = get(i, 0) + d * c
    return FockState._of({occs[i]: c for i, c in out.items() if c}, psi.scale)


def casimir_check(
    nu: int,
    psi: FockState,
    group: CasimirGroup,
    convention: Convention = Convention.STANDARD,
):
    """Exact Rayleigh quotient <psi|C|psi> / <psi|psi>, in the Cartesian inner product."""
    if psi.is_zero:
        raise LabelError("casimir_check needs a nonzero state")
    image = casimir_apply(nu, psi, group, convention)
    return inner(psi, image).re / inner(psi, psi).re


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
    for x in range(cutoff + 1):
        if nu:
            for rest in _monomials(nu - 1, cutoff - x):
                yield (x,) + rest
        else:
            yield (x,)


def su11_commutator_check(nu: int, cutoff: int = 6) -> bool:
    """Quasi-spin commutators and pair-operator centralizer checks, symbolically.

    Verified exactly on every full-space occupation monomial with total
    boson number up to the cutoff: [Q+, Q-] = -2 Q0, [Q0, Q+-] = +-Q+-, the
    b-space pair creator commutes with all rotation generators, and the full
    pair creator commutes with rotation and mixing generators alike, checked
    on the spanning sets that the first factors of the Casimir products form
    (n_+ - n_-, X_k, Y_k, E_jk; X_0, Y_0, E_0k).  A single monomial is not
    symmetric under permutations of the modes 3..nu, so both sides are
    composed on it with `_product_on`, never held as a FockState.
    """
    check_dimension(nu)
    if cutoff < 0:
        raise LabelError(f"cutoff={cutoff} must be nonnegative")
    qp, qm, q0 = quasispin_plus(nu), quasispin_minus(nu), quasispin_zero(nu)
    rot = [a for a, _, _ in _rotations(nu)]
    mix = [a for a, _, _ in _mixings(nu, False)]
    pair_b = pair_creation_b(nu)
    pair_full = pair_creation_full(nu)
    one = BosonOperator([(1, (), ())])

    def vanishes(occ: tuple, products) -> bool:
        """Whether the sum of sign * (a b)|occ> / (a.den b.den) over products (a, b, sign) is 0."""
        den = math.lcm(*(a.den * b.den for a, b, _ in products))
        out: dict = {}
        for a, b, sign in products:
            _product_on(a, b, occ, sign * den // (a.den * b.den), out)
        return not any(out.values())

    # each identity is a sum of (a, b, sign) products that must vanish
    identities = [
        ((qp, qm, 1), (qm, qp, -1), (q0, one, 2)),
        ((q0, qp, 1), (qp, q0, -1), (qp, one, -1)),
        ((q0, qm, 1), (qm, q0, -1), (qm, one, 1)),
    ]
    identities += [((p, g, 1), (g, p, -1)) for p, gens in ((pair_b, rot), (pair_full, rot + mix)) for g in gens]
    return all(vanishes(occ, products) for occ in _monomials(nu, cutoff) for products in identities)


def state_to_json(psi: FockState) -> list[dict]:
    """JSON-able dump of the Cartesian state: one record per monomial of b_1..b_nu with its complex coefficient.

    The beta_2-basis view c * scale (see FockState.view) times i^occ_2 is
    b_2's coefficient; the real and imaginary parts are rational strings, and
    i^occ_2 is 1, i, -1, -i as occ_2 % 4 is 0..3.
    """
    out = []
    terms, scale = psi.view()
    for occ, c in sorted(terms.items()):
        value = str(c * scale if occ[2] % 4 < 2 else -c * scale)
        re, im = ("0", value) if occ[2] % 2 else (value, "0")
        out.append({"occ": list(occ), "re": re, "im": im})
    return out


# every cached function, collected at import below the last one: a module attribute
# rebound later (a tracing wrapper, a test's monkeypatch) cannot hide one from clear_caches
_CACHED = tuple(fn for fn in vars().values() if hasattr(fn, "cache_clear"))


def clear_caches() -> None:
    """Drop memoized states, shared keys and ints, orbit weights, Casimir rows and operators."""
    for fn in _CACHED:
        fn.cache_clear()
    for memo in (_SHARED, _WEIGHT, _ROWS):
        memo.clear()
