"""The symbolic Fock-space oracle: states, operators, overlaps, structure checks."""

from __future__ import annotations

import ast
import hashlib
import json
import math
import random
from itertools import permutations, product
from pathlib import Path

import pytest

import fullspace
from chainbrackets import fockoracle

from chainbrackets.brackets import Convention, bracket, coeff_A, coeff_B
from chainbrackets.exactnum import GaussianRational, rational
from chainbrackets.fockoracle import (
    BosonOperator,
    CasimirGroup,
    FockState,
    KernelError,
    NormalizedState,
    SymmetryError,
    _bilinear,
    _chain2_intrinsic,
    _dot,
    _kernel_ints,
    _mixings,
    _monomials,
    _orbit_size,
    _product_on,
    _raising,
    _real_norm_sq,
    _rotations,
    apply,
    b_number_operator,
    build_chain1_state,
    build_chain2_state,
    casimir_apply,
    casimir_check,
    clear_caches,
    creation_power,
    inner,
    is_exact_eigenstate,
    number_operator,
    oracle_bracket,
    overlap_squares,
    pair_annihilation_full,
    pair_creation_b,
    pair_creation_full,
    pair_exchange_operator,
    quasispin_minus,
    quasispin_plus,
    quasispin_zero,
    s_number_operator,
    seed_state,
    state_to_json,
    su11_commutator_check,
)
from chainbrackets.labels import LabelError, bracket_index_set


def gr(re, im=0):
    """The GaussianRational re + i im, as inner returns it."""
    return GaussianRational(rational(re), rational(im))


def monomial(*occ):
    return FockState({tuple(occ): 1})


def _added(a, b):
    """Reference sum of two states, coefficient by coefficient, over the scale 1/(da db)."""
    sa, sb = a.scale, b.scale
    ma, mb = sa.numerator * sb.denominator, sb.numerator * sa.denominator
    terms = {occ: c * ma for occ, c in a.terms.items()}
    for occ, c in b.terms.items():
        terms[occ] = terms.get(occ, 0) + c * mb
    return FockState(terms, rational(1, sa.denominator * sb.denominator))


def test_apply_number_operator():
    psi = monomial(1, 2, 0)
    assert apply(number_operator(2), psi) == psi.times(3)


def test_apply_annihilates_empty_mode():
    op = BosonOperator([(1, (), ((1, 1),))])
    assert apply(op, monomial(2, 0, 1)).is_zero


def test_pair_creator_on_vacuum():
    out = apply(pair_creation_b(2), monomial(0, 0, 0))
    # b_1^dag^2 + b_2^dag^2 = 2 b_+^dag b_-^dag
    assert out == FockState({(0, 1, 1): 2})


def _ladder(psi, word):
    """Reference: the word of single-mode steps applied right to left to the dict occ -> (re, im).

    (j, 1) is b_j^dag, which raises occ_j; (j, -1) is b_j, which lowers occ_j
    with the factor occ_j, because the monomials carry no normalization.
    """
    for j, step in reversed(word):
        psi = {
            occ[:j] + (occ[j] + step,) + occ[j + 1 :]: c if step > 0 else (c[0] * occ[j], c[1] * occ[j])
            for occ, c in psi.items()
            if step > 0 or occ[j]
        }
    return psi


def _image(psi, formula):
    """The Cartesian formula [(coefficient, word), ...] applied to psi, a dict occ -> (re, im); zeros dropped."""
    out = {}
    for (cr, ci), word in formula:
        for key, (xr, xi) in _ladder(psi, word).items():
            r0, i0 = out.get(key, (0, 0))
            out[key] = (r0 + cr * xr - ci * xi, i0 + cr * xi + ci * xr)
    return {key: c for key, c in out.items() if c != (0, 0)}


def _times(c, d):
    """The product of two Gaussian rationals (re, im)."""
    return c[0] * d[0] - c[1] * d[1], c[0] * d[1] + c[1] * d[0]


def _power(p, choices):
    """The formula of (sum_i c_i b_{j_i}^dag)**p as its ordered words, for choices [(c_i, j_i), ...]."""
    out = []
    for pick in product(choices, repeat=p):
        c = (1, 0)
        for ci, _ in pick:
            c = _times(c, ci)
        out.append((c, tuple((j, 1) for _, j in pick)))
    return out


# b_+^dag acts as b_1^dag + i b_2^dag and b_-^dag as (b_1^dag - i b_2^dag)/2 (see FockState)
_PLUS = [((1, 0), 1), ((0, 1), 2)]
_MINUS = [((rational(1, 2), 0), 1), ((0, rational(-1, 2)), 2)]


def _cartesian(terms):
    """The Cartesian state, mode 2 being b_2, that the b_+- terms {occ: c} stand for, as occ -> (re, im)."""
    out = {}
    for occ, c in terms.items():
        image = {occ[:1] + (0, 0) + occ[3:]: (c, 0)}
        image = _image(_image(image, _power(occ[1], _PLUS)), _power(occ[2], _MINUS))
        for key, (re, im) in image.items():
            r0, i0 = out.get(key, (0, 0))
            out[key] = (r0 + re, i0 + im)
    return {key: c for key, c in out.items() if c != (0, 0)}


def _defining_formulas(nu):
    """(name, constructed operator, den, b_+- terms, [(coefficient, word), ...]) for every constructor at nu.

    Each coefficient is a Gaussian rational (re, im) and each word is
    Cartesian, in b_1 and b_2; the formula is their sum over den.
    creation_power(1, p) is (b_1^dag + i b_2^dag)**p and creation_power(2, p)
    is ((b_1^dag - i b_2^dag)/2)**p.  The b-space pairs, nu words each, are
    nu - 1 terms in the b_+- modes.
    """
    one = (1, 0)
    b = range(1, nu + 1)

    def dag(j, p=1):
        return ((j, 1),) * p

    def ann(j, p=1):
        return ((j, -1),) * p

    pair_b_dag = [dag(j, 2) for j in b]
    pair_b = [ann(j, 2) for j in b]
    n_b = [dag(j) + ann(j) for j in b]
    powers = {1: _PLUS, 2: _MINUS}
    cases = [
        (f"creation_power({m}, {p})", creation_power(m, p), 1, 1, _power(p, powers.get(m, [(one, m)])))
        for m in range(nu + 1)
        for p in (1, 2, 3)
    ]
    cases += [
        ("pair_creation_b", pair_creation_b(nu), 1, nu - 1, [(one, w) for w in pair_b_dag]),
        ("number_operator", number_operator(nu), 1, nu + 1, [(one, w) for w in [dag(0) + ann(0)] + n_b]),
        ("b_number_operator", b_number_operator(nu), 1, nu, [(one, w) for w in n_b]),
        ("s_number_operator", s_number_operator(nu), 1, 1, [(one, dag(0) + ann(0))]),
        (
            "pair_exchange_operator",
            pair_exchange_operator(nu),
            2,
            2 * nu - 2,
            [(one, w + ann(0, 2)) for w in pair_b_dag] + [(one, dag(0, 2) + w) for w in pair_b],
        ),
        ("quasispin_plus", quasispin_plus(nu), 2, nu - 1, [(one, w) for w in pair_b_dag]),
        ("quasispin_minus", quasispin_minus(nu), 2, nu - 1, [(one, w) for w in pair_b]),
        ("quasispin_zero", quasispin_zero(nu), 4, nu + 1, [((2, 0), w) for w in n_b] + [((nu, 0), ())]),
    ]
    for barred in (False, True):
        sign = (-1, 0) if barred else one
        cases += [
            (
                f"pair_creation_full(barred={barred})",
                pair_creation_full(nu, barred),
                1,
                nu,
                [(one, dag(0, 2))] + [(sign, w) for w in pair_b_dag],
            ),
            (
                f"pair_annihilation_full(barred={barred})",
                pair_annihilation_full(nu, barred),
                1,
                nu,
                [(one, ann(0, 2))] + [(sign, w) for w in pair_b],
            ),
        ]
    return cases


def _generator_formulas(nu):
    """(name, (a, b, sign) products, Cartesian formulas of the generators G) for each Casimir part at nu.

    The products' sum sign * a b must be the sum of the G**2.  The rotations
    are i(b_j^dag b_k - b_k^dag b_j); the mixings i(s^dag b_j - b_j^dag s)
    (standard) and s^dag b_j + b_j^dag s (barred).
    """
    i, minus_i, one = (0, 1), (0, -1), (1, 0)
    rotations = [(j, k, False) for j in range(1, nu + 1) for k in range(j + 1, nu + 1)]
    parts = [("_rotations", _rotations(nu), rotations)]
    for barred in (False, True):
        parts.append((f"_mixings(barred={barred})", _mixings(nu, barred), [(0, j, barred) for j in range(1, nu + 1)]))
    cases = []
    for name, products, pairs in parts:
        formulas = []
        for j, k, hermitian in pairs:
            up, down = ((j, 1), (k, -1)), ((k, 1), (j, -1))
            formulas.append([(one, up), (one, down)] if hermitian else [(i, up), (minus_i, down)])
        cases.append((name, products, formulas))
    return cases


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_every_operator_constructor_applies_its_defining_formula(nu):
    # each constructor against its Cartesian formula, through the Cartesian images of the
    # b_+- monomials; each Casimir part's products against the sum of its generators' squares
    cases = _defining_formulas(nu)
    for name, op, den, count, formula in cases:
        assert len(op.terms) == count, name
        assert op.den == den, name
    generators = _generator_formulas(nu)
    for name, products, formulas in generators:
        assert len(products) == len(formulas), name
        assert all(a.den == b.den == 1 and sign in (1, -1) for a, b, sign in products), name
    identity = BosonOperator([(1, (), ())])
    for occ in _monomials(nu, 4):
        start = _cartesian({occ: 1})
        for name, op, den, _, formula in cases:
            expected = _image(start, formula)
            # a single monomial is not symmetric in the modes 3..nu at nu >= 4, so the
            # operator acts on it in the full space, composed with the identity
            got = {}
            _product_on(op, identity, occ, 1, got)
            assert _cartesian(fullspace.nonzero(got)) == expected, (name, occ)
            if nu <= 3:
                assert apply(op, monomial(*occ)) == FockState(fullspace.nonzero(got), rational(1, den)), (name, occ)
        for name, products, formulas in generators:
            expected = {}
            for formula in formulas:
                for key, (re, im) in _image(_image(start, formula), formula).items():
                    r0, i0 = expected.get(key, (0, 0))
                    expected[key] = (r0 + re, i0 + im)
            got = {}
            for a, b, sign in products:
                _product_on(a, b, occ, sign, got)
            assert _cartesian(fullspace.nonzero(got)) == {k: c for k, c in expected.items() if c != (0, 0)}, (name, occ)


def test_inner_examples():
    vac = monomial(0, 0, 0)
    assert inner(vac, vac) == gr(1)
    two_s = apply(creation_power(0, 2), vac)
    assert inner(two_s, two_s) == gr(2)
    seed = seed_state(2, 1)
    assert inner(seed, seed) == gr(2)


def _cartesian_inner(psi, phi):
    """Reference: sum conj(x) y prod occ_j! over the Cartesian coefficients that state_to_json prints."""

    def view(state):
        return {tuple(r["occ"]): gr(rational(r["re"]), rational(r["im"])) for r in state_to_json(state)}

    bra, ket = view(psi), view(phi)
    total = gr(0)
    for occ, x in bra.items():
        if occ in ket:
            total = total + gr(x.re, -x.im) * ket[occ] * gr(math.prod(map(math.factorial, occ)))
    return total


def test_inner_conjugates_the_bra():
    # s^dag (b_+^dag / 2 - b_-^dag) = s^dag (b_1^dag + i b_2^dag - b_1^dag + i b_2^dag) / 2 = i s^dag b_2^dag:
    # the Cartesian coefficient is i, and <a|a> = conj(i) i = 1, from the helicities 1 and -1
    a = FockState({(1, 1, 0): 1, (1, 0, 1): -2}, rational(1, 2))
    assert state_to_json(a) == [{"occ": [1, 0, 1], "re": "0", "im": "1"}]
    assert inner(a, a) == _cartesian_inner(a, a) == gr(1)
    # a larger state on either side, with n_- = 0..3 and Cartesian occ_2 = 0..3: the bra stays conjugated
    big = FockState({(1, 0, 1): 1, (0, 1, 0): 2, (0, 1, 2): -3, (0, 0, 3): 5}, rational(1, 2))
    for bra, ket in ((big, a), (a, big), (big, big)):
        assert inner(bra, ket) == _cartesian_inner(bra, ket), (bra, ket)
    # each helicity L counts 2^L times: only s^dag b_-^dag (L = -1) is in both states
    assert inner(big, a) == inner(a, big) == gr(rational(1 * -2, 2 * 4))
    assert inner(big, big) == gr(rational(4 * (1 + 9 * 2) + 8 * 4 * 2 + 25 * 6, 8 * 4))


def test_seed_examples():
    assert seed_state(4, 0) == monomial(0, 0, 0, 0, 0)
    # b_+^dag^tau, whose view is (b_1^dag + beta_2^dag)^tau: the binomials
    assert seed_state(2, 1) == FockState({(0, 1, 0): 1})
    assert seed_state(2, 1).view() == ({(0, 1, 0): 1, (0, 0, 1): 1}, 1)
    assert seed_state(3, 2) == FockState({(0, 2, 0, 0): 1})
    assert seed_state(3, 2).view() == ({(0, 2, 0, 0): 1, (0, 1, 1, 0): 2, (0, 0, 2, 0): 1}, 1)


def test_seed_is_killed_by_pair_annihilator_and_carries_seniority():
    for nu in (2, 3, 5):
        for tau in range(5):
            seed = seed_state(nu, tau)
            assert apply(quasispin_minus(nu), seed).is_zero
            assert is_exact_eigenstate(nu, seed, CasimirGroup.SO_NU, tau * (tau + nu - 2))


def test_chain1_states():
    st = build_chain1_state(2, 2, 0, 0)
    assert st.state == FockState({(2, 0, 0): 1})
    assert st.norm_sq == 2
    st = build_chain1_state(2, 2, 2, 0)
    # -(b_1^dag^2 + b_2^dag^2) = -2 b_+^dag b_-^dag
    assert st.state == FockState({(0, 1, 1): -2})
    assert st.norm_sq == 4
    st = build_chain1_state(2, 1, 1, 1)
    assert st.state == seed_state(2, 1)
    assert _real_norm_sq(st.state) / st.norm_sq == 1


def test_chain1_eigenvalues():
    for nu in (2, 3):
        for N in range(5):
            for n in range(N + 1):
                for tau in range(n % 2, n + 1, 2):
                    st = build_chain1_state(nu, N, n, tau)
                    assert apply(number_operator(nu), st.state) == st.state.times(N)
                    assert apply(b_number_operator(nu), st.state) == st.state.times(n)
                    assert is_exact_eigenstate(
                        nu, st.state, CasimirGroup.SO_NU, tau * (tau + nu - 2)
                    )


def test_chain2_states_frozen():
    # -s^dag^2 - b_1^dag^2 - b_2^dag^2
    st = build_chain2_state(2, 2, 0, 0)
    assert st.state == FockState({(2, 0, 0): -1, (0, 1, 1): -2})
    assert st.norm_sq == 6
    st = build_chain2_state(2, 2, 2, 0)
    assert st.state == FockState({(2, 0, 0): 2, (0, 1, 1): -2}, rational(1, 2))
    assert st.norm_sq == 3
    st = build_chain2_state(3, 4, 4, 4)
    assert st.state == seed_state(3, 4)


def test_chain2_casimir_triple():
    for nu in (2, 3):
        for N in range(5):
            for sigma in range(N % 2, N + 1, 2):
                for tau in range(sigma + 1):
                    for conv in Convention:
                        st = build_chain2_state(nu, N, sigma, tau, conv)
                        assert apply(number_operator(nu), st.state) == st.state.times(N)
                        assert is_exact_eigenstate(
                            nu,
                            st.state,
                            CasimirGroup.SO_NU_PLUS_ONE,
                            sigma * (sigma + nu - 1),
                            conv,
                        )
                        assert is_exact_eigenstate(
                            nu, st.state, CasimirGroup.SO_NU, tau * (tau + nu - 2), conv
                        )


def test_casimir_check_examples():
    st = build_chain2_state(2, 2, 2, 0)
    assert casimir_check(2, st.state, CasimirGroup.SO_NU_PLUS_ONE) == 6
    assert casimir_check(3, seed_state(3, 2), CasimirGroup.SO_NU) == 6
    vac = monomial(0, 0, 0)
    assert casimir_check(2, vac, CasimirGroup.SO_NU) == 0
    assert casimir_check(2, vac, CasimirGroup.SO_NU_PLUS_ONE) == 0
    with pytest.raises(LabelError):
        casimir_check(2, FockState({}), CasimirGroup.SO_NU)


def test_states_within_a_chain_are_orthogonal():
    nu, N = 2, 4
    chain1 = [
        build_chain1_state(nu, N, n, tau)
        for n in range(N + 1)
        for tau in range(n % 2, n + 1, 2)
    ]
    for i, a in enumerate(chain1):
        for b in chain1[i + 1 :]:
            assert inner(a.state, b.state).is_zero
    chain2 = [
        build_chain2_state(nu, N, sigma, tau)
        for sigma in range(N % 2, N + 1, 2)
        for tau in range(sigma + 1)
    ]
    for i, a in enumerate(chain2):
        for b in chain2[i + 1 :]:
            assert inner(a.state, b.state).is_zero


def test_oracle_bracket_examples():
    assert oracle_bracket(2, 2, 0, 0, 0) == (-1, rational(1, 3))
    assert oracle_bracket(2, 2, 2, 2, 0) == (1, rational(1, 3))
    assert oracle_bracket(4, 3, 3, 3, 3) == (1, rational(1))


def test_oracle_matches_closed_form_sample():
    for nu in (2, 3):
        for N in range(5):
            for tau in range(N + 1):
                try:
                    ns, sigmas = bracket_index_set(nu, N, tau)
                except LabelError:
                    continue
                for n in ns:
                    for sigma in sigmas:
                        for conv in Convention:
                            closed = bracket(nu, N, n, sigma, tau, conv)
                            sign, square = oracle_bracket(nu, N, n, sigma, tau, conv)
                            assert (closed.sign, closed.radicand) == (sign, square)


def test_barred_oracle_sign_rule():
    nu, N, tau = 2, 4, 0
    ns, sigmas = bracket_index_set(nu, N, tau)
    for n in ns:
        for sigma in sigmas:
            std = oracle_bracket(nu, N, n, sigma, tau, Convention.STANDARD)
            bar = oracle_bracket(nu, N, n, sigma, tau, Convention.BARRED)
            flip = -1 if ((n - tau) // 2) % 2 else 1
            assert bar == (flip * std[0], std[1])


def test_su11_commutator_examples():
    assert su11_commutator_check(2, 6)
    assert su11_commutator_check(3, 6)
    assert su11_commutator_check(5, 4)


def test_nullspace_guards():
    # columns are integer maps occupation -> c
    a = {(1, 0): 1}
    # two zero columns: kernel is 2-dimensional, must be rejected
    with pytest.raises(KernelError):
        _kernel_ints([{}, {}])
    # independent columns: kernel is empty, must be rejected too
    with pytest.raises(KernelError):
        _kernel_ints([a, {(0, 1): 1}])
    # a one-dimensional kernel comes back as a list of integers
    assert _kernel_ints([a, {(1, 0): -1}]) == [1, 1]
    assert _kernel_ints([a, {(1, 0): 3}]) == [-3, 1]
    # rows (2, 1, 3) and (1, 3, 4): the second pivot's row is divided exactly by the first pivot, 2
    columns = [{(0, 1): 2, (1, 0): 1}, {(0, 1): 1, (1, 0): 3}, {(0, 1): 3, (1, 0): 4}]
    assert _kernel_ints(columns) == [-5, -5, 5]


def test_constructor_drops_zero_pairs_and_keeps_the_scale():
    terms = {
        (0, 1, 0): 21,
        (1, 0, 0): -126,
        (0, 0, 1): 30,
        (2, 0, 0): 0,
    }
    psi = FockState(terms, rational(1, 42))
    assert psi.pm_terms == {occ: c for occ, c in terms.items() if c != 0}
    assert len(psi.pm_terms) == 3
    assert psi.scale == rational(1, 42)
    assert (2, 0, 0) in terms  # the argument is not modified
    assert FockState(psi.pm_terms, psi.scale) == psi
    assert FockState(terms).scale == 1
    assert FockState({(0, 0, 0): 0}).is_zero
    assert not FockState({(0, 0, 0): -1}).is_zero


def test_constructor_refuses_malformed_keys():
    # keys of two lengths: the SO(2) check read the nu = 3 monomial as if it were of nu = 2
    mixed = {(0, 1, 0): 1, (0, 1, 0, 0): 1}
    with pytest.raises(LabelError, match="one length"):
        is_exact_eigenstate(2, FockState(mixed), CasimirGroup.SO_NU, 1)
    # a negative occupation: <psi|psi> read 1 and b_1^dag psi read the vacuum
    negative = {(0, -1, 0): 1}
    with pytest.raises(LabelError, match="none negative"):
        inner(FockState(negative), seed_state(2, 0))
    with pytest.raises(LabelError, match="none negative"):
        apply(creation_power(1, 1), FockState(negative))
    # a key shorter than nu + 1 = 3
    with pytest.raises(LabelError, match="nu \\+ 1 >= 3"):
        FockState({(1, 0): 1})
    # the malformed key is refused even when its coefficient is zero
    with pytest.raises(LabelError):
        FockState({(0, 0, 0): 1, (0, 0): 0})
    assert FockState({}).is_zero and FockState({(0, 0, 0, 0): 0}).is_zero


def test_constructor_refuses_non_integer_coefficients_and_scales():
    # a float coefficient read <psi|psi> = 5.0 and printed "2.0"; a float scale read the
    # overlap 0.010000000000000002; a half coefficient raised SymmetryError
    for terms, scale in (
        ({(0, 1, 0): 2.0, (0, 0, 1): 1}, rational(1)),
        ({(0, 1, 0): 1}, 0.1),
        ({(0, 1, 0): 0.5}, rational(1)),
        ({(0, 1, 0): rational(1, 2)}, rational(1)),
    ):
        with pytest.raises(LabelError, match="ints and the scale an int or a Fraction"):
            FockState(terms, scale)
    # an int scale is accepted, and so is a Fraction
    assert FockState({(0, 1, 0): 3}, 2) == FockState({(0, 1, 0): 6}) == FockState({(0, 1, 0): 12}, rational(1, 2))
    # the symmetry check reads the b_+- terms as given, not the view, whose keys differ
    psi = FockState({(0, 1, 1, 1, 0): 1, (0, 1, 1, 0, 1): 1})
    assert psi.orbits == {(0, 1, 1, 1, 0): 2} and set(psi.terms) != set(psi.pm_terms)
    with pytest.raises(SymmetryError):
        FockState({(0, 1, 0, 1, 0): 1, (0, 0, 1, 0, 1): 1})


def test_times_zero_and_negative_scalars():
    a = FockState({(1, 0, 0): 1, (0, 1, 0): 6}, rational(1, 2))
    assert a.times(0).is_zero
    assert a.times(rational(0)) == FockState({})
    assert a.times(-2) == FockState({(1, 0, 0): -1, (0, 1, 0): -6})
    assert a.times(rational(-1, 3)).times(-3) == a
    assert _added(a.times(-1), a).is_zero
    # a float scalar is refused, as the constructor refuses a float scale
    for scalar in (0.5, 2.0):
        with pytest.raises(LabelError, match="an int or a Fraction"):
            a.times(scalar)


def test_an_int_scale_stays_exact_through_apply():
    # an int scale over an operator's den made a float: inner read 36.0, state_to_json
    # raised TypeError at scale 2, and after Q0 it printed "8.75" while the unit and
    # the norm raised AttributeError
    psi = FockState({(0, 1, 0): 1}, 3)
    assert psi.scale == 3 and isinstance(psi.scale, rational)
    out = apply(quasispin_plus(2), psi)
    assert out.scale == rational(3, 2) and isinstance(out.scale, rational)
    assert inner(out, out).re == 36 and isinstance(inner(out, out).re, rational)
    assert state_to_json(apply(quasispin_plus(2), FockState({(0, 1, 0): 1}, 2))) == [
        {"occ": [0, 0, 3], "re": "0", "im": "1"},
        {"occ": [0, 1, 2], "re": "1", "im": "0"},
        {"occ": [0, 2, 1], "re": "0", "im": "1"},
        {"occ": [0, 3, 0], "re": "1", "im": "0"},
    ]
    # Q0 = (2 n_b + 3)/4 is 5/4 on b_+^dag: the Cartesian 35/4 (b_1^dag + i b_2^dag)
    out = apply(quasispin_zero(3), FockState({(0, 1, 0, 0): 1}, 7))
    assert out.scale == rational(7, 4)
    assert state_to_json(out) == [
        {"occ": [0, 0, 1, 0], "re": "0", "im": "35/4"},
        {"occ": [0, 1, 0, 0], "re": "35/4", "im": "0"},
    ]
    assert NormalizedState(out, 1).unit == (1, 98, 16)
    assert _real_norm_sq(out) == rational(1225, 8) == inner(out, out).re


def test_a_zero_scale_gives_the_zero_state():
    # a zero scale kept its terms: is_zero read False, the state differed from FockState({})
    # and hashed apart, state_to_json printed all-"0" records, the norm read 0 and
    # casimir_check divided by zero
    z = FockState({(0, 1, 0): 1}, 0)
    assert z.is_zero and z == FockState({}) and hash(z) == hash(FockState({}))
    assert z == FockState({(0, 1, 0): 1}, rational(0)) == FockState({(0, 1, 0): 1}).times(0)
    assert state_to_json(z) == []
    with pytest.raises(KernelError):
        _real_norm_sq(z)
    with pytest.raises(LabelError, match="nonzero state"):
        casimir_check(2, z, CasimirGroup.SO_NU)


def test_equal_representations_hash_alike():
    occ = (0, 1, 0)
    half_of_two = FockState({occ: 2}, rational(1, 2))
    one = FockState({occ: 1})
    minus_minus = FockState({occ: -3}, rational(-1, 3))
    assert half_of_two == one == minus_minus
    assert hash(half_of_two) == hash(one) == hash(minus_minus)
    assert half_of_two != one.times(2)
    two_terms = FockState({occ: 1, (1, 0, 0): -3}, rational(1, 2))
    assert two_terms == FockState({occ: -2, (1, 0, 0): 6}, rational(-1, 4))
    assert hash(two_terms) == hash(FockState({occ: -2, (1, 0, 0): 6}, rational(-1, 4)))
    assert hash(FockState({})) == hash(FockState({}).times(5))


def _kernel_by_fraction_gauss_jordan(images):
    """Reference: Gauss-Jordan elimination over the rationals, free entry 1."""
    ncols = len(images)
    columns = [(im.pm_terms, im.scale) for im in images]  # each full-space view built once
    keys = sorted(set().union(*(terms.keys() for terms, _ in columns)))
    rows = [[terms.get(k, 0) * scale for terms, scale in columns] for k in keys]
    pivot_of_col = {}
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivot_of_col[col] = rank
        rank += 1
    free = [c for c in range(ncols) if c not in pivot_of_col]
    assert len(free) == 1
    vec = [rational(0)] * ncols
    vec[free[0]] = rational(1)
    for col, r in pivot_of_col.items():
        vec[col] = -rows[r][free[0]]
    return vec


def _intrinsic_reference(nu, sigma, t, barred):
    span_by_q = [seed_state(nu, t)]
    for _ in range((sigma - t) // 2):
        span_by_q.append(apply(pair_creation_b(nu), span_by_q[-1]))
    span = []
    for q, base in enumerate(span_by_q):
        p = sigma - t - 2 * q
        span.append(apply(creation_power(0, p), base) if p else base)
    down = pair_annihilation_full(nu, barred)
    vec = _kernel_by_fraction_gauss_jordan([apply(down, v) for v in span])
    out = {}
    for c, v in zip(vec, span):
        weight = c / vec[0] * v.scale
        for occ, x in v.pm_terms.items():
            out[occ] = out.get(occ, 0) + weight * x
    # the rational coefficients as integers over their common denominator
    den = math.lcm(*(c.denominator for c in out.values()))
    terms = {occ: int(c * den) for occ, c in out.items()}
    return FockState(terms, rational(1, den))


def test_fraction_free_kernel_matches_fraction_gauss_jordan():
    for nu in (2, 3, 4):
        for sigma in range(9):
            for t in range(sigma + 1):
                for barred in (False, True):
                    state = _chain2_intrinsic(nu, sigma, t, barred)
                    expected = _intrinsic_reference(nu, sigma, t, barred)
                    assert state == expected, (nu, sigma, t, barred)
                    # the oracle keeps the canonical form: coprime integers, positive scale
                    canonical = expected.canonical()
                    assert (state.pm_terms, state.scale) == (canonical.pm_terms, canonical.scale)


def test_invalid_labels_rejected():
    with pytest.raises(LabelError):
        build_chain1_state(2, 2, 3, 0)
    with pytest.raises(LabelError):
        build_chain2_state(2, 2, 1, 0)
    with pytest.raises(LabelError):
        oracle_bracket(3, 2, 1, 2, -1)


def test_state_caches_are_keyed_on_the_canonical_label():
    build_chain2_state.cache_clear()
    build_chain1_state.cache_clear()
    calls = [
        build_chain2_state(2, 4, 2, 2),
        build_chain2_state(2, 4, 2, 2, Convention.STANDARD),
        build_chain2_state(2, 4, 2, 2, "standard"),
        build_chain2_state(2, 4, 2, 2, convention="standard"),
        build_chain2_state(2, 4, 2, -2),
    ]
    assert all(st is calls[0] for st in calls)
    info = build_chain2_state.cache_info()
    # the rung below, at N = 2, is its own entry, missed once on the way up
    assert (info.currsize, info.misses, info.hits) == (2, 2, 4)
    assert build_chain2_state(2, 4, 2, -2, "barred") is build_chain2_state(2, 4, 2, 2, Convention.BARRED)
    assert build_chain2_state(2, 4, 2, 2, "barred") is not calls[0]
    assert build_chain1_state(2, 4, 2, -2) is build_chain1_state(2, 4, 2, 2)
    # (4, 2, 2) is s^dag^2 on its own entry at (2, 2, 2), the seed
    assert build_chain1_state.cache_info().currsize == 2
    # the signed label is validated before the cache sees |tau|
    with pytest.raises(LabelError):
        build_chain2_state(3, 4, 2, -2)
    with pytest.raises(LabelError):
        build_chain1_state(3, 4, 2, -2)


def test_state_to_json():
    dump = state_to_json(seed_state(2, 1))
    assert dump == [
        {"occ": [0, 0, 1], "re": "0", "im": "1"},
        {"occ": [0, 1, 0], "re": "1", "im": "0"},
    ]
    # each part is the view's integer times its scale times i^occ_2, as one rational string:
    # s^(3-c) b_-^dag^c stands for s^(3-c) 2^-c (b_1^dag - beta_2^dag)^c, and beta_2^dag = i b_2^dag
    psi = FockState({(3, 0, 0): 2, (2, 0, 1): 3, (1, 0, 2): -5, (0, 0, 3): 7}, rational(-2, 3))
    assert psi.view() == (
        {
            (3, 0, 0): 16,
            (2, 1, 0): 12,
            (2, 0, 1): -12,
            (1, 2, 0): -10,
            (1, 1, 1): 20,
            (1, 0, 2): -10,
            (0, 3, 0): 7,
            (0, 2, 1): -21,
            (0, 1, 2): 21,
            (0, 0, 3): -7,
        },
        rational(-1, 12),
    )
    assert state_to_json(psi) == [
        {"occ": [0, 0, 3], "re": "0", "im": "-7/12"},
        {"occ": [0, 1, 2], "re": "7/4", "im": "0"},
        {"occ": [0, 2, 1], "re": "0", "im": "7/4"},
        {"occ": [0, 3, 0], "re": "-7/12", "im": "0"},
        {"occ": [1, 0, 2], "re": "-5/6", "im": "0"},
        {"occ": [1, 1, 1], "re": "0", "im": "-5/3"},
        {"occ": [1, 2, 0], "re": "5/6", "im": "0"},
        {"occ": [2, 0, 1], "re": "0", "im": "1"},
        {"occ": [2, 1, 0], "re": "-1", "im": "0"},
        {"occ": [3, 0, 0], "re": "-4/3", "im": "0"},
    ]


def _casimir_by_definition(nu, psi, group, convention):
    """Sum over the Casimir products of sign * a(b psi), each step a full-space reference apply.

    No single product commutes with the permutations of the modes 3..nu,
    so the steps run on psi's full-space terms; the sum is symmetric again.
    """
    out = {}
    terms = psi.pm_terms
    gens = _rotations(nu)
    if group is CasimirGroup.SO_NU_PLUS_ONE:
        gens += _mixings(nu, convention is Convention.BARRED)
    for a, b, sign in gens:
        for occ, c in fullspace.apply(a, fullspace.apply(b, terms)).items():
            out[occ] = out.get(occ, 0) + sign * c
    return FockState(out, psi.scale)


def _casimir_cases(nu):
    """Eigenstates, seeds, non-eigenstates and random symmetric superpositions at dimension nu."""
    cases = [seed_state(nu, tau) for tau in range(4)]
    cases += [
        build_chain2_state(nu, N, sigma, tau, conv).state
        for N in (3, 4)
        for sigma in range(N % 2, N + 1, 2)
        for tau in sorted({0, min(sigma, 1), sigma})
        for conv in Convention
    ]
    # chain-1 states with scalar bosons mix several sigma: not SO(nu+1) eigenstates
    cases += [
        build_chain1_state(nu, N, n, tau).state
        for N, n, tau in ((2, 0, 0), (4, 2, 0), (4, 2, 2), (3, 1, 1))
    ]
    rng = random.Random(nu)
    for _ in range(3):
        terms = {}
        while len(terms) < 8:
            occ = tuple(rng.randrange(3) for _ in range(nu + 1))
            c = rng.choice((-1, 1)) * rng.randint(1, 9)
            # every ordering of occ[3:] alike, so the state is symmetric in the modes 3..nu
            terms.update(dict.fromkeys((occ[:3] + tail for tail in permutations(occ[3:])), c))
        cases.append(FockState(terms, rational(rng.randint(2, 7), rng.randint(8, 13))))
    return cases


@pytest.mark.parametrize("nu", [2, 3, 4, 5])
def test_casimir_apply_equals_the_sum_of_squared_generators(nu):
    cases = _casimir_cases(nu)
    assert len({sum(occ) for occ in cases[-1].pm_terms}) > 1 and cases[-1].scale != 1
    for psi in cases:
        for group in CasimirGroup:
            for conv in Convention:
                expected = _casimir_by_definition(nu, psi, group, conv)
                clear_caches()
                assert casimir_apply(nu, psi, group, conv) == expected  # cold rows
                assert casimir_apply(nu, psi, group, conv) == expected  # warm rows
                assert casimir_apply(nu, psi, group, conv.value) == expected


def test_casimir_row_memo_is_shared_and_cleared(cold_caches):
    psi = build_chain2_state(3, 4, 2, 1, Convention.BARRED).state
    casimir_apply(3, psi, CasimirGroup.SO_NU_PLUS_ONE, Convention.BARRED)
    ids, occs, tables = fockoracle._ROWS[3]
    rotations, mixings = tables[None], tables[True]
    assert set(rotations) == set(mixings) == set(psi.pm_terms)
    # SO(nu) has no convention: the barred check filled the rows the standard one reads
    casimir_apply(3, psi, CasimirGroup.SO_NU, Convention.STANDARD)
    assert list(fockoracle._ROWS) == [3] and set(tables) == {None, True}
    assert set(occs) >= set(psi.pm_terms) and [ids[occ] for occ in occs] == list(range(len(occs)))
    clear_caches()
    assert not fockoracle._ROWS
    assert _rotations.cache_info().currsize == _mixings.cache_info().currsize == 0
    assert creation_power.cache_info().currsize == 0


@pytest.fixture
def cold_caches():
    """Start cold, and drop on the way out whatever rows a patched generator left."""
    clear_caches()
    yield
    clear_caches()


def test_casimir_row_memo_carries_each_generator_sign(monkeypatch, cold_caches):
    # a product (a, b, -1) enters the rows as -a b, b acting first:
    # a = b_+^dag b_3 - b_3^dag b_+ + s^dag b_+ + b_+^dag s, b = b_-^dag b_3 - b_3^dag b_+
    g = BosonOperator(
        [
            (1, ((1, 1),), ((3, 1),)),
            (-1, ((3, 1),), ((1, 1),)),
            (1, ((0, 1),), ((1, 1),)),
            (1, ((1, 1),), ((0, 1),)),
        ]
    )
    h = _raising(3)[1]
    psi = _casimir_cases(3)[-1]
    expected = apply(g, apply(h, psi)).times(-1)
    assert not expected.is_zero and expected != apply(h, apply(g, psi)).times(-1)
    monkeypatch.setattr(fockoracle, "_rotations", lambda nu: ((g, h, -1),))
    assert casimir_apply(3, psi, CasimirGroup.SO_NU) == expected
    assert casimir_apply(3, psi, CasimirGroup.SO_NU) == expected


def test_casimir_rejects_a_generator_with_a_denominator(monkeypatch, cold_caches):
    # (1/2)(b_+^dag b_- + b_-^dag b_+), squared
    half = BosonOperator([(1, ((1, 1),), ((2, 1),)), (1, ((2, 1),), ((1, 1),))], den=2)
    monkeypatch.setattr(fockoracle, "_rotations", lambda nu: ((half, half, 1),))
    with pytest.raises(KernelError):
        casimir_apply(3, seed_state(3, 1), CasimirGroup.SO_NU)


def test_eigenstate_check_catches_wrong_eigenvalues_and_non_eigenstates():
    nu = 3
    st = build_chain2_state(nu, 4, 2, 1, Convention.BARRED).state
    so_nu1, so_nu = CasimirGroup.SO_NU_PLUS_ONE, CasimirGroup.SO_NU
    assert is_exact_eigenstate(nu, st, so_nu1, 2 * (2 + nu - 1), "barred")
    assert not is_exact_eigenstate(nu, st, so_nu1, 2 * (2 + nu - 1) + 1, "barred")
    assert not is_exact_eigenstate(nu, st, so_nu1, 2 * (2 + nu - 1))  # wrong convention
    assert not is_exact_eigenstate(nu, st, so_nu, 0, "barred")
    mixed = build_chain1_state(nu, 4, 2, 0).state
    assert is_exact_eigenstate(nu, mixed, so_nu, 0)
    for sigma in range(5):
        assert not is_exact_eigenstate(nu, mixed, so_nu1, sigma * (sigma + nu - 1))


def test_product_on_equals_composed_apply():
    nu = 3
    ops = [
        quasispin_plus(nu),
        quasispin_minus(nu),
        quasispin_zero(nu),
        _raising(3)[0],
        _raising(0)[1],
        _mixings(nu, True)[0][0],
        pair_creation_full(nu, barred=True),
        pair_exchange_operator(nu),
    ]
    for occ in ((0, 0, 0, 0), (2, 1, 0, 3), (1, 2, 2, 1), (4, 0, 1, 0)):
        m = FockState({occ: 1})
        for a in ops:
            for b in ops:
                out = {}
                _product_on(a, b, occ, -1, out)
                got = FockState(out, rational(-1, a.den * b.den))
                assert got == apply(a, apply(b, m))


def _wrong_quasispin_zero(nu):
    """Q0 without its nu/4 shift: [Q+, Q-] = -2 Q0 no longer holds."""
    return BosonOperator([(1, ((j, 1),), ((j, 1),)) for j in range(1, nu + 1)], den=2)


def _wrong_quasispin_plus(nu):
    """Q+ without its factor 1/2."""
    return pair_creation_b(nu)


def _wrong_pair_creator(nu, barred=False):
    """Full pair creator with the barred sign: commutes with rotations, not with the mixings."""
    return pair_creation_full(nu, not barred)


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("quasispin_zero", _wrong_quasispin_zero),
        ("quasispin_plus", _wrong_quasispin_plus),
        ("pair_creation_full", _wrong_pair_creator),
    ],
)
def test_su11_check_catches_a_wrong_operator(monkeypatch, name, wrong):
    for nu in (3, 5):
        assert su11_commutator_check(nu, 2)
    monkeypatch.setattr(fockoracle, name, wrong)
    for nu in (3, 5):
        assert not su11_commutator_check(nu, 2)


def _oracle_bracket_by_fractions(nu, N, n, sigma, tau, conv):
    """Reference: inner products as GaussianRationals, then Fraction arithmetic."""
    one = build_chain1_state(nu, N, n, tau).state
    two = build_chain2_state(nu, N, sigma, tau, conv).state
    overlap = inner(one, two)
    assert overlap.im == 0
    if not overlap.re:
        return 0, rational(0)
    square = overlap.re**2 / (inner(one, one).re * inner(two, two).re)
    return (1 if overlap.re > 0 else -1), square


def _bracket_blocks(nu_max, n_max):
    """Every (nu, N, tau, ns, sigmas) with nu <= nu_max, N <= n_max; signed tau at nu = 2."""
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for tau in range(-N if nu == 2 else 0, N + 1):
                yield (nu, N, tau) + bracket_index_set(nu, N, tau)


def test_coeff_B_is_the_ratio_of_chain1_ladder_norms():
    # B**2 normalizes the pair ladder on the seed: <seed|seed> / <(n, n)|(n, n)>
    checks = 0
    for nu in range(2, 7):
        for t in range(11):
            seed_norm_sq = build_chain1_state(nu, t, t, t).norm_sq
            for n in range(t, 11, 2):
                ladder_norm_sq = build_chain1_state(nu, n, n, t).norm_sq
                assert coeff_B(nu, n, t).radicand == seed_norm_sq / ladder_norm_sq, (nu, n, t)
                checks += 1
    assert checks == 180


def test_coeff_A_is_the_ratio_of_chain2_ladder_norms():
    # A**2 normalizes the full pair ladder on the intrinsic state, in either convention
    checks = 0
    for nu, N, tau, _, sigmas in _bracket_blocks(5, 8):
        if tau < 0:
            continue
        for sigma in sigmas:
            for conv in Convention:
                ratio = (
                    build_chain2_state(nu, sigma, sigma, tau, conv).norm_sq
                    / build_chain2_state(nu, N, sigma, tau, conv).norm_sq
                )
                assert coeff_A(nu, N, sigma).radicand == ratio, (nu, N, sigma, tau, conv)
                checks += 1
    assert checks == 760


def _state_digest_labels():
    """Chain-I labels at every n, then chain-II at every sigma in both conventions, block by block."""
    for nu, N, tau, ns, sigmas in _bracket_blocks(5, 8):
        for n in ns:
            yield ("I", nu, N, n, tau)
        for sigma in sigmas:
            for conv in Convention:
                yield ("II", nu, N, sigma, tau, conv.value)


def test_every_oracle_state_is_pinned(cold_caches):
    # one digest over each state's exact coefficients and squared norm, built from
    # cold caches; a change of representation or of construction order must leave
    # every value unchanged
    digest = hashlib.sha256()
    count = 0
    for label in _state_digest_labels():
        build = build_chain1_state if label[0] == "I" else build_chain2_state
        st = build(*label[1:])
        digest.update(json.dumps([label, state_to_json(st.state), str(st.norm_sq)]).encode())
        count += 1
    assert count == 1350
    assert digest.hexdigest() == "75e08203b1c75391f87951fe8c81033779bd82fa7d512a9ef3e9798628929ff9"


def test_cached_states_share_each_key_and_pair(cold_caches):
    # equal keys and equal ints of the cached states are one object each;
    # the sharing changes no value, so a state rebuilt cold compares and hashes alike
    def build(label):
        return (build_chain1_state if label[0] == "I" else build_chain2_state)(*label[1:]).state

    states = {label: build(label) for label in _state_digest_labels()}
    keys = [occ for psi in states.values() for occ in psi.orbits]
    ints = [c for psi in states.values() for c in psi.orbits.values()]
    for values in (keys, ints):
        assert len({id(v) for v in values}) == len(set(values)) < len(values)
    clear_caches()
    assert not fockoracle._SHARED
    for label, psi in states.items():
        rebuilt = build(label)
        assert rebuilt == psi and hash(rebuilt) == hash(psi), label


def test_weight_memo_holds_one_exact_int_per_key(cold_caches):
    # every chain state at nu <= 6, N <= 8 and every bracket between them fill the memo;
    # each entry and each orbit size is checked against a count written here, and a
    # cold rebuild changes nothing
    states = []

    def brackets():
        out = {}
        for nu, N, tau, ns, sigmas in _bracket_blocks(6, 8):
            for n in ns:
                states.append(build_chain1_state(nu, N, n, tau).state)
            for sigma in sigmas:
                for conv in Convention:
                    states.append(build_chain2_state(nu, N, sigma, tau, conv).state)
                    for n in ns:
                        out[nu, N, n, sigma, tau, conv] = oracle_bracket(nu, N, n, sigma, tau, conv)
        return out

    first = brackets()
    weights = fockoracle._WEIGHT
    assert weights
    for occ, w in weights.items():
        tail = occ[3:]
        assert w == math.prod(math.factorial(x) for x in occ) * math.prod(
            math.factorial(tail.count(v)) for v in set(tail)
        ), occ
        # the memo keeps the cached states' own keys, no copies
        assert fockoracle._SHARED[occ] is occ
    # some tail holds a run of three equal values, so a run factor above 2 is checked
    assert any(len(occ) > 6 and occ[4] == occ[5] == occ[6] for occ in weights)
    # |orbit| as canonical() computes it and as pm_terms enumerates it
    sizes = {occ[3:]: _orbit_size(occ[3:]) for psi in states for occ in psi.orbits}
    for tail, size in sizes.items():
        assert size == len(set(permutations(tail))), tail
    assert any(size > 1 for size in sizes.values())
    for psi in states:
        terms = psi.pm_terms
        assert len(terms) == sum(sizes[occ[3:]] for occ in psi.orbits)
        assert all(terms[occ] * sizes[occ[3:]] == d for occ, d in psi.orbits.items())
    clear_caches()
    assert not weights
    assert brackets() == first


def test_oracle_bracket_equals_the_fraction_reference():
    zeros = 0
    for nu, N, tau, ns, sigmas in _bracket_blocks(4, 8):
        for conv in Convention:
            # the whole d x d block of chain-I bras against chain-II kets, as the transform takes it
            block = overlap_squares(
                [build_chain1_state(nu, N, n, tau) for n in ns],
                [build_chain2_state(nu, N, sigma, tau, conv) for sigma in sigmas],
            )
            for n, row in zip(ns, block):
                for sigma, in_block in zip(sigmas, row):
                    got = oracle_bracket(nu, N, n, sigma, tau, conv)
                    assert got == in_block == _oracle_bracket_by_fractions(nu, N, n, sigma, tau, conv)
                    assert type(got[1]) is type(in_block[1]) is type(rational(1))
                    zeros += got[0] == 0
    assert zeros > 0


def test_integer_dot_carries_the_scales():
    # states of helicity 2, whose Cartesian inner product is 2**2 times the dot
    a = FockState({(0, 2, 0): 9, (1, 3, 1): 2}, rational(1, 6))
    b = FockState({(0, 2, 0): -2, (1, 3, 1): 4, (0, 4, 2): 7})
    for bra, ket in ((a, b), (b, a), (a, a)):
        dot = _dot(bra, ket)
        scale = bra.scale * ket.scale
        assert inner(bra, ket) == gr(4 * dot * scale)
    # a multiple of b keeps b's integers and carries the factor in its scale;
    # the dot taken with a cold weight memo equals the dot taken again with a warm one
    scaled_b = b.times(rational(-5, 3))
    clear_caches()
    dot = _dot(scaled_b, b)
    assert fockoracle._WEIGHT
    assert _dot(scaled_b, b) == dot == 4 * 2 + 16 * 3 * 2 + 49 * 24 * 2


def test_states_of_different_nu_have_no_inner_product():
    # keys of different lengths never meet, so the dot would read a silent 0
    pairs = (
        (3, seed_state(3, 1), 4, seed_state(4, 1)),
        (4, build_chain1_state(4, 2, 2, 0).state, 5, build_chain1_state(5, 2, 2, 0).state),
    )
    for nu, psi, mu, phi in pairs:
        for bra, ket, match in ((psi, phi, f"nu={nu} and nu={mu}"), (phi, psi, f"nu={mu} and nu={nu}")):
            with pytest.raises(LabelError, match=match):
                inner(bra, ket)
            with pytest.raises(LabelError, match=match):
                _dot(bra, ket)
    # the zero state has no dimension and overlaps every state in 0
    assert inner(FockState({}), seed_state(4, 1)) == inner(seed_state(3, 1), FockState({})) == gr(0)


def test_casimir_functions_refuse_a_state_of_another_nu():
    # a nu = 4 seed passed the SO(3) check, and read the SO(3) value 2 for its SO(4) value 3
    assert casimir_check(4, seed_state(4, 1), CasimirGroup.SO_NU) == 3
    cases = (
        (3, seed_state(4, 1), CasimirGroup.SO_NU, "nu=4, not nu=3"),
        (5, seed_state(3, 1), CasimirGroup.SO_NU_PLUS_ONE, "nu=3, not nu=5"),
        (4, build_chain2_state(5, 2, 2, 0).state, CasimirGroup.SO_NU_PLUS_ONE, "nu=5, not nu=4"),
    )
    for nu, psi, group, match in cases:
        with pytest.raises(LabelError, match=match):
            casimir_apply(nu, psi, group)
        with pytest.raises(LabelError, match=match):
            casimir_check(nu, psi, group)
        with pytest.raises(LabelError, match=match):
            is_exact_eigenstate(nu, psi, group, 0, Convention.STANDARD)
    # the zero state has no dimension, and its image is zero
    assert casimir_apply(3, FockState({}), CasimirGroup.SO_NU_PLUS_ONE).is_zero


def test_apply_refuses_an_operator_beyond_the_state_modes():
    cases = (
        (pair_creation_b(5), seed_state(3, 1), "nu >= 5, the state has nu=3"),
        (number_operator(3), seed_state(2, 0), "nu >= 3, the state has nu=2"),
        (_bilinear((1, 1, 6), (-1, 6, 1)), build_chain1_state(4, 2, 2, 0).state, "nu >= 6, the state has nu=4"),
    )
    for op, psi, match in cases:
        with pytest.raises(LabelError, match=match):
            apply(op, psi)
        # a zero state gives a zero result, whatever op's modes
        assert apply(op, FockState({})).is_zero
    # an operator on fewer modes acts, and the decision is memoized on the operator once per nu
    op = pair_creation_b(2)
    assert not apply(op, seed_state(3, 1)).is_zero and op.invariant_at[3] is True


def test_clear_caches_collects_every_cached_function_at_import(monkeypatch):
    tree = ast.parse(Path(fockoracle.__file__).read_text(encoding="utf-8"))

    def decorator_names(node):
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            yield target.id if isinstance(target, ast.Name) else None

    cached = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and {"lru_cache", "_cached_on"} & set(decorator_names(node))
    }
    assert {"build_chain1_state", "_rotations", "_mixings", "quasispin_zero"} <= cached
    assert sorted(fn.__name__ for fn in fockoracle._CACHED) == sorted(cached)
    # collected at import: a module attribute rebound later hides no cache from clear_caches
    _rotations(3)
    monkeypatch.setattr(fockoracle, "_rotations", lambda nu: ())
    clear_caches()
    assert _rotations.cache_info().currsize == 0


def test_real_norm_sq_equals_the_inner_product():
    psi = build_chain2_state(3, 5, 3, 1, Convention.BARRED).state
    # one helicity, 1, so the Cartesian norm is twice the dot
    other = FockState({(0, 1, 0, 0): 14, (0, 2, 1, 0): -15, (2, 1, 0, 1): 63}, rational(1, 21))
    cases = (psi, psi.times(-1), psi.times(rational(7, 4)), other, other.times(-3))
    assert all(state.scale != 1 for state in cases)
    assert any(state.scale < 0 for state in cases)
    for state in cases:
        assert _real_norm_sq(state) == inner(state, state).re
    with pytest.raises(KernelError):
        _real_norm_sq(FockState({}))
    # a norm or a unit weighs the dot by 2^L for one helicity L; a mix is refused, not misread
    mixed = FockState({(0, 1, 0, 0): 1, (0, 0, 1, 0): 1})
    with pytest.raises(LabelError, match="mixes helicities"):
        _real_norm_sq(mixed)
    with pytest.raises(LabelError, match="mixes helicities"):
        NormalizedState(mixed, 1).unit


def _ladder_references(nu, n_max):
    """Both chains' raw states built from their starts, keyed by label, phase applied last."""
    chain1, chain2 = {}, {}
    for t in range(n_max + 1):
        ladder = seed_state(nu, t)
        for n in range(t, n_max + 1, 2):
            q = (n - t) // 2
            for N in range(n, n_max + 1):
                psi = apply(creation_power(0, N - n), ladder) if N > n else ladder
                chain1[nu, N, n, t] = psi.times(-1) if q % 2 else psi
            ladder = apply(pair_creation_b(nu), ladder)
        for sigma in range(t, n_max + 1):
            for conv in Convention:
                barred = conv is Convention.BARRED
                psi = _intrinsic_reference(nu, sigma, t, barred)
                for k, N in enumerate(range(sigma, n_max + 1, 2)):
                    chain2[nu, N, sigma, t, conv] = psi.times(-1) if k % 2 else psi
                    psi = apply(pair_creation_full(nu, barred), psi)
    return chain1, chain2


@pytest.mark.parametrize("nu", [2, 3, 4, 5])
def test_incremental_ladders_equal_ladders_built_from_the_start(nu, cold_caches):
    chain1, chain2 = _ladder_references(nu, 10)
    # cold from the deepest rung down, so each ladder fills in one recursion, then
    # cold again from the bottom up, so each state is one apply onto a cached rung
    for deepest_first in (True, False):
        clear_caches()
        for label in sorted(chain2, key=lambda lab: -lab[1] if deepest_first else lab[1]):
            st, expected = build_chain2_state(*label), chain2[label]
            assert st.state == expected, label
            assert st.norm_sq == inner(expected, expected).re
        for label in sorted(chain1, key=lambda lab: -lab[1] if deepest_first else lab[1]):
            st, expected = build_chain1_state(*label), chain1[label]
            assert (st.state.pm_terms, st.state.scale) == (expected.pm_terms, expected.scale), label
            assert st.norm_sq == inner(expected, expected).re
    # warm: every label is a cache hit and still equals its reference
    hits = build_chain2_state.cache_info().hits
    assert all(build_chain2_state(*label).state == chain2[label] for label in chain2)
    assert build_chain2_state.cache_info().hits == hits + len(chain2)


def _counting_apply(monkeypatch):
    ops = []
    real = fockoracle.apply

    def counted(op, psi):
        ops.append(op)
        return real(op, psi)

    monkeypatch.setattr(fockoracle, "apply", counted)
    return ops


@pytest.mark.parametrize("conv", list(Convention))
def test_each_ladder_rung_costs_one_apply(monkeypatch, cold_caches, conv):
    nu, sigma, tau = 3, 2, 0
    ops = _counting_apply(monkeypatch)
    build_chain2_state(nu, 6, sigma, tau, conv)
    for N in (8, 10):
        del ops[:]
        build_chain2_state(nu, N, sigma, tau, conv)
        assert ops == [pair_creation_full(nu, conv is Convention.BARRED)]
    # chain I: the b-space rung is cached, so only the scalar bosons are applied
    build_chain1_state(nu, 6, 4, 0)
    del ops[:]
    build_chain1_state(nu, 9, 4, 0)
    assert ops == [creation_power(0, 5)]
    del ops[:]
    build_chain1_state(nu, 6, 6, 0)
    assert ops == [pair_creation_b(nu)]


def test_every_rung_below_a_state_is_a_builder_cache_hit(cold_caches):
    build_chain2_state(3, 10, 2, 0)
    before = build_chain1_state.cache_info(), build_chain2_state.cache_info()
    for N in range(2, 9, 2):
        build_chain2_state(3, N, 2, 0)
    # the kernel's span at sigma = 2, tau = 0 is s^dag^2 seed and the chain-I (2, 2) state
    for n in (0, 2):
        build_chain1_state(3, n, n, 0)
    one, two = build_chain1_state.cache_info(), build_chain2_state.cache_info()
    assert (one.misses, two.misses) == (before[0].misses, before[1].misses)
    assert (one.hits - before[0].hits, two.hits - before[1].hits) == (2, 4)


def test_the_oracle_imports_no_closed_form_module():
    tree = ast.parse(Path(fockoracle.__file__).read_text(encoding="utf-8"))
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {"exactnum", "labels"}
    assert not {name for name in absolute if name.split(".")[0] == "chainbrackets"}


def test_clear_caches_empties_every_cache():
    build_chain1_state(3, 6, 4, 2)
    build_chain2_state(3, 6, 4, 2, Convention.BARRED)
    casimir_apply(3, seed_state(3, 2), CasimirGroup.SO_NU_PLUS_ONE)
    su11_commutator_check(2, 2)
    caches = {name: fn for name, fn in vars(fockoracle).items() if hasattr(fn, "cache_info")}
    assert {"build_chain1_state", "build_chain2_state", "_rotations", "_mixings"} <= set(caches)
    assert fockoracle._ROWS
    # each state is cached once, in its builder: the seed and the intrinsic
    # state are the builders' bottom rungs, not caches of their own
    assert not {"seed_state", "_chain2_intrinsic"} & set(caches)
    assert any(fn.cache_info().currsize for fn in caches.values())
    clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in caches.items()} == dict.fromkeys(caches, 0)
    assert not fockoracle._ROWS
