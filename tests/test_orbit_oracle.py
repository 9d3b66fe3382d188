"""The orbit-reduced Fock oracle against the full-space reference in tests/fullspace.py.

Every chain state, overlap, deformed-oracle block and Casimir image at
nu <= 5, N <= 8 (both conventions, signed tau at nu = 2) must equal the
reference exactly.  The reference works in the beta_2 basis and the oracle in
the helicity modes b_+ and b_-, so each state is compared through the
oracle's view: the same full-space values, in canonical form.
"""

from __future__ import annotations

from itertools import permutations

import pytest

import fullspace
from chainbrackets.brackets import Convention
from chainbrackets.exactnum import SurdValue, rational
from chainbrackets.fockoracle import (
    CasimirGroup,
    FockState,
    SymmetryError,
    _bilinear,
    apply,
    b_number_operator,
    build_chain1_state,
    build_chain2_state,
    casimir_apply,
    creation_power,
    inner,
    number_operator,
    oracle_bracket,
    pair_annihilation_full,
    pair_creation_b,
    pair_creation_full,
    pair_exchange_operator,
    quasispin_zero,
    seed_state,
)
from chainbrackets.labels import bracket_index_set
from chainbrackets.transform import OperatorSpec, boson_operator, deformed_matrix_oracle

NU_MAX, N_MAX = 5, 8


@pytest.fixture(scope="module")
def reference():
    """{nu: (chain1, chain2)} of full-space (terms, scale) pairs, as fullspace.chain_states keys them."""
    return {nu: fullspace.chain_states(nu, N_MAX) for nu in range(2, NU_MAX + 1)}


def _blocks():
    """Every (nu, N, tau, ns, sigmas) with nu <= NU_MAX, N <= N_MAX; signed tau at nu = 2."""
    for nu in range(2, NU_MAX + 1):
        for N in range(N_MAX + 1):
            for tau in range(-N if nu == 2 else 0, N + 1):
                yield (nu, N, tau) + bracket_index_set(nu, N, tau)


def _signed_square(dot: int, s1, s2, norm1, norm2):
    """(sign, square) of the overlap dot * s1 * s2 between states of squared norms norm1, norm2."""
    value = dot * s1 * s2
    if not value:
        return 0, rational(0)
    return (1 if value > 0 else -1), value * value / (norm1 * norm2)


def test_every_chain_state_equals_the_full_space_reference(reference):
    checks = 0
    for nu, N, tau, ns, sigmas in _blocks():
        chain1, chain2 = reference[nu]
        t = abs(tau)
        for n in ns:
            st = build_chain1_state(nu, N, n, tau)
            terms, scale = chain1[N, n, t]
            assert fullspace.view(st.state) == fullspace.canonical(terms, scale), (nu, N, n, tau)
            assert st.norm_sq == fullspace.norm_sq(terms, scale)
            checks += 1
        for sigma in sigmas:
            for conv in Convention:
                st = build_chain2_state(nu, N, sigma, tau, conv)
                terms, scale = chain2[N, sigma, t, conv is Convention.BARRED]
                assert fullspace.view(st.state) == fullspace.canonical(terms, scale), (nu, N, sigma, tau, conv)
                assert st.norm_sq == fullspace.norm_sq(terms, scale)
                checks += 1
    assert checks == 1350


def test_every_overlap_equals_the_full_space_reference(reference):
    checks = 0
    for nu, N, tau, ns, sigmas in _blocks():
        chain1, chain2 = reference[nu]
        t = abs(tau)
        for n in ns:
            terms1, s1 = chain1[N, n, t]
            bra = fullspace.weighted(terms1)
            for sigma in sigmas:
                for conv in Convention:
                    terms2, s2 = chain2[N, sigma, t, conv is Convention.BARRED]
                    dot = fullspace.dot(bra, terms2)
                    expected = _signed_square(
                        dot, s1, s2, fullspace.norm_sq(terms1, s1), fullspace.norm_sq(terms2, s2)
                    )
                    assert oracle_bracket(nu, N, n, sigma, tau, conv) == expected, (nu, N, n, sigma, tau)
                    checks += 1
    assert checks == 2380


def test_every_deformed_oracle_block_equals_the_full_space_reference(reference):
    # overlap_squares on the oracle's kets O|j>, against <i|O|j> / sqrt(<i|i><j|j>) in full space
    for nu, N, tau, _, sigmas in _blocks():
        _, chain2 = reference[nu]
        for conv in Convention:
            states = [chain2[N, sigma, abs(tau), conv is Convention.BARRED] for sigma in sigmas]
            norms = [fullspace.norm_sq(terms, scale) for terms, scale in states]
            for op in OperatorSpec:
                bosons = fullspace.boson_operator(op, nu)
                assert bosons.den == boson_operator(op, nu).den
                kets = [(fullspace.apply(bosons, terms), scale / bosons.den) for terms, scale in states]
                expected = []
                for (terms_i, s_i), norm_i in zip(states, norms):
                    bra = fullspace.weighted(terms_i)
                    row = []
                    for (ket, s_j), norm_j in zip(kets, norms):
                        dot = fullspace.dot(bra, ket)
                        sign, square = _signed_square(dot, s_i, s_j, norm_i, norm_j)
                        row.append(SurdValue(sign, square) if sign else SurdValue.zero())
                    expected.append(tuple(row))
                got = deformed_matrix_oracle(nu, N, tau, op, conv)
                assert got.entries == tuple(expected), (nu, N, tau, op, conv)


def _conv(barred):
    return Convention.BARRED if barred else Convention.STANDARD


def test_every_casimir_image_equals_the_full_space_reference(reference):
    # the oracle's state at each reference key, imaged by the oracle's Casimir rows,
    # against the reference image of the reference state
    checks = 0
    for nu in range(2, NU_MAX + 1):
        chain1, chain2 = reference[nu]
        states = [
            (build_chain1_state(nu, *key).state, terms, scale, barred)
            for key, (terms, scale) in chain1.items()
            for barred in (False, True)
        ]
        states += [
            (build_chain2_state(nu, N, sigma, t, _conv(barred)).state, terms, scale, barred)
            for (N, sigma, t, barred), (terms, scale) in chain2.items()
        ]
        for psi, terms, scale, barred in states:
            for group in CasimirGroup:
                image = casimir_apply(nu, psi, group, _conv(barred))
                expected = fullspace.casimir_image(nu, terms, group, barred)
                assert fullspace.view(image) == fullspace.canonical(expected, scale), (nu, group, barred)
                checks += 1
    assert checks == 3040


@pytest.mark.parametrize("nu", [4, 5])
def test_invariant_operators_on_chain_states_equal_the_full_space_reference(reference, nu):
    # each oracle operator on the oracle's state, against its beta_2-basis twin on the reference state
    _, chain2 = reference[nu]
    for barred in (False, True):
        ops = [
            (pair_creation_full(nu, barred), fullspace.pair_full(nu, barred, True)),
            (pair_annihilation_full(nu, barred), fullspace.pair_full(nu, barred, False)),
            (pair_exchange_operator(nu), fullspace.boson_operator(OperatorSpec.PAIRING, nu)),
            (b_number_operator(nu), fullspace.boson_operator(OperatorSpec.B_NUMBER, nu)),
        ]
        for (N, sigma, t, bar), (terms, scale) in chain2.items():
            psi = build_chain2_state(nu, N, sigma, t, _conv(bar)).state
            for op, twin in ops:
                image = apply(op, psi)
                assert op.den == twin.den
                assert fullspace.view(image) == fullspace.canonical(fullspace.apply(twin, terms), scale / op.den)


def test_orbits_store_one_representative_per_orbit_with_its_multiplicity():
    # (s^dag)(b_3^dag + b_4^dag + b_5^dag)|0> at nu = 5: one orbit of three monomials
    terms = {(1, 0, 0, 1, 0, 0): 2, (1, 0, 0, 0, 1, 0): 2, (1, 0, 0, 0, 0, 1): 2}
    psi = FockState(terms, rational(1, 2))
    assert psi.orbits == {(1, 0, 0, 1, 0, 0): 6}
    assert psi.pm_terms == psi.terms == terms and len(psi.terms) == 3
    # <psi|psi> = 3 monomials of weight 1, each with |c|^2 = 1
    assert inner(psi, psi).re == 3
    # a chain state: each representative stands for every distinct ordering of its occ[3:]
    state = build_chain2_state(5, 4, 4, 0).state
    assert len(state.pm_terms) == sum(len(set(permutations(occ[3:]))) for occ in state.orbits) > len(state.orbits)
    assert all(list(occ[3:]) == sorted(occ[3:], reverse=True) for occ in state.orbits)


def test_a_state_must_be_symmetric_in_modes_3_to_nu():
    with pytest.raises(SymmetryError):
        FockState({(0, 0, 0, 1, 0): 1})  # b_3^dag alone at nu = 4
    with pytest.raises(SymmetryError):
        FockState({(0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 1): 2})  # unequal coefficients
    with pytest.raises(SymmetryError):
        # every monomial of the orbit present, but a pair of them cancels in the fold
        FockState({(0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 1): -1})
    assert FockState({(0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 1): 1}).orbits == {(0, 0, 0, 1, 0): 2}
    # at nu <= 3 every monomial is its own orbit
    assert FockState({(0, 0, 1, 2): 1}).orbits == {(0, 0, 1, 2): 1}


def _g(j, k, hermitian=False):
    """b_j^dag b_k - b_k^dag b_j, or b_j^dag b_k + b_k^dag b_j if hermitian: a generator of the modes j < k."""
    return _bilinear((1, j, k), (1 if hermitian else -1, k, j))


def test_apply_refuses_an_operator_that_is_not_invariant():
    psi = build_chain2_state(5, 4, 2, 1).state
    for op in (
        _g(1, 3),
        _g(3, 4),
        _g(0, 3),
        _g(0, 5, hermitian=True),
        creation_power(3, 1),
        pair_creation_b(4),  # built for nu = 4: mode 5 is missing
        number_operator(4),
    ):
        with pytest.raises(SymmetryError):
            apply(op, psi)
    # invariant operators, including ones that touch only modes 0..2
    for op in (_g(1, 2), _g(0, 1), creation_power(0, 2), quasispin_zero(5), number_operator(5)):
        apply(op, psi)
    # at nu <= 3 the permutation group is trivial and every operator applies
    assert not apply(_g(1, 3), seed_state(3, 2)).is_zero
