"""Property tests on drawn labels and states: the oracle against the closed form and against
its full-space reference, and the closed-form routes against each other.

Examples are drawn deterministically (derandomize=True) and no example
database is used, so every run checks the same labels.
"""

from __future__ import annotations

from itertools import permutations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from chainbrackets.brackets import (
    Convention,
    barred_sign,
    bracket,
    bracket_expanded,
    bracket_pochhammer,
)
import fullspace
from chainbrackets.exactnum import GaussianRational, rational
from chainbrackets.fockoracle import (
    CasimirGroup,
    FockState,
    apply,
    b_number_operator,
    casimir_apply,
    creation_power,
    inner,
    number_operator,
    oracle_bracket,
    pair_annihilation_full,
    pair_creation_full,
    pair_exchange_operator,
    quasispin_minus,
    quasispin_plus,
    quasispin_zero,
)
from chainbrackets.labels import bracket_index_set

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=200)


@st.composite
def bracket_labels(draw, nu_max: int, n_max: int):
    """(nu, N, n, sigma, tau) with 2 <= nu <= nu_max, N <= n_max; signed tau at nu = 2."""
    nu = draw(st.integers(2, nu_max))
    N = draw(st.integers(0, n_max))
    tau = draw(st.integers(-N if nu == 2 else 0, N))
    ns, sigmas = bracket_index_set(nu, N, tau)
    return nu, N, draw(st.sampled_from(ns)), draw(st.sampled_from(sigmas)), tau


@PROPERTY
@given(bracket_labels(4, 8), st.sampled_from(list(Convention)))
def test_oracle_bracket_equals_the_closed_form(labels, conv):
    nu, N, n, sigma, tau = labels
    closed = bracket(nu, N, n, sigma, tau, conv)
    assert oracle_bracket(nu, N, n, sigma, tau, conv) == (closed.sign, closed.radicand)


@PROPERTY
@given(bracket_labels(20, 60))
def test_closed_form_routes_agree_at_large_labels(labels):
    nu, N, n, sigma, tau = labels
    standard = bracket(nu, N, n, sigma, tau)
    assert bracket_expanded(nu, N, n, sigma, tau) == standard
    assert bracket_pochhammer(nu, N, n, sigma, tau) == standard
    barred = bracket(nu, N, n, sigma, tau, Convention.BARRED)
    assert barred == (standard if barred_sign(n, tau) == 1 else -standard)


@st.composite
def symmetric_states(draw, nu: int):
    """(terms, scale): a few orbits under permutations of the modes 3..nu, every member alike."""
    terms = {}
    for occ in draw(st.lists(st.tuples(*[st.integers(0, 3)] * (nu + 1)), min_size=1, max_size=5)):
        c = draw(st.integers(-9, 9))
        terms.update(dict.fromkeys((occ[:3] + tail for tail in permutations(occ[3:])), c))
    return terms, rational(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 7)))


def _invariant_operators(nu: int) -> list:
    """Operators that commute with every permutation of the modes 3..nu."""
    ops = [number_operator(nu), b_number_operator(nu), pair_exchange_operator(nu), creation_power(0, 2)]
    ops += [quasispin_plus(nu), quasispin_minus(nu), quasispin_zero(nu)]
    return ops + [f(nu, barred) for f in (pair_creation_full, pair_annihilation_full) for barred in (False, True)]


@PROPERTY
@given(st.data())
def test_orbit_oracle_equals_the_full_space_reference(data):
    nu = data.draw(st.integers(4, 6))
    (terms, scale), (other, other_scale) = data.draw(symmetric_states(nu)), data.draw(symmetric_states(nu))
    terms, other = fullspace.nonzero(terms), fullspace.nonzero(other)
    psi, phi = FockState(terms, scale), FockState(other, other_scale)
    assert (psi.pm_terms, psi.scale) == (terms, scale)
    assert all(list(occ[3:]) == sorted(occ[3:], reverse=True) for occ in psi.orbits)
    op = data.draw(st.sampled_from(_invariant_operators(nu)))
    image = apply(op, psi)
    assert (image.pm_terms, image.scale) == (fullspace.apply(op, terms), scale / op.den)
    # inner and the Casimir images through the views, the Cartesian states in the beta_2 basis:
    # the drawn states mix helicities, which weigh 2^L each there
    (view, view_scale), (other_view, other_view_scale) = psi.view(), phi.view()
    dot = fullspace.dot(fullspace.weighted(view), other_view)
    assert inner(psi, phi) == GaussianRational(dot * view_scale * other_view_scale, 0)
    group, conv = data.draw(st.sampled_from(list(CasimirGroup))), data.draw(st.sampled_from(list(Convention)))
    image = casimir_apply(nu, psi, group, conv)
    expected = fullspace.casimir_image(nu, view, group, conv is Convention.BARRED)
    assert fullspace.view(image) == fullspace.canonical(expected, view_scale)
