"""Property tests on drawn labels: the oracle against the closed form, and the closed-form routes.

Examples are drawn deterministically (derandomize=True) and no example
database is used, so every run checks the same labels.
"""

from __future__ import annotations

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
from chainbrackets.fockoracle import oracle_bracket
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
