"""Branching rules, label validation, index sets, quasi-spin map."""

from __future__ import annotations

import pytest

from chainbrackets.brackets import bracket
from chainbrackets.cli import main
from chainbrackets.fockoracle import build_chain1_state, build_chain2_state
from chainbrackets.labels import (
    ChainILabel,
    ChainIILabel,
    LabelError,
    UnsupportedDimensionError,
    bracket_index_set,
    check_chain1,
    check_chain2,
    enumerate_chain1,
    enumerate_chain2,
    quasispin_labels,
)
from chainbrackets.exactnum import rational


def _pairs1(nu, N):
    return [(lab.n, lab.tau) for lab in enumerate_chain1(nu, N)]


def _pairs2(nu, N):
    return [(lab.sigma, lab.tau) for lab in enumerate_chain2(nu, N)]


def test_enumerate_chain1_examples():
    assert _pairs1(3, 2) == [(0, 0), (1, 1), (2, 0), (2, 2)]
    assert _pairs1(2, 2) == [(0, 0), (1, -1), (1, 1), (2, -2), (2, 0), (2, 2)]
    assert _pairs1(5, 0) == [(0, 0)]


def test_enumerate_chain2_examples():
    assert _pairs2(3, 2) == [(0, 0), (2, 0), (2, 1), (2, 2)]
    assert _pairs2(2, 2) == [(0, 0), (2, -2), (2, -1), (2, 0), (2, 1), (2, 2)]
    assert _pairs2(4, 1) == [(1, 0), (1, 1)]


def test_unsupported_dimension():
    for fn in (enumerate_chain1, enumerate_chain2):
        with pytest.raises(UnsupportedDimensionError):
            fn(1, 3)
    with pytest.raises(UnsupportedDimensionError):
        bracket_index_set(0, 2, 0)


def test_bracket_index_set_examples():
    assert bracket_index_set(2, 2, 0) == ((0, 2), (0, 2))
    assert bracket_index_set(3, 5, 1) == ((1, 3, 5), (1, 3, 5))
    # sigma keeps the parity of N: for N=4, tau=1 the admissible columns are 2 and 4
    assert bracket_index_set(3, 4, 1) == ((1, 3), (2, 4))
    assert bracket_index_set(2, 3, -1) == ((1, 3), (1, 3))


def test_bracket_index_set_errors():
    with pytest.raises(LabelError):
        bracket_index_set(3, 2, 3)
    with pytest.raises(LabelError):
        bracket_index_set(3, 4, -1)


def test_square_blocks_and_counts():
    for nu in range(2, 8):
        for N in range(11):
            chain1 = enumerate_chain1(nu, N)
            chain2 = enumerate_chain2(nu, N)
            assert len(chain1) == len(chain2)
            taus = {lab.tau for lab in chain1}
            assert taus == {lab.tau for lab in chain2}
            for tau in taus:
                ns, sigmas = bracket_index_set(nu, N, tau)
                d = (N - abs(tau)) // 2 + 1
                assert len(ns) == len(sigmas) == d
                assert sum(1 for lab in chain1 if lab.tau == tau) == d
                assert sum(1 for lab in chain2 if lab.tau == tau) == d


def test_every_enumerated_label_validates():
    for nu in (2, 3, 6):
        for N in range(8):
            for lab in enumerate_chain1(nu, N):
                ChainILabel(lab.nu, lab.N, lab.n, lab.tau)
            for lab in enumerate_chain2(nu, N):
                ChainIILabel(lab.nu, lab.N, lab.sigma, lab.tau)


def test_label_validation_errors():
    with pytest.raises(LabelError):
        ChainILabel(3, 2, 3, 1)  # n > N
    with pytest.raises(LabelError):
        ChainILabel(3, 4, 2, 1)  # parity
    with pytest.raises(LabelError):
        ChainILabel(3, 4, 2, -2)  # negative tau needs nu=2
    with pytest.raises(LabelError):
        ChainIILabel(3, 4, 3, 1)  # N - sigma odd
    with pytest.raises(LabelError):
        ChainIILabel(2, 4, 2, 3)  # |tau| > sigma
    ChainILabel(2, 4, 2, -2)
    ChainIILabel(2, 4, 2, -2)


# (nu, N, n, sigma, tau, bad chain, text): each label breaks one rule, checked in order
BAD_LABELS = [
    (3, -1, 0, 0, 0, 1, "N=-1 must be nonnegative"),
    (3, 2, 2, 2, -2, 1, "negative tau=-2 only exists for nu=2"),
    (3, 2, 3, 0, 0, 1, "n=3 violates 0 <= n <= N=2"),
    (2, 2, 0, 2, 2, 1, "n=0 violates n >= |tau|=2 (U(nu) > SO(nu) branching)"),
    (2, 2, 1, 0, 0, 1, "n - tau must be even, got n=1, tau=0 (U(nu) > SO(nu) branching)"),
    (3, 2, 2, 4, 0, 2, "sigma=4 violates 0 <= sigma <= N=2"),
    (3, 3, 1, 2, 1, 2, "N - sigma must be even, got N=3, sigma=2 (U(nu+1) > SO(nu+1) branching)"),
    (2, 3, 3, 1, -3, 2, "sigma=1 violates sigma >= |tau|=3 (SO(nu+1) > SO(nu) branching)"),
]


@pytest.mark.parametrize("nu, N, n, sigma, tau, chain, text", BAD_LABELS)
def test_one_label_error_text_everywhere(nu, N, n, sigma, tau, chain, text, capsys):
    with pytest.raises(LabelError) as from_bracket:
        bracket(nu, N, n, sigma, tau)
    if chain == 1:
        label, check, build, third = ChainILabel, check_chain1, build_chain1_state, n
    else:
        label, check, build, third = ChainIILabel, check_chain2, build_chain2_state, sigma
    with pytest.raises(LabelError) as from_label:
        label(nu, N, third, tau)
    with pytest.raises(LabelError) as from_check:
        check(nu, N, third, tau)
    with pytest.raises(LabelError) as from_oracle:
        build(nu, N, third, tau)
    assert str(from_bracket.value) == str(from_label.value) == text
    assert str(from_check.value) == str(from_oracle.value) == text
    argv = ["bracket", "--nu", str(nu), "--N", str(N), "--n", str(n), "--sigma", str(sigma)]
    assert main(argv + ["--tau", str(tau)]) == 1
    assert capsys.readouterr().err == f"error: {text}\n"


def test_quasispin_examples():
    lab = quasispin_labels(2, 2, 0)
    assert (lab.q, lab.q0) == (rational(1, 2), rational(3, 2))
    lab = quasispin_labels(3, 1, 1)
    assert lab.q == lab.q0 == rational(5, 4)
    lab = quasispin_labels(5, 4, 0)
    assert (lab.q, lab.q0) == (rational(5, 4), rational(13, 4))


def test_quasispin_ladder_step_is_integer():
    for nu in (2, 3, 4, 7):
        for tau in range(4):
            for n in range(tau, 10, 2):
                lab = quasispin_labels(nu, n, tau)
                steps = lab.q0 - lab.q
                assert steps == (n - tau) // 2
    with pytest.raises(LabelError):
        quasispin_labels(3, 2, 1)
