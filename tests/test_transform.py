"""Operator transforms: spherical matrices, the two-step congruence, oracle agreement."""

from __future__ import annotations

import dataclasses

import pytest

from chainbrackets.brackets import Convention, table
from chainbrackets.exactnum import SurdSumError, SurdValue, rational
from chainbrackets.fockoracle import apply, build_chain1_state, inner
from chainbrackets.transform import (
    OperatorSpec,
    boson_operator,
    deformed_matrix,
    deformed_matrix_oracle,
    operator_core,
    spherical_matrix,
)


def sqrt(num, den=1):
    return SurdValue.sqrt(rational(num, den))


def of(q):
    return SurdValue.of_rational(q)


def test_spherical_number_operators_are_diagonal():
    mat = spherical_matrix(2, 2, 0, OperatorSpec.B_NUMBER)
    assert mat.ns == (0, 2)
    assert mat.entries == ((of(0), of(0)), (of(0), of(2)))
    mat = spherical_matrix(2, 2, 0, OperatorSpec.S_NUMBER)
    assert mat.entries == ((of(2), of(0)), (of(0), of(0)))


def test_spherical_pairing_example():
    mat = spherical_matrix(2, 2, 0, OperatorSpec.PAIRING)
    assert mat.entries[0][1] == -sqrt(2)  # sign carried by the ladder-normalization phase
    assert mat.entries[1][0] == -sqrt(2)
    assert mat.entries[0][0].is_zero and mat.entries[1][1].is_zero


def test_spherical_pairing_agrees_with_oracle_inner_products():
    for nu in (2, 3):
        for N in range(5):
            for tau in range(N + 1):
                mat = spherical_matrix(nu, N, tau, OperatorSpec.PAIRING)
                op = boson_operator(OperatorSpec.PAIRING, nu)
                states = [build_chain1_state(nu, N, n, tau) for n in mat.ns]
                for i, si in enumerate(states):
                    applied = apply(op, si.state)
                    for j, sj in enumerate(states):
                        value = inner(sj.state, applied)
                        assert value.im == 0
                        r = value.re
                        entry = mat.entries[j][i]
                        if r == 0:
                            assert entry.is_zero
                        else:
                            assert entry.sign == (1 if r > 0 else -1)
                            assert entry.radicand == r * r / (si.norm_sq * sj.norm_sq)


def test_operator_core_is_rational():
    for nu in range(2, 8):
        for N in range(11):
            for tau in range(-N if nu == 2 else 0, N + 1):
                u_sq = table(nu, N, tau).row_sq
                for op in OperatorSpec:
                    sph = spherical_matrix(nu, N, tau, op)
                    w = operator_core(sph, u_sq)
                    d = len(w)
                    for a in range(d):
                        for b in range(d):
                            # W[a][b] = u_a u_b M[a][b] with W rational
                            x = w[a][b]
                            assert SurdValue.of_rational(x) == sph.entries[a][b] * SurdValue.sqrt(
                                u_sq[a] * u_sq[b]
                            )


def test_operator_core_rejects_an_irrational_entry():
    sph = spherical_matrix(3, 6, 0, OperatorSpec.PAIRING)
    entries = [list(row) for row in sph.entries]
    entries[0][1] = entries[0][1] * SurdValue.sqrt(2)
    bad = dataclasses.replace(sph, entries=tuple(map(tuple, entries)))
    with pytest.raises(SurdSumError):
        operator_core(bad, table(3, 6, 0).row_sq)


def test_deformed_bnum_example():
    mat = deformed_matrix(2, 2, 0, OperatorSpec.B_NUMBER)
    assert mat.sigmas == (0, 2)
    assert mat.entries[0][0] == of(rational(4, 3))
    assert mat.entries[0][1] == sqrt(8, 9)  # 2*sqrt(2)/3
    assert mat.entries[1][1] == of(rational(2, 3))
    assert not mat.oracle_backed


def test_deformed_snum_complements_bnum():
    for nu in (2, 3):
        for N in (0, 1, 4):
            for tau in range(N + 1):
                bnum = deformed_matrix(nu, N, tau, OperatorSpec.B_NUMBER)
                snum = deformed_matrix(nu, N, tau, OperatorSpec.S_NUMBER)
                d = len(bnum.sigmas)
                for i in range(d):
                    for j in range(d):
                        total = bnum.entries[i][j] + snum.entries[i][j]
                        want = of(N) if i == j else SurdValue.zero()
                        assert total == want


def test_deformed_trivial_cases():
    assert deformed_matrix(2, 0, 0, OperatorSpec.B_NUMBER).entries == ((SurdValue.zero(),),)
    mat = deformed_matrix(3, 1, 1, OperatorSpec.B_NUMBER)
    assert mat.entries == ((SurdValue.one(),),)
    # d = 1: the deformed matrix equals the 1x1 spherical matrix
    sph = spherical_matrix(3, 3, 3, OperatorSpec.S_NUMBER)
    assert deformed_matrix(3, 3, 3, OperatorSpec.S_NUMBER).entries == sph.entries


def test_two_step_equals_direct_oracle():
    for nu in (2, 3):
        for N in range(5):
            for tau in range(N + 1):
                for op in OperatorSpec:
                    for conv in Convention:
                        two_step = deformed_matrix(nu, N, tau, op, conv)
                        direct = deformed_matrix_oracle(nu, N, tau, op, conv)
                        assert two_step.entries == direct.entries
                        assert not two_step.oracle_backed


def test_trace_is_preserved():
    for nu in (2, 3):
        for N in (2, 5):
            for tau in range(N + 1):
                for op in OperatorSpec:
                    sph = spherical_matrix(nu, N, tau, op)
                    dfm = deformed_matrix(nu, N, tau, op)
                    d = len(dfm.sigmas)
                    t1 = SurdValue.zero()
                    t2 = SurdValue.zero()
                    for i in range(d):
                        t1 = t1 + sph.entries[i][i]
                        t2 = t2 + dfm.entries[i][i]
                    assert t1 == t2


def test_deformed_matrices_are_symmetric():
    for op in OperatorSpec:
        for conv in Convention:
            mat = deformed_matrix(2, 6, 2, op, conv)
            d = len(mat.sigmas)
            for i in range(d):
                for j in range(d):
                    assert mat.entries[i][j] == mat.entries[j][i]


def test_negative_tau_delegates_to_magnitude():
    assert (
        deformed_matrix(2, 4, -2, OperatorSpec.PAIRING).entries
        == deformed_matrix(2, 4, 2, OperatorSpec.PAIRING).entries
    )


def test_operator_spec_parsing():
    assert OperatorSpec("bnum") is OperatorSpec.B_NUMBER
    with pytest.raises(ValueError):
        OperatorSpec("quadrupole")
