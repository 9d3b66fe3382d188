"""Operator transforms: spherical matrices, the two-step congruence, oracle agreement."""

from __future__ import annotations

import dataclasses

import pytest

from chainbrackets import transform
from chainbrackets.brackets import Convention, table
from chainbrackets.exactnum import GaussianRational, SurdSumError, SurdValue, rational
from chainbrackets.fockoracle import (
    FockState,
    NormalizedState,
    apply,
    build_chain1_state,
    build_chain2_state,
    inner,
    overlap_squares,
)
from chainbrackets.labels import bracket_index_set
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


def test_operator_core_rejects_a_non_integral_entry():
    sph = spherical_matrix(3, 6, 0, OperatorSpec.PAIRING)
    u_sq = table(3, 6, 0).row_sq
    w01 = operator_core(sph, u_sq)[0][1]
    entries = [list(row) for row in sph.entries]
    entries[0][1] = entries[0][1].scale(rational(1, 2 * w01))  # W[0][1] becomes 1/2
    bad = dataclasses.replace(sph, entries=tuple(map(tuple, entries)))
    with pytest.raises(SurdSumError, match=r"nu=3 N=6 tau=0: .* not an integer at \(a, b\) = \(0, 1\)"):
        operator_core(bad, u_sq)


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


def _blocks(nu_max: int = 6, n_max: int = 10):
    """Every (nu, N, tau) up to the bounds, tau signed at nu = 2, with each op and convention."""
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for tau in range(-N if nu == 2 else 0, N + 1):
                for op in OperatorSpec:
                    for conv in Convention:
                        yield nu, N, tau, op, conv


def _fraction_congruence(nu, N, tau, op, conv):
    """v_i v_j (Q^T W Q)[i][j] summed over all of W in rational arithmetic."""
    tab = table(nu, N, tau, conv)
    w = operator_core(spherical_matrix(nu, N, tau, op), tab.row_sq)
    q = tab.core
    d = len(w)
    qt_w = [[sum(q[a][i] * w[a][b] for a in range(d)) for b in range(d)] for i in range(d)]
    rows = []
    for i, vi_sq in enumerate(tab.col_sq):
        row = []
        for j, vj_sq in enumerate(tab.col_sq):
            t = sum(qt_w[i][b] * q[b][j] for b in range(d))
            row.append(SurdValue((t > 0) - (t < 0), vi_sq * vj_sq * t * t))
        rows.append(tuple(row))
    return tuple(rows)


def _inner_reference(nu, N, tau, op, conv):
    """<i|O|j> / sqrt(<i|i><j|j>) entry by entry through `inner` on the constructed states."""
    _, sigmas = bracket_index_set(nu, N, tau)
    states = [build_chain2_state(nu, N, s, tau, conv) for s in sigmas]
    bosons = boson_operator(op, nu)
    kets = [apply(bosons, sj.state) for sj in states]
    rows = []
    for si in states:
        row = []
        for sj, ket in zip(states, kets):
            value = inner(si.state, ket)
            assert value.im == 0
            r = value.re
            row.append(SurdValue((r > 0) - (r < 0), r * r / (si.norm_sq * sj.norm_sq)))
        rows.append(tuple(row))
    return tuple(rows)


def test_two_step_matches_a_fraction_congruence():
    for block in _blocks():
        assert deformed_matrix(*block).entries == _fraction_congruence(*block), block


def test_operator_core_is_integral():
    for nu, N, tau, op, conv in _blocks():
        w = operator_core(spherical_matrix(nu, N, tau, op), table(nu, N, tau, conv).row_sq)
        assert all(type(x) is int for row in w for x in row), (nu, N, tau, op, conv)


def test_oracle_route_matches_an_inner_reference():
    for block in _blocks():
        assert deformed_matrix_oracle(*block).entries == _inner_reference(*block), block


def test_overlap_squares_carry_the_scales():
    # s^dag^2 states: helicity 0, so the Cartesian overlap is the integer dot itself
    bra = FockState({(2, 0, 0): 1})
    ket = FockState({(2, 0, 0): 5}, rational(1, 3))
    # <bra|ket> = 2! * 5/3 with ket.scale = 1/3; unit norms leave the squared overlap itself
    raw = [NormalizedState(bra, 1), NormalizedState(ket, 1), NormalizedState(ket.times(-1), 1)]
    assert overlap_squares(raw[:1], raw) == [[(1, 4), (1, rational(100, 9)), (-1, rational(100, 9))]]
    assert inner(bra, ket) == GaussianRational(rational(10, 3), rational(0))
    # the true norms <bra|bra> = 2 and <ket|ket> = 50/9 make the states parallel unit vectors
    unit = [NormalizedState(bra, 2), NormalizedState(ket, rational(50, 9))]
    assert overlap_squares(unit, unit) == [[(1, 1), (1, 1)], [(1, 1), (1, 1)]]
    # each state's unit, sign(scale) and scale**2 / norm_sq as (num, den), is computed once and kept
    assert [st.unit for st in raw + unit] == [(1, 1, 1), (1, 1, 9), (-1, 1, 9), (1, 1, 2), (1, 9, 450)]
    assert all(st.unit is st.unit for st in raw + unit)
    # 2 b_+^dag is the Cartesian 2 b_1^dag + 2i b_2^dag: <psi|psi> = 4 + 4, squared 64
    imaginary = NormalizedState(FockState({(0, 1, 0): 2}), 1)
    assert overlap_squares([imaginary], [imaginary]) == [[(1, 64)]]
    # b_+^dag^2 = b_1^dag^2 + 2i b_1^dag b_2^dag - b_2^dag^2, of norm 2 + 4 + 2: helicity 2 puts 2^2 in the unit
    plus = NormalizedState(FockState({(0, 2, 0): 1}), 1)
    assert plus.unit == (1, 4, 1) and overlap_squares([plus], [plus]) == [[(1, 64)]]
    # <m|(3/2) m> = 2! * 3/2 = 3
    half = NormalizedState(FockState({(2, 0, 0): 3}, rational(1, 2)), 1)
    assert overlap_squares(raw[:1], [half]) == [[(1, 9)]]


def test_pairing_operator_is_cached_per_nu():
    assert boson_operator(OperatorSpec.PAIRING, 3) is boson_operator("pair", 3)
    assert boson_operator(OperatorSpec.PAIRING, 3) is not boson_operator(OperatorSpec.PAIRING, 4)


def test_negative_tau_delegates_to_magnitude():
    assert (
        deformed_matrix(2, 4, -2, OperatorSpec.PAIRING).entries
        == deformed_matrix(2, 4, 2, OperatorSpec.PAIRING).entries
    )


def test_bracket_table_is_built_once_per_block(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return table(*args)

    monkeypatch.setattr(transform, "table", counted)
    transform._block_table.cache_clear()
    for tau in (2, -2):
        for op in OperatorSpec:
            for conv in ("standard", Convention.STANDARD):
                deformed_matrix(2, 6, tau, op, conv)
    deformed_matrix(2, 6, 2, OperatorSpec.PAIRING, Convention.BARRED)
    assert built == [(2, 6, 2, Convention.STANDARD), (2, 6, 2, Convention.BARRED)]
    transform._block_table.cache_clear()


def test_two_step_takes_each_column_scale_from_col_sq(monkeypatch):
    def rescaled(*args):
        # column i of the core times i + 2, its v**2 divided by (i + 2)**2: the same brackets
        tab = table(*args)
        core = tuple(tuple(q * (i + 2) for i, q in enumerate(row)) for row in tab.core)
        col_sq = tuple(v_sq / (i + 2) ** 2 for i, v_sq in enumerate(tab.col_sq))
        return dataclasses.replace(tab, core=core, col_sq=col_sq)

    blocks = list(_blocks(4, 8))
    expected = [deformed_matrix(*block).entries for block in blocks]
    monkeypatch.setattr(transform, "table", rescaled)
    transform._block_table.cache_clear()
    try:
        for block, entries in zip(blocks, expected):
            assert deformed_matrix(*block).entries == entries, block
    finally:
        transform._block_table.cache_clear()


def test_operator_spec_parsing():
    assert OperatorSpec("bnum") is OperatorSpec.B_NUMBER
    with pytest.raises(ValueError):
        OperatorSpec("quadrupole")
