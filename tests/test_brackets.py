"""Closed-form coefficients, the three bracket routes, tables, the polynomial cross-check.

Expected values marked by the oracle were computed independently with the
Fock-space construction in chainbrackets.fockoracle before being frozen here.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest

from chainbrackets.brackets import (
    Convention,
    bracket,
    bracket_expanded,
    bracket_pochhammer,
    bracket_sigma_eq_N,
    coeff_A,
    coeff_B,
    coeff_F,
    gegenbauer_coeffs,
    table,
    verify_F_via_gegenbauer,
)
from chainbrackets.exactnum import DomainError, SurdSumError, SurdValue, rational
from chainbrackets.labels import LabelError, bracket_index_set


def sqrt(num, den=1):
    return SurdValue.sqrt(rational(num, den))


def test_coeff_B_values():
    assert coeff_B(4, 3, 3) == SurdValue.one()
    assert coeff_B(2, 2, 0) == -sqrt(1, 4)  # oracle: norm of the pair creator on vacuum is 2*nu
    assert coeff_B(3, 3, 1) == -sqrt(1, 10)
    assert coeff_B(3, 5, 1) == sqrt(1, 280)


def test_coeff_B_errors():
    with pytest.raises(LabelError):
        coeff_B(3, 3, 2)
    with pytest.raises(LabelError):
        coeff_B(3, 1, 3)
    with pytest.raises(LabelError):
        coeff_B(3, 3, -1)


def test_coeff_A_values():
    assert coeff_A(7, 4, 4) == SurdValue.one()
    assert coeff_A(2, 2, 0) == -sqrt(1, 6)  # oracle: norm of the full pair creator on vacuum is 2*(nu+1)
    assert coeff_A(3, 2, 0) == -sqrt(1, 8)
    with pytest.raises(LabelError):
        coeff_A(3, 3, 2)


def test_coeff_F_values():
    assert coeff_F(5, 3, 3, 0) == SurdValue.one()
    assert coeff_F(2, 2, 0, 0) == sqrt(3, 4)  # oracle: pair-annihilation kernel at sigma=2
    assert coeff_F(2, 2, 0, 1) == -sqrt(1, 12)
    with pytest.raises(DomainError):
        coeff_F(2, 2, 0, 2)
    with pytest.raises(LabelError):
        coeff_F(2, 1, 2, 0)


def test_bracket_frozen_examples():
    assert bracket(6, 3, 3, 3, 3) == SurdValue.one()
    assert bracket(2, 2, 0, 0, 0) == -sqrt(1, 3)  # oracle overlap
    assert bracket(2, 2, 2, 0, 0) == sqrt(2, 3)
    assert bracket(2, 2, 2, 0, 0, Convention.BARRED) == -sqrt(2, 3)
    assert bracket(2, 2, 0, 0, 0, Convention.BARRED) == -sqrt(1, 3)


def test_bracket_accepts_convention_strings():
    assert bracket(2, 2, 2, 0, 0, "barred") == -sqrt(2, 3)
    with pytest.raises(ValueError):
        bracket(2, 2, 2, 0, 0, "twisted")


def test_bracket_label_errors_name_the_rule():
    with pytest.raises(LabelError, match="even"):
        bracket(2, 2, 1, 0, 0)
    with pytest.raises(LabelError, match="sigma"):
        bracket(2, 3, 1, 0, 1)
    with pytest.raises(LabelError, match="negative tau"):
        bracket(3, 3, 1, 1, -1)


def test_bracket_negative_tau_evaluates_at_magnitude():
    for n in (1, 3):
        for sigma in (1, 3):
            assert bracket(2, 3, n, sigma, -1) == bracket(2, 3, n, sigma, 1)


def test_bracket_pochhammer_examples():
    assert bracket_pochhammer(2, 2, 0, 2, 0) == sqrt(2, 3)
    assert bracket_pochhammer(3, 1, 0, 1, 0) == SurdValue.one()
    assert bracket_pochhammer(4, 5, 5, 5, 5) == SurdValue.one()


def test_bracket_sigma_eq_N_examples():
    assert bracket_sigma_eq_N(3, 4, 4, 4) == SurdValue.one()
    assert bracket_sigma_eq_N(2, 2, 0, 0) == sqrt(2, 3)
    assert bracket_sigma_eq_N(2, 2, 2, 0) == sqrt(1, 3)


def test_three_routes_agree_on_a_grid():
    for nu in (2, 3, 4):
        for N in range(7):
            for tau in range(N + 1):
                from chainbrackets.labels import bracket_index_set

                try:
                    ns, sigmas = bracket_index_set(nu, N, tau)
                except LabelError:
                    continue
                for n in ns:
                    for sigma in sigmas:
                        reference = bracket(nu, N, n, sigma, tau)
                        assert bracket_expanded(nu, N, n, sigma, tau) == reference
                        assert bracket_pochhammer(nu, N, n, sigma, tau) == reference


def test_table_example_and_orthogonality():
    tab = table(2, 2, 0)
    assert tab.ns == (0, 2) and tab.sigmas == (0, 2)
    assert tab.entries == (
        (-sqrt(1, 3), sqrt(2, 3)),
        (sqrt(2, 3), sqrt(1, 3)),
    )
    assert tab.is_orthogonal()
    assert tab.entry(2, 0) == sqrt(2, 3)


def test_table_trivial_cases():
    assert table(5, 3, 3).entries == ((SurdValue.one(),),)
    tab = table(3, 2, 1)
    assert tab.ns == (1,) and tab.sigmas == (2,)
    assert tab.entries == ((SurdValue.one(),),)


def test_table_orthogonality_over_range():
    for nu in (2, 3, 5):
        for N in range(6):
            for tau in range(-N if nu == 2 else 0, N + 1):
                for conv in Convention:
                    assert table(nu, N, tau, conv).is_orthogonal()


def _blocks(nu_max: int = 8, n_max: int = 14):
    """Every (nu, N, tau, convention) up to the bounds, tau signed at nu = 2."""
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for tau in range(-N if nu == 2 else 0, N + 1):
                for conv in Convention:
                    yield nu, N, tau, conv


def test_table_entries_equal_single_brackets():
    for nu, N, tau, conv in _blocks():
        tab = table(nu, N, tau, conv)
        for i, n in enumerate(tab.ns):
            for j, sigma in enumerate(tab.sigmas):
                assert tab.entries[i][j] == bracket(nu, N, n, sigma, tau, conv)


def test_table_factors_are_ints_with_primitive_columns():
    for block in _blocks():
        tab = table(*block)
        assert all(type(u_sq) is int and u_sq > 0 for u_sq in tab.row_sq), block
        assert all(type(q) is int for row in tab.core for q in row), block
        assert all(math.gcd(*column) == 1 for column in zip(*tab.core)), block
        assert all(type(v_sq) is Fraction and v_sq > 0 for v_sq in tab.col_sq), block


def test_table_row_squares_are_the_chain1_normalizations():
    # row_sq[a] = u_n**2 = (N - n)! / B**2: the scalar bosons times the pair ladder
    checks = 0
    for nu in range(2, 10):
        for N in range(15):
            for tau in range(N + 1):
                tab = table(nu, N, tau)
                for n, u_sq in zip(tab.ns, tab.row_sq):
                    assert u_sq == math.factorial(N - n) / coeff_B(nu, n, tau).radicand
                    checks += 1
    assert checks == 2976


def _df(m):
    return math.prod(range(m, 0, -2))


def _old_factors(nu, N, tau, conv):
    """(N-n)!/B**2, A**2 Fnorm**2 and the signed k-sum as Fractions, from the closed form."""
    t = abs(tau)
    ns, sigmas = bracket_index_set(nu, N, tau)
    u_sq = [
        Fraction(math.factorial(N - n) * _df(n + t + nu - 2) * _df(n - t), _df(2 * t + nu - 2))
        for n in ns
    ]
    v_sq = [
        Fraction(_df(2 * s + nu - 1), _df(N + s + nu - 1) * _df(N - s))
        * Fraction(
            math.factorial(s - t) * _df(2 * t + nu - 2),
            _df(2 * s + nu - 3) * math.factorial(s + t + nu - 2),
        )
        for s in sigmas
    ]
    q = []
    for n in ns:
        m = (n - t) // 2
        row = []
        for s in sigmas:
            h = (N - s) // 2
            ksum = sum(
                Fraction(
                    (-1) ** k * _df(2 * s + nu - 3 - 2 * k) * math.comb(k + h, m),
                    2**k * math.factorial(s - t - 2 * k) * math.factorial(k),
                )
                for k in range((s - t) // 2 + 1)
            )
            sign = (-1) ** h if conv is Convention.BARRED else (-1) ** (h + m)
            row.append(sign * ksum)
        q.append(row)
    return u_sq, v_sq, q


def test_table_factors_multiply_out_to_the_old_fraction_factors():
    for block in _blocks(8, 12):
        tab = table(*block)
        u_sq, v_sq, q = _old_factors(*block)
        assert list(tab.row_sq) == u_sq, block
        for a, row in enumerate(q):
            for i, q_ai in enumerate(row):
                core = tab.core[a][i]
                assert (core > 0) - (core < 0) == (q_ai > 0) - (q_ai < 0), block
                assert tab.col_sq[i] * core * core == v_sq[i] * q_ai * q_ai, block
                entry = tab.entries[a][i]
                assert entry.radicand == u_sq[a] * v_sq[i] * q_ai * q_ai, block


def _rescaled(tab, c, i):
    """The same brackets for c > 0: core column i times c, col_sq[i] divided by c**2."""
    core = tuple(row[:i] + (row[i] * c,) + row[i + 1 :] for row in tab.core)
    col_sq = tab.col_sq[:i] + (tab.col_sq[i] / (c * c),) + tab.col_sq[i + 1 :]
    return dataclasses.replace(tab, core=core, col_sq=col_sq)


def test_orthogonality_is_blind_to_column_rescaling():
    for nu, N, tau in ((2, 5, -1), (3, 6, 2), (4, 9, 1), (6, 12, 0)):
        for conv in Convention:
            tab = table(nu, N, tau, conv)
            for c, i in ((3, 0), (2, len(tab.sigmas) - 1), (12, len(tab.sigmas) // 2)):
                scaled = _rescaled(tab, c, i)
                assert scaled.core != tab.core
                assert scaled.entries == tab.entries and scaled.is_orthogonal()
                for expected, bad in _perturbed(scaled):
                    assert bad.is_orthogonal() is expected


def _surd_sum_orthogonal(entries) -> bool:
    """Reference check: every row and column dot product summed in surd arithmetic."""
    d = len(entries)
    try:
        for i in range(d):
            for j in range(i, d):
                col = row = SurdValue.zero()
                for a in range(d):
                    col = col + entries[a][i] * entries[a][j]
                    row = row + entries[i][a] * entries[j][a]
                want = SurdValue.one() if i == j else SurdValue.zero()
                if col != want or row != want:
                    return False
    except SurdSumError:
        return False
    return True


def _perturbed(tab):
    """(still orthogonal?, table) pairs whose factors were altered via dataclasses.replace."""
    core = [list(row) for row in tab.core]
    flipped = tuple(tuple(-q for q in row) if a == 0 else tuple(row) for a, row in enumerate(core))
    yield True, dataclasses.replace(tab, core=flipped)  # a row's sign is free
    doubled = tuple(tuple(2 * q for q in row) for row in core)
    yield False, dataclasses.replace(tab, core=doubled)  # dot products stay 0, norms do not
    core[-1][0] = -core[-1][0]
    yield False, dataclasses.replace(tab, core=tuple(map(tuple, core)))
    core[-1][0] = -core[-1][0] + 1
    yield False, dataclasses.replace(tab, core=tuple(map(tuple, core)))
    yield False, dataclasses.replace(tab, row_sq=(tab.row_sq[0] * 4,) + tab.row_sq[1:])
    yield False, dataclasses.replace(tab, col_sq=tab.col_sq[:-1] + (tab.col_sq[-1] * 2,))


def test_perturbed_factors_are_not_orthogonal():
    for nu, N, tau in ((2, 2, 0), (2, 5, -1), (3, 6, 2), (4, 9, 1)):
        for conv in Convention:
            for expected, bad in _perturbed(table(nu, N, tau, conv)):
                assert bad.is_orthogonal() is expected


@pytest.mark.parametrize(
    "nu, N, tau, conv",
    [
        (2, 6, 0, Convention.STANDARD),
        (2, 9, -3, Convention.BARRED),
        (3, 8, 1, Convention.STANDARD),
        (5, 10, 2, Convention.BARRED),
        (7, 12, 0, Convention.STANDARD),
    ],
)
def test_rational_check_agrees_with_surd_sums(nu, N, tau, conv):
    tab = table(nu, N, tau, conv)
    assert len(tab.ns) >= 4
    assert tab.is_orthogonal() and _surd_sum_orthogonal(tab.entries)
    for expected, bad in _perturbed(tab):
        assert bad.is_orthogonal() is expected
        assert _surd_sum_orthogonal(bad.entries) is expected


def test_barred_tables_flip_row_signs():
    tab = table(3, 6, 2)
    barred = table(3, 6, 2, Convention.BARRED)
    for i, n in enumerate(tab.ns):
        flip = ((n - 2) // 2) % 2
        for j in range(len(tab.sigmas)):
            expected = -tab.entries[i][j] if flip else tab.entries[i][j]
            assert barred.entries[i][j] == expected


def test_gegenbauer_examples():
    assert gegenbauer_coeffs(rational(7, 3), 0) == (rational(1),)
    assert gegenbauer_coeffs(1, 2) == (rational(-1), rational(0), rational(4))
    assert gegenbauer_coeffs(rational(3, 2), 2) == (rational(-3, 2), rational(0), rational(15, 2))
    with pytest.raises(DomainError):
        gegenbauer_coeffs(0, 2)


def test_gegenbauer_value_at_one():
    # C_m(1) = (2 lam)_m / m!  pins the whole coefficient vector
    from chainbrackets.exactnum import factorial, pochhammer

    for num in (1, 2, 5):
        lam = rational(num, 2)
        for m in range(8):
            coeffs = gegenbauer_coeffs(lam, m)
            assert sum(coeffs) == pochhammer(2 * lam, m) / factorial(m)


def test_a_perturbed_table_weight_fails_the_gegenbauer_suite(monkeypatch):
    from chainbrackets import brackets
    from chainbrackets.verify import suite_gegenbauer

    real = brackets._f_weights
    good = table(3, 6, 0)

    def perturbed(nu, sigma, t):
        weights = real(nu, sigma, t)
        weights[-1] *= 2
        return weights

    monkeypatch.setattr(brackets, "_f_weights", perturbed)
    # the tables read the perturbed weights, and the suite certifies those weights
    assert table(3, 6, 0).core != good.core
    assert not suite_gegenbauer(3).passed


def test_verify_F_examples():
    assert verify_F_via_gegenbauer(2, 3, 3)
    assert verify_F_via_gegenbauer(2, 2, 0)
    assert verify_F_via_gegenbauer(5, 4, 1)


def test_verify_F_small_sweep():
    for nu in (2, 3, 4, 6):
        for sigma in range(7):
            for tau in range(sigma + 1):
                assert verify_F_via_gegenbauer(nu, sigma, tau)


def test_double_factorial_arguments_stay_in_domain():
    # the lowest argument reached by the expansion coefficients is >= -1
    for nu in (2, 3):
        for sigma in range(8):
            for tau in range(sigma + 1):
                for k in range((sigma - tau) // 2 + 1):
                    coeff_F(nu, sigma, tau, k)  # raises DomainError if not
