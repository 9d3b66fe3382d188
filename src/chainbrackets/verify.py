"""Verification suites: every invariant of the package, checked exactly over label ranges.

Each suite walks all admissible labels in the requested range and compares
two independently computed exact values; the first mismatch is reported with
the offending label tuple and both values.  There are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brackets import (
    Convention,
    bracket,
    bracket_expanded,
    bracket_pochhammer,
    bracket_sigma_eq_N,
    barred_sign,
    table,
    verify_F_via_gegenbauer,
)
from .exactnum import SurdValue, rational
from .fockoracle import (
    CasimirGroup,
    build_chain2_state,
    is_exact_eigenstate,
    number_operator,
    apply,
    oracle_bracket,
    su11_commutator_check,
)
from .labels import bracket_index_set, enumerate_chain1, enumerate_chain2
from .transform import (
    OperatorSpec,
    deformed_matrix,
    deformed_matrix_oracle,
    spherical_matrix,
)

__all__ = [
    "SuiteResult",
    "suite_orthogonality",
    "suite_formula_equivalence",
    "suite_sigma_equals_n",
    "suite_oracle_equivalence",
    "suite_casimir",
    "suite_gegenbauer",
    "suite_su11",
    "suite_barred_sign",
    "suite_transform",
    "suite_dimensions",
    "CLI_SUITES",
    "run_cli_suite",
]

_BOTH = (Convention.STANDARD, Convention.BARRED)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    failure: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{self.name}: {status} ({self.checked} checks)"
        if self.failure:
            text += f" first failure: {self.failure}"
        return text


def _admissible_taus(nu: int, N: int):
    return range(-N, N + 1) if nu == 2 else range(N + 1)


def _bracket_labels(nu_max: int, n_max: int):
    """All (nu, N, tau, n, sigma) with both chain labels admissible."""
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for tau in _admissible_taus(nu, N):
                ns, sigmas = bracket_index_set(nu, N, tau)
                for n in ns:
                    for sigma in sigmas:
                        yield nu, N, tau, n, sigma


def suite_orthogonality(nu_max: int, n_max: int) -> SuiteResult:
    """Every bracket table is exactly orthogonal, in both conventions."""
    checked = 0
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for tau in _admissible_taus(nu, N):
                for conv in _BOTH:
                    tab = table(nu, N, tau, conv)
                    checked += 1
                    if not tab.is_orthogonal():
                        return SuiteResult(
                            "orth",
                            False,
                            checked,
                            f"table nu={nu} N={N} tau={tau} {conv.value}",
                        )
    return SuiteResult("orth", True, checked)


def suite_formula_equivalence(nu_max: int, n_max: int) -> SuiteResult:
    """The three evaluation routes agree exactly on every admissible label."""
    checked = 0
    for nu, N, tau, n, sigma in _bracket_labels(nu_max, n_max):
        reference = bracket(nu, N, n, sigma, tau)
        expanded = bracket_expanded(nu, N, n, sigma, tau)
        poch = bracket_pochhammer(nu, N, n, sigma, tau)
        checked += 1
        if not (reference == expanded == poch):
            return SuiteResult(
                "poch",
                False,
                checked,
                f"nu={nu} N={N} tau={tau} n={n} sigma={sigma}: "
                f"factored={reference.render()} expanded={expanded.render()} "
                f"pochhammer={poch.render()}",
            )
    return SuiteResult("poch", True, checked)


def suite_sigma_equals_n(nu_max: int, n_max: int) -> SuiteResult:
    """The stretched-column closed form matches the general bracket, sign included."""
    checked = 0
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for tau in _admissible_taus(nu, N):
                ns, sigmas = bracket_index_set(nu, N, tau)
                if sigmas[-1] != N:
                    continue
                for n in ns:
                    general = bracket(nu, N, n, N, tau)
                    special = bracket_sigma_eq_N(nu, N, n, tau)
                    checked += 1
                    if general != special or special.sign < 0:
                        return SuiteResult(
                            "sigmaN",
                            False,
                            checked,
                            f"nu={nu} N={N} tau={tau} n={n}: "
                            f"general={general.render()} special={special.render()}",
                        )
    return SuiteResult("sigmaN", True, checked)


def suite_oracle_equivalence(nu_max: int, n_max: int) -> SuiteResult:
    """Closed-form (sign, radicand) equals the Fock oracle's (sign, square)."""
    checked = 0
    for nu, N, tau, n, sigma in _bracket_labels(nu_max, n_max):
        for conv in _BOTH:
            closed = bracket(nu, N, n, sigma, tau, conv)
            sign, square = oracle_bracket(nu, N, n, sigma, tau, conv)
            checked += 1
            if closed.sign != sign or closed.radicand != square:
                return SuiteResult(
                    "oracle",
                    False,
                    checked,
                    f"nu={nu} N={N} tau={tau} n={n} sigma={sigma} {conv.value}: "
                    f"closed={closed.render()} oracle=({sign}, {square})",
                )
    return SuiteResult("oracle", True, checked)


def suite_casimir(nu_max: int, n_max: int) -> SuiteResult:
    """Every constructed deformed state is a termwise eigenstate of the defining triple."""
    checked = 0
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for sigma in range(N % 2, N + 1, 2):
                for tau in range(sigma + 1):
                    for conv in _BOTH:
                        st = build_chain2_state(nu, N, sigma, tau, conv)
                        ok = (
                            is_exact_eigenstate(
                                nu,
                                st.state,
                                CasimirGroup.SO_NU_PLUS_ONE,
                                sigma * (sigma + nu - 1),
                                conv,
                            )
                            and is_exact_eigenstate(
                                nu,
                                st.state,
                                CasimirGroup.SO_NU,
                                tau * (tau + nu - 2),
                                conv,
                            )
                            and apply(number_operator(nu), st.state)
                            == st.state.times(N)
                        )
                        checked += 1
                        if not ok:
                            return SuiteResult(
                                "casimir",
                                False,
                                checked,
                                f"nu={nu} N={N} sigma={sigma} tau={tau} {conv.value}",
                            )
    return SuiteResult("casimir", True, checked)


def suite_gegenbauer(nu_max: int, delta_max: int = 10, sigma_max: int = 12) -> SuiteResult:
    """Expansion coefficients reconstructed through the polynomial route match."""
    checked = 0
    for nu in range(2, nu_max + 1):
        for sigma in range(sigma_max + 1):
            for tau in range(max(0, sigma - delta_max), sigma + 1):
                checked += 1
                if not verify_F_via_gegenbauer(nu, sigma, tau):
                    return SuiteResult(
                        "gegenbauer", False, checked, f"nu={nu} sigma={sigma} tau={tau}"
                    )
    return SuiteResult("gegenbauer", True, checked)


def suite_su11(nus=(2, 3, 5), cutoff: int = 6) -> SuiteResult:
    """Quasi-spin commutators and pair-operator centralizer checks."""
    checked = 0
    for nu in nus:
        checked += 1
        if not su11_commutator_check(nu, cutoff):
            return SuiteResult("su11", False, checked, f"nu={nu} cutoff={cutoff}")
    return SuiteResult("su11", True, checked)


def suite_barred_sign(nu_max: int, n_max: int) -> SuiteResult:
    """Barred bracket = (-1)^((n-tau)/2) * standard bracket, entrywise."""
    checked = 0
    for nu, N, tau, n, sigma in _bracket_labels(nu_max, n_max):
        standard = bracket(nu, N, n, sigma, tau, Convention.STANDARD)
        barred = bracket(nu, N, n, sigma, tau, Convention.BARRED)
        expected = standard if barred_sign(n, tau) > 0 else -standard
        checked += 1
        if barred != expected:
            return SuiteResult(
                "barred",
                False,
                checked,
                f"nu={nu} N={N} tau={tau} n={n} sigma={sigma}",
            )
    return SuiteResult("barred", True, checked)


def _matrix_equal(a, b) -> bool:
    return a.entries == b.entries


def suite_transform(nu_max: int, n_max: int) -> SuiteResult:
    """Two-step transform equals the direct oracle; trace and operator identities hold."""
    checked = 0
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for tau in _admissible_taus(nu, N):
                for conv in _BOTH:
                    mats = {}
                    for op in OperatorSpec:
                        two_step = deformed_matrix(nu, N, tau, op, conv)
                        direct = deformed_matrix_oracle(nu, N, tau, op, conv)
                        checked += 1
                        if not _matrix_equal(two_step, direct):
                            return SuiteResult(
                                "transform",
                                False,
                                checked,
                                f"nu={nu} N={N} tau={tau} op={op.value} {conv.value}",
                            )
                        sph = spherical_matrix(nu, N, tau, op)
                        d = len(two_step.sigmas)
                        trace = SurdValue.zero()
                        trace_sph = SurdValue.zero()
                        for i in range(d):
                            trace = trace + two_step.entries[i][i]
                            trace_sph = trace_sph + sph.entries[i][i]
                        symmetric = all(
                            two_step.entries[i][j] == two_step.entries[j][i]
                            for i in range(d)
                            for j in range(d)
                        )
                        if trace != trace_sph or not symmetric:
                            return SuiteResult(
                                "transform",
                                False,
                                checked,
                                f"trace/symmetry nu={nu} N={N} tau={tau} op={op.value}",
                            )
                        mats[op] = two_step
                    d = len(mats[OperatorSpec.B_NUMBER].sigmas)
                    n_id = SurdValue.of_rational(N)
                    for i in range(d):
                        for j in range(d):
                            total = (
                                mats[OperatorSpec.B_NUMBER].entries[i][j]
                                + mats[OperatorSpec.S_NUMBER].entries[i][j]
                            )
                            want = n_id if i == j else SurdValue.zero()
                            if total != want:
                                return SuiteResult(
                                    "transform",
                                    False,
                                    checked,
                                    f"bnum+snum != N*I at nu={nu} N={N} tau={tau}",
                                )
    return SuiteResult("transform", True, checked)


def suite_dimensions(nu_max: int, n_max: int) -> SuiteResult:
    """Both chains enumerate bases of equal size, per (nu, N) and per tau block."""
    checked = 0
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            chain1 = enumerate_chain1(nu, N)
            chain2 = enumerate_chain2(nu, N)
            checked += 1
            if len(chain1) != len(chain2):
                return SuiteResult(
                    "dims", False, checked, f"nu={nu} N={N}: {len(chain1)} vs {len(chain2)}"
                )
            blocks1: dict[int, int] = {}
            blocks2: dict[int, int] = {}
            for lab in chain1:
                blocks1[lab.tau] = blocks1.get(lab.tau, 0) + 1
            for lab in chain2:
                blocks2[lab.tau] = blocks2.get(lab.tau, 0) + 1
            if blocks1 != blocks2:
                return SuiteResult("dims", False, checked, f"nu={nu} N={N}: tau blocks differ")
            for tau in blocks1:
                ns, sigmas = bracket_index_set(nu, N, tau)
                if len(ns) != blocks1[tau] or len(sigmas) != blocks1[tau]:
                    return SuiteResult(
                        "dims", False, checked, f"nu={nu} N={N} tau={tau}: block size"
                    )
    return SuiteResult("dims", True, checked)


CLI_SUITES = ("orth", "poch", "sigmaN", "oracle", "gegenbauer", "su11", "barred", "transform")


def run_cli_suite(name: str, nu_max: int, n_max: int) -> list[SuiteResult]:
    """Suites as exposed by the command line; 'oracle' includes the Casimir certification."""
    if name == "orth":
        return [suite_orthogonality(nu_max, n_max), suite_dimensions(nu_max, n_max)]
    if name == "poch":
        return [suite_formula_equivalence(nu_max, n_max)]
    if name == "sigmaN":
        return [suite_sigma_equals_n(nu_max, n_max)]
    if name == "oracle":
        return [
            suite_oracle_equivalence(nu_max, n_max),
            suite_casimir(nu_max, n_max),
        ]
    if name == "gegenbauer":
        return [suite_gegenbauer(nu_max)]
    if name == "su11":
        return [
            suite_su11(
                nus=tuple(nu for nu in (2, 3, 5) if nu <= max(nu_max, 2)),
                cutoff=min(n_max, 6),
            )
        ]
    if name == "barred":
        return [suite_barred_sign(nu_max, n_max)]
    if name == "transform":
        return [suite_transform(nu_max, n_max)]
    raise ValueError(f"unknown suite {name!r}; available: {', '.join(CLI_SUITES)}")
