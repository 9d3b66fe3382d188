"""Verification suites: every invariant of the package, checked exactly over label ranges.

Each suite walks all admissible labels in the requested range and compares
two independently computed exact values; the first mismatch is reported with
the offending label tuple and both values.  There are no tolerances anywhere.
"""

from __future__ import annotations

from collections import Counter
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
from .exactnum import SurdValue
from .fockoracle import (
    CasimirGroup,
    build_chain2_state,
    is_exact_eigenstate,
    number_operator,
    apply,
    oracle_bracket,
    su11_commutator_check,
)
from .labels import (
    LabelError,
    bracket_index_set,
    check_dimension,
    enumerate_chain1,
    enumerate_chain2,
)
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


def _run(name: str, checks) -> SuiteResult:
    """Count checks up to the first failure; each check yields None or its failure text."""
    checked = 0
    for failure in checks:
        checked += 1
        if failure is not None:
            return SuiteResult(name, False, checked, failure)
    return SuiteResult(name, True, checked)


def _blocks(nu_max: int, n_max: int):
    """Every (nu, N, tau) bracket block in the range, tau signed at nu = 2."""
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for tau in range(-N, N + 1) if nu == 2 else range(N + 1):
                yield nu, N, tau


def _bracket_labels(nu_max: int, n_max: int):
    """All (nu, N, tau, n, sigma) with both chain labels admissible."""
    for nu, N, tau in _blocks(nu_max, n_max):
        ns, sigmas = bracket_index_set(nu, N, tau)
        for n in ns:
            for sigma in sigmas:
                yield nu, N, tau, n, sigma


def suite_orthogonality(nu_max: int, n_max: int) -> SuiteResult:
    """Every bracket table is exactly orthogonal, in both conventions."""
    return _run(
        "orth",
        (
            None
            if table(nu, N, tau, conv).is_orthogonal()
            else f"table nu={nu} N={N} tau={tau} {conv.value}"
            for nu, N, tau in _blocks(nu_max, n_max)
            for conv in _BOTH
        ),
    )


def suite_formula_equivalence(nu_max: int, n_max: int) -> SuiteResult:
    """The three evaluation routes agree exactly on every admissible label."""

    def checks():
        for nu, N, tau, n, sigma in _bracket_labels(nu_max, n_max):
            reference = bracket(nu, N, n, sigma, tau)
            expanded = bracket_expanded(nu, N, n, sigma, tau)
            poch = bracket_pochhammer(nu, N, n, sigma, tau)
            yield None if reference == expanded == poch else (
                f"nu={nu} N={N} tau={tau} n={n} sigma={sigma}: "
                f"factored={reference.render()} expanded={expanded.render()} "
                f"pochhammer={poch.render()}"
            )

    return _run("poch", checks())


def suite_sigma_equals_n(nu_max: int, n_max: int) -> SuiteResult:
    """The stretched-column closed form matches the general bracket, sign included."""

    def checks():
        for nu, N, tau in _blocks(nu_max, n_max):
            ns, sigmas = bracket_index_set(nu, N, tau)
            if sigmas[-1] != N:
                continue
            for n in ns:
                general = bracket(nu, N, n, N, tau)
                special = bracket_sigma_eq_N(nu, N, n, tau)
                yield None if general == special and special.sign >= 0 else (
                    f"nu={nu} N={N} tau={tau} n={n}: "
                    f"general={general.render()} special={special.render()}"
                )

    return _run("sigmaN", checks())


def suite_oracle_equivalence(nu_max: int, n_max: int) -> SuiteResult:
    """Closed-form (sign, radicand) equals the Fock oracle's (sign, square)."""

    def checks():
        for nu, N, tau, n, sigma in _bracket_labels(nu_max, n_max):
            for conv in _BOTH:
                closed = bracket(nu, N, n, sigma, tau, conv)
                sign, square = oracle_bracket(nu, N, n, sigma, tau, conv)
                yield None if closed.sign == sign and closed.radicand == square else (
                    f"nu={nu} N={N} tau={tau} n={n} sigma={sigma} {conv.value}: "
                    f"closed={closed.render()} oracle=({sign}, {square})"
                )

    return _run("oracle", checks())


def suite_casimir(nu_max: int, n_max: int) -> SuiteResult:
    """Every constructed deformed state is a termwise eigenstate of the defining triple."""

    def holds(nu, N, sigma, tau, conv) -> bool:
        st = build_chain2_state(nu, N, sigma, tau, conv)
        return (
            is_exact_eigenstate(
                nu, st.state, CasimirGroup.SO_NU_PLUS_ONE, sigma * (sigma + nu - 1), conv
            )
            and is_exact_eigenstate(nu, st.state, CasimirGroup.SO_NU, tau * (tau + nu - 2), conv)
            and apply(number_operator(nu), st.state) == st.state.times(N)
        )

    return _run(
        "casimir",
        (
            None
            if holds(nu, N, sigma, tau, conv)
            else f"nu={nu} N={N} sigma={sigma} tau={tau} {conv.value}"
            for nu in range(2, nu_max + 1)
            for N in range(n_max + 1)
            for sigma in range(N % 2, N + 1, 2)
            for tau in range(sigma + 1)
            for conv in _BOTH
        ),
    )


def suite_gegenbauer(nu_max: int, delta_max: int = 10, sigma_max: int = 12) -> SuiteResult:
    """Expansion coefficients reconstructed through the polynomial route match."""
    return _run(
        "gegenbauer",
        (
            None if verify_F_via_gegenbauer(nu, sigma, tau) else f"nu={nu} sigma={sigma} tau={tau}"
            for nu in range(2, nu_max + 1)
            for sigma in range(sigma_max + 1)
            for tau in range(max(0, sigma - delta_max), sigma + 1)
        ),
    )


def suite_su11(nus=(2, 3, 5), cutoff: int = 6) -> SuiteResult:
    """Quasi-spin commutators and pair-operator centralizer checks."""
    return _run(
        "su11",
        (None if su11_commutator_check(nu, cutoff) else f"nu={nu} cutoff={cutoff}" for nu in nus),
    )


def suite_barred_sign(nu_max: int, n_max: int) -> SuiteResult:
    """Barred bracket = (-1)^((n-tau)/2) * standard bracket, entrywise."""

    def checks():
        for nu, N, tau, n, sigma in _bracket_labels(nu_max, n_max):
            standard = bracket(nu, N, n, sigma, tau, Convention.STANDARD)
            barred = bracket(nu, N, n, sigma, tau, Convention.BARRED)
            expected = standard if barred_sign(n, tau) > 0 else -standard
            yield None if barred == expected else f"nu={nu} N={N} tau={tau} n={n} sigma={sigma}"

    return _run("barred", checks())


def _symmetric_with_trace_of(mat, sph) -> bool:
    """Whether mat is symmetric and has the trace of the spherical matrix sph."""
    d = len(mat.sigmas)
    trace = sum((mat.entries[i][i] for i in range(d)), SurdValue.zero())
    trace_sph = sum((sph.entries[i][i] for i in range(d)), SurdValue.zero())
    return trace == trace_sph and all(
        mat.entries[i][j] == mat.entries[j][i] for i in range(d) for j in range(d)
    )


def _numbers_sum_to(mats, N: int) -> bool:
    """Whether the bnum and snum matrices add up to N times the identity."""
    bnum, snum = mats[OperatorSpec.B_NUMBER].entries, mats[OperatorSpec.S_NUMBER].entries
    n_id = SurdValue.of_rational(N)
    d = len(bnum)
    return all(
        bnum[i][j] + snum[i][j] == (n_id if i == j else SurdValue.zero())
        for i in range(d)
        for j in range(d)
    )


def suite_transform(nu_max: int, n_max: int) -> SuiteResult:
    """Two-step transform equals the direct oracle; trace and operator identities hold."""

    def checks():
        for nu, N, tau in _blocks(nu_max, n_max):
            for conv in _BOTH:
                mats = {}
                for op in OperatorSpec:
                    mats[op] = two_step = deformed_matrix(nu, N, tau, op, conv)
                    direct = deformed_matrix_oracle(nu, N, tau, op, conv)
                    if two_step.entries != direct.entries:
                        yield f"nu={nu} N={N} tau={tau} op={op.value} {conv.value}"
                    elif not _symmetric_with_trace_of(two_step, spherical_matrix(nu, N, tau, op)):
                        yield f"trace/symmetry nu={nu} N={N} tau={tau} op={op.value}"
                    elif len(mats) == len(OperatorSpec) and not _numbers_sum_to(mats, N):
                        # bnum + snum = N needs all three operators, so it joins the last check
                        yield f"bnum+snum != N*I at nu={nu} N={N} tau={tau}"
                    else:
                        yield None

    return _run("transform", checks())


def suite_dimensions(nu_max: int, n_max: int) -> SuiteResult:
    """Both chains enumerate bases of equal size, per (nu, N) and per tau block."""

    def failure(nu: int, N: int) -> str | None:
        chain1 = enumerate_chain1(nu, N)
        chain2 = enumerate_chain2(nu, N)
        if len(chain1) != len(chain2):
            return f"nu={nu} N={N}: {len(chain1)} vs {len(chain2)}"
        blocks = Counter(lab.tau for lab in chain1)
        if blocks != Counter(lab.tau for lab in chain2):
            return f"nu={nu} N={N}: tau blocks differ"
        for tau, size in blocks.items():
            ns, sigmas = bracket_index_set(nu, N, tau)
            if len(ns) != size or len(sigmas) != size:
                return f"nu={nu} N={N} tau={tau}: block size"
        return None

    return _run(
        "dims", (failure(nu, N) for nu in range(2, nu_max + 1) for N in range(n_max + 1))
    )


# Suite names as the command line exposes them, in their default order; 'orth'
# includes the basis dimensions and 'oracle' the Casimir certification.
CLI_SUITES = {
    "orth": lambda nu_max, n_max: [
        suite_orthogonality(nu_max, n_max),
        suite_dimensions(nu_max, n_max),
    ],
    "poch": lambda nu_max, n_max: [suite_formula_equivalence(nu_max, n_max)],
    "sigmaN": lambda nu_max, n_max: [suite_sigma_equals_n(nu_max, n_max)],
    "oracle": lambda nu_max, n_max: [
        suite_oracle_equivalence(nu_max, n_max),
        suite_casimir(nu_max, n_max),
    ],
    "gegenbauer": lambda nu_max, n_max: [suite_gegenbauer(nu_max)],
    "su11": lambda nu_max, n_max: [
        suite_su11(nus=tuple(nu for nu in (2, 3, 5) if nu <= nu_max), cutoff=min(n_max, 6))
    ],
    "barred": lambda nu_max, n_max: [suite_barred_sign(nu_max, n_max)],
    "transform": lambda nu_max, n_max: [suite_transform(nu_max, n_max)],
}


def run_cli_suite(name: str, nu_max: int, n_max: int) -> list[SuiteResult]:
    """Run the command-line suite `name`; an unknown name or an empty range is a ValueError."""
    if name not in CLI_SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(CLI_SUITES)}")
    # an empty range (nu_max < 2 or n_max < 0) would report PASS for zero checks
    check_dimension(nu_max)
    if n_max < 0:
        raise LabelError(f"N={n_max} must be nonnegative")
    return CLI_SUITES[name](nu_max, n_max)
