"""Benchmark workloads: seeded unit lists, and the exact check each unit carries.

A unit is a tuple whose first field names its kind.  Running a unit calls the
program's public functions through their modules' attributes, so wrappers
that perfbench.tracing installs are seen, and makes the same exact check that
the matching `chainbrackets verify` suite makes.  It also returns the text
the unit rendered, so a pass can be pinned by a digest of its outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time

from chainbrackets import brackets, cli, exactnum, fockoracle, labels, transform
from chainbrackets.brackets import Convention
from chainbrackets.fockoracle import CasimirGroup
from chainbrackets.transform import OperatorSpec

WORKLOADS = ("tables", "oracle", "transform")

# Same order as verify's conventions, so parity counts line up.
CONVENTIONS = (Convention.STANDARD, Convention.BARRED)


def _taus(nu: int, N: int) -> range:
    """Admissible tau labels of the (nu, N) shell; signed for nu = 2, as in verify."""
    return range(-N, N + 1) if nu == 2 else range(N + 1)


# ---------------------------------------------------------------------------
# Unit enumerations over a label box: one unit per check of the verify suite
# ---------------------------------------------------------------------------


def orthogonality_units(nu_max: int, n_max: int) -> list[tuple]:
    """One table per (nu, N, tau, convention): the units of verify's orth suite."""
    return [
        ("table", nu, N, tau, conv)
        for nu in range(2, nu_max + 1)
        for N in range(n_max + 1)
        for tau in _taus(nu, N)
        for conv in CONVENTIONS
    ]


def oracle_units(nu_max: int, n_max: int) -> list[tuple]:
    """Closed form against the Fock oracle per label tuple and convention."""
    out = []
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for tau in _taus(nu, N):
                ns, sigmas = labels.bracket_index_set(nu, N, tau)
                for n in ns:
                    for sigma in sigmas:
                        out.extend(("oracle", nu, N, tau, n, sigma, conv) for conv in CONVENTIONS)
    return out


def casimir_units(nu_max: int, n_max: int) -> list[tuple]:
    """Casimir triple plus number check per deformed state (tau >= 0, as in verify)."""
    return [
        ("casimir", nu, N, sigma, tau, conv)
        for nu in range(2, nu_max + 1)
        for N in range(n_max + 1)
        for sigma in range(N % 2, N + 1, 2)
        for tau in range(sigma + 1)
        for conv in CONVENTIONS
    ]


def su11_units(nus: tuple[int, ...], cutoff: int) -> list[tuple]:
    return [("su11", nu, cutoff) for nu in nus]


def transform_units(nu_max: int, n_max: int) -> list[tuple]:
    """Two-step transform against the oracle per block, convention and operator."""
    return [
        ("transform", nu, N, tau, conv, op)
        for nu in range(2, nu_max + 1)
        for N in range(n_max + 1)
        for tau in _taus(nu, N)
        for conv in CONVENTIONS
        for op in OperatorSpec
    ]


def _stratum(values: list, k: int, parts: int) -> list:
    """The k-th of `parts` contiguous slices of values (all of them if that slice is empty)."""
    return values[k * len(values) // parts : (k + 1) * len(values) // parts] or values


def sampled_table_units(rng: random.Random, nu_max: int, n_max: int, per_dim: int) -> list[tuple]:
    """per_dim blocks of every block dimension d, drawn from nu 2..nu_max, N 0..n_max.

    A block's cost grows as d**3 in its dimension d = (N - |tau|) // 2 + 1, and
    more slowly with N and nu.  Drawing per_dim blocks for every d, the k-th
    from the k-th slice of the N and nu ranges, gives every seed the same work.
    """
    nus = list(range(2, nu_max + 1))
    out = []
    for d in range(1, n_max // 2 + 2):
        shapes = [(N, t) for N in range(n_max + 1) for t in range(N + 1) if (N - t) // 2 + 1 == d]
        for k in range(per_dim):
            N, t = rng.choice(_stratum(shapes, k, per_dim))
            nu = rng.choice(_stratum(nus, k, per_dim))
            tau = -t if nu == 2 and rng.random() < 0.5 else t
            out.append(("table", nu, N, tau, rng.choice(CONVENTIONS)))
    return out


def make_units(workload: str, seed: int, tiny: bool = False) -> list[tuple]:
    """The seeded unit list of a workload.

    tables samples its blocks from the seed; oracle and transform cover a fixed
    box, so their seed only sets the order, and with it which unit finds the
    oracle's state caches cold.  tiny shrinks every box for the self-test.
    """
    rng = random.Random(seed)
    if workload == "tables":
        units = sampled_table_units(rng, *((4, 6, 1) if tiny else (20, 32, 3)))
    elif workload == "oracle":
        if tiny:
            units = oracle_units(3, 3) + casimir_units(3, 3) + su11_units((2, 3), 2)
        else:
            units = oracle_units(5, 8) + casimir_units(5, 6) + su11_units((2, 3, 5), 3)
    elif workload == "transform":
        units = transform_units(*((3, 3) if tiny else (4, 8)))
    else:
        raise ValueError(f"unknown workload {workload!r}; available: {', '.join(WORKLOADS)}")
    rng.shuffle(units)
    return units


# ---------------------------------------------------------------------------
# Running units
# ---------------------------------------------------------------------------


def describe(unit: tuple) -> str:
    return " ".join(str(getattr(field, "value", field)) for field in unit)


def _float_matches(x: float, value) -> bool:
    """A rendered float equals sign * sqrt(num/den) to its 10 significant digits."""
    num, den = int(value.radicand.numerator), int(value.radicand.denominator)
    return math.isclose(x, value.sign * math.sqrt(num / den), rel_tol=1e-9)


def _exact_fields(value) -> tuple[int, str, str]:
    return value.sign, str(int(value.radicand.numerator)), str(int(value.radicand.denominator))


def _json_problem(text: str, head: dict, index_keys: tuple[str, ...], cells: list) -> str | None:
    """Compare rendered JSON against the exact values it should carry."""
    doc = json.loads(text)
    for key, want in head.items():
        if doc.get(key) != want:
            return f"rendered {key} is {doc.get(key)!r}, expected {want!r}"
    if len(doc["entries"]) != len(cells):
        return "rendered entry count differs"
    for rec, (index, value) in zip(doc["entries"], cells):
        got = tuple(rec[k] for k in index_keys) + (rec["sign"], rec["radicand_num"], rec["radicand_den"])
        if got != index + _exact_fields(value) or not _float_matches(rec["float"], value):
            return f"rendered entry {index} differs from the exact value"
    return None


def _csv_problem(text: str, tab, cells: list) -> str | None:
    rows = text.splitlines()
    if len(rows) != len(cells) + 1:
        return "rendered CSV row count differs"
    for row, ((n, sigma), value) in zip(rows[1:], cells):
        fields = row.split(",")
        want = [str(tab.nu), str(tab.N), str(tab.tau), str(n), str(sigma), str(value.sign)]
        if fields[:6] != want or tuple(fields[6:8]) != _exact_fields(value)[1:]:
            return f"rendered CSV row n={n} sigma={sigma} differs from the exact value"
        if not _float_matches(float(fields[8]), value):
            return f"rendered CSV float n={n} sigma={sigma} differs from the exact value"
    return None


def _run_table(nu, N, tau, conv, pending):
    """The `table` command: build, check orthogonality, render JSON and CSV."""
    tab = brackets.table(nu, N, tau, conv)
    orthogonal = tab.is_orthogonal()
    js = cli.render_table_json(tab)
    csv = cli.render_table_csv(tab)
    cells = [
        ((n, sigma), tab.entries[i][j])
        for i, n in enumerate(tab.ns)
        for j, sigma in enumerate(tab.sigmas)
    ]
    head = {
        "format_version": cli.FORMAT_VERSION,
        "nu": nu,
        "N": N,
        "tau": tau,
        "convention": conv.value,
    }
    problem = (
        ("table is not exactly orthogonal" if not orthogonal else None)
        or _json_problem(js, head, ("n", "sigma"), cells)
        or _csv_problem(csv, tab, cells)
    )
    return problem, (js, csv)


def _run_oracle(nu, N, tau, n, sigma, conv, pending):
    closed = brackets.bracket(nu, N, n, sigma, tau, conv)
    sign, square = fockoracle.oracle_bracket(nu, N, n, sigma, tau, conv)
    problem = None
    if closed.sign != sign or closed.radicand != square:
        problem = f"closed form {closed.render()} != oracle ({sign}, {square})"
    text = f"oracle nu={nu} N={N} tau={tau} n={n} sigma={sigma} {conv.value} {closed.render()}"
    return problem, (text,)


def _run_casimir(nu, N, sigma, tau, conv, pending):
    st = fockoracle.build_chain2_state(nu, N, sigma, tau, conv)
    psi = st.state
    ok = (
        fockoracle.is_exact_eigenstate(
            nu, psi, CasimirGroup.SO_NU_PLUS_ONE, sigma * (sigma + nu - 1), conv
        )
        and fockoracle.is_exact_eigenstate(nu, psi, CasimirGroup.SO_NU, tau * (tau + nu - 2), conv)
        and fockoracle.apply(fockoracle.number_operator(nu), psi) == psi.times(N)
    )
    text = (
        f"casimir nu={nu} N={N} sigma={sigma} tau={tau} {conv.value} "
        f"monomials={len(psi.terms)} norm_sq={st.norm_sq}"
    )
    return (None if ok else "not an exact Casimir/number eigenstate"), (text,)


def _run_su11(nu, cutoff, pending):
    ok = fockoracle.su11_commutator_check(nu, cutoff)
    return (None if ok else "quasi-spin commutator check failed"), (f"su11 nu={nu} cutoff={cutoff} {ok}",)


def _number_sum_problem(bnum, snum, N: int) -> str | None:
    """bnum + snum = N * identity, entrywise in exact surd arithmetic."""
    d = len(bnum.sigmas)
    n_id = exactnum.SurdValue.of_rational(N)
    zero = exactnum.SurdValue.zero()
    for i in range(d):
        for j in range(d):
            if bnum.entries[i][j] + snum.entries[i][j] != (n_id if i == j else zero):
                return "bnum + snum != N * identity"
    return None


def _run_transform(nu, N, tau, conv, op, pending):
    """The `transform` command plus verify's oracle, trace, symmetry and number checks.

    pending holds each block's bnum or snum matrix until its partner arrives,
    since the seeded order separates them.
    """
    two = transform.deformed_matrix(nu, N, tau, op, conv)
    direct = transform.deformed_matrix_oracle(nu, N, tau, op, conv)
    sph = transform.spherical_matrix(nu, N, tau, op)
    d = len(two.sigmas)
    trace = trace_sph = exactnum.SurdValue.zero()
    for i in range(d):
        trace = trace + two.entries[i][i]
        trace_sph = trace_sph + sph.entries[i][i]
    problem = None
    if two.entries != direct.entries:
        problem = "two-step matrix != oracle matrix"
    elif trace != trace_sph:
        problem = "trace differs from the spherical trace"
    elif any(two.entries[i][j] != two.entries[j][i] for i in range(d) for j in range(d)):
        problem = "transformed matrix is not symmetric"
    if op in (OperatorSpec.B_NUMBER, OperatorSpec.S_NUMBER):
        block = pending.setdefault((nu, N, tau, conv), {})
        block[op] = two
        if len(block) == 2:
            del pending[(nu, N, tau, conv)]
            problem = problem or _number_sum_problem(
                block[OperatorSpec.B_NUMBER], block[OperatorSpec.S_NUMBER], N
            )
    text = cli.render_transform_json(two)
    head = {
        "format_version": cli.FORMAT_VERSION,
        "nu": nu,
        "N": N,
        "tau": tau,
        "op": op.value,
        "convention": conv.value,
        "oracle_backed": [list(ij) for ij in sorted(two.oracle_backed)],
    }
    cells = [
        ((srow, scol), two.entries[i][j])
        for i, srow in enumerate(two.sigmas)
        for j, scol in enumerate(two.sigmas)
    ]
    problem = problem or _json_problem(text, head, ("sigma_row", "sigma_col"), cells)
    return problem, (text,)


_RUNNERS = {
    "table": _run_table,
    "oracle": _run_oracle,
    "casimir": _run_casimir,
    "su11": _run_su11,
    "transform": _run_transform,
}


def run_pass(units: list[tuple]) -> dict:
    """Run every unit once, in order; one unit is one exact check.

    Returns wall seconds, per-unit latencies in ms, the check and failure
    counts, the first few failures and the sha256 of the sorted outputs.
    """
    pending: dict = {}
    latencies = []
    hashes = []
    failures = []
    start = time.perf_counter()
    for unit in units:
        t0 = time.perf_counter()
        try:
            problem, outputs = _RUNNERS[unit[0]](*unit[1:], pending)
        except Exception as exc:  # a unit that raises is a failed check; the pass goes on
            problem, outputs = f"raised {type(exc).__name__}: {exc}", ()
        latencies.append((time.perf_counter() - t0) * 1e3)
        hashes.extend(hashlib.sha256(text.encode()).hexdigest() for text in outputs)
        if problem:
            failures.append(f"{describe(unit)}: {problem}")
    return {
        "wall_s": time.perf_counter() - start,
        "latencies_ms": latencies,
        "checks": len(units),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": hashlib.sha256("\n".join(sorted(hashes)).encode()).hexdigest(),
    }
