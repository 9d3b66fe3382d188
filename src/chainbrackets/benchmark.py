"""Benchmark the exact-arithmetic backends on the two hot workloads.

The package's inner loops are arbitrary-precision rational arithmetic, so the
performance lever is the rational backend: GMP-backed gmpy2.mpq against the
pure-Python fractions.Fraction fallback.  Results are identical either way;
this compares wall time only.

Run with:  python -m chainbrackets.benchmark
"""

from __future__ import annotations

import argparse
import time

from . import fockoracle
from ._backend import available_backends, current_backend, set_backend
from .brackets import Convention, table
from .fockoracle import oracle_bracket
from .labels import bracket_index_set


def _table_workload(nu_max: int, n_max: int) -> int:
    count = 0
    for nu in range(2, nu_max + 1):
        for N in range(n_max + 1):
            for tau in range(N + 1):
                tab = table(nu, N, tau)
                if not tab.is_orthogonal():
                    raise RuntimeError(f"table nu={nu} N={N} tau={tau} is not orthogonal")
                count += len(tab.ns) ** 2
    return count


def _oracle_workload(nu: int, n_max: int) -> int:
    count = 0
    for N in range(n_max + 1):
        for tau in range(N + 1):
            ns, sigmas = bracket_index_set(nu, N, tau)
            for n in ns:
                for sigma in sigmas:
                    for conv in (Convention.STANDARD, Convention.BARRED):
                        oracle_bracket(nu, N, n, sigma, tau, conv)
                        count += 1
    return count


def _timed(fn, *args) -> tuple[float, int]:
    fockoracle.clear_caches()
    start = time.perf_counter()
    count = fn(*args)
    return time.perf_counter() - start, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nu-max", type=int, default=5, help="table workload range")
    parser.add_argument("--N-max", type=int, default=8, help="table workload range")
    parser.add_argument("--oracle-nu", type=int, default=3)
    parser.add_argument("--oracle-N-max", type=int, default=6)
    args = parser.parse_args(argv)

    default = current_backend()
    print(f"backends available: {', '.join(available_backends())}")
    results = {}
    for name in available_backends():
        set_backend(name)
        t_tab, n_tab = _timed(_table_workload, args.nu_max, args.N_max)
        t_orc, n_orc = _timed(_oracle_workload, args.oracle_nu, args.oracle_N_max)
        results[name] = (t_tab, t_orc)
        print(
            f"{name:>10}: tables {t_tab:8.3f}s ({n_tab} brackets)   "
            f"oracle {t_orc:8.3f}s ({n_orc} overlaps)"
        )
    set_backend(default)
    fockoracle.clear_caches()
    if len(results) == 2:
        slow = results["fractions"]
        fast = results["gmpy2"]
        print(
            f"speedup gmpy2 vs fractions: tables x{slow[0] / fast[0]:.2f}, "
            f"oracle x{slow[1] / fast[1]:.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
