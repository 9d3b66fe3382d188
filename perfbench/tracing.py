"""Per-layer spans and counters, installed from the benchmark's side.

Each traced name is wrapped once and the wrapper is bound in every loaded
chainbrackets module that had bound the original: the package imports names
by value (`from .fockoracle import apply`), so wrapping only the defining
module would miss calls made from transform or verify.

Two tracers exist because their wrappers cost very different amounts.
LayerTracer records spans around the layers' public functions; a layer's
self time is its spans' duration minus the time covered by child spans.
ExactnumCounter counts the exact-arithmetic operations, which run millions
of times, so it runs in a pass of its own and its wrappers do not inflate
the other layers' self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from chainbrackets import brackets, cli, exactnum, fockoracle, labels, transform

# (module, function) pairs spanned by LayerTracer; metric prefix is module.function.
SPANNED = (
    (labels, "bracket_index_set"),
    (brackets, "bracket"),
    (brackets, "table"),
    (fockoracle, "apply"),
    (fockoracle, "inner"),
    (fockoracle, "build_chain1_state"),
    (fockoracle, "build_chain2_state"),
    (fockoracle, "oracle_bracket"),
    (fockoracle, "casimir_apply"),
    (fockoracle, "su11_commutator_check"),
    (transform, "spherical_matrix"),
    (transform, "deformed_matrix"),
    (transform, "deformed_matrix_oracle"),
    (cli, "render_table_json"),
    (cli, "render_table_csv"),
    (cli, "render_transform_json"),
)

# The oracle's memoized state constructors, whose hits and misses are reported.
STATE_CACHES = ("build_chain1_state", "build_chain2_state")


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


class _Bindings:
    """Replace a function in every chainbrackets module that bound it, and undo that."""

    def __init__(self):
        self._undo = []
        self.bound_in: dict[str, list[str]] = {}

    def rebind(self, name: str, original, wrapper) -> None:
        where = []
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "chainbrackets" and not mod_name.startswith("chainbrackets."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
                    where.append(mod_name)
        self.bound_in[name] = where

    def patch_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class LayerTracer:
    """Spans at the layer boundaries: calls and self seconds per name, plus work counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._bindings = _Bindings()
        self._originals: dict = {}
        self._caches: list = []

    @property
    def bound_in(self) -> dict[str, list[str]]:
        return self._bindings.bound_in

    def _span(self, name: str, fn, count=None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_apply(self, args, result) -> None:
        op, psi = args
        self.counts["fockoracle.apply.term_products"] += len(op.terms) * len(psi.terms)

    def _count_table(self, args, result) -> None:
        self.counts["brackets.entries"] += len(result.ns) * len(result.sigmas)

    def _count_deformed(self, args, result) -> None:
        self.counts["transform.deformed_matrix.oracle_backed"] += len(result.oracle_backed)
        self.counts["transform.deformed_matrix.entries"] += len(result.sigmas) ** 2

    def _count_state(self, fn_name: str):
        cached = getattr(fockoracle, fn_name)
        last = [cached.cache_info().misses]

        def count(args, result):
            misses = cached.cache_info().misses
            if misses != last[0]:
                last[0] = misses
                self.counts["fockoracle.cache.monomials"] += len(result.state.terms)

        return count

    def install(self) -> None:
        self._caches = [value for value in vars(fockoracle).values() if hasattr(value, "cache_info")]
        counters = {
            "fockoracle.apply": self._count_apply,
            "brackets.table": self._count_table,
            "transform.deformed_matrix": self._count_deformed,
        }
        for fn_name in STATE_CACHES:
            counters[f"fockoracle.{fn_name}"] = self._count_state(fn_name)
        for module, fn_name in SPANNED:
            name = f"{_short(module)}.{fn_name}"
            original = getattr(module, fn_name)
            self._originals[name] = original
            self._bindings.rebind(name, original, self._span(name, original, counters.get(name)))
        self._bindings.patch_attr(
            brackets.BracketTable,
            "is_orthogonal",
            self._span("brackets.is_orthogonal", brackets.BracketTable.is_orthogonal),
        )

    def uninstall(self) -> None:
        self._bindings.restore()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name; read the caches before any are cleared."""
        out: dict[str, float] = {}
        for module, fn_name in SPANNED:
            name = f"{_short(module)}.{fn_name}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["brackets.is_orthogonal.calls"] = self.calls["brackets.is_orthogonal"]
        out["brackets.is_orthogonal.self_s"] = self.self_s["brackets.is_orthogonal"]
        for key in (
            "brackets.entries",
            "fockoracle.apply.term_products",
            "fockoracle.cache.monomials",
            "transform.deformed_matrix.oracle_backed",
            "transform.deformed_matrix.entries",
        ):
            out[key] = self.counts[key]
        hits = misses = 0
        for fn_name in STATE_CACHES:
            info = self._originals[f"fockoracle.{fn_name}"].cache_info()
            out[f"fockoracle.{fn_name}.hits"] = info.hits
            out[f"fockoracle.{fn_name}.misses"] = info.misses
            hits += info.hits
            misses += info.misses
        out["fockoracle.cache.lookups"] = hits + misses
        out["fockoracle.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["fockoracle.cache.entries"] = sum(cached.cache_info().currsize for cached in self._caches)
        return out


class ExactnumCounter:
    """Counts of Gaussian-rational and surd operations, and sqrt_to_float time."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.sqrt_s = 0.0
        self.max_radicand_bits = 0
        self._bindings = _Bindings()

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        gauss, surd = exactnum.GaussianRational, exactnum.SurdValue
        counts = self.counts
        patch = self._bindings.patch_attr
        patch(gauss, "__mul__", self._counted("exactnum.gauss_mul.calls", gauss.__mul__))
        patch(gauss, "__add__", self._counted("exactnum.gauss_add.calls", gauss.__add__))
        patch(gauss, "__sub__", self._counted("exactnum.gauss_add.calls", gauss.__sub__))
        patch(surd, "__mul__", self._counted("exactnum.surd_mul.calls", surd.__mul__))

        surd_add = surd.__add__

        def counted_add(a, b):
            counts["exactnum.surd_add.calls"] += 1
            try:
                return surd_add(a, b)
            except exactnum.SurdSumError:
                counts["exactnum.surd_add.failed"] += 1
                raise

        patch(surd, "__add__", counted_add)

        surd_init = surd.__init__

        def tracked_init(value, sign, radicand):
            surd_init(value, sign, radicand)
            bits = max(value.radicand.numerator.bit_length(), value.radicand.denominator.bit_length())
            if bits > self.max_radicand_bits:
                self.max_radicand_bits = bits

        patch(surd, "__init__", tracked_init)

        sqrt_to_float = exactnum.sqrt_to_float

        def timed_sqrt(q):
            counts["exactnum.sqrt_to_float.calls"] += 1
            start = time.perf_counter()
            try:
                return sqrt_to_float(q)
            finally:
                self.sqrt_s += time.perf_counter() - start

        self._bindings.rebind("exactnum.sqrt_to_float", sqrt_to_float, timed_sqrt)

    def uninstall(self) -> None:
        self._bindings.restore()

    def metrics(self) -> dict[str, float]:
        out = {
            name: self.counts[name]
            for name in (
                "exactnum.gauss_mul.calls",
                "exactnum.gauss_add.calls",
                "exactnum.surd_mul.calls",
                "exactnum.surd_add.calls",
                "exactnum.surd_add.failed",
                "exactnum.sqrt_to_float.calls",
            )
        }
        out["exactnum.sqrt_to_float.self_s"] = self.sqrt_s
        out["exactnum.max_radicand_bits"] = self.max_radicand_bits
        return out
