"""Self-test of the benchmark at tiny sizes, and its parity with `chainbrackets verify`.

Run with:  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from chainbrackets import cli, fockoracle, verify  # noqa: E402

from perfbench import tracing, units  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def tiny_runs():
    """Result line of a tiny run for every (workload, trace) pair."""
    out = {}
    for workload in units.WORKLOADS:
        for trace in (0, 1):
            proc = _bench(
                "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"
            )
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


# verify's check count at each acceptance box (the `ACCEPTANCE n` lines of the tier-1
# suite print the same numbers), and the verify suite to compare with on a small box.
PARITY = [
    (units.orthogonality_units, verify.suite_orthogonality, (9, 10), 1166),
    (units.oracle_units, verify.suite_oracle_equivalence, (5, 8), 2380),
    (units.casimir_units, verify.suite_casimir, (5, 8), 760),
    (units.transform_units, verify.suite_transform, (3, 6), 462),
]


@pytest.mark.parametrize("make, suite, box, checked", PARITY, ids=lambda x: getattr(x, "__name__", None))
def test_units_are_the_checks_verify_makes(make, suite, box, checked):
    assert len(make(*box)) == checked
    small = (3, 3)
    result = suite(*small)
    assert result.passed
    assert len(make(*small)) == result.checked


def test_su11_units_match_verify():
    assert len(units.su11_units((2, 3, 5), 2)) == verify.suite_su11((2, 3, 5), 2).checked


@pytest.mark.parametrize("workload", units.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted_with_its_unit(tiny_runs, workload, trace):
    result = tiny_runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_tables_bypasses_the_oracle(tiny_runs):
    metrics = tiny_runs["tables", 1]["metrics"]
    oracle_counts = {
        name: m["value"]
        for name, m in metrics.items()
        if name.startswith("fockoracle.") and m["unit"] == "count"
    }
    assert oracle_counts and not any(oracle_counts.values())
    assert metrics["brackets.is_orthogonal.calls"]["value"] > 0


def test_transform_drives_the_oracle(tiny_runs):
    metrics = tiny_runs["transform", 1]["metrics"]
    assert metrics["fockoracle.apply.calls"]["value"] > 0
    assert metrics["transform.deformed_matrix.calls"]["value"] > 0
    # the wrapped state caches still count among the cache entries
    assert metrics["fockoracle.cache.entries"]["value"] > metrics["fockoracle.build_chain2_state.misses"]["value"] > 0


@pytest.mark.parametrize("workload", ("oracle", "transform"))
def test_seed_changes_order_but_not_digest(workload):
    first = units.make_units(workload, 1, tiny=True)
    second = units.make_units(workload, 2, tiny=True)
    assert first != second
    assert sorted(first, key=units.describe) == sorted(second, key=units.describe)
    assert units.run_pass(first)["digest"] == units.run_pass(second)["digest"]


@pytest.mark.parametrize(
    "workload, renderer",
    [
        ("tables", "render_table_json"),
        ("tables", "render_table_csv"),
        ("transform", "render_transform_json"),
    ],
)
def test_gate_catches_a_corrupted_rendered_value(monkeypatch, workload, renderer):
    unit_list = units.make_units(workload, 3, tiny=True)
    clean = units.run_pass(unit_list)
    assert clean["failed"] == 0

    render = getattr(cli, renderer)

    def corrupted(obj):
        text = render(obj)
        if renderer.endswith("csv"):
            head, first, rest = text.split("\n", 2)
            fields = first.split(",")
            fields[6] = fields[6] + "7"  # radicand numerator of the first entry
            return "\n".join((head, ",".join(fields), rest))
        return text.replace('"radicand_num": "', '"radicand_num": "7', 1)

    monkeypatch.setattr(cli, renderer, corrupted)
    bad = units.run_pass(unit_list)
    assert bad["failed"] == len(unit_list)
    assert "differs from the exact value" in bad["failures"][0]
    assert bad["digest"] != clean["digest"]


def test_tracer_is_bound_wherever_the_name_was_imported():
    original = fockoracle.apply
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        where = tracer.bound_in
        for name in ("fockoracle.apply", "fockoracle.build_chain2_state"):
            assert {"chainbrackets.fockoracle", "chainbrackets.transform", "chainbrackets.verify"} <= set(
                where[name]
            )
        assert {"chainbrackets.brackets", "chainbrackets.transform", "chainbrackets.verify"} <= set(
            where["brackets.table"]
        )
        assert fockoracle.apply.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert fockoracle.apply is original


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
