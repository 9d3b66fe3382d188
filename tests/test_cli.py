"""Command-line behavior: output formats, reproducibility, exit codes."""

from __future__ import annotations

import json

import pytest

from chainbrackets.cli import main
from chainbrackets.exactnum import SurdSumError
from chainbrackets.fockoracle import KernelError, su11_commutator_check
from chainbrackets.verify import run_cli_suite

EXPECTED_TABLE_JSON = """{
  "format_version": 1,
  "nu": 2,
  "N": 2,
  "tau": 0,
  "convention": "standard",
  "entries": [
    {"n": 0, "sigma": 0, "sign": -1, "radicand_num": "1", "radicand_den": "3", "float": -0.5773502692},
    {"n": 0, "sigma": 2, "sign": 1, "radicand_num": "2", "radicand_den": "3", "float": 0.8164965809},
    {"n": 2, "sigma": 0, "sign": 1, "radicand_num": "2", "radicand_den": "3", "float": 0.8164965809},
    {"n": 2, "sigma": 2, "sign": 1, "radicand_num": "1", "radicand_den": "3", "float": 0.5773502692}
  ]
}
"""

EXPECTED_TABLE_CSV = """nu,N,tau,n,sigma,sign,radicand_num,radicand_den,float
2,2,0,0,0,-1,1,3,-0.5773502692
2,2,0,0,2,1,2,3,0.8164965809
2,2,0,2,0,1,2,3,0.8164965809
2,2,0,2,2,1,1,3,0.5773502692
"""


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bracket_command(capsys):
    code, out, _ = run(
        ["bracket", "--nu", "2", "--N", "2", "--n", "0", "--sigma", "0", "--tau", "0"], capsys
    )
    assert code == 0
    assert out.strip() == "-sqrt(1/3) ≈ -0.5773502692"


def test_bracket_command_unit_value(capsys):
    code, out, _ = run(
        ["bracket", "--nu", "7", "--N", "3", "--n", "3", "--sigma", "3", "--tau", "3"], capsys
    )
    assert code == 0
    assert out.strip() == "+sqrt(1) = 1"


def test_bracket_command_pochhammer_and_barred(capsys):
    base = ["bracket", "--nu", "2", "--N", "2", "--n", "2", "--sigma", "0", "--tau", "0"]
    code, out, _ = run(base + ["--pochhammer"], capsys)
    assert code == 0 and out.strip() == "+sqrt(2/3) ≈ 0.8164965809"
    code, out, _ = run(base + ["--pochhammer", "--convention", "barred"], capsys)
    assert code == 0 and out.strip() == "-sqrt(2/3) ≈ -0.8164965809"


def test_bracket_command_rejects_bad_labels(capsys):
    code, _, err = run(
        ["bracket", "--nu", "2", "--N", "2", "--n", "1", "--sigma", "0", "--tau", "0"], capsys
    )
    assert code == 1
    assert "even" in err and "branching" in err


def test_usage_error_exits_1(capsys):
    code, _, err = run(["bracket", "--nu", "2"], capsys)
    assert code == 1 and "error" in err
    code, _, err = run(["verify", "--suites", "nonsense"], capsys)
    assert code == 1 and "unknown suite" in err
    # a repeated suite would run twice and count its checks twice
    code, out, err = run(["verify", "--suites", "orth,orth", "--nu-max", "2", "--N-max", "2"], capsys)
    assert (code, out, err) == (1, "", "error: suite 'orth' is named twice\n")


def test_table_json_golden(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    code, out, _ = run(
        ["table", "--nu", "2", "--N", "2", "--tau", "0", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert "orthogonality check: PASS" in out
    assert out_file.read_text(encoding="utf-8") == EXPECTED_TABLE_JSON
    parsed = json.loads(EXPECTED_TABLE_JSON)
    assert parsed["entries"][0]["radicand_den"] == "3"


def test_table_csv_golden(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, _, _ = run(
        [
            "table", "--nu", "2", "--N", "2", "--tau", "0",
            "--format", "csv", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == EXPECTED_TABLE_CSV


def test_table_output_is_byte_reproducible(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            ["table", "--nu", "3", "--N", "5", "--tau", "1", "--out", str(path)], capsys
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_table_negative_tau_matches_magnitude(tmp_path, capsys):
    pos = tmp_path / "pos.json"
    neg = tmp_path / "neg.json"
    run(["table", "--nu", "2", "--N", "3", "--tau", "1", "--out", str(pos)], capsys)
    run(["table", "--nu", "2", "--N", "3", "--tau", "-1", "--out", str(neg)], capsys)
    a = json.loads(pos.read_text(encoding="utf-8"))
    b = json.loads(neg.read_text(encoding="utf-8"))
    assert a["entries"] == b["entries"]
    assert (a["tau"], b["tau"]) == (1, -1)


def test_table_single_entry(capsys):
    code, out, _ = run(["table", "--nu", "3", "--N", "0", "--tau", "0"], capsys)
    assert code == 0
    assert '"sign": 1, "radicand_num": "1", "radicand_den": "1"' in out


def test_table_io_error(capsys):
    code, _, err = run(
        ["table", "--nu", "2", "--N", "2", "--tau", "0", "--out", "/nonexistent/dir/t.json"],
        capsys,
    )
    assert code == 3 and "io error" in err


def test_verify_command_passes(capsys):
    code, out, _ = run(["verify", "--nu-max", "2", "--N-max", "2"], capsys)
    assert code == 0
    assert "PASS 100%" in out
    for name in ("orth", "poch", "sigmaN", "oracle", "casimir", "gegenbauer", "su11", "barred", "transform"):
        assert f"{name}: PASS" in out


def test_verify_default_output_is_pinned(capsys):
    code, out, err = run(["verify"], capsys)
    assert code == 0 and err == ""
    assert out == (
        "orth: PASS (154 checks)\n"
        "dims: PASS (14 checks)\n"
        "poch: PASS (286 checks)\n"
        "sigmaN: PASS (134 checks)\n"
        "oracle: PASS (572 checks)\n"
        "casimir: PASS (200 checks)\n"
        "gegenbauer: PASS (176 checks)\n"
        "su11: PASS (2 checks)\n"
        "barred: PASS (286 checks)\n"
        "transform: PASS (462 checks)\n"
        "PASS 100% (2286 checks, nu<= 3, N<= 6)\n"
    )


def test_verify_suite_subset(capsys):
    code, out, _ = run(
        ["verify", "--nu-max", "3", "--N-max", "4", "--suites", "orth,sigmaN"], capsys
    )
    assert code == 0
    assert "orth: PASS" in out and "sigmaN: PASS" in out and "poch:" not in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--nu-max", "1", "--suites", "orth,oracle,transform"], "dimension nu must be >= 2, got 1"),
        (["--nu-max", "1"], "dimension nu must be >= 2, got 1"),
        (["--N-max", "-3", "--suites", "su11"], "N=-3 must be nonnegative"),
        # the library entry points refuse the same ranges: (function, *arguments)
        ((run_cli_suite, "oracle", 1, 6), "dimension nu must be >= 2, got 1"),
        ((run_cli_suite, "orth", 3, -2), "N=-2 must be nonnegative"),
        ((su11_commutator_check, 3, -3), "cutoff=-3 must be nonnegative"),
    ],
)
def test_verify_rejects_a_range_with_nothing_to_check(capsys, argv, message):
    if isinstance(argv, tuple):
        fn, *args = argv
        with pytest.raises(ValueError) as raised:
            fn(*args)
        assert str(raised.value) == message
        return
    # before any suite runs, so no PASS line is printed for zero checks
    assert run(["verify"] + argv, capsys) == (1, "", f"error: {message}\n")


def test_verify_failure_exits_2(monkeypatch, capsys):
    from chainbrackets import cli
    from chainbrackets.verify import SuiteResult

    def fake_suite(name, nu_max, n_max):
        return [SuiteResult(name, False, 7, "nu=2 N=1 tau=0: mismatch")]

    monkeypatch.setattr(cli, "run_cli_suite", fake_suite)
    code, out, err = run(["verify", "--suites", "orth"], capsys)
    assert code == 2
    assert "orth: FAIL" in out and "first failure" in out
    assert "FAIL" in err


def _raise(exc):
    def fake(*args, **kwargs):
        raise exc

    return fake


@pytest.mark.parametrize(
    "target, argv",
    [
        ("deformed_matrix", ["transform", "--nu", "2", "--N", "2", "--tau", "0", "--op", "pair"]),
        ("run_cli_suite", ["verify", "--suites", "oracle"]),
    ],
)
@pytest.mark.parametrize(
    "exc",
    [KernelError("kernel of dimension 2"), SurdSumError("radicand ratio is not a square")],
    ids=["KernelError", "SurdSumError"],
)
def test_exact_arithmetic_failures_exit_2(monkeypatch, capsys, target, argv, exc):
    from chainbrackets import cli

    monkeypatch.setattr(cli, target, _raise(exc))
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and str(exc) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "exc, code, message",
    [(MemoryError(), 4, "error: out of memory"), (KeyboardInterrupt(), 130, "interrupted")],
    ids=["MemoryError", "KeyboardInterrupt"],
)
@pytest.mark.parametrize("target", ["cmd_table", "cmd_verify"])
def test_memory_exhaustion_and_interrupt_exit_codes(monkeypatch, capsys, exc, code, message, target):
    from chainbrackets import cli

    monkeypatch.setattr(cli, target, _raise(exc))
    argv = ["table", "--nu", "2", "--N", "2", "--tau", "0"] if target == "cmd_table" else ["verify"]
    got, out, err = run(argv, capsys)
    assert got == code
    assert err.startswith(message) and "Traceback" not in err
    assert out == ""


def test_rendering_both_formats_rounds_each_entry_once(monkeypatch):
    from chainbrackets import cli, exactnum
    from chainbrackets.brackets import table

    calls = []
    sqrt_to_float = exactnum.sqrt_to_float

    def counting(q):
        calls.append(q)
        return sqrt_to_float(q)

    monkeypatch.setattr(exactnum, "sqrt_to_float", counting)
    for nu, N, tau, conv in ((2, 6, -2, "standard"), (3, 7, 1, "barred"), (4, 0, 0, "standard")):
        tab = table(nu, N, tau, conv)
        calls.clear()
        cli.render_table_json(tab)
        cli.render_table_csv(tab)
        cli.render_table_json(tab)
        assert len(calls) == len(tab.ns) * len(tab.sigmas)


def test_non_integer_flag_exits_1(capsys):
    code, _, err = run(
        ["bracket", "--nu", "two", "--N", "2", "--n", "0", "--sigma", "0", "--tau", "0"],
        capsys,
    )
    assert code == 1 and "error" in err


def test_transform_command(tmp_path, capsys):
    out_file = tmp_path / "bnum.json"
    code, _, _ = run(
        ["transform", "--nu", "2", "--N", "2", "--tau", "0", "--op", "bnum",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    data = json.loads(out_file.read_text(encoding="utf-8"))
    assert data["op"] == "bnum" and data["oracle_backed"] == []
    entries = {(e["sigma_row"], e["sigma_col"]): e for e in data["entries"]}
    assert entries[(0, 0)]["radicand_num"] == "16" and entries[(0, 0)]["radicand_den"] == "9"
    assert entries[(0, 2)]["radicand_num"] == "8" and entries[(0, 2)]["radicand_den"] == "9"
    assert entries[(2, 2)]["radicand_num"] == "4" and entries[(2, 2)]["radicand_den"] == "9"


def test_transform_snum_is_complement(tmp_path, capsys):
    paths = {}
    for op in ("bnum", "snum"):
        path = tmp_path / f"{op}.json"
        run(["transform", "--nu", "2", "--N", "2", "--tau", "0", "--op", op,
             "--out", str(path)], capsys)
        paths[op] = json.loads(path.read_text(encoding="utf-8"))
    bnum = {(e["sigma_row"], e["sigma_col"]): e for e in paths["bnum"]["entries"]}
    snum = {(e["sigma_row"], e["sigma_col"]): e for e in paths["snum"]["entries"]}
    # off-diagonal entries cancel: snum = N*I - bnum
    assert snum[(0, 2)]["sign"] == -bnum[(0, 2)]["sign"]
    assert snum[(0, 2)]["radicand_num"] == bnum[(0, 2)]["radicand_num"]
    assert snum[(0, 0)]["radicand_num"] == "4" and snum[(0, 0)]["radicand_den"] == "9"
