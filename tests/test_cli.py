"""CLI surface: JSON output shapes, exit codes, determinism."""
import json
import subprocess
import sys

import pytest

from krawtchouk.cli import main

HAM3 = '{"kind":"hamming","q":2,"n":3}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scheme_info(capsys):
    code, out, _ = run_cli(capsys, "scheme", "info", "--scheme-json", '{"kind":"skew","q":2,"t":4}')
    assert code == 0
    obj = json.loads(out)
    assert obj["b"] == 4
    assert obj["c"] == "1/2"
    assert obj["n"] == 2
    assert obj["spaceSize"] == 64
    assert obj["xi"] == [1, 35, 28]
    assert obj["valencies_equal_xi"] is True


def test_scheme_info_hermitian(capsys):
    code, out, _ = run_cli(
        capsys, "scheme", "info", "--scheme-json", '{"kind":"hermitian","q":2,"t":2}'
    )
    assert code == 0
    assert json.loads(out)["xi"] == [1, 5, 10]


def test_scheme_eigenmatrix(capsys):
    code, out, _ = run_cli(
        capsys, "scheme", "eigenmatrix", "--scheme-json", '{"kind":"hamming","q":2,"n":1}'
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"] == [[1, 1], [1, -1]]
    assert obj["involution_ok"] is True


def test_transform_both_methods(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--scheme-json", HAM3,
        "--weights", "[1,0,0,1]",
        "--code-size", "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["dual"] == [1, 0, 3, 0]
    assert obj["agree"] is True


def test_transform_unrealizable_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "transform",
        "--scheme-json", HAM3,
        "--weights", "[1,3,0,0]",
        "--code-size", "4",
    )
    assert code == 3
    assert "not the weight distribution" in err


def test_invalid_scheme_exits_2(capsys):
    code, _, err = run_cli(capsys, "scheme", "info", "--scheme-json", '{"kind":"nope","q":2}')
    assert code == 2
    assert "invalid input" in err


def test_invalid_weights_exit_2(capsys):
    code, _, _ = run_cli(
        capsys,
        "transform",
        "--scheme-json", HAM3,
        "--weights", "[1,0,0]",
        "--code-size", "1",
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys,
        "transform",
        "--scheme-json", HAM3,
        "--weights", "not json",
        "--code-size", "1",
    )
    assert code == 2


def test_bool_inputs_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "transform",
        "--scheme-json", HAM3,
        "--weights", "[true,0,0,1]",
        "--code-size", "2",
    )
    assert code == 2
    assert "invalid input" in err
    code, _, err = run_cli(
        capsys, "scheme", "info", "--scheme-json", '{"kind":"hamming","q":2,"n":true}'
    )
    assert code == 2
    assert "invalid input" in err


def test_moments_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "moments",
        "--scheme-json", HAM3,
        "--weights", "[1,0,0,1]",
        "--code-size", "2",
        "--phi", "1",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["moment_b"] == {"lhs": 3, "rhs": 3, "equal": True}
    assert obj["moment_binv"]["equal"] is True


def test_maximal_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "maximal",
        "--scheme-json", '{"kind":"hamming","q":3,"n":4}',
        "--d", "3",
        "--code-size", "9",
    )
    assert code == 0
    assert json.loads(out)["distribution"] == [1, 0, 0, 8, 0]


def test_maximal_impossible_exits_3(capsys):
    code, _, _ = run_cli(
        capsys,
        "maximal",
        "--scheme-json", '{"kind":"hamming","q":2,"n":4}',
        "--d", "2",
        "--code-size", "2",
    )
    assert code == 3


def test_verify_all_suites(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--scheme-json", '{"kind":"skew","q":2,"t":4}',
        "--suite", "all",
        "--trials", "5",
        "--seed", "1",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert set(obj["results"]) == {"axioms", "eigen", "recurrence", "transform", "moments"}


def test_verify_eigen_suite(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--scheme-json", '{"kind":"hermitian","q":2,"t":2}',
        "--suite", "eigen",
    )
    assert code == 0
    assert json.loads(out)["results"]["eigen"]["ok"] is True


def test_verify_skips_inapplicable_in_all(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--scheme-json", '{"kind":"hamming","q":3,"n":3}',
        "--suite", "all",
        "--trials", "3",
        "--seed", "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert "skipped" in obj["results"]["eigen"]


def test_verify_explicit_inapplicable_exits_2(capsys):
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--scheme-json", '{"kind":"hamming","q":3,"n":3}',
        "--suite", "eigen",
    )
    assert code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "scheme", "info", "--scheme-json", HAM3, "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["xi"] == [1, 3, 3, 1]


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "scheme", "info", "--scheme-json", HAM3)
    _, out2, _ = run_cli(capsys, "scheme", "info", "--scheme-json", HAM3)
    assert out1 == out2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "krawtchouk.cli", "scheme", "info", "--scheme-json", HAM3],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["spaceSize"] == 8
