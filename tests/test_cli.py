"""CLI surface: JSON output shapes, exit codes, determinism."""
import json
import os
import subprocess
import sys

import pytest

import krawtchouk
from krawtchouk import Eigenmatrix, cli, schemes
from krawtchouk.cli import main

from conftest import within_seconds

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


def test_scheme_info_reports_a_wrong_weight_count(capsys, monkeypatch):
    # the valency cross-check is independent of the integer table xi_vector reads
    def off_by_one(params):
        counts = schemes.xi_vector(params)
        counts[1] += 1
        return counts

    monkeypatch.setattr(cli, "xi_vector", off_by_one)
    code, out, _ = run_cli(capsys, "scheme", "info", "--scheme-json", '{"kind":"skew","q":2,"t":4}')
    assert code == 0
    assert '"valencies_equal_xi": false' in out
    assert json.loads(out)["xi"] == [1, 36, 28]


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


def test_verify_eigen_suite_checks_the_printed_matrix(capsys, monkeypatch):
    params = schemes.make_scheme("hermitian", 2, t=2)
    entries = [list(row) for row in cli.eigenmatrix(params).entries]
    entries[1][2] += 1

    def corrupt(p):
        return Eigenmatrix(entries=tuple(map(tuple, entries)), params=p)

    monkeypatch.setattr(cli, "eigenmatrix", corrupt)
    code, out, err = run_cli(
        capsys,
        "verify",
        "--scheme-json", '{"kind":"hermitian","q":2,"t":2}',
        "--suite", "eigen",
    )
    assert code == 3
    assert out == ""
    report = json.loads(err.removeprefix("verification failed: "))
    assert report["results"]["eigen"]["violations"] == [
        f"(k=2, x=1): char {entries[1][2] - 1} != poly {entries[1][2]}"
    ]


def test_verify_eigen_suite_odd_characteristic(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--scheme-json", '{"kind":"hamming","q":3,"n":3}',
        "--suite", "eigen",
    )
    assert code == 0
    assert json.loads(out)["results"]["eigen"]["ok"] is True


# 2^13 = 8192 points, over the 4096-point enumeration guard
HAM2_13 = '{"kind":"hamming","q":2,"n":13}'


def test_verify_skips_inapplicable_in_all(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--scheme-json", HAM2_13,
        "--suite", "all",
        "--trials", "3",
        "--seed", "2",
    )
    assert code == 0
    results = json.loads(out)["results"]
    for name in ("axioms", "eigen"):
        assert results[name] == {"ok": True, "skipped": "space size 8192 exceeds the 4096 guard"}
    assert not any("skipped" in results[name] for name in ("recurrence", "transform", "moments"))


def test_verify_explicit_inapplicable_exits_2(capsys):
    for suite in ("axioms", "eigen"):
        code, out, err = run_cli(capsys, "verify", "--scheme-json", HAM2_13, "--suite", suite)
        assert code == 2
        assert out == ""
        assert "exceeds the 4096 guard" in err


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_verify_rejects_trials_below_one(capsys, trials):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--scheme-json", '{"kind":"hamming","q":2,"n":2}',
        "--suite", "transform",
        "--trials", trials,
    )
    assert code == 2
    assert out == ""
    assert "--trials" in err


@pytest.mark.parametrize(
    "q, n, accepted",
    [
        (2, 64, True),
        (2, 65, False),  # more classes than MAX_CLASSES
        (2 ** 256, 64, True),  # |X| = 2^16384 exactly
        (2 ** 256 + 1, 64, False),  # |X| just above 2^MAX_SPACE_BITS
    ],
    ids=["n=64", "n=65", "q=2^256", "q=2^256+1"],
)
def test_size_budget(capsys, q, n, accepted):
    assert (cli.MAX_CLASSES, schemes.MAX_SPACE_BITS) == (64, 256 * 64)
    spec = json.dumps({"kind": "hamming", "q": q, "n": n})
    code, out, err = run_cli(capsys, "scheme", "info", "--scheme-json", spec)
    if accepted:
        assert code == 0
        assert len(json.loads(out)["xi"]) == n + 1
    else:
        assert code == 2
        assert out == ""
        assert "exceeds the supported" in err


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "bilinear", "q": 3, "m": 10 ** 7, "n": 1},
        {"kind": "gabidulin", "q": 3, "m": 10 ** 7, "n": 1},
        {"kind": "hamming", "q": 2, "n": 10 ** 7},
        {"kind": "skew", "q": 2, "t": 10 ** 7},
        {"kind": "hermitian", "q": 2, "t": 10 ** 7},
    ],
    ids=lambda spec: spec["kind"],
)
def test_size_budget_rejects_before_forming_the_space(capsys, spec):
    # |X| = q^e is never formed: the bound on e alone rejects these
    with within_seconds(1):
        code, out, err = run_cli(capsys, "scheme", "info", "--scheme-json", json.dumps(spec))
    assert code == 2
    assert out == ""
    assert "space size exceeds the supported" in err


def test_verify_rejects_large_q_fast(capsys):
    spec = '{"kind":"hamming","q":2305843009213693951,"n":1}'  # q = 2^61 - 1, a prime
    with within_seconds(1):
        code, out, err = run_cli(capsys, "verify", "--scheme-json", spec, "--suite", "transform")
    assert code == 2
    assert out == ""
    assert "exceeds the supported 16" in err


def test_internal_errors_are_not_invalid_input(monkeypatch):
    # only ValueError means invalid input; an internal TypeError must surface
    def broken(args):
        raise TypeError("internal bug")

    monkeypatch.setattr(cli, "cmd_scheme_info", broken)
    with pytest.raises(TypeError, match="internal bug"):
        main(["scheme", "info", "--scheme-json", HAM3])


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
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(krawtchouk.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "krawtchouk.cli", "scheme", "info", "--scheme-json", HAM3],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["spaceSize"] == 8


def test_cli_import_leaves_the_oracle_unloaded():
    # -S keeps site's .pth imports out of sys.modules; only the package's own
    # imports are counted
    src = os.path.dirname(os.path.dirname(krawtchouk.__file__))
    script = (
        "import json, sys\n"
        "import krawtchouk.cli\n"
        "heavy = ('krawtchouk.oracle', 'krawtchouk.fields', 'krawtchouk.balgebra', 'dataclasses')\n"
        "loaded = [name for name in heavy if name in sys.modules]\n"
        "import krawtchouk\n"
        "missing = [name for name in krawtchouk.__all__ if not hasattr(krawtchouk, name)]\n"
        "print(json.dumps([loaded, missing]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]
