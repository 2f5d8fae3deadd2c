"""CLI surface: JSON output shapes, exit codes, determinism."""
import json
import os
import subprocess
import sys

import pytest

import krawtchouk
from krawtchouk import cli, schemes
from krawtchouk.cli import main
from krawtchouk.macwilliams import TransformInput, maximal_distribution, moment_b
from krawtchouk.schemes import scheme_from_json

from conftest import within_seconds

HAM3 = '{"kind":"hamming","q":2,"n":3}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    """`python -m krawtchouk.cli` in a child importing the package from here."""
    src = os.path.dirname(os.path.dirname(krawtchouk.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "krawtchouk.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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


def test_scheme_kind_is_not_case_folded(capsys):
    spec = '{"kind":"HAMMING","q":2,"n":3}'
    code, out, err = run_cli(capsys, "scheme", "info", "--scheme-json", spec)
    assert code == 2
    assert out == ""
    assert "unknown scheme kind 'HAMMING'" in err


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
    # the CLI checks only that --weights is a JSON array; the library checks
    # its length and entries, the range of --phi and the oracle's fields
    for argv in (
        ["transform", "--scheme-json", HAM3, "--weights", "5", "--code-size", "1"],
        ["transform", "--scheme-json", HAM3, "--weights", "{}", "--code-size", "1"],
        ["moments", "--scheme-json", HAM3, "--weights", "[1,0,0,1]", "--code-size", "2",
         "--phi", "-1"],
        ["moments", "--scheme-json", HAM3, "--weights", "[1,0,0,1]", "--code-size", "2",
         "--phi", "4"],
        ["verify", "--scheme-json", '{"kind":"hamming","q":6,"n":2}'],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("invalid input: "), argv


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
    code, out, err = run_cli(
        capsys,
        "transform",
        "--scheme-json", HAM3,
        "--weights", "[1.5,0,0,1]",
        "--code-size", "2",
    )
    assert (code, out) == (2, "")
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
    entries = [list(row) for row in cli.eigenmatrix(params)]
    entries[1][2] += 1

    def corrupt(p):
        return tuple(map(tuple, entries))

    monkeypatch.setattr(cli, "eigenmatrix", corrupt)
    code, out, err = run_cli(
        capsys,
        "verify",
        "--scheme-json", '{"kind":"hermitian","q":2,"t":2}',
        "--suite", "eigen",
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
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


# 2^21 points: a code or its dual can pass the 2^20-word enumeration guard
HAM2_21 = '{"kind":"hamming","q":2,"n":21}'


def test_verify_skips_code_suites_past_the_enumeration_guard(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scheme-json", HAM2_21, "--suite", "all", "--trials", "3")
    assert code == 0
    results = json.loads(out)["results"]
    for name in ("transform", "moments"):
        assert results[name] == {"ok": True, "skipped": "space size 2097152 exceeds the 1048576 guard"}
    assert "skipped" not in results["recurrence"]
    code, out, err = run_cli(capsys, "verify", "--scheme-json", HAM2_21, "--suite", "transform")
    assert (code, out) == (2, "")
    assert "exceeds the 1048576 guard" in err


def test_verify_recurrence_builds_no_gram_matrix(capsys):
    # 576 coordinates: pairing every pair of unit vectors would take seconds
    spec = '{"kind":"bilinear","q":2,"m":24,"n":24}'
    with within_seconds(1):
        code, out, _ = run_cli(capsys, "verify", "--scheme-json", spec, "--suite", "recurrence")
    assert code == 0
    assert json.loads(out)["results"]["recurrence"]["ok"] is True


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


@pytest.mark.parametrize("trials", ["101", "100000000"])
def test_verify_rejects_trials_above_the_bound(capsys, trials):
    with within_seconds(1):
        code, out, err = run_cli(
            capsys,
            "verify",
            "--scheme-json", HAM3,
            "--suite", "transform",
            "--trials", trials,
        )
    assert (code, out) == (2, "")
    assert "--trials" in err


DEEP = "[" * 20000 + "]" * 20000


@pytest.mark.parametrize(
    "argv",
    [
        ["scheme", "info", "--scheme-json", DEEP],
        ["transform", "--scheme-json", HAM3, "--weights", DEEP, "--code-size", "1"],
    ],
    ids=["scheme-json", "weights"],
)
def test_deeply_nested_json_exits_2(argv):
    # json.loads raises RecursionError here, which used to escape as exit 1
    proc = run_cli_process(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid input:")


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--scheme-json", HAM3, "--weights", "[1,0,0,1]", "--code-size", "2", "--phi", "1." + "5" * 5000],
        ["scheme", "info", "--scheme-json", HAM3, "--bogus"],
        ["scheme", "info"],
        ["transform", "--scheme-json", HAM3, "--weights", "[1,0,0,1]", "--code-size", "2", "--method", "bogus"],
    ],
    ids=["long-phi", "unknown-flag", "missing-scheme-json", "bad-method"],
)
def test_usage_errors_are_one_short_invalid_input_line(capsys, argv):
    # argparse's own errors used to print the usage lines and exit from inside
    # parse_args, uncapped; they now take main's invalid-input path
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: ") and err.count("\n") == 1 and len(err) < 300


BIG = "9" * 5000
HAM3_PARAMS = scheme_from_json(json.loads(HAM3))


@pytest.mark.parametrize(
    "argv, reference",
    [
        (
            ["moments", "--scheme-json", HAM3, "--weights", "[1,0,0,1]", "--code-size", "2", "--phi", BIG],
            lambda: moment_b(TransformInput((1, 0, 0, 1), 2, HAM3_PARAMS), int(BIG)),
        ),
        (
            ["maximal", "--scheme-json", HAM3, "--d", BIG, "--code-size", "2"],
            lambda: maximal_distribution(HAM3_PARAMS, int(BIG), 2),
        ),
        (
            ["transform", "--scheme-json", HAM3, "--weights", f"[1,0,0,{BIG}]", "--code-size", "2"],
            lambda: TransformInput((1, 0, 0, int(BIG)), 2, HAM3_PARAMS),
        ),
        (
            ["scheme", "info", "--scheme-json", '{"kind": %s, "q": 2, "n": 3}' % ("[" * 900 + "]" * 900)],
            lambda: scheme_from_json({"kind": json.loads("[" * 900 + "]" * 900), "q": 2, "n": 3}),
        ),
    ],
    ids=["phi", "d", "weight", "nested-kind"],
)
def test_long_error_messages_are_cut_to_one_short_line(capsys, argv, reference):
    code, out, err = run_cli(capsys, *argv)
    with pytest.raises(ValueError) as info:
        reference()
    full = str(info.value)
    assert len(full) > cli.MAX_MESSAGE == 200
    assert (code, out) == (2, "")
    assert err == f"invalid input: {full[:200]}… ({len(full)} characters)\n"
    assert len(err) < 300


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
    assert (schemes.MAX_CLASSES, schemes.MAX_SPACE_BITS) == (64, 256 * 64)
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
    # q = 2^61 - 1, a prime, meets the enumeration guard; q = 1048573, the
    # largest prime below 2^20, passes it and meets the oracle's field limit
    for q, message in ((2 ** 61 - 1, "exceeds the 1048576 guard"), (1048573, "exceeds the supported 16")):
        spec = json.dumps({"kind": "hamming", "q": q, "n": 1})
        with within_seconds(1):
            code, out, err = run_cli(capsys, "verify", "--scheme-json", spec, "--suite", "transform")
        assert code == 2
        assert out == ""
        assert message in err


# past the oracle's field limits (order 16, prime q for the rank spaces) but
# inside the size budget: only the recurrence suite can run
BEYOND_ORACLE = [
    '{"kind":"hermitian","q":16,"t":64}',
    '{"kind":"gabidulin","q":16,"m":4,"n":2}',
]


@pytest.mark.parametrize("spec", BEYOND_ORACLE, ids=["hermitian-q16", "gabidulin-q16"])
def test_verify_recurrence_runs_beyond_the_oracle(capsys, spec):
    with within_seconds(1):
        code, out, _ = run_cli(capsys, "verify", "--scheme-json", spec, "--suite", "recurrence")
    assert code == 0
    assert json.loads(out)["results"]["recurrence"]["ok"] is True


def test_verify_all_past_every_guard_skips_the_oracle_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scheme-json", BEYOND_ORACLE[0], "--suite", "all")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    skipped = [name for name, r in obj["results"].items() if "skipped" in r]
    assert skipped == ["axioms", "eigen", "transform", "moments"]
    assert obj["results"]["recurrence"]["ok"] is True


def test_verify_all_rejects_a_field_the_oracle_cannot_model(capsys):
    spec = '{"kind":"hermitian","q":4,"t":2}'
    code, out, err = run_cli(capsys, "verify", "--scheme-json", spec, "--suite", "all")
    assert (code, out) == (2, "")
    assert "hermitian oracle supports prime q only" in err


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


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "result.json"
    code, out, err = run_cli(
        capsys, "scheme", "info", "--scheme-json", HAM3, "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: cannot write --out: ")
    assert not target.exists()


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "scheme", "info", "--scheme-json", HAM3)
    _, out2, _ = run_cli(capsys, "scheme", "info", "--scheme-json", HAM3)
    assert out1 == out2


def test_console_entry_point():
    proc = run_cli_process("scheme", "info", "--scheme-json", HAM3)
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


def test_verify_recurrence_loads_no_oracle():
    # the recurrence suite is the paper's algebra alone; only a suite with an
    # oracle guard imports the brute-force oracle
    src = os.path.dirname(os.path.dirname(krawtchouk.__file__))
    script = (
        "import contextlib, io, json, sys\n"
        "from krawtchouk import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['verify', '--scheme-json', {HAM3!r}, '--suite', 'recurrence'])\n"
        "heavy = ('krawtchouk.oracle', 'krawtchouk.fields')\n"
        "print(json.dumps([code, [name for name in heavy if name in sys.modules]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


def test_verify_report_keys(capsys):
    # cmd_verify builds every suite report; the code suites add their trial count
    code, out, _ = run_cli(
        capsys, "verify", "--scheme-json", HAM3, "--suite", "all", "--trials", "3", "--seed", "1"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert {name: list(r) for name, r in results.items()} == {
        "axioms": ["ok", "violations"],
        "eigen": ["ok", "violations"],
        "recurrence": ["ok", "violations"],
        "transform": ["ok", "violations", "trials"],
        "moments": ["ok", "violations", "trials"],
    }
    assert results["transform"]["trials"] == results["moments"]["trials"] == 3
    for spec, skipped in ((HAM2_13, ("axioms", "eigen")), (HAM2_21, ("transform", "moments"))):
        code, out, _ = run_cli(capsys, "verify", "--scheme-json", spec, "--suite", "all", "--trials", "3")
        assert code == 0
        results = json.loads(out)["results"]
        assert [list(results[name]) for name in skipped] == [["ok", "skipped"]] * 2
