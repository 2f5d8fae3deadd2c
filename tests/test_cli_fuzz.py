"""A seeded fuzzer of the CLI boundary, in-process through `cli.main`.

Each case starts from a small valid request (every command on every family,
|X| <= 256, `verify --trials 1`) and mutates it: bools, floats, NaN and
Infinity, huge and negative integers, wrong types, missing, extra and
duplicate keys, deep nesting, a non-array `--weights`, or `--out` into a
missing directory.  Whatever the input, the CLI must answer with exit 0, 2 or
3, print to stdout only on 0, and otherwise print one stderr line with one of
its three prefixes, cut to `cli.MAX_MESSAGE` characters unless it is a
verification report.
"""
import contextlib
import io
import json
import random
import time

import pytest

from krawtchouk import cli
from krawtchouk.schemes import scheme_from_json, xi_vector

SCHEMES = [
    {"kind": "hamming", "q": 2, "n": 3},
    {"kind": "hamming", "q": 3, "n": 2},
    {"kind": "bilinear", "q": 2, "m": 2, "n": 2},
    {"kind": "gabidulin", "q": 2, "m": 3, "n": 2},
    {"kind": "skew", "q": 2, "t": 4},
    {"kind": "hermitian", "q": 2, "t": 2},
]

# raw JSON tokens that replace one value of a valid JSON input
TOKENS = [
    "true", "false", "null", "1.5", "2.0", "NaN", "Infinity", "-Infinity",
    "-1", "-7", "0", "9" * 400, "-" + "9" * 400, '"2"', '""', "[2]", "[]", '{"a": 1}',
    "[" * 3000 + "]" * 3000,
]
# raw option values for the integer and choice options
OPTION_VALUES = [
    "-1", "0", "1", "2", "9" * 400, "-" + "9" * 400, "1.5", "nan", "inf", "True", "", "1e3", " 2", "bogus",
]
PREFIXES = ("invalid input:", "error:", "verification failed:")
SUITES = (*cli._SUITES, "all")
CASES = 400
# well-formed requests that no linear code realizes: exit 3
UNREALIZABLE = [
    (["transform"], {"--scheme-json": '{"kind": "hamming", "q": 2, "n": 3}',
                     "--weights": "[1, 3, 0, 0]", "--code-size": "4"}),
    (["maximal"], {"--scheme-json": '{"kind": "hamming", "q": 2, "n": 4}', "--d": "2", "--code-size": "2"}),
]


def _object(pairs):
    """A JSON object text from (key, raw value token) pairs, duplicates kept."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"


def valid_cases(spec):
    """(command words, {flag: value}) for every command on one scheme."""
    params = scheme_from_json(spec)
    sj = json.dumps(spec)
    xi = json.dumps(xi_vector(params))
    zero = json.dumps([1] + [0] * params.n)
    size = str(params.space_size)
    yield ["scheme", "info"], {"--scheme-json": sj}
    yield ["scheme", "eigenmatrix"], {"--scheme-json": sj}
    for method in ("eigen", "functional", "both"):
        yield ["transform"], {"--scheme-json": sj, "--weights": xi, "--code-size": size, "--method": method}
    yield ["transform"], {"--scheme-json": sj, "--weights": zero, "--code-size": "1"}
    for phi in range(params.n + 1):
        yield ["moments"], {"--scheme-json": sj, "--weights": xi, "--code-size": size, "--phi": str(phi)}
    yield ["maximal"], {"--scheme-json": sj, "--d": "1", "--code-size": size}
    for suite in SUITES:
        yield ["verify"], {"--scheme-json": sj, "--suite": suite, "--trials": "1", "--seed": "3"}


def mutate_json_object(rng, text):
    pairs = [(k, json.dumps(v)) for k, v in json.loads(text).items()]
    kind = rng.randrange(7)
    if kind == 0:  # one value replaced
        i = rng.randrange(len(pairs))
        pairs[i] = (pairs[i][0], rng.choice(TOKENS))
    elif kind == 1:  # one key missing
        del pairs[rng.randrange(len(pairs))]
    elif kind == 2:  # one extra key
        key = rng.choice(["x", "m", "n", "t", "Q"])
        pairs.insert(rng.randrange(len(pairs) + 1), (key, rng.choice(TOKENS)))
    elif kind == 3:  # one key given twice
        k, _ = rng.choice(pairs)
        pairs.append((k, rng.choice(TOKENS)))
    elif kind == 4:  # not an object
        return rng.choice(TOKENS)
    elif kind == 5:  # the object nested inside arrays
        depth = rng.choice([1, 50, 3000])
        return "[" * depth + _object(pairs) + "]" * depth
    else:  # not JSON
        return text[: rng.randrange(len(text))]
    return _object(pairs)


def mutate_json_array(rng, text):
    items = [json.dumps(v) for v in json.loads(text)]
    kind = rng.randrange(5)
    if kind == 0:  # one entry replaced
        items[rng.randrange(len(items))] = rng.choice(TOKENS)
    elif kind == 1:  # one entry short
        del items[rng.randrange(len(items))]
    elif kind == 2:  # one entry long
        items.append(rng.choice(TOKENS))
    elif kind == 3:  # not an array
        return rng.choice(TOKENS + ['{"0": 1}', '"[1, 0]"'])
    else:  # not JSON
        return text[: rng.randrange(len(text))]
    return "[" + ", ".join(items) + "]"


def argv_of(words, opts):
    return words + [a for kv in opts.items() for a in kv]


def mutate(rng, words, opts, tmp_path):
    """One mutation of a valid case, as an argument vector."""
    opts = dict(opts)
    kind = rng.randrange(6)
    if kind == 0:
        opts["--scheme-json"] = mutate_json_object(rng, opts["--scheme-json"])
    elif kind == 1 and "--weights" in opts:
        opts["--weights"] = mutate_json_array(rng, opts["--weights"])
    elif kind == 2:
        flag = rng.choice([f for f in opts if f not in ("--scheme-json", "--weights")] or ["--bogus"])
        opts[flag] = rng.choice(OPTION_VALUES)
    elif kind == 3:
        del opts[rng.choice(list(opts))]
    elif kind == 4:
        missing = tmp_path / "missing" / "out.json"
        opts["--out"] = str(rng.choice([missing, tmp_path, tmp_path / "out.json"]))
    else:
        argv = argv_of(words, opts)
        extra = rng.choice([["--bogus"], ["--trials", "1"], ["--scheme-json", rng.choice(TOKENS)], ["extra"]])
        i = rng.randrange(len(words), len(argv) + 1)
        return argv[:i] + extra + argv[i:]
    return argv_of(words, opts)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def check(argv):
    code, out, err, seconds = run(argv)
    shown = [a if len(a) <= 80 else f"{a[:80]}… ({len(a)} characters)" for a in argv]
    assert code in (0, 2, 3), (shown, code, err)
    if code == 0:
        assert err == "", (shown, err)
    else:
        assert out == "", (shown, code, out)
        assert err.count("\n") == 1 and err.endswith("\n"), (shown, err)
        assert err.startswith(PREFIXES), (shown, err)
        # only a verification report is uncapped: callers parse it
        assert err.startswith("verification failed:") or len(err) < 300, (shown, err[:300])
    assert seconds < 2, (shown, seconds)
    return code


def test_valid_cases_succeed():
    for spec in SCHEMES:
        for words, opts in valid_cases(spec):
            assert check(argv_of(words, opts)) == 0, argv_of(words, opts)
    for words, opts in UNREALIZABLE:
        assert check(argv_of(words, opts)) == 3, argv_of(words, opts)


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_cases_exit_cleanly(seed, tmp_path):
    rng = random.Random(seed)
    # the exit-3 requests weighted up, so that some mutants still reach exit 3
    cases = [case for spec in SCHEMES for case in valid_cases(spec)] + UNREALIZABLE * 8
    codes = set()
    for _ in range(CASES):
        words, opts = rng.choice(cases)
        codes.add(check(mutate(rng, words, opts, tmp_path)))
    assert codes == {0, 2, 3}
