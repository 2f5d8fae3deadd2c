"""Command-line interface with JSON input and output.

Exit codes: 0 success, 2 invalid input, 3 identity violation or distribution
not realizable by a linear code.  All rationals are emitted as "p/q" strings
and integers wider than 53 bits as decimal strings, so output is exact.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .bnary import check_int, gamma, gauss
from .eigenvalues import check_recurrence, eigenmatrix
from .macwilliams import (
    TransformInput,
    UnrealizableDistribution,
    maximal_distribution,
    moment_b,
    moment_binv,
    transform_eigen,
    transform_functional,
)
from .schemes import scheme_from_json, xi_vector

EXIT_INVALID = 2
EXIT_VIOLATION = 3
MAX_TRIALS = 100  # random codes per suite in one verify request
MAX_MESSAGE = 200  # characters of an error message echoed to stderr

# Only `verify` needs the brute-force oracle (and with it `fields`), so it is
# imported inside cmd_verify and the oracle suites: the algebra commands and
# `verify --suite recurrence` run without it.  A function-level import reads the
# oracle module's attribute at call time, so perfbench's tracer, which
# rebinds those attributes, still counts every oracle call.


class Violation(Exception):
    """A verified identity failed or a distribution is unrealizable."""


class _Parser(argparse.ArgumentParser):
    """An argparse usage error raises ValueError, so main reports it as one capped line."""

    def error(self, message):
        raise ValueError(message)


def _brief(exc) -> str:
    """The message, cut to MAX_MESSAGE characters when it echoes an oversized input."""
    text = str(exc)
    return text if len(text) <= MAX_MESSAGE else f"{text[:MAX_MESSAGE]}… ({len(text)} characters)"


def _json_int(v: int):
    return v if abs(v) < (1 << 53) else str(v)


def _json_value(v):
    f = Fraction(v)
    if f.denominator == 1:
        return _json_int(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _load_json(text: str, flag: str):
    # json.loads raises RecursionError on deeply nested arrays or objects
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{flag} is not valid JSON: {exc}") from None


def _parse_scheme(text: str):
    return scheme_from_json(_load_json(text, "--scheme-json"))


def _parse_weights(text: str):
    """The --weights array; TransformInput checks its length and entries."""
    weights = _load_json(text, "--weights")
    if not isinstance(weights, list):
        raise ValueError("--weights must be a JSON array")
    return weights


def cmd_scheme_info(args):
    params = _parse_scheme(args.scheme_json)
    vec = xi_vector(params)
    # The closed form C_w(0, n) keeps only its j = 0 term, [n, w]_b gamma(n, w):
    # a rational reference for the integer table row that xi_vector reads.
    n, b, c = params.n, params.b, params.c
    valencies = [gauss(n, w, b) * gamma(n, w, b, c) for w in range(n + 1)]
    return {
        "kind": params.kind,
        "q": params.q,
        "b": _json_value(params.b),
        "c": _json_value(params.c),
        "n": params.n,
        "spaceSize": _json_int(params.space_size),
        "xi": [_json_int(v) for v in vec],
        "valencies_equal_xi": valencies == vec,
    }


def cmd_scheme_eigenmatrix(args):
    params = _parse_scheme(args.scheme_json)
    mat = eigenmatrix(params)  # checked by O(n^2) invariants (row sums, reciprocity)
    return {
        "kind": params.kind,
        "n": params.n,
        "spaceSize": _json_int(params.space_size),
        "matrix": [[_json_int(v) for v in row] for row in mat],
        "involution_ok": True,
    }


def cmd_transform(args):
    params = _parse_scheme(args.scheme_json)
    tin = TransformInput(dist=_parse_weights(args.weights), code_size=args.code_size, params=params)
    routes = (("eigen", transform_eigen), ("functional", transform_functional))
    duals = [[_json_int(v) for v in fn(tin)] for name, fn in routes if args.method in (name, "both")]
    out = {"kind": params.kind, "codeSize": _json_int(args.code_size), "method": args.method,
           "dual": duals[0]}
    if args.method == "both":
        out["agree"] = duals[0] == duals[1]
        if not out["agree"]:
            raise Violation("eigenmatrix and functional transforms disagree")
    return out


def cmd_moments(args):
    params = _parse_scheme(args.scheme_json)
    tin = TransformInput(dist=_parse_weights(args.weights), code_size=args.code_size, params=params)
    out = {"kind": params.kind, "phi": args.phi}
    for name, fn in (("moment_b", moment_b), ("moment_binv", moment_binv)):
        lhs, rhs = fn(tin, args.phi)
        out[name] = {
            "lhs": _json_value(lhs),
            "rhs": _json_value(rhs),
            "equal": lhs == rhs,
        }
    if not (out["moment_b"]["equal"] and out["moment_binv"]["equal"]):
        raise Violation("a moment identity failed; input distribution inconsistent")
    return out


def cmd_maximal(args):
    params = _parse_scheme(args.scheme_json)
    dist = maximal_distribution(params, args.d, args.code_size)
    return {
        "kind": params.kind,
        "d": args.d,
        "codeSize": _json_int(args.code_size),
        "distribution": [_json_int(v) for v in dist],
    }


def _suite_axioms(params, trials, rng):
    from .oracle import verify_scheme_axioms

    return verify_scheme_axioms(params, seed=rng.randrange(1 << 30))["violations"]


def _suite_eigen(params, trials, rng):
    """The character sums against the matrix `scheme eigenmatrix` prints."""
    from .oracle import char_eigenvalue

    entries = eigenmatrix(params)
    mismatches = []
    for k in range(params.n + 1):
        for x in range(params.n + 1):
            cs = char_eigenvalue(params, k, x)
            cp = entries[x][k]
            if cs != cp:
                mismatches.append(f"(k={k}, x={x}): char {cs} != poly {cp}")
    return mismatches


def _suite_recurrence(params, trials, rng):
    return [str(v[:3]) for v in check_recurrence(params, max_n=min(params.n + 2, 6))]


def _random_inputs(params, trials, rng):
    """(trial, code, the code's TransformInput) for each of `trials` random codes."""
    from .oracle import random_code, weight_distribution

    for trial in range(trials):
        code = random_code(params, rng)
        yield trial, code, TransformInput(weight_distribution(code), code.code_size, params)


def _suite_transform(params, trials, rng):
    from .oracle import dual_code, weight_distribution

    failures = []
    for trial, code, tin in _random_inputs(params, trials, rng):
        expected = weight_distribution(dual_code(code))
        got_e = transform_eigen(tin)
        got_f = transform_functional(tin)
        if not (got_e == got_f == expected):
            failures.append(
                f"trial {trial}: dim {len(code.generators)}: "
                f"eigen {got_e}, functional {got_f}, brute force {expected}"
            )
    return failures


def _suite_moments(params, trials, rng):
    failures = []
    for trial, _, tin in _random_inputs(params, trials, rng):
        for phi in range(params.n + 1):
            for name, fn in (("b", moment_b), ("binv", moment_binv)):
                lhs, rhs = fn(tin, phi)
                if lhs != rhs:
                    failures.append(f"trial {trial} phi={phi} {name}: {lhs} != {rhs}")
    return failures


# name: (suite, the oracle guard |X| must not exceed, or None).  axioms and eigen
# enumerate all of X, up to SPACE_GUARD points; a code and its dual together hold at
# most |X| + 1 words, so under ENUM_GUARD every code transform and moments draw fits.
_SUITES = {
    "axioms": (_suite_axioms, "SPACE_GUARD"),
    "eigen": (_suite_eigen, "SPACE_GUARD"),
    "recurrence": (_suite_recurrence, None),
    "transform": (_suite_transform, "ENUM_GUARD"),
    "moments": (_suite_moments, "ENUM_GUARD"),
}


def cmd_verify(args):
    import random

    params = _parse_scheme(args.scheme_json)
    check_int("--trials", args.trials, 1, MAX_TRIALS)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rng = random.Random(args.seed)
    results = {}
    for name in names:
        suite, guard_name = _SUITES[name]
        if guard_name is not None:
            from . import oracle

            guard = getattr(oracle, guard_name)  # read per call: it may be patched
            if params.space_size > guard:
                reason = f"space size {params.space_size} exceeds the {guard} guard"
                if args.suite != "all":
                    raise ValueError(f"suite {name!r} not applicable: {reason}")
                results[name] = {"ok": True, "skipped": reason}
                continue
        violations = suite(params, args.trials, rng)
        results[name] = {"ok": not violations, "violations": violations}
        if guard_name == "ENUM_GUARD":  # a code suite: it drew --trials codes
            results[name]["trials"] = args.trials
    ok = all(r["ok"] for r in results.values())
    out = {
        "kind": params.kind,
        "suite": args.suite,
        "seed": args.seed,
        "results": results,
        "ok": ok,
    }
    if not ok:
        raise Violation(json.dumps(out))  # one stderr line, uncapped: callers parse it
    return out


def build_parser():
    parser = _Parser(
        prog="krawtchouk",
        description="Exact MacWilliams-identity toolkit for Krawtchouk association schemes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scheme-json", required=True, help='e.g. \'{"kind":"hamming","q":2,"n":3}\'')
        p.add_argument("--out", help="write the JSON result to this file")

    scheme = sub.add_parser("scheme", help="scheme catalog queries")
    scheme_sub = scheme.add_subparsers(dest="subcommand", required=True)
    info = scheme_sub.add_parser("info", help="parameters and weight counts")
    add_common(info)
    info.set_defaults(fn=cmd_scheme_info)
    eig = scheme_sub.add_parser("eigenmatrix", help="exact integer eigenmatrix")
    add_common(eig)
    eig.set_defaults(fn=cmd_scheme_eigenmatrix)

    tr = sub.add_parser("transform", help="MacWilliams transform of a distribution")
    add_common(tr)
    tr.add_argument("--weights", required=True, help="JSON array, length n+1")
    tr.add_argument("--code-size", required=True, type=int)
    tr.add_argument("--method", choices=("eigen", "functional", "both"), default="both")
    tr.set_defaults(fn=cmd_transform)

    mo = sub.add_parser("moments", help="both moment identities at one order")
    add_common(mo)
    mo.add_argument("--weights", required=True, help="JSON array, length n+1")
    mo.add_argument("--code-size", required=True, type=int)
    mo.add_argument("--phi", required=True, type=int)
    mo.set_defaults(fn=cmd_moments)

    mx = sub.add_parser("maximal", help="forced distribution of a maximal code")
    add_common(mx)
    mx.add_argument("--d", required=True, type=int, help="minimum distance d_S")
    mx.add_argument("--code-size", required=True, type=int)
    mx.set_defaults(fn=cmd_maximal)

    ve = sub.add_parser("verify", help="oracle-backed verification suites")
    add_common(ve)
    ve.add_argument("--suite", choices=tuple(_SUITES) + ("all",), default="all")
    ve.add_argument("--trials", type=int, default=20)
    ve.add_argument("--seed", type=int, default=1)
    ve.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # the size budget, not Python's 4300-digit default, bounds the
        # integers a command reads and prints
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        result = args.fn(args)
    except UnrealizableDistribution as exc:
        print(f"error: {_brief(exc)}", file=sys.stderr)
        return EXIT_VIOLATION
    except Violation as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"invalid input: {_brief(exc)}", file=sys.stderr)
        return EXIT_INVALID
    text = json.dumps(result, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"invalid input: {_brief(f'cannot write --out: {exc}')}", file=sys.stderr)
            return EXIT_INVALID
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
