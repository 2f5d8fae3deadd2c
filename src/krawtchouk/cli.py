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
from .bnary import gamma, gauss, is_int
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
from .schemes import scheme_from_json, scheme_to_json, xi_vector

EXIT_INVALID = 2
EXIT_VIOLATION = 3

# Only `verify` needs the brute-force oracle (and with it `fields` and
# `random`), so those are imported inside cmd_verify and its suites; the
# algebra commands start without them.  A function-level import reads the
# oracle module's attribute at call time, so perfbench's tracer, which
# rebinds those attributes, still counts every oracle call.

# Size budget for every command: the eigenmatrix alone is (n+1)^2 integers
# of up to about log2|X| bits, so larger schemes fail fast with exit 2.
# make_scheme itself enforces |X| <= 2^schemes.MAX_SPACE_BITS.
MAX_CLASSES = 64


class Violation(Exception):
    """A verified identity failed or a distribution is unrealizable."""


def _json_int(v: int):
    return v if abs(v) < (1 << 53) else str(v)


def _json_value(v):
    f = Fraction(v)
    if f.denominator == 1:
        return _json_int(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _parse_scheme(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--scheme-json is not valid JSON: {exc}") from None
    params = scheme_from_json(obj)
    if params.n > MAX_CLASSES:
        raise ValueError(f"class count {params.n} exceeds the supported {MAX_CLASSES}")
    return params


def _parse_weights(text: str, n: int):
    try:
        weights = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--weights is not valid JSON: {exc}") from None
    if not isinstance(weights, list) or not all(is_int(w) for w in weights):
        raise ValueError("--weights must be a JSON array of integers")
    if len(weights) != n + 1:
        raise ValueError(f"--weights needs {n + 1} entries for this scheme")
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
    mat = eigenmatrix(params).entries  # raises unless P P = |X| I
    return {
        "kind": params.kind,
        "n": params.n,
        "spaceSize": _json_int(params.space_size),
        "matrix": [[_json_int(v) for v in row] for row in mat],
        "involution_ok": True,
    }


def cmd_transform(args):
    params = _parse_scheme(args.scheme_json)
    weights = _parse_weights(args.weights, params.n)
    tin = TransformInput(dist=tuple(weights), code_size=args.code_size, params=params)
    out = {"kind": params.kind, "codeSize": _json_int(args.code_size), "method": args.method}
    if args.method in ("eigen", "both"):
        out["dual"] = [_json_int(v) for v in transform_eigen(tin)]
    if args.method in ("functional", "both"):
        dual_f = transform_functional(tin)
        if args.method == "functional":
            out["dual"] = [_json_int(v) for v in dual_f]
        else:
            agree = out["dual"] == [_json_int(v) for v in dual_f]
            out["agree"] = agree
            if not agree:
                raise Violation("eigenmatrix and functional transforms disagree")
    return out


def cmd_moments(args):
    params = _parse_scheme(args.scheme_json)
    weights = _parse_weights(args.weights, params.n)
    if not 0 <= args.phi <= params.n:
        raise ValueError(f"--phi must lie in 0..{params.n}")
    tin = TransformInput(dist=tuple(weights), code_size=args.code_size, params=params)
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

    report = verify_scheme_axioms(params, seed=rng.randrange(1 << 30))
    return {"ok": report["ok"], "violations": report["violations"]}


def _suite_eigen(params, trials, rng):
    """The character sums against the matrix `scheme eigenmatrix` prints."""
    from .oracle import char_eigenvalue

    entries = eigenmatrix(params).entries
    mismatches = []
    for k in range(params.n + 1):
        for x in range(params.n + 1):
            cs = char_eigenvalue(params, k, x)
            cp = entries[x][k]
            if cs != cp:
                mismatches.append(f"(k={k}, x={x}): char {cs} != poly {cp}")
    return {"ok": not mismatches, "violations": mismatches}


def _suite_recurrence(params, trials, rng):
    violations = check_recurrence(params, max_n=min(params.n + 2, 6))
    return {"ok": not violations, "violations": [str(v[:3]) for v in violations]}


def _suite_transform(params, trials, rng):
    from .oracle import dual_code, random_code, weight_distribution

    failures = []
    for trial in range(trials):
        code = random_code(params, rng)
        dist = weight_distribution(code)
        tin = TransformInput(dist=tuple(dist), code_size=code.code_size, params=params)
        expected = weight_distribution(dual_code(code))
        got_e = transform_eigen(tin)
        got_f = transform_functional(tin)
        if not (got_e == got_f == expected):
            failures.append(
                f"trial {trial}: dim {len(code.generators)}: "
                f"eigen {got_e}, functional {got_f}, brute force {expected}"
            )
    return {"ok": not failures, "violations": failures, "trials": trials}


def _suite_moments(params, trials, rng):
    from .oracle import random_code, weight_distribution

    failures = []
    for trial in range(trials):
        code = random_code(params, rng)
        dist = weight_distribution(code)
        tin = TransformInput(dist=tuple(dist), code_size=code.code_size, params=params)
        for phi in range(params.n + 1):
            for name, fn in (("b", moment_b), ("binv", moment_binv)):
                lhs, rhs = fn(tin, phi)
                if lhs != rhs:
                    failures.append(f"trial {trial} phi={phi} {name}: {lhs} != {rhs}")
    return {"ok": not failures, "violations": failures, "trials": trials}


_SUITES = {
    "axioms": _suite_axioms,
    "eigen": _suite_eigen,
    "recurrence": _suite_recurrence,
    "transform": _suite_transform,
    "moments": _suite_moments,
}


def _suite_applicable(name, params):
    from .oracle import SPACE_GUARD

    if name in ("axioms", "eigen") and params.space_size > SPACE_GUARD:
        return f"space size {params.space_size} exceeds the {SPACE_GUARD} guard"
    return None


def cmd_verify(args):
    import random

    from .oracle import space_for

    params = _parse_scheme(args.scheme_json)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    space_for(params)  # fail early on oracle-unsupported parameters
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rng = random.Random(args.seed)
    results = {}
    for name in names:
        reason = _suite_applicable(name, params)
        if reason is not None:
            if args.suite != "all":
                raise ValueError(f"suite {name!r} not applicable: {reason}")
            results[name] = {"ok": True, "skipped": reason}
            continue
        results[name] = _SUITES[name](params, args.trials, rng)
    ok = all(r["ok"] for r in results.values())
    out = {
        "kind": params.kind,
        "suite": args.suite,
        "seed": args.seed,
        "results": results,
        "ok": ok,
    }
    if not ok:
        raise Violation(json.dumps(out, indent=2))
    return out


def build_parser():
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.fn(args)
    except UnrealizableDistribution as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except Violation as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    text = json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
