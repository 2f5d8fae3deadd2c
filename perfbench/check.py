"""Output checks: one request's answer against the generator's expected one.

A check raises `Wrong` (or a JSON shape error) with a one-line reason; the
runner turns that into a failed request.  The CLI prints integers wider
than 53 bits as decimal strings and rationals as "p/q", so values are
decoded back to exact Python numbers before comparing.
"""
from __future__ import annotations

import json
from fractions import Fraction

from generate import moment_lhs, weight_counts

SHAPE_ERRORS = (KeyError, TypeError, IndexError, ValueError)


class Wrong(ValueError):
    """The program answered, but the answer is wrong."""


def _short(v, limit=120) -> str:
    text = repr(v)
    return text if len(text) <= limit else text[:limit] + "..."


def expect(what: str, got, want) -> None:
    if got != want:
        raise Wrong(f"{what}: got {_short(got)}, want {_short(want)}")


def _int(v) -> int:
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str) and v.lstrip("-").isdigit():
        return int(v)
    raise TypeError(f"expected an integer, got {_short(v)}")


def _rational(v) -> Fraction:
    if isinstance(v, str) and "/" in v:
        num, den = v.split("/")
        return Fraction(_int(num), _int(den))
    return Fraction(_int(v))


def _ints(values) -> list:
    return [_int(v) for v in values]


# -- value checks shared by the CLI and the library session ------------------------


def check_transform(req: dict, dual: list) -> None:
    expect(f"dual of {req['code'].name} code", list(dual), list(req["code"].dual))


def check_moments(req: dict, b_sides: tuple, binv_sides: tuple) -> None:
    want_b, want_binv = moment_lhs(req["scheme"], req["code"].dist, req["phi"])
    for name, (lhs, rhs), want in (("moment_b", b_sides, want_b), ("moment_binv", binv_sides, want_binv)):
        expect(f"{name} lhs", lhs, want)
        expect(f"{name} rhs", rhs, lhs)


def check_maximal(req: dict, dist: list) -> None:
    expect("maximal counts sum", sum(dist), req["size"])
    expect("maximal distribution", list(dist), list(req["expect"]))


# -- CLI outputs ---------------------------------------------------------------------


def _cli_info(req, out):
    s = req["scheme"]
    expect("n", out["n"], s.n)
    expect("spaceSize", _int(out["spaceSize"]), s.size)
    expect("xi", _ints(out["xi"]), weight_counts(s))
    expect("valencies_equal_xi", out["valencies_equal_xi"], True)


def _cli_eigenmatrix(req, out):
    s = req["scheme"]
    rows = [_ints(row) for row in out["matrix"]]
    expect("matrix shape", [len(r) for r in rows], [s.n + 1] * (s.n + 1))
    expect("valency row", rows[0], weight_counts(s))
    expect("trivial column", [r[0] for r in rows], [1] * (s.n + 1))
    expect("involution_ok", out["involution_ok"], True)


def _cli_transform(req, out):
    check_transform(req, _ints(out["dual"]))
    expect("agree", out["agree"], True)


def _cli_moments(req, out):
    sides = []
    for name in ("moment_b", "moment_binv"):
        expect(f"{name} equal", out[name]["equal"], True)
        sides.append((_rational(out[name]["lhs"]), _rational(out[name]["rhs"])))
    check_moments(req, *sides)


def _cli_maximal(req, out):
    expect("codeSize", _int(out["codeSize"]), req["size"])
    check_maximal(req, _ints(out["distribution"]))


_ALL_SUITES = ["axioms", "eigen", "recurrence", "transform", "moments"]


def _cli_verify(req, out):
    suites = _ALL_SUITES if req["suite"] == "all" else [req["suite"]]
    expect("suites", sorted(out["results"]), sorted(suites))
    for name in suites:
        result = out["results"][name]
        expect(f"{name} skipped", result.get("skipped"), None)
        expect(f"{name} ok", result["ok"], True)
        if name in ("transform", "moments"):
            expect(f"{name} trials", result["trials"], req["trials"])
    expect("ok", out["ok"], True)


_CLI_CHECKS = {
    "info": _cli_info,
    "eigenmatrix": _cli_eigenmatrix,
    "transform": _cli_transform,
    "moments": _cli_moments,
    "maximal": _cli_maximal,
    "verify": _cli_verify,
}


def first_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[0][:200] if lines else ""


def cli_failure(req: dict, returncode: int, stdout: str, stderr: str):
    """None if the CLI answered correctly, else a one-line reason."""
    if returncode != 0:
        return f"exit {returncode}: {first_line(stderr)}"
    try:
        out = json.loads(stdout)
        expect("kind", out["kind"], req["scheme"].kind)
        _CLI_CHECKS[req["op"]](req, out)
    except Wrong as exc:
        return f"wrong value: {exc}"
    except SHAPE_ERRORS as exc:
        return f"bad output shape: {type(exc).__name__}: {exc}"
    return None
