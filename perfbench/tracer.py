"""In-process tracing of the library's layers, installed from outside.

`install()` wraps every public module-level function of each layer module,
and rebinds it in every module that holds it, so callers that did
`from .bnary import gauss` see the wrapper too.  `HomPoly.coeff` and
`SchemeSpace.weight` are wrapped as class attributes, and
`Fraction.__new__` is replaced by a counter.  Every wrapped call adds to
its function's call count, outermost-call time and self time (its time
minus the time of the wrapped calls it made); the coarse functions in
`SPANNED` also record a span (name, start, end, parent span).  Nothing is
written until `Tracer.dump()`.

As a program it runs one traced CLI request:

    PYTHONPATH=src python perfbench/tracer.py OUT.json -- scheme info --scheme-json '{...}'

and writes the trace to OUT.json when the CLI returns.
"""
from __future__ import annotations

import fractions
import importlib
import inspect
import json
import sys
import time

LAYERS = ("bnary", "eigenvalues", "balgebra", "schemes", "macwilliams", "fields", "oracle", "cli")
CLASS_ATTRS = (("balgebra", "HomPoly", "coeff"), ("oracle", "SchemeSpace", "weight"))
KEYED = ("eigenvalues.eigenmatrix", "oracle.space_for")
SPANNED = {
    "cli.main",
    "eigenvalues.eigenmatrix",
    "eigenvalues.check_recurrence",
    "macwilliams.transform_eigen",
    "macwilliams.transform_functional",
    "macwilliams.moment_b",
    "macwilliams.moment_binv",
    "macwilliams.maximal_distribution",
    "oracle.space_for",
    "oracle.verify_scheme_axioms",
    "oracle.char_eigenvalue",
    "oracle.dual_code",
    "oracle.weight_distribution",
    "oracle.random_code",
    "schemes.xi_vector",
}


class Tracer:
    def __init__(self):
        self.stack = [[0.0]]  # per open call: time spent in wrapped callees
        self.open_spans = [-1]
        self.stats = {}  # name -> [calls, outermost total_s, self_s, depth]
        self.spans = []  # [name, start, end, parent index]
        self.keys = {name: set() for name in KEYED}
        self.fraction_new = [0]

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, open_spans = self.stack, self.spans, self.open_spans
        keys = self.keys.get(name)
        spanned = name in SPANNED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stats[0] += 1
            stats[3] += 1
            if keys is not None:
                keys.add(args[0])
            if spanned:
                index = len(spans)
                spans.append([name, 0.0, 0.0, open_spans[-1]])
                open_spans.append(index)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stats[2] += elapsed - frame[0]
                stats[3] -= 1
                if stats[3] == 0:
                    stats[1] += elapsed
                if spanned:
                    spans[index][1:3] = start, start + elapsed
                    open_spans.pop()

        return traced

    def dump(self) -> dict:
        return {
            "stats": {
                name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for name, s in self.stats.items()
            },
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "fraction_new": self.fraction_new[0],
            "spans": self.spans,
        }


def install() -> Tracer:
    """Import the layers and wrap them; returns the tracer that records calls."""
    tracer = Tracer()
    package = importlib.import_module("krawtchouk")
    modules = {name: importlib.import_module(f"krawtchouk.{name}") for name in LAYERS}
    wrappers = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    for short, cls_name, attr in CLASS_ATTRS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, attr, tracer.wrap(f"{short}.{cls_name}.{attr}", getattr(cls, attr)))

    original_new = fractions.Fraction.__new__
    counter = tracer.fraction_new

    def counted_new(cls, *args, **kwargs):
        counter[0] += 1
        return original_new(cls, *args, **kwargs)

    fractions.Fraction.__new__ = staticmethod(counted_new)
    return tracer


def main(argv) -> int:
    out_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <cli arguments>")
    from krawtchouk import cli

    clock = time.perf_counter
    start = clock()
    tracer = install()
    install_s = clock() - start
    try:
        return cli.main(cli_argv)
    finally:
        start = clock()
        trace = tracer.dump()
        trace["bookkeeping_s"] = install_s + clock() - start
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
