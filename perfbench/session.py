"""The library-session child: one long-lived process calling the public API.

Set-up imports `krawtchouk`, builds one scheme per family and warms the
eigenmatrix cache of each; the process then serves the seeded
library-session stream in a closed loop and checks every answer.

    PYTHONPATH=src python perfbench/session.py --seed 1 --setup-only
    PYTHONPATH=src python perfbench/session.py --seed 1 --seconds 30
    PYTHONPATH=src python perfbench/session.py --seed 1 --requests 60 [--trace OUT.json]

It prints one JSON object on standard output.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import check
import generate
import run


def answer(lib, params, req) -> tuple:
    """The library's answer to one request."""
    if req["op"] == "maximal":
        return (lib.maximal_distribution(params, req["d"], req["size"]),)
    code = req["code"]
    tin = lib.TransformInput(dist=code.dist, code_size=code.size, params=params)
    if req["op"] == "transform":
        return lib.transform_eigen(tin), lib.transform_functional(tin)
    return lib.moment_b(tin, req["phi"]), lib.moment_binv(tin, req["phi"])


def check_answer(req, got) -> None:
    if req["op"] == "maximal":
        check.check_maximal(req, *got)
    elif req["op"] == "transform":
        check.expect("functional route", got[1], got[0])
        check.check_transform(req, got[0])
    else:
        check.check_moments(req, *got)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--requests", type=int, default=0, help="serve exactly this many requests")
    ap.add_argument("--trace", help="trace the layers and write the trace to this file")
    args = ap.parse_args(argv)

    clock = time.perf_counter
    t0 = clock()
    import krawtchouk as lib

    t_import = clock()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    t_ready = clock()
    params = {s: lib.scheme_from_json(s.to_json()) for s in generate.SESSION_SCHEMES}
    for p in params.values():
        lib.eigenmatrix(p)
    setup_s = clock() - t0
    out = {"setup_s": setup_s}
    if not args.setup_only:
        latencies, failures, ops = [], [], {}
        stream = generate.stream("library-session", args.seed)
        deck = generate.deck_size("library-session")
        busy = 0.0  # time inside the library, summed over requests
        while True:
            done = len(latencies) + len(failures)
            if args.requests:
                if done >= args.requests:
                    break
            elif run.should_stop(busy, done, args.seconds, deck):
                break
            req = next(stream)
            start = clock()
            try:
                got = answer(lib, params[req["scheme"]], req)
            except Exception as exc:  # the session must keep serving; record and go on
                busy += clock() - start
                failures.append(f"{req['op']}: {type(exc).__name__}: {check.first_line(str(exc))}")
                continue
            latency = clock() - start
            busy += latency
            entry = ops.setdefault(req["op"], {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += latency
            try:
                check_answer(req, got)
            except check.Wrong as exc:
                failures.append(f"{req['op']}: wrong value: {exc}")
            except check.SHAPE_ERRORS as exc:
                failures.append(f"{req['op']}: bad answer shape: {type(exc).__name__}: {exc}")
            else:
                latencies.append(latency)
        out.update(latencies=latencies, failures=failures, ops=ops, busy_s=busy, work_s=clock() - t_ready)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        dump_start = clock()
        trace = tracer.dump()
        trace["bookkeeping_s"] = (t_ready - t_import) + (clock() - dump_start)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    json.dump(out, sys.stdout)
    print()


if __name__ == "__main__":
    main()
