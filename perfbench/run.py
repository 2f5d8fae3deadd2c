"""Benchmark runner: one seeded workload, checked answers, named metrics.

    python3 perfbench/run.py --workload cli-algebra --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from that
checkout's `src/`.  `--trace 0` measures the end-to-end metrics, `--trace 1`
runs a fixed request list twice, untraced and traced, and reports the
per-layer metrics.  The metric names and units are the ones BENCHMARK.json
lists.  The last line of standard output is the result object; the lines
before it are a report with sample counts, failures and an environment
stamp.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"  # traces of --trace 1 runs; scratch files while running

MIN_REQUESTS = 110  # a p90 with at least ten samples beyond it
MAX_SECONDS = 100.0  # measuring stops here even short of MIN_REQUESTS or a whole deck
REQUEST_TIMEOUT_S = 60.0  # also the latency a failed request counts as
CLI_SETUP_EVERY = 10  # requests between two cold-import probes
TRACE_DECKS = {"cli-algebra": 1, "cli-oracle": 1, "library-session": 2}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv, env, timeout=REQUEST_TIMEOUT_S):
    """Run one child to completion; returns (wall seconds, CompletedProcess or None on timeout)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None
    return time.perf_counter() - start, proc


def cli_command(req) -> list:
    return [sys.executable, "-m", "krawtchouk.cli", *generate.cli_argv(req)]


def cli_outcome(req, proc):
    """None for a correct answer, else the reason the request failed."""
    if proc is None:
        return f"timeout after {REQUEST_TIMEOUT_S:g} s"
    return check.cli_failure(req, proc.returncode, proc.stdout, proc.stderr)


def tally(ops, op, seconds):
    """Count one request of an operation and add its wall time."""
    entry = ops.setdefault(op, {"count": 0, "total_s": 0.0})
    entry["count"] += 1
    entry["total_s"] += seconds


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def latency_metrics(latencies, failures, busy):
    """Throughput over the time spent in requests, and latency quantiles.

    A failed request counts as a timeout in the quantiles.
    """
    attempted = len(latencies) + len(failures)
    ranked = sorted(latencies + [REQUEST_TIMEOUT_S] * len(failures))
    return {
        "throughput_rps": len(latencies) / busy,
        "latency_p50_s": percentile(ranked, 0.5),
        "latency_p90_s": percentile(ranked, 0.9),
    }, {
        "latency": attempted,
        "beyond_p90": attempted - math.ceil(0.9 * attempted),
    }


# -- measured runs --------------------------------------------------------------------


def should_stop(busy, done, seconds, deck) -> bool:
    """Stop after `seconds` of request time, MIN_REQUESTS and a whole number of decks.

    Whole decks give every seed the same mix of cells, so the mix does not
    move the quantiles; MAX_SECONDS caps a run whatever the count.
    """
    return busy >= MAX_SECONDS or (busy >= seconds and done >= MIN_REQUESTS and done % deck == 0)


def measure_cli(workload, seed, seconds, env):
    """Closed loop of fresh CLI processes, with a cold-import probe every few requests.

    The probes are spread over the run, so that set-up time is sampled at
    the same moments as the requests; their time is not request time.
    """
    stream = generate.stream(workload, seed)
    deck = generate.deck_size(workload)
    latencies, failures, ops, setups = [], [], {}, []
    busy = 0.0
    while not should_stop(busy, len(latencies) + len(failures), seconds, deck):
        if (len(latencies) + len(failures)) % CLI_SETUP_EVERY == 0:
            setups.append(run_child([sys.executable, "-c", "import krawtchouk.cli"], env)[0])
        req = next(stream)
        op = req.get("suite", req["op"])
        wall, proc = run_child(cli_command(req), env)
        busy += wall
        tally(ops, op, wall)
        reason = cli_outcome(req, proc)
        if reason is None:
            latencies.append(wall)
        else:
            failures.append(f"{op} {json.dumps(req['scheme'].to_json())}: {reason}")
    metrics, samples = latency_metrics(latencies, failures, busy)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    samples["setup"] = len(setups)
    return metrics, samples, failures, ops


def session_command(seed, *extra) -> list:
    return [sys.executable, str(BENCH_DIR / "session.py"), "--seed", str(seed), *extra]


def run_session(argv, env, timeout):
    wall, proc = run_child(argv, env, timeout)
    if proc is None or proc.returncode != 0:
        reason = "timeout" if proc is None else f"exit {proc.returncode}: {check.first_line(proc.stderr)}"
        raise RuntimeError(f"library session failed: {reason}")
    return wall, json.loads(proc.stdout)


def measure_session(seed, seconds, env):
    """The session itself, with a set-up-only process before and after it."""
    setup_only = session_command(seed, "--setup-only")
    before = run_session(setup_only, env, REQUEST_TIMEOUT_S)[1]
    argv = session_command(seed, "--seconds", str(seconds))
    out = run_session(argv, env, MAX_SECONDS + 2 * REQUEST_TIMEOUT_S)[1]
    after = run_session(setup_only, env, REQUEST_TIMEOUT_S)[1]
    setups = [before["setup_s"], out["setup_s"], after["setup_s"]]
    metrics, samples = latency_metrics(out["latencies"], out["failures"], out["busy_s"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = out["peak_rss_mb"]
    samples["setup"] = len(setups)
    return metrics, samples, out["failures"], out["ops"]


# -- traced runs ----------------------------------------------------------------------


class TraceTotals:
    """Traces of several child processes, merged."""

    def __init__(self):
        self.stats = {}
        self.distinct = {}
        self.fraction_new = 0
        self.start_s = []
        self.spans = []
        self.untraced_s = 0.0
        self.traced_s = 0.0

    def add(self, trace, wall, entry_s):
        """One child's trace; entry_s is the time it spent inside the package."""
        for name, s in trace["stats"].items():
            into = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += s[key]
        for name, count in trace["distinct"].items():
            self.distinct[name] = self.distinct.get(name, 0) + count
        self.fraction_new += trace["fraction_new"]
        self.start_s.append(wall - entry_s - trace["bookkeeping_s"])
        self.spans.append(trace["spans"])

    def _stat(self, fn):
        return self.stats.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def metric(self, name):
        if name == "process.start_s":
            return statistics.median(self.start_s)
        if name == "kernel.fraction_new.calls":
            return self.fraction_new
        if name == "trace.overhead_frac":
            return self.traced_s / self.untraced_s - 1
        prefix, _, kind = name.rpartition(".")
        if kind == "self_s" and "." not in prefix:
            return sum(s["self_s"] for fn, s in self.stats.items() if fn.startswith(prefix + "."))
        if kind in ("calls", "total_s"):
            return self._stat(prefix)[kind]
        if kind == "repeat_share":
            calls = self._stat(prefix)["calls"]
            return 1 - self.distinct[prefix] / calls if calls else 0.0
        raise KeyError(f"no per-layer metric named {name!r}")


def trace_cli(workload, seed, env, tmp):
    totals = TraceTotals()
    failures, ops = [], {}
    stream = generate.stream(workload, seed)
    count = TRACE_DECKS[workload] * generate.deck_size(workload)
    for i in range(count):
        req = next(stream)
        op = req.get("suite", req["op"])
        wall, proc = run_child(cli_command(req), env)
        tally(ops, op, wall)
        totals.untraced_s += wall
        out_path = Path(tmp) / f"trace-{i}.json"
        traced_wall, traced = run_child(
            [sys.executable, str(BENCH_DIR / "tracer.py"), str(out_path), "--", *generate.cli_argv(req)], env
        )
        totals.traced_s += traced_wall
        for label, p in (("untraced", proc), ("traced", traced)):
            reason = cli_outcome(req, p)
            if reason is not None:
                failures.append(f"{label} {op}: {reason}")
        if out_path.exists():
            trace = json.loads(out_path.read_text())
            main_s = trace["stats"].get("cli.main", {}).get("total_s", 0.0)
            totals.add(trace, traced_wall, main_s)
    return totals, failures, ops, 2 * count


def trace_session(seed, env, tmp):
    totals = TraceTotals()
    count = str(TRACE_DECKS["library-session"] * generate.deck_size("library-session"))
    timeout = MAX_SECONDS + 2 * REQUEST_TIMEOUT_S
    totals.untraced_s, plain = run_session(session_command(seed, "--requests", count), env, timeout)
    out_path = Path(tmp) / "trace-session.json"
    argv = session_command(seed, "--requests", count, "--trace", str(out_path))
    totals.traced_s, traced = run_session(argv, env, timeout)
    trace = json.loads(out_path.read_text())
    totals.add(trace, totals.traced_s, traced["work_s"])
    failures = [f"untraced {f}" for f in plain["failures"]] + [f"traced {f}" for f in traced["failures"]]
    return totals, failures, traced["ops"], 2 * int(count)


# -- report -----------------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    ap.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "krawtchouk" / "cli.py").is_file():
        print(f"perfbench: no src/krawtchouk package under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env()
    stamp = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            if args.workload == "library-session":
                totals, failures, ops, attempted = trace_session(args.seed, env, tmp)
            else:
                totals, failures, ops, attempted = trace_cli(args.workload, args.seed, env, tmp)
        values = {m["name"]: totals.metric(m["name"]) for m in wanted}
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"stats": totals.stats, "spans": totals.spans}))
        samples = {
            "processes_traced": len(totals.start_s),
            "spans": sum(map(len, totals.spans)),
            "trace_file": str(trace_file.relative_to(ROOT)),
        }
    else:
        if args.workload == "library-session":
            values, samples, failures, ops = measure_session(args.seed, args.seconds, env)
        else:
            values, samples, failures, ops = measure_cli(args.workload, args.seed, args.seconds, env)
        attempted = samples["latency"]
    stamp["loadavg_1m_end"] = os.getloadavg()[0]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": stamp,
        "requests": {
            "attempted": attempted,
            "failed": len(failures),
            "failed_frac": len(failures) / attempted,
            "by_operation": ops,
        },
        "samples": samples,
        "failures": failures,
        "metrics": metrics,
    }
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
