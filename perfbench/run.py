#!/usr/bin/env python3
"""Benchmark for osctomo: one closed-loop workload per run.

    python3 perfbench/run.py --workload eval_stream --seed 1 --seconds 20 --trace 0

Run it from the repository root; osctomo is imported from ./src.  The
workloads are defined in workloads.py and BENCHMARK.json names them and
their metrics.

With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s``
from fresh interpreters, then a warm-up request, then the whole decks of
requests that take ``--seconds`` at nominal machine speed (see below),
with nothing traced.  With
``--trace 1`` it measures the per-layer metrics: ``import.*`` from fresh
interpreters under ``-X importtime``, then whole decks, alternately traced
and untraced, so that the tracing overhead is measured on the same mix.

Timing: other tenants of a shared machine slow a run by up to threefold for
minutes at a time, and by up to twofold for a second or less, which no
statistic over one run's requests can remove.  So a fixed pure-Python
probe loop runs after every request, outside the timed region, and the
request metrics are computed from latencies at nominal machine speed: each
measured latency divided by the slowdown around it, the median probe time
of the 2 * PROBE_WINDOW + 1 requests centred on it over PROBE_NOMINAL_MS.
The median keeps one slow probe, or a request's own, from setting that
scale.  The probe runs right after the request so that it sees the
machine the request saw.  What a request leaves behind does not slow it:
a probe straight after a BLAS matrix product takes as long as one after
0.2 s of idle, and the report's ``cpu_per_wall``, the process's CPU time
over wall time during the probes, stays at 1 unless a
BLAS worker thread is still busy while the probe runs.  ``--seconds`` is
nominal time too: a run sends round(--seconds / nominal_deck_s) whole
decks, at least two, so that every run has the same requests and its tail
the same percentile; it starts no deck after WALL_CAP * --seconds of wall
time.  A change to osctomo does not touch the probe, so its gain or loss
shows in full.  The measured values are in the report.  Throughput is
correct requests per second spent inside the requests, the time that
latency measures, so the harness's own work (building inputs, checking
outputs) does not dilute it.  ``setup_s`` is at nominal machine speed
too, but the pure-Python probe does not track import time (most of an
import is loading shared libraries), so its yardstick is a reference
import that osctomo cannot change: SETUP_REPEATS fresh interpreters import
osctomo, each followed by one that imports numpy alone, and ``setup_s`` is
the median ratio of the two times, times REFERENCE_NOMINAL_S.  The
measured import times are in the report.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it is a report: machine and versions, the
tail percentile and its sample count, per request kind the attempts and
failures with their reasons, and the workload's measured shares.  The
report, with each request's kind, latency and probe time, and the spans of
a traced run are also written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
PROBE_LOOPS = 20_000
PROBE_NOMINAL_MS = 1.0
PROBE_WINDOW = 2  # requests on each side
WALL_CAP = 3.0  # times --seconds
TAIL_BEYOND = 10
CHECKED_LAYERS = ("dynamics", "propagators", "states", "transforms", "figures")
IMPORT_CMD = "import osctomo, osctomo.cli"
REFERENCE_CMD = "import numpy"
REFERENCE_NOMINAL_S = 0.2


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def probe() -> tuple[float, float]:
    """Wall and process CPU time of a fixed pure-Python loop, in ms: the machine's speed at this moment."""
    c0, t0 = time.process_time(), time.perf_counter()
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += i * 0.5
    return 1e3 * (time.perf_counter() - t0), 1e3 * (time.process_time() - c0)


def fresh_import(code: str, flags=()) -> tuple[float, str]:
    """Wall time and stderr of a fresh interpreter running `code`."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"fresh import failed: {done.stderr.strip()[-500:]}")
    return elapsed, done.stderr


def parse_importtime(stderr: str) -> list[list]:
    """`-X importtime` lines as [depth, module, cumulative_us, parent index]."""
    entries: list[list] = []
    pending: list[int] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        idx = len(entries)
        entries.append([depth, name.strip(), int(cumulative), None])
        while pending and entries[pending[-1]][0] > depth:  # children print before parents
            entries[pending.pop()][3] = idx
        pending.append(idx)
    return entries


def package_import_s(entries: list[list], package: str) -> float:
    """Cumulative import time of `package`, counting nested imports once."""

    def inside(name):
        return name == package or name.startswith(package + ".")

    return 1e-6 * sum(
        cum for _, name, cum, parent in entries
        if inside(name) and (parent is None or not inside(entries[parent][1]))
    )


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked through its own API."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Results:
    """Outcomes of the requests of one run (or of its traced or untraced decks)."""

    def __init__(self):
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.probe_cpu = 0.0
        self.decks = 0
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.unexpected: list[str] = []
        self.canaries = 0
        self.canaries_missed = 0
        self.kinds: dict = defaultdict(lambda: {"attempted": 0, "failed": 0, "reasons": defaultdict(int)})
        self.worst: dict = defaultdict(float)
        self.tags: list[dict] = []
        self.wall = 0.0  # of the decks, less the probes

    def record(self, req, latency: float, reason: str | None, ratios: dict):
        self.attempted += 1
        self.latencies.append(latency)
        self.tags.append(dict(req.tags, kind=req.kind, known_defect=req.known_defect))
        kind = self.kinds[req.kind]
        kind["attempted"] += 1
        if req.corrupt is not None:
            self.canaries += 1
            if reason is None:
                self.canaries_missed += 1
                reason = "corrupted output passed the check"
        if reason is None:
            self.ok += 1
            for layer, ratio in ratios.items():
                self.worst[layer] = max(self.worst[layer], ratio)
            return
        self.failed += 1
        kind["failed"] += 1
        kind["reasons"][reason] += 1
        if not req.known_defect and req.corrupt is None:
            self.unexpected.append(f"{req.kind}: {reason}")

    @property
    def busy(self) -> float:
        """Seconds spent inside the requests."""
        return sum(self.latencies)

    def nominal_latencies(self) -> list[float]:
        """Each latency divided by the slowdown around it (see the module docstring)."""
        return [lat * PROBE_NOMINAL_MS / statistics.median(self.probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
                for i, lat in enumerate(self.latencies)]

    @property
    def slowdown(self) -> float:
        """Mean probe time over its nominal value: how much slower than nominal the machine ran."""
        return statistics.mean(self.probes) / PROBE_NOMINAL_MS


def execute(req, sinks: tuple[Results, ...], mismatch: type[Exception], tracer=None, request_id: int = 0):
    t0 = time.perf_counter()
    reason, output = None, None
    try:
        output = tracer.request_span(request_id, req.run) if tracer else req.run()
    except Exception as exc:  # a request that raises is a failed request, not a harness error
        reason = f"raised {type(exc).__name__}"
    latency = time.perf_counter() - t0
    ratios: dict = {}
    if reason is None:
        try:
            if req.corrupt is not None:
                output = req.corrupt(output)
            ratios = req.check(output)
        except mismatch as exc:
            reason = exc.args[0]
    for sink in sinks:
        sink.record(req, latency, reason, ratios)
    return latency


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it, and that percentile.

    Below 2 * TAIL_BEYOND + 1 samples that percentile would sit at or
    under the median, so the maximum stands in for it.
    """
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > 2 * TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def shares(tags: list[dict], warm_tags: dict) -> dict:
    """Measured properties of the timed requests' inputs."""
    n = len(tags)
    solved = {}  # profile -> largest t solved so far
    if "profile" in warm_tags:
        solved[warm_tags["profile"]] = warm_tags["t"]
    with_profile = profile_seen = t_covered = 0
    for tag in tags:
        if "profile" not in tag:
            continue
        key, t = tag["profile"], tag["t"]
        with_profile += 1
        profile_seen += key in solved
        t_covered += key in solved and t <= solved[key]
        solved[key] = max(solved.get(key, 0.0), t)
    grids = [tag["grid_reused"] for tag in tags if "grid_reused" in tag]

    def frac(count, total):
        return count / total if total else 0.0

    return {
        "workload.profile_seen_share": frac(profile_seen, with_profile),
        "workload.t_covered_share": frac(t_covered, with_profile),
        "workload.grid_reuse_share": frac(sum(grids), len(grids)),
        "workload.default_spec_share": frac(sum(1 for t in tags if t.get("default_spec")), n),
        "workload.malformed_share": frac(sum(1 for t in tags if t["kind"].startswith("malformed:")), n),
        "workload.canary_share": frac(sum(1 for t in tags if t["kind"] == "canary"), n),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "osctomo" / "__init__.py").is_file():
        print(f"error: no osctomo sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    for var in BLAS_ENV:  # before numpy loads
        os.environ[var] = str(NPROC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy

    import osctomo

    if Path(osctomo.__file__).resolve().parent != (SRC / "osctomo").resolve():
        print(f"error: imported osctomo from {osctomo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer, zero_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    metrics: dict[str, float] = {}
    setup_report = None
    if args.trace:
        fresh_import(IMPORT_CMD)  # untimed, so that every timed run finds the files in the page cache
        runs = [parse_importtime(fresh_import(IMPORT_CMD, ("-X", "importtime"))[1]) for _ in range(IMPORT_REPEATS)]
        for metric, package in (("import.total_s", "osctomo"), ("import.numpy_s", "numpy"),
                                ("import.scipy_s", "scipy")):
            metrics[metric] = statistics.median(package_import_s(e, package) for e in runs)
    else:
        fresh_import(IMPORT_CMD)  # untimed, as above
        pairs = [(fresh_import(IMPORT_CMD)[0], fresh_import(REFERENCE_CMD)[0]) for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = REFERENCE_NOMINAL_S * statistics.median(own / ref for own, ref in pairs)
        setup_report = {"import_s": statistics.median(own for own, _ in pairs),
                        "reference_s": statistics.median(ref for _, ref in pairs),
                        "reference_nominal_s": REFERENCE_NOMINAL_S}

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm = workload.warmup()
        warm_results = Results()
        first_ms = 1e3 * execute(warm, (warm_results,), workloads.Mismatch)

        everything, plain, traced, tracer = Results(), Results(), Results(), Tracer()
        stream = workload.requests()
        deck = len(workload.deck)
        # a fixed number of whole decks: every run sends the same mix and
        # the same number of requests, so the tail is always the same
        # percentile; the wall-clock cap only binds on a very slow machine
        decks = max(2, round(args.seconds / workload.nominal_deck_s))
        cap = time.perf_counter() + WALL_CAP * args.seconds
        request_id = 0
        last_deck = 0.0
        while everything.decks < decks and (everything.decks == 0 or time.perf_counter() + last_deck <= cap):
            # a traced run alternates traced and untraced decks, traced
            # first so that work done on first use (grid builds) is traced
            tracing = bool(args.trace) and everything.decks % 2 == 0
            results = traced if tracing else plain
            if tracing:
                tracer.install()
            try:
                deck_start = time.perf_counter()
                probe_total = 0.0
                for _ in range(deck):
                    request_id += 1
                    execute(next(stream), (everything, results), workloads.Mismatch,
                            tracer if tracing else None, request_id)
                    wall_ms, cpu_ms = probe()
                    probe_total += 1e-3 * wall_ms
                    everything.probe_cpu += cpu_ms
                    everything.probes.append(wall_ms)
                    results.probes.append(wall_ms)
                last_deck = time.perf_counter() - deck_start
                deck_wall = last_deck - probe_total
                everything.wall += deck_wall
                results.wall += deck_wall
            finally:
                tracer.uninstall()
            everything.decks += 1
            results.decks += 1

        # times at nominal machine speed (see the module docstring)
        nominal = everything.nominal_latencies()
        tail_s, tail_pct = tail(nominal)
        p50_s = statistics.median(nominal)
        rps = everything.ok / sum(nominal)
        measured_tail_s, _ = tail(everything.latencies)
        measured_shares = shares(everything.tags, warm.tags)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            summary = tracer.summary(traced.wall) if traced.attempted else {}
            steps = summary.get("dynamics.solve_epsilon.steps", 0.0)
            elements = summary.get("transforms.mdf_from_density.kernel_elements", 0.0)
            # the same mix per deck; each half at nominal machine speed
            overhead = ((traced.busy / traced.decks / traced.slowdown)
                        / (plain.busy / plain.decks / plain.slowdown) - 1.0 if plain.decks else 0.0)
            metrics.update(zero_metrics())
            metrics.update(summary)
            metrics.update(measured_shares)
            metrics.update({
                "dynamics.solve_epsilon.us_per_step":
                    1e6 * summary.get("dynamics.solve_epsilon.busy_s", 0.0) / steps if steps else 0.0,
                "transforms.mdf_from_density.ns_per_element":
                    1e9 * summary.get("transforms.mdf_from_density.busy_s", 0.0) / elements if elements else 0.0,
                "trace.overhead_ratio": overhead,
                "latency.first_request_ms": first_ms,
                "latency.tail_percentile": tail_pct,
                "latency.samples": len(everything.latencies),
                "machine.probe_ms": statistics.mean(everything.probes),
            })
            for layer in CHECKED_LAYERS:
                metrics[f"{layer}.worst_error_ratio"] = everything.worst.get(layer, 0.0)
        else:
            metrics.update({
                "throughput_rps": rps,
                "latency_p50_ms": 1e3 * p50_s,
                "latency_tail_ms": 1e3 * tail_s,
                "error_rate": everything.failed / everything.attempted,
                "peak_rss_mb": peak_rss_mb,
            })

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "loop": "closed",
            "clients": 1,
            "machine": {"cpu": cpu_model(), "nproc": NPROC, "blas_threads": blas_threads(),
                        "blas_env": {v: os.environ[v] for v in BLAS_ENV}},
            "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "osctomo": osctomo.__version__},
            "setup": setup_report,
            "first_request_ms": first_ms,
            "first_request_failed": warm_results.failed,
            "decks": everything.decks,
            "latency": {"samples": len(everything.latencies), "tail_percentile": tail_pct},
            "measured": {"throughput_rps": everything.ok / everything.busy,
                         "p50_ms": 1e3 * statistics.median(everything.latencies), "tail_ms": 1e3 * measured_tail_s},
            "probe": {"nominal_ms": PROBE_NOMINAL_MS, "mean_ms": statistics.mean(everything.probes),
                      "min_ms": min(everything.probes), "slowdown": everything.slowdown,
                      "cpu_per_wall": everything.probe_cpu / sum(everything.probes)},
            "attempted": everything.attempted,
            "failed": everything.failed,
            "unexpected_failures": everything.unexpected[:20],
            "canaries": everything.canaries,
            "canaries_missed": everything.canaries_missed,
            "kinds": {k: dict(v, reasons=dict(v["reasons"])) for k, v in sorted(everything.kinds.items())},
            "shares": measured_shares,
            "worst_error_ratio": dict(everything.worst),
            "peak_rss_mb": peak_rss_mb,
        }
        if args.trace:
            report["tracing"] = {"untraced_requests": plain.attempted, "traced_requests": traced.attempted,
                               "untraced_busy_s": plain.busy, "traced_busy_s": traced.busy}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        # the file also keeps each request's kind, latency and following probe
        per_request = [[tag["kind"], 1e3 * lat, probe_ms]
                       for tag, lat, probe_ms in zip(everything.tags, everything.latencies, everything.probes)]
        (OUT / f"{stem}.json").write_text(json.dumps(dict(report, requests=per_request)) + "\n")
        if args.trace:
            tracer.write(OUT / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    correct = (not everything.unexpected and everything.canaries_missed == 0
               and warm_results.failed == 0 and everything.attempted > 0)
    result = {
        "correct": correct,
        "attempted": everything.attempted,
        "failed": everything.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
