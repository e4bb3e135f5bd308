"""implicurve benchmark: one closed-loop, single-client workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads:

  render-fine    scene text -> SVG text on a 160-cell grid; the lattice
                 stages (sample_grid, trace_contours) do nearly all the work.
  render-coarse  the same pipeline on a 48-cell grid, one job in ten hostile;
                 per-render fixed costs (parse, build, set-up, SVG text) show.
  solve-query    inverse solvers and point queries on one ellipse
                 configuration, one job in ten hostile; bypasses contouring.

Every op gets fresh inputs generated from the seed, and every output is
checked outside the timed region; no input falls where a known defect of
the program fails it, and ``correct`` is false if any op fails.  The timed loop runs until its ops have
taken ``--seconds`` seconds of wall time.  Timings in the end-to-end metrics
are scaled to the host's uncontended speed (see contention.py); the raw
figures are printed on a ``#`` line.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` traced and untraced blocks
alternate and it holds the per-layer metrics, including a defect probe run
after the timed loop on inputs that the known defects fail.  Metric names and units come
from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

# single-threaded: no BLAS worker threads (must precede any numpy import)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contention  # noqa: E402
import gen  # noqa: E402  (pure Python, imports neither numpy nor implicurve)
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5      # this process plus four fresh probe processes
TRACE_BLOCK_S = 1.0    # op time per traced or untraced block in a traced run
PROBE_TIMEOUT_S = 120
# defect probe: inputs per workload, and the cause each failure must have
DEFECT_PROBE = {
    "render-fine": (8, "faithful-pole"),
    "render-coarse": (24, "faithful-pole"),
    "solve-query": (300, "recover-search-sample"),
}

# cells: render grid; warmup: ops in set-up; rerender_every: determinism check
WORKLOADS = {
    "render-fine": {"cells": 160, "hostile": False, "warmup": 2, "rerender_every": 8},
    "render-coarse": {"cells": 48, "hostile": True, "warmup": 12, "rerender_every": 8},
    "solve-query": {"warmup": 30},
}


def _jobs(workload: str, key: str):
    if workload == "solve-query":
        return gen.solve_jobs(key)
    files = gen.scene_files(ROOT)
    return gen.render_jobs(key, files, WORKLOADS[workload]["hostile"])


class Runner:
    """Runs, times and checks ops; tallies attempts, failure causes and check time."""

    def __init__(self, workload: str, ops, checks):
        self.workload = workload
        self.conf = WORKLOADS[workload]
        self.ops = ops
        self.checks = checks
        self.untraced = ops.Untraced()
        self.attempted = 0
        self.causes: dict[str, int] = {}
        self.check_ns = 0

    def op(self, job, tr):
        """Time one op; returns (ns, output, error)."""
        t0 = perf_counter_ns()
        try:
            if self.workload == "solve-query":
                out = self.ops.solve(job, tr)
            else:
                out = self.ops.render(job, self.conf["cells"], tr)
            err = None
        except Exception as exc:  # classified by the check, never fatal
            out, err = None, exc
        return perf_counter_ns() - t0, out, err

    def check(self, job, out, err):
        """Check one op's output; returns the verdict."""
        t0 = perf_counter_ns()
        if self.workload == "solve-query":
            verdict = self.checks.check_solve(job, out, err)
        else:
            again = None
            if err is None and self.attempted % self.conf["rerender_every"] == 0:
                again = self.ops.render(job, self.conf["cells"], self.untraced).svg
            verdict = self.checks.check_render(job, out, err, again)
        self.attempted += 1
        if not verdict.ok:
            self.causes[verdict.cause] = self.causes.get(verdict.cause, 0) + 1
        self.check_ns += perf_counter_ns() - t0
        return verdict

    @property
    def failed(self) -> int:
        return sum(self.causes.values())


def _set_up(workload: str, key: str):
    """Import implicurve and run the warm-up ops.

    Returns the runner, the job stream and the set-up time in seconds, raw
    and scaled.  Warm-up inputs are generated before the clock starts; their
    outputs are checked after it stops.
    """
    jobs = _jobs(workload, key)
    warm = [next(jobs) for _ in range(WORKLOADS[workload]["warmup"])]
    before = contention.reference_ns()
    t0 = perf_counter()
    import ops  # imports implicurve
    runner = Runner(workload, ops, None)
    results = [(job, *runner.op(job, runner.untraced)[1:]) for job in warm]
    setup_s = perf_counter() - t0
    setup = (setup_s, contention.scaled(setup_s, before, contention.reference_ns()))
    import checks
    runner.checks = checks
    for job, out, err in results:
        runner.check(job, out, err)
    return runner, jobs, setup


def _probe_setups(args) -> tuple[list[tuple[float, float]], bool]:
    """Raw and scaled set-up times of fresh processes, each on its own inputs.

    Also returns whether every probe's warm-up outputs passed their checks.
    """
    samples = []
    passed = True
    for k in range(1, SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--probe", str(k)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe {k} failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        passed &= result["failed"] == 0
        samples.append((result["raw_s"], result["scaled_s"]))
    return samples, passed


def _timed_loop(runner: Runner, jobs, seconds: float, tracer=None):
    """Closed loop until ops have taken ``seconds``.

    Returns per-op arrays (raw ns, scaled ns, traced flag) and the summed
    counts of traced ops.  Arrays keep the bookkeeping to 17 bytes per op, so
    that peak_rss_mb hardly grows with the number of ops a run completes.
    With a tracer, traced and untraced blocks of TRACE_BLOCK_S op time
    alternate, untraced first.
    """
    budget = int(seconds * 1e9)
    block = int(TRACE_BLOCK_S * 1e9)
    timings = (array("q"), array("d"), array("b"))
    busy = 0
    counts: dict[str, float] = {}
    before = contention.reference_ns()
    while busy < budget:
        traced = tracer is not None and (busy // block) % 2 == 1
        job = next(jobs)
        ns, out, err = runner.op(job, tracer if traced else runner.untraced)
        after = contention.reference_ns()
        for column, value in zip(timings, (ns, contention.scaled(ns, before, after), traced)):
            column.append(value)
        before = after
        busy += ns
        verdict = runner.check(job, out, err)
        if traced:
            tracer.op(ns)
            for key, value in verdict.counts.items():
                counts[key] = counts.get(key, 0) + value
    return timings, counts


def _latency(ns) -> dict[str, float]:
    ms = [v / 1e6 for v in ns]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {"ops_per_s": len(ms) / (sum(ms) / 1e3), "op_ms_p50": deciles[4],
            "op_ms_p90": deciles[8], "above_p90": sum(1 for v in ms if v > deciles[8])}


def _end_to_end(runner: Runner, timings, setups: list[tuple[float, float]]) -> dict[str, float]:
    raw = _latency(timings[0])
    out = _latency(timings[1])
    raw["setup_s"] = statistics.median(s[0] for s in setups)
    out["setup_s"] = statistics.median(s[1] for s in setups)
    print(f"# samples={len(timings[0])} above_p90={out['above_p90']} "
          f"setup_samples={[round(s[1], 4) for s in setups]}")
    print("# raw " + " ".join(f"{k}={raw[k]:.6g}" for k in
                              ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90")))
    if out["above_p90"] < 10:
        print(f"# warning: only {out['above_p90']} samples above p90", file=sys.stderr)
    out["ok_frac"] = (runner.attempted - runner.failed) / runner.attempted
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _per_layer(runner: Runner, tracer, timings, counts) -> dict[str, float]:
    ops_n, op_ns, by_name = tracer.summary()
    out = spans.layer_metrics(ops_n, op_ns, by_name, counts)

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        d = out.get(den, 0.0)
        return out.get(num, 0.0) * scale / d if d else 0.0

    out["contour.sample_grid.ns_per_point"] = ratio(
        "contour.sample_grid.busy_ms", "contour.sample_grid.points", 1e6)
    out["contour.trace_contours.ns_per_cell"] = ratio(
        "contour.trace_contours.busy_ms", "contour.trace_contours.cells", 1e6)
    out["contour.trace_contours.crossing_frac"] = ratio(
        "contour.trace_contours.crossing_cells", "contour.trace_contours.cells")
    out["svgout.emit_svg.ns_per_vertex"] = ratio(
        "svgout.emit_svg.busy_ms", "contour.trace_contours.vertices", 1e6)
    # scaled op times, so that contention does not pass for tracing cost
    _, scaled, flags = timings
    untraced = _latency([t for t, f in zip(scaled, flags) if not f])["ops_per_s"]
    traced = _latency([t for t, f in zip(scaled, flags) if f])["ops_per_s"]
    out.update({
        "bench.traced_ops": ops_n,
        "bench.ops_per_s_untraced": untraced,
        "bench.ops_per_s_traced": traced,
        "bench.trace_overhead": untraced / traced - 1.0,
        "bench.check_ms": runner.check_ns / runner.attempted / 1e6,
        "bench.fail_frac": runner.failed / runner.attempted,
    })
    return out


def _defect_probe(runner: Runner, key: str) -> tuple[dict[str, float], bool]:
    """Untimed ops on inputs that a known defect of the program fails.

    The op stream keeps clear of these inputs; the probe keeps the defects in
    view: ``defect.<cause>.fail_frac`` is the share of probe inputs that fail,
    0 once the defect is fixed.  Probe ops are not counted in ``attempted``
    or ``failed``.  Also returns whether every failure has the defect's cause.
    """
    count, cause = DEFECT_PROBE[runner.workload]
    if runner.workload == "solve-query":
        jobs = gen.solve_jobs(key, gen.SEARCH_RAY_DEFECT)
    else:
        jobs = gen.pole_jobs(key)
    causes: dict[str, int] = {}
    bad_vertices = 0
    for _ in range(count):
        job = next(jobs)
        _, out, err = runner.op(job, runner.untraced)
        if runner.workload == "solve-query":
            verdict = runner.checks.check_solve(job, out, err)
        else:
            verdict = runner.checks.check_render(job, out, err, None)
            bad_vertices += verdict.counts.get("contour.trace_contours.bad_vertices", 0)
        if not verdict.ok:
            causes[verdict.cause] = causes.get(verdict.cause, 0) + 1
    print(f"# defect probe: {count} inputs, failures by cause: {json.dumps(causes, sort_keys=True)}")
    name = "defect." + cause.replace("-", "_")
    out = {f"{name}.fail_frac": causes.get(cause, 0) / count}
    if runner.workload != "solve-query":
        out[f"{name}.bad_vertices"] = bad_vertices / count
    return out, set(causes) <= {cause}


def _emit(runner: Runner, values: dict[str, float], section: str,
          probes_ok: bool = True) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[section]}
    print(f"# failures by cause: {json.dumps(runner.causes, sort_keys=True)}")
    print(json.dumps({"correct": probes_ok and runner.failed == 0,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "implicurve" / "__init__.py").is_file():
        print(f"error: no implicurve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "solve-query" and len(gen.scene_files(ROOT)) != 2:
        print(f"error: expected the two scene files under {ROOT / 'scenes'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    key = f"implicurve/{args.workload}/{args.seed}"
    if args.probe:
        runner, _, (raw_s, scaled_s) = _set_up(args.workload, f"{key}/probe{args.probe}")
        print(json.dumps({"raw_s": raw_s, "scaled_s": scaled_s,
                          "failed": runner.failed}))
        return 0

    runner, jobs, setup = _set_up(args.workload, key)
    if args.trace:
        tracer = spans.Tracer()
        timings, counts = _timed_loop(runner, jobs, args.seconds, tracer)
        values = _per_layer(runner, tracer, timings, counts)
        defects, explained = _defect_probe(runner, f"{key}/defect")
        values.update(defects)
        _emit(runner, values, "per_layer", explained)
        return 0
    probe_setups, probes_ok = _probe_setups(args)
    timings, _ = _timed_loop(runner, jobs, args.seconds)
    _emit(runner, _end_to_end(runner, timings, [setup] + probe_setups), "end_to_end", probes_ok)
    return 0


if __name__ == "__main__":
    sys.exit(main())
