#!/usr/bin/env python3
"""Benchmark of the dixonian library: one workload, one seed, one JSON line.

    python3 benchmarks/run.py --workload cell --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ``src/``. A run:

1. builds the workload's inputs from the seed (``workloads.py``);
2. runs one untimed warm-up round, then timed rounds until ``--seconds``
   have passed. A round is every in-process library operation of the
   workload: ``sm_cm`` over the point set, ``wp``, ``sm_inverse``,
   ``sample_grid`` then ``domain_color`` and ``grid_to_csv``, and
   ``run_selftest``, followed by the round's fresh interpreters (set-up runs
   and cold CLI calls). Every round must return the warm-up round's outputs;
3. reads the peak RSS of this process;
4. checks the warm-up round's outputs against the mpmath reference and the
   README's properties (``verify.py``) and counts failures per fault.

With ``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the rounds run under the span tracer
(``tracer.py``) and the last line carries the per-layer metrics. Details of
the run go to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

ORDER = 48
EVAL_PASSES = 5
WP_PASSES = 5
INVERSE_PASSES = 5
SELFTEST_PASSES = 2
SETUP_PER_ROUND = 2
CLI_PER_ROUND = 4
#: grid pixels checked against the reference: a fixed stride through the grid
CHECKED_PIXELS = 500
#: Grids are timed on one worker. The two-worker thread pool's speed moved by
#: up to 1.6x from run to run on a 2-vCPU host (spread 0.28 over ten runs),
#: more than any bound allows; the check renders each grid on CHECK_WORKERS.
TIMED_WORKERS = 1
CHECK_WORKERS = 2
SUBPROCESS_TIMEOUT_S = 60

SETUP_CODE = """\
import json, time
t = time.perf_counter()
import dixonian
s, c = dixonian.sm_cm(complex({re!r}, {im!r}))
t = time.perf_counter() - t
print(json.dumps([t, s.value.real, s.value.imag, c.value.real, c.value.imag]))
"""
IMPORT_CODE = """\
import time
t = time.perf_counter()
import dixonian.cli
print(repr(time.perf_counter() - t))
"""

def declared_metrics() -> dict[str, list[dict]]:
    """The metrics BENCHMARK.json names, by section."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}


def run_value(metric: dict, values: list[float]) -> float:
    """One number per run from the run's samples of a metric: the quartile on
    the slow side (first quartile of rates, third quartile of times).

    The host's CPU speed is not steady: a baseline state is broken by states
    up to 1.8x faster, and now and then slower, that last from seconds to
    tens of seconds, and CPU time tracks wall time through them. The median
    of a run's samples moves with how much of the run fell into a fast
    state, the extreme decile with a single slow state; over ten runs of
    each workload the slow-side quartile spread least on most metrics.
    setup_s, bounded by its median, is a median.
    """
    if metric["name"] == "setup_s" or len(values) < 2:
        return statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1 if metric["better"] == "higher" else q3


def _lib():
    from dixonian import cli, constants, evaluator, identities, inverse, render, selftest, series

    return {
        "cli": cli,
        "constants": constants,
        "evaluator": evaluator,
        "identities": identities,
        "inverse": inverse,
        "render": render,
        "selftest": selftest,
        "series": series,
    }


def _literal(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}i"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _run_child(args: list[str]) -> tuple[float, str]:
    t = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-S", *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    elapsed = perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:3]} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


class Round:
    """One pass over every in-process operation of a workload."""

    def __init__(self, wl, lib, tracer=None):
        self.wl = wl
        self.lib = lib
        self.tracer = tracer
        g = wl.grid
        self.region = lib["render"].Region(complex(g.center), g.width, g.height, g.nx, g.ny)
        self.pixels = g.nx * g.ny

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def run(self, samples: dict) -> dict:
        """Run the round, append one or more timing samples per metric and
        return the outputs."""
        from dixonian.errors import DixonError

        lib, wl = self.lib, self.wl
        gc.collect()
        out = {}

        self._phase("eval")
        sm_cm = lib["evaluator"].sm_cm
        for _ in range(EVAL_PASSES):
            t = perf_counter()
            res = [sm_cm(z) for z in wl.eval_points]
            samples["eval_per_s"].append(len(wl.eval_points) / (perf_counter() - t))
        out["eval"] = res

        self._phase("wp")
        wp = lib["evaluator"].wp
        for _ in range(WP_PASSES):
            t = perf_counter()
            res = [wp(z) for z in wl.wp_points]
            samples["wp_per_s"].append(len(wl.wp_points) / (perf_counter() - t))
        out["wp"] = res

        self._phase("inverse")
        sm_inverse = lib["inverse"].sm_inverse

        def solve(w):
            try:
                r = sm_inverse(w)
            except DixonError as exc:
                return ("error", str(exc))
            return (r.z, r.residual)

        for _ in range(INVERSE_PASSES):
            t = perf_counter()
            res = [solve(w) for w in wl.inverse_targets]
            samples["inverse_per_s"].append(len(wl.inverse_targets) / (perf_counter() - t))
        out["inverse"] = res

        self._phase("grid")
        render = lib["render"]
        t0 = perf_counter()
        grid = render.sample_grid(self.region, wl.grid.selector, workers=TIMED_WORKERS)
        t1 = perf_counter()
        ppm = render.domain_color(grid)
        t2 = perf_counter()
        csv = render.grid_to_csv(grid)
        t3 = perf_counter()
        del grid
        samples["ppm_px_per_s"].append(self.pixels / ((t1 - t0) + (t2 - t1)))
        samples["csv_px_per_s"].append(self.pixels / ((t1 - t0) + (t3 - t2)))
        out["ppm"], out["csv"] = ppm, csv

        self._phase("selftest")
        for _ in range(SELFTEST_PASSES):
            t = perf_counter()
            results = lib["selftest"].run_selftest()
            samples["selftest_s"].append(perf_counter() - t)
        out["selftest"] = [(r.name, r.passed, r.residual) for r in results]

        if self.tracer is not None:
            self._layer_samples(samples)
        return out

    def _layer_samples(self, samples: dict) -> None:
        """Trace-only timings of the set-up layers and the CLI entry point."""
        lib = self.lib
        self._phase("layers")
        t = perf_counter()
        lib["constants"].dixon_constants.__wrapped__(ORDER)
        samples["constants.dixon_constants.ms"].append((perf_counter() - t) * 1e3)
        t = perf_counter()
        lib["series"].generate_series(ORDER)
        samples["series.generate_series.ms"].append((perf_counter() - t) * 1e3)
        argv = ["eval", "--fn", "sm", f"--z={_literal(self.wl.cli_points[0])}"]
        with contextlib.redirect_stdout(io.StringIO()):
            t = perf_counter()
            code = lib["cli"].main(argv)
            samples["cli.main_eval_ms"].append((perf_counter() - t) * 1e3)
        if code != 0:
            raise RuntimeError(f"cli.main({argv}) returned {code}")


def _digest(out: dict) -> tuple:
    """Outputs of a round in a form that compares cheaply with another round."""
    return (
        out["eval"],
        out["wp"],
        out["inverse"],
        hashlib.sha256(out["ppm"]).hexdigest(),
        hashlib.sha256(out["csv"].encode("ascii")).hexdigest(),
        out["selftest"],
    )


def run_rounds(wl, lib, seconds: float, tracer=None):
    """Warm-up round, then timed rounds until ``seconds`` have passed.

    Each timed round ends with its cold-process calls, so those samples
    spread over the whole run like the in-process ones; an untimed pass of
    the point set follows them before the next round's timing starts.
    """
    rnd = Round(wl, lib, tracer)
    first = rnd.run(defaultdict(list))
    first_digest = _digest(first)
    samples = defaultdict(list)
    child_outputs: list = []
    rounds, identical = 1, True
    deadline = perf_counter() + seconds
    while rounds == 1 or perf_counter() < deadline:
        out = rnd.run(samples)
        identical = identical and _digest(out) == first_digest
        del out
        cold_processes(wl, rounds, tracer is not None, samples, child_outputs)
        for z in wl.eval_points:
            lib["evaluator"].sm_cm(z)
        rounds += 1
    return first, samples, rounds, identical, child_outputs


def composition(wl, lib) -> dict:
    """How the eval point set splits over the evaluator's paths.

    Pole and near-pole are classified by geometry, with the library's own
    reduce_to_fundamental, _nearest_pole_frame, POLE_TOL and NEAR_TOL. A
    duplication point's halving count is the number of ``identities.duplicate``
    spans its sm_cm call opens; a mirror fallback is an sm_cm span with two
    reductions.
    """
    from tracer import Tracer

    ev = lib["evaluator"]
    ctx = ev._context(ORDER)
    paths: dict[str, int] = {"pole": 0, "near_pole": 0, "duplication": 0}
    halvings: dict[int, int] = {}
    z_hist: dict[int, int] = {}
    d_hist: dict[int, int] = {}
    tracer = Tracer()
    tracer.install(lib)
    tracer.phase = "composition"
    try:
        for z in wl.eval_points:
            zr = ev.reduce_to_fundamental(z, ctx.constants).z_reduced
            d = abs(ev._nearest_pole_frame(ctx, zr)[1])
            zk = math.floor(math.log10(abs(z))) if z else -999
            z_hist[zk] = z_hist.get(zk, 0) + 1
            dk = math.floor(math.log10(d)) if d else -999
            d_hist[dk] = d_hist.get(dk, 0) + 1
            before = tracer.totals(("composition",), "identities.duplicate")[0]
            ev.sm_cm(z)
            if d <= ev.POLE_TOL:
                paths["pole"] += 1
            elif d <= ev.NEAR_TOL:
                paths["near_pole"] += 1
            else:
                paths["duplication"] += 1
                k = tracer.totals(("composition",), "identities.duplicate")[0] - before
                halvings[k] = halvings.get(k, 0) + 1
    finally:
        tracer.restore()
    paths["mirror"] = tracer.mirrors.get("composition", 0)
    return {
        "points": len(wl.eval_points),
        "bands": dict(Counter(wl.eval_bands)),
        "wp_bands": dict(Counter(wl.wp_bands)),
        "paths": paths,
        "duplication_halvings": {str(k): v for k, v in sorted(halvings.items())},
        "abs_z_decades": {f"1e{k}": v for k, v in sorted(z_hist.items())},
        "pole_distance_decades": {f"1e{k}": v for k, v in sorted(d_hist.items())},
    }


def check(judge, wl, lib, first: dict) -> tuple[dict, list[str]]:
    """Judge the warm-up round's outputs. Returns tallies per operation kind
    and a list of problems that make the run incorrect."""
    from verify import Tally, grid_axis, identity_ok, parse_csv

    tallies = {k: Tally() for k in ("eval", "wp", "inverse", "pixel", "ppm", "csv", "selftest")}
    problems: list[str] = []

    for z, (sv, cv) in zip(wl.eval_points, first["eval"]):
        ok = judge.pair_ok(z, sv.value, cv.value, sv.pole_rep)
        tallies["eval"].record(ok, "" if ok else judge.pair_cause(z), repr(z))
    for z, v in zip(wl.wp_points, first["wp"]):
        ok = judge.wp_ok(z, v.value)
        tallies["wp"].record(ok, "" if ok else judge.wp_cause(z), repr(z))
    for w, res in zip(wl.inverse_targets, first["inverse"]):
        ok = res[0] != "error" and judge.inverse_ok(w, res[0])
        tallies["inverse"].record(ok, "unexplained", f"{w!r} -> {res!r}")

    g = wl.grid
    render = lib["render"]
    region = render.Region(complex(g.center), g.width, g.height, g.nx, g.ny)
    ppm = first["ppm"]
    header = f"P6\n{g.nx} {g.ny}\n255\n".encode("ascii")
    other = render.domain_color(render.sample_grid(region, g.selector, workers=CHECK_WORKERS))
    ppm_ok = ppm.startswith(header) and len(ppm) == len(header) + 3 * g.nx * g.ny and ppm == other
    tallies["ppm"].record(ppm_ok, "unexplained", f"header/size/{CHECK_WORKERS}-worker bytes differ")

    try:
        rows = parse_csv(first["csv"])
    except ValueError as exc:
        rows = []
        problems.append(f"grid CSV does not parse: {exc}")
    xs, ys = grid_axis(g.center.real, g.width, g.nx), grid_axis(g.center.imag, g.height, g.ny)
    coords_ok = len(rows) == g.nx * g.ny and all(
        abs(z - complex(xs[i % g.nx], ys[i // g.nx])) <= 1e-12 * (1.0 + abs(z)) for i, (z, _) in enumerate(rows)
    )
    tallies["csv"].record(coords_ok, "unexplained", "rows or coordinates differ from the region")
    if coords_ok:
        cm_values = [v.value for v in render.sample_grid(region, "cm", workers=TIMED_WORKERS).values]
        stride = max(1, len(rows) // CHECKED_PIXELS) | 1
        body = ppm[len(header):]
        for i, ((z, s), c) in enumerate(zip(rows, cm_values)):
            cause = "" if identity_ok(s, c) else "unexplained"
            if not cause and i % stride == 0:
                cause = judge.pixel_cause(z, s, tuple(body[3 * i : 3 * i + 3]))
            tallies["pixel"].record(not cause, cause, repr(z))

    for name, passed, residual in first["selftest"]:
        tallies["selftest"].record(passed, "unexplained", f"{name} residual {residual:.3e}")

    for kind, t in tallies.items():
        if t.causes.get("unexplained"):
            problems.append(f"{t.causes['unexplained']} {kind} failure(s) not explained by F1 or F2: {t.examples}")
    return tallies, problems


def cold_processes(wl, round_no: int, traced: bool, samples: dict, outputs: list) -> None:
    """One round's fresh interpreters: set-up runs and cold CLI calls, or,
    when traced, the bare ``import dixonian.cli``."""
    pts = wl.cli_points
    if traced:
        _, text = _run_child(["-c", IMPORT_CODE])
        samples["cli.import_ms"].append(float(text) * 1e3)
        return
    for i in range(SETUP_PER_ROUND):
        z = pts[(round_no * SETUP_PER_ROUND + i) % len(pts)]
        _, text = _run_child(["-c", SETUP_CODE.format(re=z.real, im=z.imag)])
        t, s_re, s_im, c_re, c_im = json.loads(text)
        samples["setup_s"].append(t)
        outputs.append(("setup", z, complex(s_re, s_im), complex(c_re, c_im)))
    for i in range(CLI_PER_ROUND):
        z = pts[(round_no * CLI_PER_ROUND + i) % len(pts)]
        elapsed, text = _run_child(["-m", "dixonian.cli", "eval", "--fn", "sm", f"--z={_literal(z)}"])
        samples["cli_eval_ms"].append(elapsed * 1e3)
        d = json.loads(text)
        outputs.append(("cli", z, None if d["pole"] else complex(d["re"], d["im"]), None))


def check_subprocess_outputs(judge, outputs) -> list[str]:
    bad = []
    for kind, z, s, c in outputs:
        ok = judge.pair_ok(z, s, c) if kind == "setup" else judge.sm_ok(z, s)
        if not ok:
            bad.append(f"{kind} output wrong at {z!r}: {s!r}")
    return bad


def layer_metrics(tracer, samples: dict, comp: dict, rounds: int, pixels: int, lib) -> dict:
    # Per-call layer times come from the point-set phases (the sm_cm and wp
    # passes); a span's wall time would also hold another thread's work if a
    # grid ran on several workers.
    P = ("eval", "wp")
    m: dict[str, float] = {}
    n_smcm, _, smcm_self = tracer.totals(P, "evaluator.sm_cm")

    def per_call(name, phases=P, base=n_smcm):
        calls, total, self_s = tracer.totals(phases, name)
        return calls, total, self_s, calls / base

    calls, total, _, ratio = per_call("series.eval_series")
    m["series.eval_series.us"] = total / calls * 1e6
    m["series.eval_series.calls"] = ratio
    calls, total, _, ratio = per_call("identities.duplicate")
    m["identities.duplicate.us"] = total / calls * 1e6 if calls else 0.0
    m["identities.duplicate.calls"] = ratio
    m["evaluator.sm_cm.self_us"] = smcm_self / n_smcm * 1e6
    calls, total, _, ratio = per_call("evaluator.reduce_to_fundamental")
    m["evaluator.reduce_to_fundamental.us"] = total / calls * 1e6
    m["evaluator.reduce_to_fundamental.calls"] = ratio
    n_wp, _, wp_self = tracer.totals(("wp",), "evaluator.wp")
    m["evaluator.wp.self_us"] = wp_self / n_wp * 1e6
    for path in ("pole", "near_pole", "duplication"):
        m[f"evaluator.path.{path}"] = comp["paths"][path]
    m["evaluator.path.mirror"] = tracer.mirrors.get("eval", 0) / (EVAL_PASSES * rounds)
    n_inv, _, inv_self = tracer.totals(("inverse",), "inverse.sm_inverse")
    calls, total, _ = tracer.totals(("inverse",), "quadrature.tanh_sinh")
    m["quadrature.tanh_sinh.us"] = total / calls * 1e6
    m["quadrature.tanh_sinh.calls"] = calls / n_inv
    # A solve evaluates the residual once more than it takes Newton updates:
    # every target is nonzero (so evaluated at least once) and every solve
    # converges (the check fails the run otherwise).
    n_residuals = tracer.totals(("inverse",), "evaluator.sm_cm_values")[0]
    m["inverse.newton_steps"] = (n_residuals - n_inv) / n_inv
    m["inverse.sm_inverse.self_us"] = inv_self / n_inv * 1e6
    grid_px = pixels * rounds
    m["render.sample_grid.self_us_per_px"] = tracer.totals(("grid",), "render.sample_grid")[2] / grid_px * 1e6
    m["render.domain_color.us_per_px"] = tracer.totals(("grid",), "render.domain_color")[1] / grid_px * 1e6
    m["render.grid_to_csv.us_per_px"] = tracer.totals(("grid",), "render.grid_to_csv")[1] / grid_px * 1e6
    for name in ("constants.dixon_constants.ms", "series.generate_series.ms", "cli.main_eval_ms", "cli.import_ms"):
        m[name] = statistics.median(samples[name])
    calls, total, _ = tracer.totals(("selftest",), "selftest.run_selftest")
    m["selftest.run_selftest.ms"] = total / calls * 1e3
    for name in lib["selftest"].list_checks():
        calls, total, _ = tracer.totals(("selftest",), f"selftest.check.{name}")
        m[f"selftest.check.{name}.ms"] = total / calls * 1e3
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("cell", "wide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = perf_counter()
    phase_s: dict[str, float] = {}

    if not os.path.isfile(os.path.join(SRC, "dixonian", "__init__.py")):
        print(f"error: no library source at {os.path.relpath(SRC)}/dixonian; run from the repository root", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    lib = _lib()
    wl = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(lib)
    try:
        first, samples, rounds, identical, sub_outputs = run_rounds(wl, lib, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phase_s["rounds"] = perf_counter() - started

    problems = [] if identical else ["a timed round returned other outputs than the warm-up round"]
    comp = composition(wl, lib)
    from verify import Judge

    judge = Judge()
    tallies, check_problems = check(judge, wl, lib, first)
    problems += check_problems + check_subprocess_outputs(judge, sub_outputs)
    phase_s["checks"] = perf_counter() - started - sum(phase_s.values())

    if args.trace:
        declared = declared_metrics()["per_layer"]
        metrics = layer_metrics(tracer, samples, comp, rounds, wl.grid.nx * wl.grid.ny, lib)
    else:
        declared = declared_metrics()["end_to_end"]
        metrics = {m["name"]: run_value(m, samples[m["name"]]) for m in declared if m["name"] != "peak_rss_mb"}
        metrics["peak_rss_mb"] = peak_rss_mb

    per_round_attempted = sum(t.attempted for t in tallies.values())
    per_round_failed = sum(t.failed for t in tallies.values())
    faults: dict[str, int] = {}
    for t in tallies.values():
        for cause, n in t.causes.items():
            faults[cause] = faults.get(cause, 0) + n

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "python": sys.version.split()[0],
        "metrics": metrics,
        "samples": {k: v for k, v in samples.items()},
        "per_round": {
            k: {"attempted": t.attempted, "failed": t.failed, "causes": t.causes, "examples": t.examples}
            for k, t in tallies.items()
        },
        "failures_per_round_by_fault": faults,
        "composition": comp,
        "problems": problems,
        "phase_seconds": phase_s,
    }
    if tracer is not None:
        detail["spans"] = {f"{ph}|{name}": st for (ph, name), st in sorted(tracer.stats.items())}
        with open(stem + "-spans.jsonl", "w", encoding="ascii") as fh:
            for span in tracer.raw:
                fh.write(json.dumps(span) + "\n")
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(detail, fh, indent=1, default=repr)
    with open(stem + ".ppm", "wb") as fh:
        fh.write(first["ppm"])

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": per_round_attempted * rounds,
                "failed": per_round_failed * rounds,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
