"""Per-layer metrics of the traced run, one layer per package module.

Most numbers come from the spans and records of the traced workload
passes.  The rest come from small probes that call one public function
of a layer directly.  Every metric carries a kind:

* ``measured`` -- a timing or throughput read from the clock;
* ``count``    -- an exact count, the same on every run of one seed;
* ``derived``  -- arithmetic on measured values (a difference or ratio
  of times), named in its description;
* ``computed`` -- arithmetic on array sizes, not a measurement.

``spectral`` and ``errors`` do no measurable work of their own; they run
inside the ``chaos`` spans.
"""

from __future__ import annotations

import io
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout

import workloads as wl
from spans import Tracer

IMPORT_PROBES = 3
MATVEC_SIZES = (600, 1200, 2400, 4800)
IMPORTTIME_MODULES = ("scipy.special", "scipy.integrate", "scipy.interpolate")
MC_PROBE_SAMPLES = 1 << 22
# One chunk of the chaos estimators: CHUNK_SIZE draws of order-4 terms.
PROPAGATOR_SHAPE = (1 << 16, 4)
# Their weights are constant by construction (the proposal matches the
# integrand), so the standard error is rounding noise; the white heat
# proposal is also untruncated, so its tail bound is exactly 0.
ZERO_VARIANCE_CASES = ("r1h_n1", "wh_n4")
UNTRUNCATED_CASES = ("wh_n4",)
# Modules with spans in the workload passes; the probe-only layers are
# timed by their own metrics.
PASS_MODULES = ("bench", "cli", "asymptotics", "chaos", "brownian",
                "variational")


class Metrics:
    """Ordered name -> (value, unit, better, kind, sample count)."""

    def __init__(self):
        self.items = {}

    def add(self, name, value, unit, better, kind="measured", n=1):
        self.items[name] = (float(value), unit, better, kind, n)


def _peak_alloc_mb(fn):
    """Peak traced allocation of fn() in MB.  tracemalloc slows code
    that allocates many small objects severalfold, so it runs around a
    repeat of a call, never around the timed one."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _cold(ctx, argv, stderr=False):
    """Wall seconds of one fresh interpreter, and its stderr if asked."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, cwd=ctx.root,
                          env=wl.child_env(ctx), capture_output=True,
                          text=True, timeout=wl.CLI_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return (seconds, proc.stderr) if stderr else seconds


def _import_layer(ctx, m):
    tr = ctx.tracer
    probes = {
        "interpreter_s": ["-c", "pass"],
        "package_s": ["-c", "import andersonlyap"],
        "scipy_s": ["-c", "import scipy.special, scipy.integrate, "
                          "scipy.interpolate"],
    }
    for key, argv in probes.items():
        times = []
        for _ in range(IMPORT_PROBES):
            with tr.span(f"import.{key}"):
                times.append(_cold(ctx, argv))
        m.add(f"import.{key}", statistics.median(times), "s", "lower",
              n=len(times))
    with tr.span("import.importtime"):
        _, err = _cold(ctx, ["-X", "importtime", "-c", "import andersonlyap"],
                       stderr=True)
    cumulative = {}
    for line in err.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
        if match:
            cumulative.setdefault(match.group(2), int(match.group(1)) * 1e-6)
    for mod in IMPORTTIME_MODULES:
        # -X importtime charges a module shared by two importers to the
        # first, so these parts need not sum to import.scipy_s
        m.add(f"import.importtime.{mod.replace('.', '_')}_s",
              cumulative.get(mod, 0.0), "s", "lower")


def _cli_layer(ctx, m, records):
    from andersonlyap import cli

    by_case = {r["case"]: r for r in records["cli_cold"]}
    for case, _ in wl.cli_commands(ctx):
        if case.startswith("verify"):
            continue
        m.add(f"cli.{case}_s", by_case[case]["seconds"], "s", "lower")
    m.add("cli.verify_s", statistics.median(
        [by_case["verify_1"]["seconds"], by_case["verify_2"]["seconds"]]),
        "s", "lower", n=2)
    total = 0.0
    failures = 0
    for case, argv in wl.cli_commands(ctx):
        t0 = time.perf_counter()
        with ctx.tracer.span("cli.main"), redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        total += time.perf_counter() - t0
        failures += rc != 0
    m.add("cli.inproc_s", total, "s", "lower")
    return failures


def _verify_reporting_layers(ctx, m):
    from andersonlyap import EquationKind, KernelSpec, lambda2_closed_form, \
        run_verification
    from andersonlyap.reporting import json_render

    tr = ctx.tracer
    t0 = time.perf_counter()
    with tr.span("verify.run_verification"):
        report = run_verification(seed=wl.derive_seed(ctx.seed, "verify"),
                                  threads=ctx.threads)
    m.add("verify.run_verification_s", time.perf_counter() - t0, "s", "lower")
    lyap = lambda2_closed_form(EquationKind("wave"), KernelSpec("white")).to_dict()
    reps = 50
    for key, payload in (("lyapunov", lyap), ("verify", report)):
        t0 = time.perf_counter()
        with tr.span("reporting.json_render"):
            for _ in range(reps):
                json_render(payload)
        m.add(f"reporting.json_render_s.{key}",
              (time.perf_counter() - t0) / reps, "s", "lower", n=reps)
    return 0 if report["all_passed"] else 1


def _asymptotics_layer(ctx, m, tracer):
    from andersonlyap import mittag_leffler

    m.add("asymptotics.lambda2_closed_form_s",
          statistics.median(tracer.durations("asymptotics.lambda2_closed_form")),
          "s", "lower", n=len(tracer.durations("asymptotics.lambda2_closed_form")))
    points = [(a, x) for a in (0.5, 1.0, 1.5, 2.5, 3.5) for x in (0.5, 2.0, 10.0)]
    t0 = time.perf_counter()
    with tracer.span("asymptotics.mittag_leffler"):
        for a, x in points:
            mittag_leffler(a, x)
    m.add("asymptotics.mittag_leffler_s",
          (time.perf_counter() - t0) / len(points), "s", "lower",
          n=len(points))


def _best_of(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _propagators_layer(ctx, m):
    import numpy as np
    from andersonlyap import EquationKind, fourier_green_sq, laplace_green_sq

    rng = np.random.Generator(np.random.Philox(wl.derive_seed(ctx.seed, "prop")))
    r = rng.exponential(1.0, PROPAGATOR_SHAPE)
    t = rng.random(PROPAGATOR_SHAPE)
    nbytes = elems = 0
    for kind in ("wave", "heat"):
        eq = EquationKind(kind)
        with ctx.tracer.span("propagators.laplace_green_sq"):
            s = _best_of(lambda: laplace_green_sq(eq, 1.0, r))
        m.add(f"propagators.laplace_green_sq_elems_per_s.{kind}", r.size / s,
              "1/s", "higher", n=5)
        with ctx.tracer.span("propagators.fourier_green_sq"):
            s = _best_of(lambda: fourier_green_sq(eq, t, r))
        m.add(f"propagators.fourier_green_sq_elems_per_s.{kind}", r.size / s,
              "1/s", "higher", n=5)
        # laplace reads r and writes one result; fourier also reads t
        nbytes += 2 * r.nbytes + (r.nbytes + t.nbytes + r.nbytes)
        elems += 2 * r.size
    m.add("propagators.bytes_per_elem_computed", nbytes / elems, "B", "lower",
          kind="computed")


def _chaos_layer(m, records):
    for r in records["moments_mc"]:
        case = r["case"]
        m.add(f"chaos.samples_per_s.{case}", r["n_samples"] / r["seconds"],
              "1/s", "higher")
        if case.endswith("_t1"):
            continue  # bitwise the 2-thread estimate
        if case not in ZERO_VARIANCE_CASES:
            m.add(f"chaos.rel_se.{case}", r["std_error"] / abs(r["mean"]),
                  "ratio", "lower", kind="count")
        if case not in UNTRUNCATED_CASES:
            m.add(f"chaos.tail_frac_bound.{case}", r["tail_frac_bound"],
                  "ratio", "lower", kind="count")
    m.add("chaos.samples_per_s", wl.draws_per_s(records["moments_mc"]),
          "1/s", "higher")
    m.add("chaos.mc_cost_1pct_s", wl.mc_cost_1pct_s(records["moments_mc"]),
          "s", "lower", kind="derived")


def _mc_layer(ctx, m, records):
    from andersonlyap.mc import run_chunked

    calls = []

    def sampler(rng, size):
        calls.append(size)
        return rng.random(size)

    subseed = wl.derive_seed(ctx.seed, "mc_probe")
    for threads, key in ((1, "t1"), (ctx.threads, "t2")):
        calls.clear()
        t0 = time.perf_counter()
        with ctx.tracer.span("mc.run_chunked"):
            run_chunked(sampler, MC_PROBE_SAMPLES, subseed, threads=threads)
        m.add(f"mc.run_chunked_samples_per_s.{key}",
              MC_PROBE_SAMPLES / (time.perf_counter() - t0), "1/s", "higher")
    m.add("mc.chunks", len(calls), "count", "lower", kind="count")
    by_case = {r["case"]: r for r in records["moments_mc"]}
    m.add("mc.thread_speedup", by_case["r1h_n3_t1"]["seconds"]
          / by_case["r1h_n3"]["seconds"], "ratio", "higher", kind="derived")
    multi = [r for r in records["moments_mc"] if r["threads"] > 1]
    m.add("mc.cpu_per_wall", sum(r["cpu_s"] for r in multi)
          / sum(r["seconds"] for r in multi), "ratio", "higher",
          kind="derived")


def _brownian_layer(ctx, m, records):
    from andersonlyap import tn_bm_oracle

    paths = 128 if ctx.smoke else 1024
    for r in records["path_oracle"]:
        case = r["case"]
        m.add(f"brownian.paths_per_s.{case}", r["n_samples"] / r["seconds"],
              "1/s", "higher")
        d, alpha, n, threads = r["args"]
        # a shorter repeat: the working set is a few chunks per thread
        with ctx.tracer.span("brownian.tn_bm_oracle"):
            peak = _peak_alloc_mb(lambda: tn_bm_oracle(
                d, alpha, n, paths, wl.TIME_STEP,
                wl.derive_seed(ctx.seed, case[:4]), threads=threads))
        m.add(f"brownian.peak_alloc_mb.{case}", peak, "MB", "lower")
        if case != "d1n2_t1":  # that one is bitwise the 2-thread estimate
            m.add(f"brownian.rel_se.{case}", r["std_error"] / abs(r["mean"]),
                  "ratio", "lower", kind="count")
    m.add("brownian.paths_per_s", wl.draws_per_s(records["path_oracle"]),
          "1/s", "higher")
    m.add("brownian.mc_cost_1pct_s", wl.mc_cost_1pct_s(records["path_oracle"]),
          "s", "lower", kind="derived")


def _variational_layer(ctx, m, records):
    import numpy as np
    from andersonlyap import rho_eigen
    from andersonlyap.variational import power_iteration

    matvec = {}
    rng = np.random.Generator(np.random.Philox(wl.derive_seed(ctx.seed, "matvec")))
    for size in MATVEC_SIZES:
        a = rng.random((size, size))
        a += a.T.copy()
        t0 = time.perf_counter()
        with ctx.tracer.span("variational.power_iteration"):
            _, _, iters, _ = power_iteration(lambda v: a @ v, np.ones(size),
                                             1e-10, 1000)
        matvec[size] = (time.perf_counter() - t0) / iters
        m.add(f"variational.matvec_s.{size}", matvec[size], "s", "lower",
              n=iters)
        del a
    for r in records["rho_solve"]:
        case = r["case"]
        m.add(f"variational.rho_eigen_s.{case}", r["rho_seconds"], "s", "lower")
        m.add(f"variational.power_iterations.{case}", r["power_iterations"],
              "count", "lower", kind="count")
        m.add(f"variational.grid_points.{case}", r["grid_points"], "count",
              "lower", kind="count")
        _, d, alpha, profile = next(c for c in wl.RHO_CASES if c[0] == case)
        with ctx.tracer.span("variational.rho_eigen"):
            peak = _peak_alloc_mb(lambda: rho_eigen(d, alpha, profile=profile))
        m.add(f"variational.peak_alloc_mb.{case}", peak, "MB", "lower")
        if not case.startswith("d1") and r["grid_points"] in matvec:
            # the coarse half of the Richardson pair is charged at the
            # fine grid's matvec cost, so this is a lower bound
            m.add(f"variational.build_s_derived.{case}", r["rho_seconds"]
                  - r["power_iterations"] * matvec[r["grid_points"]],
                  "s", "lower", kind="derived")


def collect(ctx, tracer, records, overhead_s):
    """Every per-layer metric from the traced passes plus the layer
    probes.  Returns (Metrics, gated probe calls, failed probe calls)."""
    m = Metrics()
    self_time = tracer.self_time_by_module()
    tracer.workload = "layer_probes"
    _import_layer(ctx, m)
    failures = _cli_layer(ctx, m, records)
    failures += _verify_reporting_layers(ctx, m)
    attempts = len(wl.cli_commands(ctx)) + 1
    _asymptotics_layer(ctx, m, tracer)
    _propagators_layer(ctx, m)
    _chaos_layer(m, records)
    _mc_layer(ctx, m, records)
    _brownian_layer(ctx, m, records)
    _variational_layer(ctx, m, records)
    for mod in PASS_MODULES:
        m.add(f"self_s.{mod}", self_time.get(mod, 0.0), "s", "lower",
              kind="derived")
    # one pass's difference is far below the run-to-run noise, so the
    # cost of recording one span is measured directly as well
    probe, reps = Tracer(), 10_000
    t0 = time.perf_counter()
    for _ in range(reps):
        with probe.span("bench.noop"):
            pass
    m.add("trace.overhead_s", overhead_s, "s", "lower", kind="derived")
    m.add("trace.span_cost_s", (time.perf_counter() - t0) / reps, "s",
          "lower", n=reps)
    m.add("trace.spans", len(tracer.records), "count", "lower", kind="count")
    return m, attempts, failures
