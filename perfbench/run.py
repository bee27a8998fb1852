#!/usr/bin/env python3
"""andersonlyap benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload moments_mc --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table each
    python3 perfbench/run.py --smoke               # tiny sizes, every gate

The package is imported from ``src/`` of the checkout; without it the
benchmark exits 2 and prints no result.  ``--trace 0`` repeats the
workload's pass for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` makes one traced pass of every workload plus the layer
probes and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A
readable table goes to standard error and the full record, with the
environment stamp and the spans, to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150.0
THREADS = min(2, os.cpu_count() or 1)
# One BLAS thread, set before numpy can be imported here and in children:
# the estimators' own THREADS workers then are every thread that computes,
# and idle BLAS threads do not spin and bill CPU time to the eigensolver.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

# Units of the gated end-to-end metrics every workload reports.  Wall
# times are reported beside them but not gated: on a shared 2-vCPU
# machine the 2-thread passes' wall time moved by half between quiet and
# busy minutes, their CPU time by a sixth.
END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for entry in sorted(os.listdir(base)):
            path = os.path.join(base, entry)
            if not entry.startswith("index"):
                continue
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                out.setdefault(f"L{level}", fh.read().strip())
    except OSError:
        pass
    return {k: out.get(k) for k in ("L2", "L3")}


def _openblas():
    """Build string and live thread count of the OpenBLAS numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config and get_threads:
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                return get_config().decode(), get_threads()
    return None, None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "andersonlyap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(args):
    blas, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _caches(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas": blas,
        "openblas_threads": blas_threads,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload_seed": args.seed,
        "threads": {"estimators": THREADS, "single_thread_repeats": 1,
                    "blas": BLAS_THREADS},
    }


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def _children_rusage():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def _run_pass(ctx, workload):
    """One pass; returns (records, wall s, CPU s).  An exception from the
    package ends the pass and counts as one failed operation."""
    cold = workload == "cli_cold"
    c0 = _children_rusage()[0] if cold else time.process_time()
    t0 = time.perf_counter()
    try:
        records = wl.PASSES[workload](ctx)
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        import traceback

        traceback.print_exc()
        records = [{"case": "exception", "ok": False, "why": repr(exc),
                    "seconds": 0.0, "cpu_s": 0.0, "fingerprint": None}]
    wall = time.perf_counter() - t0
    cpu = (_children_rusage()[0] if cold else time.process_time()) - c0
    return records, wall, cpu


def _check_repeat(first, records):
    """Mark records whose output differs from the first pass."""
    ref = {r["case"]: r["fingerprint"] for r in first}
    for r in records:
        if r["ok"] and r["fingerprint"] != ref.get(r["case"]):
            r["ok"] = False
            r["why"] = "output differs from the first pass"


def setup_times(workload, seed, count):
    """CPU and wall seconds of a fresh interpreter that imports the
    package and warms every module the workload uses.  Wall runs from
    the spawn to the moment the warm-ups are done."""
    cpu, wall, failures = [], [], []
    for _ in range(count):
        c0 = _children_rusage()[0]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--probe-setup",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append("setup probe timed out")
            continue
        try:
            wall.append(float(proc.stdout.split()[-1]) - t0)
        except (ValueError, IndexError):
            failures.append(f"setup probe exited {proc.returncode}: "
                            f"{proc.stderr[-300:]!r}")
            continue
        cpu.append(_children_rusage()[0] - c0)
    return cpu, wall, failures


def _median_entry(values, unit, better, kind="measured"):
    return {"value": statistics.median(values), "unit": unit,
            "better": better, "kind": kind, "n": len(values),
            "min": min(values), "max": max(values)}


def timed_run(ctx, workload, seconds, probes=SETUP_PROBES):
    """Repeat the workload's pass for about ``seconds`` (at least once)."""
    wl.WARM_UPS[workload](ctx)
    passes = []
    start = time.perf_counter()
    while True:
        records, wall, cpu = _run_pass(ctx, workload)
        if passes:
            _check_repeat(passes[0][0], records)
        passes.append((records, wall, cpu))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p[1] for p in passes)
        if elapsed + typical > seconds:
            break
    # before the setup probes, so that for cli_cold the children's peak
    # covers the workload's commands only
    if workload == "cli_cold":
        peak_kb = _children_rusage()[1]
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_cpu, setup_wall, setup_failures = setup_times(workload, ctx.seed,
                                                        probes)
    if not setup_cpu:
        raise SystemExit(f"every setup probe of {workload} failed")

    all_records = [r for p in passes for r in p[0]]
    attempted = len(all_records) + probes
    failed = sum(not r["ok"] for r in all_records) + len(setup_failures)
    metrics = {
        "setup_s": _median_entry(setup_cpu, "s", "lower"),
        "cpu_s": _median_entry([p[2] for p in passes], "s", "lower"),
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB",
                        "better": "lower", "kind": "measured", "n": 1},
        # wall-clock metrics, reported but not gated
        "setup_wall_s": _median_entry(setup_wall, "s", "lower"),
        "wall_s": _median_entry([p[1] for p in passes], "s", "lower"),
    }
    estimates = [p[0] for p in passes
                 if any("n_samples" in r for r in p[0])]
    if workload in ("moments_mc", "path_oracle") and estimates:
        key = "samples_per_s" if workload == "moments_mc" else "paths_per_s"
        metrics[key] = _median_entry(
            [wl.draws_per_s(r) for r in estimates], "1/s", "higher")
        metrics["mc_cost_1pct_s"] = _median_entry(
            [wl.mc_cost_1pct_s(r) for r in estimates], "s", "lower",
            kind="derived")
    metrics["fail_frac"] = {"value": failed / attempted, "unit": "ratio",
                            "better": "lower", "kind": "count",
                            "n": attempted}
    failures = [f"{r['case']}: {r['why']}" for r in all_records if not r["ok"]]
    failures += setup_failures
    return {"workload": workload, "trace": 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "failures": failures,
            "passes": [{"wall_s": w, "cpu_s": c, "records": _slim(r)}
                       for r, w, c in passes]}


def traced_run(ctx, workload):
    """One untraced pass of ``workload``, then one traced pass of every
    workload, then the layer probes."""
    for name in wl.WORKLOADS:
        wl.WARM_UPS[name](ctx)
    untraced, untraced_wall, _ = _run_pass(ctx, workload)

    tracer = Tracer()
    ctx.tracer = tracer
    records, walls = {}, {}
    for name in wl.WORKLOADS:
        tracer.workload = name
        with tracer.span("bench.pass"):
            records[name], walls[name], _ = _run_pass(ctx, name)
    _check_repeat(untraced, records[workload])

    all_records = untraced + [r for rs in records.values() for r in rs]
    failures = [f"{r['case']}: {r['why']}" for r in all_records if not r["ok"]]
    attempted, failed = len(all_records), len(failures)
    if any(r["case"] == "exception" for r in all_records):
        return {"workload": workload, "trace": 1, "attempted": attempted,
                "failed": failed, "metrics": {}, "failures": failures,
                "spans": tracer.to_json()}
    metrics, probe_attempts, probe_failures = layers.collect(
        ctx, tracer, records, walls[workload] - untraced_wall)
    if probe_failures:
        failures.append(f"{probe_failures} layer probe call(s) failed")
    return {"workload": workload, "trace": 1,
            "attempted": attempted + probe_attempts,
            "failed": failed + probe_failures,
            "metrics": {k: {"value": v[0], "unit": v[1], "better": v[2],
                            "kind": v[3], "n": v[4]}
                        for k, v in metrics.items.items()},
            "failures": failures,
            "passes": {k: _slim(v) for k, v in records.items()},
            "spans": tracer.to_json()}


def _slim(records):
    return [{k: v for k, v in r.items() if k != "fingerprint"}
            for r in records]


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def _write_details(result, env, name):
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, **result}, fh, indent=1)


def _print_table(result, env, out=sys.stderr):
    print(f"== {result['workload']} trace={result['trace']} "
          f"seed={env['workload_seed']} | nproc {env['nproc']} "
          f"{env['cpu_model']} L2 {env['cache']['L2']} L3 {env['cache']['L3']}"
          f" | python {env['python']} numpy {env['numpy']} scipy "
          f"{env['scipy']} | {env['openblas']} threads "
          f"{env['openblas_threads']} | commit {env['git_commit']} "
          f"src {env['src_sha256'][:12]}", file=out)
    for name, m in result["metrics"].items():
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']:6s} "
              f"n={m['n']:<3d} {m['kind']}", file=out)
    print(f"  operations attempted {result['attempted']}, failed "
          f"{result['failed']}", file=out)
    for line in result["failures"]:
        print(f"  FAILED {line}", file=out)


def _emit(result, env, details_name):
    _write_details(result, env, details_name)
    _print_table(result, env)
    if result["trace"]:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in result["metrics"].items()}
    else:
        metrics = {k: {"value": result["metrics"][k]["value"], "unit": unit}
                   for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def run_all(args):
    """Every workload in its own process, each printing its table."""
    ok = True
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        ok &= proc.returncode == 0 and bool(lines) and \
            json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def smoke(args, ctx):
    """Each workload once at a tiny size, then one tiny traced run."""
    env = environment(args)
    failed = 0
    for name in wl.WORKLOADS:
        result = timed_run(ctx, name, seconds=0.0, probes=1)
        _print_table(result, env)
        failed += result["failed"]
    result = traced_run(ctx, "moments_mc")
    _print_table(result, env)
    failed += result["failed"]
    print(json.dumps({"smoke": True, "correct": failed == 0}))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at a tiny size")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "andersonlyap", "__init__.py")):
        print(f"error: no andersonlyap package under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ctx = wl.Context(root=ROOT, seed=args.seed, threads=THREADS,
                     smoke=args.smoke, tracer=NullTracer())

    if args.probe_setup:
        import andersonlyap  # noqa: F401 - the import is what is timed

        wl.WARM_UPS[args.workload](ctx)
        print(repr(time.monotonic()))
        return 0
    if args.smoke:
        return smoke(args, ctx)
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result = traced_run(ctx, args.workload)
    else:
        result = timed_run(ctx, args.workload, args.seconds)
    env = environment(args)
    _emit(result, env, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
