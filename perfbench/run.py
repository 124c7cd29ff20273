"""nlbox benchmark: four seeded workloads driven through nlbox's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Each workload runs in a closed loop: one process, one client, no worker
threads, and each op starts when the previous one has finished. With
--trace 0 a run reports the end-to-end metrics; with --trace 1 it reports
the per-layer metrics of a traced run instead (see README.md). `all` runs
every workload in its own process and prints one table. `--smoke` runs
one mix block of every workload untraced and a few ops traced, to show
the harness works.

Op and set-up times are scaled for the host's speed at the time, measured
by a reference probe (see speed.py and README.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a record of the run:
machine facts, git revision, seed, op counts and the unscaled times.
"""

import os

# One BLAS thread: the benchmark is one client on small matrices, and
# threads would make its timings depend on what else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOADS = ("bb84_intercept", "steering_protocols", "loop_tomography", "channel_witness")
# Claims measured on other seeds must also hold on this one.
HELD_OUT_SEED = 7919

# Mix blocks (of 20, 56, 20 and 10 ops) in the pool a measured run cycles
# through; steering_protocols writes a .scn file per scenario op at set-up.
POOL_BLOCKS = {"bb84_intercept": 2, "steering_protocols": 2,
               "loop_tomography": 3, "channel_witness": 3}
# Mix blocks per workload in a traced run, per 10 s of --seconds. The op
# lists depend only on --seed and --seconds, so counts repeat exactly.
TRACE_BLOCKS = {"bb84_intercept": 1, "steering_protocols": 2,
                "loop_tomography": 1, "channel_witness": 1}
SMOKE_OPS = {"bb84_intercept": 2, "steering_protocols": 8,
             "loop_tomography": 3, "channel_witness": 3}

MIN_OPS = 100          # so that ten latencies lie beyond the 90th percentile
MAX_LOOP_SECONDS = 120
WARMUP_OPS = 3
SETUP_PROBES = 7
NEAR_PROBES = 3   # speed probes on each side of an op or set-up that scale it

E2E_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "ok_ops_frac": "ratio", "setup_s": "s", "peak_rss_mib": "MiB"}


def load_nlbox():
    """Import nlbox from this checkout's src/ and from nowhere else."""
    package = SRC / "nlbox"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no nlbox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nlbox
    if Path(nlbox.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported nlbox from {nlbox.__file__}, not from {package}")
    import workloads
    return workloads


@contextmanager
def workdir():
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


def run_op(op):
    """Run one op and its check; return (seconds spent in nlbox, ok)."""
    start = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raising op counts as failed; the run goes on
        elapsed = perf_counter() - start
        print(f"op {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed, False
    elapsed = perf_counter() - start
    try:
        ok = bool(op.check(out))
    except Exception as exc:
        print(f"check of op {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"op {op.kind} failed its output check", file=sys.stderr)
    return elapsed, ok


def pool(workloads, workload, seed, wd):
    """The ops a measured run cycles through: the workload's inputs."""
    return workloads.build(workload, seed, POOL_BLOCKS[workload] * workloads.block_ops(workload), wd)


def probe_setup(workload, seed):
    """Seconds from starting a fresh interpreter until it has imported
    nlbox and generated the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe for {workload} failed")
    return elapsed


def machine_facts():
    import numpy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or rev
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_rev": rev,
    }


def measure(workloads, workload, seed, seconds, min_ops, probes):
    """Untraced closed loop: the end-to-end metrics and the run's record.

    The loop runs the pool's ops in turn, in whole mix blocks, so a run has
    the workload's mix. A speed probe runs after each op, outside the op's
    time. Each op's time is scaled by the median of the NEAR_PROBES probes
    before it and the NEAR_PROBES after it (see speed.py); so is each
    set-up time.
    """
    probe = speed.SpeedProbe()
    setups, near = [], [probe() for _ in range(NEAR_PROBES)]
    for _ in range(probes):
        elapsed = probe_setup(workload, seed)
        after = [probe() for _ in range(NEAR_PROBES)]
        setups.append((elapsed, statistics.median(near + after)))
        near = after
    with workdir() as wd:
        ops = pool(workloads, workload, seed, wd)
        for op in ops[:WARMUP_OPS]:
            run_op(op)
        block = workloads.block_ops(workload)
        # probe_s[i + NEAR_PROBES - 1] is the probe just before op i.
        raw, probe_s = [], [probe() for _ in range(NEAR_PROBES)]
        failed = 0
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            whole = len(raw) % block == 0 and len(raw) >= max(min_ops, block)
            if (elapsed >= seconds and whole) or elapsed >= MAX_LOOP_SECONDS:
                break
            dt, ok = run_op(ops[len(raw) % len(ops)])
            probe_s.append(probe())
            raw.append(dt)
            failed += not ok
        probe_s += [probe() for _ in range(NEAR_PROBES - 1)]
        loop_s = perf_counter() - start
    attempted = len(raw)
    scaled = [dt * speed.REFERENCE_S / statistics.median(probe_s[i:i + 2 * NEAR_PROBES])
              for i, dt in enumerate(raw)]
    values = {
        **latency_metrics(scaled),
        "ok_ops_frac": 1 - failed / attempted,
        "setup_s": statistics.median(t * speed.REFERENCE_S / p for t, p in setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {"loop_seconds": loop_s, "blocks": attempted / block,
              "probe_median_ms": statistics.median(probe_s) * 1e3,
              "unscaled": dict(latency_metrics(raw), setup_s=statistics.median(t for t, _ in setups)),
              "op_kinds": dict(sorted(Counter(op.kind for op in ops).items())),
              "failed_ops_frac": failed / attempted}
    return attempted, failed, {k: (v, E2E_UNITS[k]) for k, v in values.items()}, record


def latency_metrics(latencies):
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3}


def cli_batch(wd):
    """One `nlbox batch` over the bundled scenarios in a subprocess."""
    scenarios = SRC / "nlbox" / "scenarios"
    out = wd / "batch"
    out.mkdir()
    env = dict(os.environ, NLBOX_OUT_DIR=str(out),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nlbox.cli", "batch", str(scenarios)],
                          cwd=out, env=env, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    ok = (proc.returncode == 0
          and len(list(out.glob("*.report.json"))) == len(list(scenarios.glob("*.scn"))))
    if not ok:
        print(f"nlbox batch failed: {proc.stderr.strip()}", file=sys.stderr)
    return elapsed, ok


def trace(workloads, workload, seed, sizes):
    """Per-layer metrics from a traced run over a fixed op list of every
    workload, plus the tracing overhead on this workload's list."""
    import tracer
    with workdir() as wd:
        lists = {}
        for name in WORKLOADS:
            (wd / name).mkdir()
            lists[name] = workloads.build(name, seed, sizes[name], wd / name)
        own = lists[workload]
        for op in own:  # warm-up, so the untraced pass is not the first
            run_op(op)
        t = tracer.Tracer()
        # Untraced, traced, untraced: a drift in machine speed cancels out
        # of the overhead to first order.
        untraced = [run_op(op) for op in own]
        with t:
            traced = {workload: [run_op(op) for op in own]}
        untraced += [run_op(op) for op in own]
        others = [w for w in WORKLOADS if w != workload]
        with t:
            traced.update({name: [run_op(op) for op in lists[name]] for name in others})
        batch_s, batch_ok = cli_batch(wd)
    results = untraced + [r for rs in traced.values() for r in rs] + [(batch_s, batch_ok)]
    failed = sum(not ok for _, ok in results)
    metrics = tracer.layer_metrics(t.spans)
    metrics["cli.batch_ms"] = (batch_s * 1e3, "ms")
    # Traced ops_per_s against untraced ops_per_s, as the extra time share.
    overhead = 2 * sum(dt for dt, _ in traced[workload]) / sum(dt for dt, _ in untraced) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    record = {"spans": len(t.spans),
              "op_kinds": {name: dict(Counter(op.kind for op in ops)) for name, ops in lists.items()}}
    return len(results), failed, metrics, record


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def print_run(workload, seed, trace_on, attempted, failed, metrics, record):
    print(f"{workload} seed={seed} trace={trace_on} attempted={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    if not trace_on:
        print(f"  {'failed_ops_frac':48s} {record['failed_ops_frac']:14.6g} ratio")
    record.update(workload=workload, seed=seed, trace=trace_on, attempted=attempted,
                  failed=failed, held_out_seed=HELD_OUT_SEED, machine=machine_facts())
    print(json.dumps({"record": record}, sort_keys=True))


def run_all(seed, seconds):
    """Every workload, untraced, each in its own process; one table."""
    rows, attempted, failed, merged = [], 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {workload} exited {proc.returncode}: {proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        frac = json.loads(lines[-2])["record"]["failed_ops_frac"]
        attempted += res["attempted"]
        failed += res["failed"]
        values = {k: m["value"] for k, m in res["metrics"].items()}
        rows.append((workload, values, frac))
        merged.update({f"{workload}.{k}": (m["value"], m["unit"]) for k, m in res["metrics"].items()})
    columns = [("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
               ("failed_ops_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]
    print(f"{'workload':20s}" + "".join(f"{n:>17s}" for n, _ in columns))
    print(f"{'':20s}" + "".join(f"{u:>17s}" for _, u in columns))
    for workload, values, frac in rows:
        values = dict(values, failed_ops_frac=frac)
        print(f"{workload:20s}" + "".join(f"{values[n]:17.6g}" for n, _ in columns))
    print(result_line(attempted, failed, merged))


def smoke(workloads, seed):
    attempted = failed = 0
    for workload in WORKLOADS:
        a, f, metrics, record = measure(workloads, workload, seed, 0, 0, 1)
        print_run(workload, seed, 0, a, f, metrics, record)
        attempted, failed = attempted + a, failed + f
    a, f, metrics, record = trace(workloads, WORKLOADS[0], seed, SMOKE_OPS)
    print_run(WORKLOADS[0], seed, 1, a, f, metrics, record)
    print(result_line(attempted + a, failed + f, metrics))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    workloads = load_nlbox()
    if args.probe_setup:
        with workdir() as wd:
            pool(workloads, args.workload, args.seed, wd)
            print("ready", flush=True)
        return None
    if args.smoke:
        return smoke(workloads, args.seed)
    if args.trace:
        reps = max(1, args.seconds // 10)
        sizes = {name: n * reps * workloads.block_ops(name) for name, n in TRACE_BLOCKS.items()}
        out = trace(workloads, args.workload, args.seed, sizes)
    else:
        out = measure(workloads, args.workload, args.seed, args.seconds, MIN_OPS, SETUP_PROBES)
    attempted, failed, metrics, record = out
    print_run(args.workload, args.seed, args.trace, attempted, failed, metrics, record)
    print(result_line(attempted, failed, metrics))
    return None


if __name__ == "__main__":
    sys.exit(main())
