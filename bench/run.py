"""arisim benchmark: one CLI workload, end-to-end host-time metrics or a traced run.

    python3 bench/run.py --workload power_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs `arisim.cli.main` in this process on a YAML config generated from the
seed, once to warm up and then repeatedly for `--seconds`,
checking every call's CSVs.  With `--trace 0` it reports wall_s (median
seconds of one CLI call), setup_s (median time of separate processes that
start Python, import arisim, parse the config and build the geometry) and
peak_rss_mb (this process).  With `--trace 1` it alternates untraced and
traced calls and reports the per-layer metrics of tracing.METRICS plus the
tracing overhead.  The last line of stdout is the JSON result.  All times
are host time.
"""

import contextlib
import ctypes
import os

# Fixed before numpy loads, for every run and every set-up probe.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc otherwise raises its mmap threshold as large arrays are freed, so
# whether a freed batch array stays resident, and peak RSS moves by one batch
# array (17-38 MB here), depends on heap layout rather than on the workload.
MMAP_THRESHOLD = 128 * 1024
try:
    MMAP_FIXED = ctypes.CDLL(None).mallopt(-3, MMAP_THRESHOLD) == 1  # -3 is M_MMAP_THRESHOLD
except (OSError, AttributeError):
    MMAP_FIXED = False

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from tracing import METRICS, Tracer  # noqa: E402
from workloads import TABLE, WORKLOADS, config_digest, read_outputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
MIN_CALLS = 3


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "arisim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "malloc_mmap_threshold": MMAP_THRESHOLD if MMAP_FIXED else "dynamic",
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def blas_threads() -> int:
    """Thread count reported by numpy's bundled OpenBLAS, else the one set above."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            with contextlib.suppress(OSError, AttributeError):
                return int(getattr(ctypes.CDLL(lib), symbol)())
    return BLAS_THREADS


def load_reference(wl, raw, seed):
    """Stored Monte Carlo rows of this input set, or None for workloads without."""
    table = json.loads((BENCH / "reference.json").read_text()).get(wl.name)
    if table is None:
        return None
    entry = table.get(str(seed % TABLE))
    if entry is None or entry["config_sha256"] != config_digest(raw):
        raise SystemExit(f"error: no stored reference for {wl.name} input set {seed % TABLE}; "
                         "the config generator changed")
    return entry["mc"]


def setup_time(cfg_path: Path) -> float:
    # the probe reports when its set-up ended, so neither its exit nor the
    # polling of subprocess's wait-with-timeout is timed; bytecode caching
    # stays on, as for a user, whatever this process was started with
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(cfg_path)],
                          check=True, capture_output=True, text=True, timeout=120, env=env)
    return float(done.stdout) - start


def cli_call(wl, cfg_path: Path, out_dir: Path, tracer=None):
    """One in-process CLI call: (wall seconds, return code or None if it
    raised, CSV outputs).  What the CLI prints is dropped, so that the JSON
    result stays the last line of stdout."""
    import arisim.cli

    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["--config", str(cfg_path), "--experiment", wl.experiment,
            "--output", str(out_dir), "--trials", str(wl.trials)]
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = arisim.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, rc, read_outputs(out_dir, wl.outputs)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    raw = wl.config(seed)
    reference = load_reference(wl, raw, seed)
    print("env " + json.dumps(environment()))
    print(f"workload {name}: `{wl.experiment}` at {wl.trials} trials, "
          f"input set {seed % TABLE} of {TABLE} (seed {seed})")

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        cfg_path = work / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        out_dir = work / "out"
        # the first probe fills the bytecode and page caches and is not counted
        setup = [] if trace else [setup_time(cfg_path) for _ in range(SETUP_REPEATS + 1)][1:]

        attempted = failed = 0
        baseline = None

        def checked_call(tracer=None):
            nonlocal attempted, failed, baseline
            wall, rc, outputs = cli_call(wl, cfg_path, out_dir, tracer)
            ops = wl.ops(raw)
            bad = ops if rc is None else wl.failures(raw, outputs, baseline, reference)
            if rc not in (0, None):
                bad = max(bad, 1)
            attempted += ops
            failed += bad
            if baseline is None and outputs:
                baseline = outputs
            return wall

        checked_call()  # warm-up; its outputs are the rerun baseline
        work_count = wl.work(baseline) if baseline and failed == 0 else 0
        walls, traced_walls, layer, absent = [], [], [], set()
        start = time.perf_counter()
        while True:
            walls.append(checked_call())
            if trace:
                tracer = Tracer()
                traced_walls.append(checked_call(tracer))
                layer.append(tracer.metrics())
                absent |= tracer.absent
                tracer.write_spans(WORK / f"spans-{name}.csv")
            # stop before one more round at the average pace would overrun --seconds
            n = len(walls)
            if n >= MIN_CALLS and (time.perf_counter() - start) * (n + 1) / n > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(walls)
    print(f"work {work_count} {wl.work_unit} per call; {len(walls)} timed calls after a warm-up")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} failed / {attempted} operations)")
    if trace:
        units = {m[0]: m[1] for m in METRICS}
        moves = {m[0]: m[4] for m in METRICS}
        common = set.intersection(*(set(d) for d in layer))
        metrics = {k: statistics.median(d[k] for d in layer) for k in layer[0] if k in common}
        traced = statistics.median(traced_walls)
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.overhead_s"] = traced - wall
        metrics["trace.overhead_ratio"] = (traced - wall) / wall
        if absent:
            print("absent (wrapped names not found or unreadable): " + ", ".join(sorted(absent)))
    else:
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        moves = {}
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}" + (f"  -> {moves[key]}" if key in moves else ""))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print()
    for name, res in results.items():
        ratio = res["failed"] / res["attempted"]
        cells = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items()]
        print(f"{name:12s} fail_ratio={ratio:.3g}  " + "  ".join(cells))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "arisim" / "cli.py").is_file():
        print(f"error: arisim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
