"""The softshare benchmark.

    python3 perfbench/run.py --workload {compress,pretrain,codec} \\
        --seed N --seconds S --trace {0,1} [--smoke]
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. One workload runs in this process; ``all``
runs each workload in its own process, one after the other, and prints every
end-to-end metric of each by name and unit. With ``--trace 0`` the last line
of standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` holding the end-to-end metrics; with ``--trace 1``
the metrics are the per-layer ones. The line before it is a JSON record of
what is not a bounded metric: environment, sample counts, figures that
depend on the seed (compression rate, test errors, per-network codec
latencies) and sha256 digests of the output artifacts.

BLAS and OpenMP threads are pinned to at most the number of usable CPUs
before numpy is imported. Artifacts go to a temporary directory under
``.bench_tmp/`` in the repository root, removed on exit. ``--smoke`` shrinks
every size, for the benchmark's own tests. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compress", "pretrain", "codec")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> dict:
    """Cap every BLAS/OpenMP thread variable at the usable CPU count; an
    existing smaller setting is kept. Must run before numpy is imported."""
    n = usable_cpus()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))
    return {var: os.environ[var] for var in THREAD_VARS}


def program_available() -> bool:
    return ((ROOT / "src" / "softshare" / "__init__.py").is_file()
            and (ROOT / "configs" / "synthetic.cfg").is_file())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: dict) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": threads, "nproc": usable_cpus(),
            "cpu": cpu_model(), "commit": git_commit()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def run_one(args, threads: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            result, record = bench.run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace),
                bench.SMOKE if args.smoke else bench.FULL, Path(tmp), ROOT)
    finally:
        try:
            tmp_root.rmdir()
        except OSError:
            pass    # another run still uses it
    record["environment"] = environment(threads)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}, no result")
            status = 1
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        results[name] = {"result": result, "record": record}
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} samples={json.dumps(record['samples'])}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
        for key, f in record["figures"].items():
            print(f"  {key:<40} {f['value']:>14.6g} {f['unit']} (unbounded)")
        if not result["correct"]:
            status = 1
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not program_available():
        print(f"softshare sources or configs/synthetic.cfg not found under {ROOT}",
              file=sys.stderr)
        return 2
    threads = pin_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())
