"""Run one benchmark workload of mafn and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, including the tracing overhead.  Lines
before it give the same figures under the names the documentation uses, the
error rate, and the environment.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "mafn").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mafn" / "__init__.py").is_file():
        print(f"perfbench: no mafn sources under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    for name in [n for n in os.environ if n.startswith("MAFN_")]:
        del os.environ[name]
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import mafn
    if Path(mafn.__file__).resolve().parent != (SRC / "mafn").resolve():
        print(f"perfbench: imported mafn from {mafn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 1

    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    # imported here, once the BLAS threads are pinned and src/ is on the path
    import numpy as np
    import workloads as W
    from reference import Reference
    from tracing import Tracer

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 1
    env = environment(np)
    tally = W.Tally()
    tally.check(env["blas_threads"] in (None, BLAS_THREADS),
                f"BLAS uses {env['blas_threads']} threads, not {BLAS_THREADS}")
    ref = Reference()
    workload = W.WORKLOADS[args.workload](args.seed, args.seconds, workdir, tally, ref)
    tracer = Tracer() if args.trace else None

    if tracer:
        tracer.install("setup")
    setups, fingerprints = [], []
    try:
        for _ in range(W.SETUP_REPEATS):
            with W.measured(ref) as setup:
                fingerprints.append(workload.setup())
            setups.append(setup)
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = [setup.seconds() for setup in setups]
    tally.check(len(set(fingerprints)) == 1, "set-ups of one seed built different inputs")
    W.gradcheck(tally)

    obs = workload.body()
    if tracer:
        tracer.install("run")
        try:
            traced = workload.body()
        finally:
            tracer.uninstall()
        overhead = 100.0 * (steady_median(traced["latency_s"]) / steady_median(obs["latency_s"]) - 1.0)
        metrics = W.per_layer(tracer, traced, overhead)
        lines = [f"  {name:34s} {value!r}" for name, value in metrics.items()]
        units = unit_table("per_layer")
    else:
        e2e = workload.end_to_end(obs)
        metrics = {"setup_s": statistics.median(setup_s),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   **e2e}
        named, what = workload.named(e2e, obs)
        rate = tally.failed / tally.attempted
        rows = [("setup_s", metrics["setup_s"], "s", "lower"),
                ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "lower"),
                ("error_rate", rate, "1", "lower")] + named
        lines = [f"  {name:28s} {value:14.6g} {unit:7s} {better}" for name, value, unit, better in rows]
        lines.append(f"  ({what}; set-up median of {len(setup_s)}; times in reference-speed units,"
                     f" host ran at {ref.host_speed():.3f}x the nominal reference time)")
        units = unit_table("end_to_end")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    for failure in tally.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def steady_median(latencies):
    """Median latency without the first, cold operation of a body."""
    return statistics.median(latencies[1:] if len(latencies) > 1 else latencies)


def unit_table(kind):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
