"""diffid benchmark: times the diffid CLI end to end on one workload.

    python3 bench/run.py --workload invert-readme --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the CLI children import diffid from
the checkout's src/.  The load is a closed loop with one client: one CLI
child at a time, started again as soon as the last one has been checked,
until --seconds have passed (at least one run).  Each CLI run is one
operation; an unexpected exit code or a failed output check fails it.

--trace 0 reports the end-to-end metrics: wall_s, setup_s, peak_rss_mb and
rel_err.  --trace 1 alternates an untraced and a traced child and reports the
per-layer metrics from the traced one (see tracing.py).  The last line of
standard output is the result object; the line before it records the machine,
the environment and every operation, and the same record is saved under
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

SETUP_REPS = 7
RUN_LIMIT_S = 170.0  # an operation still running at this point is killed and failed
HELD_OUT_SEED = 7919  # never used while tuning the benchmark; for checking claims
# BLAS pools default to one thread per core; with two, a child's wall time
# depends on whether another tenant holds the second core (mms-study read
# 13.4 s wall for 16.1 s of CPU when it was free, wall = CPU when it was not).
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = ("import sys, diffid.cli; diffid.cli.load_config(sys.argv[1]); "
              "print(diffid.cli.__file__)")


def _spawn(argv: list[str], env: dict, cwd: Path, stdout: Path, stderr: Path,
           deadline: float) -> dict:
    """Run one child to completion through spawn.py and return its wall time,
    exit code and its own rusage (os.wait4 on its pid, not RUSAGE_CHILDREN,
    which holds the maximum over every child so far)."""
    result = cwd / "spawn.json"
    result.unlink(missing_ok=True)
    timeout = max(deadline - time.perf_counter(), 0.0)
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py"), str(result), str(timeout), *argv],
            cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            proc.wait()
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"spawn.py exited with {proc.returncode}: {_read(stderr).strip()[-400:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def measure_setup(env: dict, run_dir: Path, config: Path, src: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter that imports diffid.cli and loads the
    workload's config."""
    out, err = run_dir / "setup.out", run_dir / "setup.err"
    res = _spawn([sys.executable, "-c", SETUP_CODE, str(config)], env, run_dir, out, err, deadline)
    if res["exit_code"] != 0:
        raise RuntimeError(f"set-up child failed: {_read(err).strip()[-400:]}")
    loaded = Path(_read(out).strip())
    if src not in loaded.resolve().parents:
        raise RuntimeError(f"set-up child imported diffid from {loaded}, not from {src}")
    return res["wall_s"]


def run_operation(prepared, env: dict, run_dir: Path, deadline: float,
                  spans: Path | None = None) -> dict:
    """One CLI run (traced when spans is given) followed by its output check."""
    if prepared.out_dir.exists():
        shutil.rmtree(prepared.out_dir)
    if spans is None:
        argv = [sys.executable, "-m", "diffid.cli", *prepared.argv]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans), *prepared.argv]
    out, err = run_dir / "op.out", run_dir / "op.err"
    op = _spawn(argv, env, run_dir, out, err, deadline)
    op["traced"] = spans is not None
    op["ok"] = False
    if op["exit_code"] != 0:
        op["error"] = f"exit code {op['exit_code']}: {_read(err).strip()[-400:]}"
        return op
    try:
        op["rel_err"] = prepared.check(prepared.out_dir, _read(out))
        op["ok"] = True
    except CheckError as exc:
        op["error"] = str(exc)
    return op


def _cpu_caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def child_env(src: Path) -> dict:
    """The caller's environment with diffid imported from src and BLAS pools
    at one thread unless the caller set them."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for name in BLAS_VARS:
        env.setdefault(name, "1")
    return env


def machine_record(root: Path, env: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    threads = {name: env.get(name) for name in ("DIFFID_THREADS", *BLAS_VARS)}
    flags = []
    if threads["DIFFID_THREADS"] is not None:
        flags.append("DIFFID_THREADS is set: not the single-threaded baseline")
    if any(threads[name] != "1" for name in BLAS_VARS):
        flags.append("a BLAS thread count is not 1: not the single-threaded baseline")
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cpu_caches": _cpu_caches(),
        "platform": platform.platform(),
        "thread_env": threads,
        "git_commit": _git_commit(root),
        "flags": flags,
    }


def _median(values):
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "diffid" / "cli.py").is_file():
        print(f"error: no diffid sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    env = child_env(src)
    machine = machine_record(root, env)
    for flag in machine["flags"]:
        print(f"warning: {flag}", file=sys.stderr)
    out_root = root / ".bench_out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        prepared = WORKLOADS[args.workload](run_dir, args.seed)
        setups = [measure_setup(env, run_dir, prepared.config, src, deadline)
                  for _ in range(SETUP_REPS)]
        ops, traces = [], []
        loop_start = time.perf_counter()
        while not ops or time.perf_counter() - loop_start < args.seconds:
            ops.append(run_operation(prepared, env, run_dir, deadline))
            if args.trace:
                spans = run_dir / "spans.json"
                op = run_operation(prepared, env, run_dir, deadline, spans=spans)
                ops.append(op)
                if op["exit_code"] == 0:
                    traces.append((op, json.loads(spans.read_text(encoding="utf-8"))))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(not op["ok"] for op in ops)
    plain = [op for op in ops if not op["traced"]]
    setup_s = _median(setups)
    if args.trace:
        if not traces:
            print("error: no traced run completed", file=sys.stderr)
            for op in ops:
                print(f"  {op.get('error')}", file=sys.stderr)
            return 1
        per_run = [layer_metrics(trace) for _, trace in traces]
        values = {name: _median([m[name] for m in per_run]) for name in per_run[0]}
        traced_wall = _median([op["wall_s"] for op, _ in traces])
        values["cli.cpu_s"] = _median([op["cpu_s"] for op in plain])
        values["cli.trace_overhead"] = traced_wall / _median([op["wall_s"] for op in plain])
        top_s = _median([trace["top_s"] for _, trace in traces])
        coverage = {"top_spans_s": top_s, "traced_wall_s": traced_wall, "setup_s": setup_s,
                    "top_spans_over_wall_minus_setup": top_s / (traced_wall - setup_s)}
    else:
        rel = [op["rel_err"] for op in plain if "rel_err" in op]
        values = {
            "wall_s": _median([op["wall_s"] for op in plain]),
            "setup_s": setup_s,
            "peak_rss_mb": _median([op["peak_rss_mb"] for op in plain]),
            "rel_err": _median(rel) if rel else 1.0,  # no output passed its parse: 100% error
        }
        coverage = None

    units = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    unit_of = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in units[key]}
    metrics = {name: {"value": value, "unit": unit_of[name]} for name, value in values.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": prepared.seed_used,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 CLI child at a time",
        "machine": machine,
        "setup_runs_s": setups,
        "operations": ops,
        "span_coverage": coverage,
        "elapsed_s": time.perf_counter() - started,
    }
    results = out_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n", encoding="utf-8")
    for op in ops:
        if not op["ok"]:
            print(f"failed operation: {op['error']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
