"""Shows that the output checks reject corrupted outputs.

    python3 bench/selftest.py

Run from the root of a source checkout.  It runs the invert-readme workload
once, confirms its check accepts the real outputs, and then confirms the
check rejects each corruption below, restoring the real file between them.
Exits 0 when every case behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import child_env, run_operation  # noqa: E402
from workloads import CheckError, prepare_invert_readme  # noqa: E402


def truncate_synth(out: Path) -> None:
    path = out / "u_synth.csv"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def drop_synth_tail(out: Path) -> None:
    """Cut the file back to its last complete line but one, so only the row
    count and the last rows can tell."""
    path = out / "u_synth.csv"
    data = path.read_bytes()
    path.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 1])


def perturb_a(out: Path) -> None:
    """Move a at one interior node (t = 0.25, x = pi/2) by 1e-3."""
    path = out / "a.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = 1 + 64 * 130 + 65
    t, x, value = lines[row].split(",")
    lines[row] = f"{t},{x},{float(value) + 1e-3!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    root = Path.cwd().resolve()
    run_dir = root / ".bench_out" / f"selftest-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        prepared = prepare_invert_readme(run_dir, seed=0)
        env = child_env(root / "src")
        op = run_operation(prepared, env, run_dir, time.perf_counter() + 170.0)
        if not op["ok"]:
            print(f"FAIL clean run rejected: {op.get('error')}")
            return 1
        print(f"ok   clean outputs accepted (rel_err {op['rel_err']:.6e})")
        out = prepared.out_dir
        backup = run_dir / "clean"
        shutil.copytree(out, backup)
        failures = 0
        for corrupt in (truncate_synth, drop_synth_tail, perturb_a):
            corrupt(out)
            try:
                prepared.check(out, "")
            except CheckError as err:
                print(f"ok   {corrupt.__name__} rejected: {err}")
            else:
                print(f"FAIL {corrupt.__name__} accepted")
                failures += 1
            shutil.rmtree(out)
            shutil.copytree(backup, out)
        return 1 if failures else 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
