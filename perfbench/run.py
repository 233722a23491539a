#!/usr/bin/env python3
"""Build the evaluator and the benchmark, then run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload methodology|stream|service \
        --seed N --seconds S --trace 0|1

The first run builds `daemon` (the evaluator's service binary) and the
`perfbench` harness in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`). The harness's last line of standard output is the result:
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root: Path, target: Path) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "idse-bench", "--bin", "daemon"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for step in steps:
        # Build chatter goes to stderr: standard output carries the result.
        done = subprocess.run(step, cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(step)}")


def git_rev(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> None:
    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail("run from the root of a checkout of the evaluator (no Cargo.toml or crates/ here)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build(root, target)

    command = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--daemon",
        str(target / "release" / "daemon"),
        "--git-rev",
        git_rev(root),
    ]
    # Own process group, so a timeout also stops the daemon the harness
    # spawned.
    harness = subprocess.Popen(command, cwd=root, start_new_session=True)
    try:
        code = harness.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
