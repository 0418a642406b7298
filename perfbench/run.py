#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <taxi|school|school_l_lake> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The release build goes to $CARGO_TARGET_DIR
(default `.bench_build`). Lake shards go to a per-process directory under
`.bench_build/perfbench-tmp`, removed when the run ends however it ends.
The benchmark's last line of standard output is its result object; a
failed build exits non-zero without printing one.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main() -> int:
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    binary = os.path.join(target_dir, "release", "perfbench")
    tmp = os.path.join(".bench_build", "perfbench-tmp", "run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    child = subprocess.Popen([binary, *sys.argv[1:], "--tmp", tmp], env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, forward)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
