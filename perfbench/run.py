#!/usr/bin/env python3
"""Builds the LearnedSQLGen benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built in release mode into
$CARGO_TARGET_DIR (default: perfbench/target). Its last stdout line is the
result object; the lines before it record provenance and run detail.
Exits non-zero, printing no result, when the build or the run fails.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def capture(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    exe = target / "release" / "sqlgen-perfbench"
    provenance = {
        "command": [sys.executable, *sys.argv],
        "git_revision": capture(["git", "-C", str(HERE), "rev-parse", "HEAD"]),
        "rustc": capture(["rustc", "--version"]),
    }
    print(json.dumps({"provenance": provenance}), flush=True)
    return subprocess.run([str(exe), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
