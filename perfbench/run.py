#!/usr/bin/env python3
"""Build and run the smache host-speed benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator from ../src together with the benchmark program (Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later runs only rebuild what changed. Build output goes to stderr, so the
program's JSON result stays the last line of stdout. Exits non-zero without a
result when the sources are missing or the build fails.
"""
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def build(build_dir: pathlib.Path) -> pathlib.Path:
    # Generated only by a configure that succeeded.
    if not (build_dir / "CMakeFiles" / "Makefile.cmake").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "smache_perfbench",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return build_dir / "smache_perfbench"


def main() -> int:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target.resolve() / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run(
        [str(binary), *sys.argv[1:], "--work-dir", str(build_dir / "work")]
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
