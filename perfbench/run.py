#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <grid-compile|grid-sim|tables> \
        --seed N --seconds S --trace <0|1> [--metric NAME]...

Run from the root of the repository. The arguments go to the `perfbench`
binary unchanged, which rejects anything malformed. The build lands in
`$CARGO_TARGET_DIR` (default `.bench_build`). The last line of stdout is the
binary's JSON result, printed only after its metric names are checked
against BENCHMARK.json; any failure exits non-zero without a result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    os.chdir(ROOT)
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"])
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")
    binary = Path(target) / "release" / "perfbench"
    run = subprocess.run([str(binary), *argv], stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        sys.exit(run.returncode)
    if not lines:
        fail("the benchmark printed nothing")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail(f"malformed result line: {lines[-1]}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if argv[argv.index("--trace") + 1] == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared if "--metric" not in argv else {n: declared.get(n) for n in got}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json {kind}: got {sorted(got)}, want {sorted(want)}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
