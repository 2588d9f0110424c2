#!/usr/bin/env python3
"""Builds and runs one workload of the acorr benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` in release mode (into
`$CARGO_TARGET_DIR`, default `perfbench/target`), runs the benchmark binary,
measures its peak RSS from outside the process and prints the binary's
output with `peak_rss_mb` added to the end-to-end metrics of the last line.
See perfbench/README.md for the workloads and metrics.
"""

import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; stop the benchmark short of that.
TIMEOUT_S = 170


def host_line():
    parts = [f"nproc {os.cpu_count()}"]
    for level in ("2", "3"):
        # getconf asks the C library (cpuid on x86), not the file system.
        size = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                              capture_output=True, text=True).stdout.strip()
        parts.append(f"L{level} {int(size) // 1024 if size.isdigit() else '?'} KiB")
    describe = "not a git checkout"
    if os.path.isdir(".git"):
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True)
        describe = git.stdout.strip() or "unknown"
    parts.append(f"git {describe}")
    return "host: " + ", ".join(parts)


def main(args):
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("error: building perfbench failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "acorr-perfbench")
    child = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(TIMEOUT_S, child.kill)
    timer.start()
    try:
        output = child.stdout.read()
        # wait4 reaps this child alone, so its rusage excludes cargo's.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    lines = output.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(output)
        print(f"error: benchmark exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if "--trace" not in args or args[args.index("--trace") + 1] != "1":
        # ru_maxrss is in KiB on Linux.
        rss = {"peak_rss_mb": {"value": usage.ru_maxrss * 1024 / 1e6, "unit": "MB"}}
        result["metrics"] = {**result["metrics"], **rss}
    print(host_line())
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
