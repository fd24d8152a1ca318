#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload echo-inmem --seed 1 --seconds 10 --trace 0

It builds the Go program in perfbench/ against the checkout's own aqua
module, with every Go cache and temporary file kept under .bench_build/ in
the checkout, then runs it with the given arguments. The program's standard
output passes through unchanged; its last line is the JSON result. The exit
code is the program's, or 2 when the checkout holds no aqua module to build.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_identity(root):
    """Hash every Go source and module file outside the build directory, so
    a result names the exact code it measured even without git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in (".bench_build", ".git"))
        for name in sorted(filenames):
            if not (name.endswith(".go") or name in ("go.mod", "go.sum")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            h.update(b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def go_env(build):
    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": os.path.join(build, "gocache"),
            "GOMODCACHE": os.path.join(build, "gomod"),
            "GOTMPDIR": os.path.join(build, "tmp"),
            "XDG_CONFIG_HOME": os.path.join(build, "config"),
            "XDG_CACHE_HOME": os.path.join(build, "cache"),
            "GOPROXY": "off",
            "GOTOOLCHAIN": "local",
            "GOWORK": "off",
            "GOFLAGS": "",
            "CGO_ENABLED": "0",
        }
    )
    return env


def main(argv):
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isfile(
        os.path.join(bench, "go.mod")
    ):
        print("perfbench: run from the root of an aqua checkout", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gomod", "tmp", "config", "cache"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    env = go_env(build)
    try:
        built = subprocess.run(
            ["go", "build", "-trimpath", "-o", binary, "."],
            cwd=bench,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = argv + ["--source", source_identity(root), "--spans-dir", os.path.join(build, "spans")]
    try:
        ran = subprocess.run([binary] + args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
