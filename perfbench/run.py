#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-nyt256-mixed --seed 1 --seconds 25 --trace 0

The Go program is built from source into .bench_build/ (compiler cache,
module cache and temporary files included), so a run reads and writes only
inside the checkout. The program's standard output is passed through; its
last line is the result JSON. The exit code is the program's, or 2 when the
checkout cannot be built.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod at %s; run from a full checkout" % root, file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOTELEMETRY": "off",
    })
    for key in ("GOTMPDIR", "TMPDIR", "HOME", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary, "--work", os.path.join(build, "perfbench")] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
