#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go build cache, module cache and binary live under the build
directory ($CARGO_TARGET_DIR if set, else .bench_build), so a run reads and
writes only inside the checkout. Arguments are passed through to the
benchmark; its exit code is this script's exit code. A failed build exits
non-zero without running anything.
"""

import hashlib
import os
import subprocess
import sys

# The benchmark stops itself after 175 s; this is the backstop.
RUN_TIMEOUT_S = 178


def source_rev(root):
    """The git revision of root, else a digest of its Go sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".mod")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = os.path.join(build, "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    os.makedirs(build, exist_ok=True)
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    cmd = [binary, "--rev", source_rev(root)] + sys.argv[1:]
    with subprocess.Popen(cmd, cwd=root) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
