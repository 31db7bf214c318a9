#!/usr/bin/env python3
"""Build hierel from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The OCaml driver (perfbench.exe) forks the
real server binaries, checks every answer and prints human-readable
'#' lines followed by one JSON result line, which this script repeats as
the last line of its own output. Everything it builds or writes stays
inside the checkout: dune's _build/ and the scratch directory
.perfbench/. See perfbench/README.md.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
TARGETS = ["./perfbench/perfbench.exe", "./bin/hrdb_server.exe", "./bin/hrdb_replica.exe"]
WORKLOADS = ["exception_write", "hier_read", "sharded_mixed", "replica_catchup"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    """dune on PATH, else the newest opam switch's (its bin directory,
    holding the compiler too, then goes first on PATH)."""
    dune = shutil.which("dune")
    if dune:
        return dune
    for cand in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")), reverse=True):
        os.environ["PATH"] = os.path.dirname(cand) + os.pathsep + os.environ.get("PATH", "")
        return cand
    return None


def env():
    e = dict(os.environ)
    # keep dune's cache and any temporary files inside the checkout
    e["DUNE_CACHE"] = "disabled"
    e["XDG_CACHE_HOME"] = os.path.join(WORK, "cache")
    e["TMPDIR"] = os.path.join(WORK, "tmp")
    e.pop("CARGO_TARGET_DIR", None)
    return e


def build():
    for f in ["dune-project", "bin/hrdb_server.ml", "bin/hrdb_replica.ml", "perfbench/dune"]:
        if not os.path.exists(os.path.join(ROOT, f)):
            fail("%s not found: run from the root of a hierel source tree" % f)
    dune = find_dune()
    if dune is None:
        fail("dune is not on PATH")
    for d in ["cache", "tmp"]:
        os.makedirs(os.path.join(WORK, d), exist_ok=True)
    r = subprocess.run([dune, "build", "--root", ROOT] + TARGETS, env=env(),
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed", r.returncode or 2)


def pin_to_one_cpu():
    """Pins this process, and so every process it starts, to one CPU.

    On a small virtual machine a wake-up that crosses vCPUs is slow and
    its cost drifts from minute to minute: unpinned, the same
    sharded_mixed run measured 650-840 ops/s; pinned, 1470-1720 ops/s.
    Pinned, a run measures the CPU work per op, and runs agree. The
    parallel code paths (reader domains, apply domains, two shards) still
    run, but their speed-up cannot show."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return len(cpus)


def run_driver(args):
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    nproc = pin_to_one_cpu()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", WORK, "--bin", os.path.join(ROOT, "_build", "default", "bin"),
           "--nproc", str(nproc)]
    if args.smoke:
        cmd.append("--smoke")
    # its own process group, so every server it forks can be killed at once
    p = subprocess.Popen(cmd, env=env(), stdout=subprocess.PIPE, text=True,
                         start_new_session=True)

    def stop(*_):
        kill_group(p)
        sys.exit(130)

    for s in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(s, stop)
    try:
        out, _ = p.communicate()
    finally:
        kill_group(p)
    return p.returncode, out


def kill_group(p):
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        p.wait(timeout=30)
    except subprocess.TimeoutExpired:
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few ops per workload, for the benchmark's own tests")
    args = ap.parse_args()
    build()
    code, out = run_driver(args)
    lines = [l for l in out.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l)
    if code != 0 or not lines:
        fail("driver exited with code %s" % code, code or 1)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1], 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
