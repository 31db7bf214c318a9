#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py

For every workload, a smoke run (a few ops, with --smoke) in each mode:

- --trace 0 must report exactly the end_to_end metrics BENCHMARK.json
  names, with the same units; --trace 1 exactly the per_layer ones.
- every output check passes: correct is true and no op failed.
- in the traced run, the in-process replay accepted and rejected the
  same ops, with the same answers, as the served run (the driver prints
  '# traced_mismatches: N' and marks the run incorrect on any mismatch).

Then two process-hygiene checks: a run refuses to start while a process
recorded by an earlier run is alive, and run.py fails without printing a
result outside a source tree.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()


def run(workload, trace, cwd=ROOT):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
                        "--seconds", "1", "--trace", str(trace), "--smoke"],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    return p


def check_smoke(spec, workload, trace):
    p = run(workload, trace)
    assert p.returncode == 0, "%s trace=%d exited %d:\n%s" % (workload, trace, p.returncode, p.stderr[-3000:])
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] is True and result["failed"] == 0, (workload, trace, lines)
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, "%s trace=%d: metrics differ: missing %s, extra %s, units %s" % (
        workload, trace, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
        {k for k in want if k in got and got[k] != want[k]})
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), (k, v)
    if trace:
        mism = [l for l in lines if l.startswith("# traced_mismatches:")]
        assert mism == ["# traced_mismatches: 0"], (workload, mism)
    print("ok  %-16s trace=%d  attempted=%d" % (workload, trace, result["attempted"]))


def check_refuses_with_leftovers():
    """A recorded child that is still alive blocks the next run."""
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    pids = os.path.join(work, "children.pids")
    # a stand-in for a leftover server: a process whose command line names hrdb_server
    sleeper = subprocess.Popen(["bash", "-c", "exec -a hrdb_server.exe sleep 60"])
    try:
        with open(pids, "w") as f:
            f.write("%d hrdb_server\n" % sleeper.pid)
        p = run("replica_catchup", 0)
        assert p.returncode != 0, "run started while a recorded child was alive"
        assert "still alive" in p.stderr, p.stderr[-2000:]
        assert not p.stdout.strip().startswith("{"), p.stdout
    finally:
        sleeper.kill()
        sleeper.wait()
        if os.path.exists(pids):
            os.remove(pids)
    print("ok  refuses to start while a previous run's child is alive")


def check_fails_outside_tree():
    """Only BENCHMARK.json and perfbench/: no source to build, so no result."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    d = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"))
        p = run("exception_write", 0, cwd=d)
        assert p.returncode != 0 and p.stdout.strip() == "", (p.returncode, p.stdout)
    finally:
        shutil.rmtree(d)
    print("ok  fails without a result outside a source tree")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_smoke(spec, w, trace)
    check_refuses_with_leftovers()
    check_fails_outside_tree()


if __name__ == "__main__":
    main()
