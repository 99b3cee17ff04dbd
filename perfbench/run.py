#!/usr/bin/env python3
"""Benchmark of the cobweb CLI, run against the source tree it sits in.

    python3 perfbench/run.py --workload dense-cobweb --seed 1 --seconds 25 --trace 0

With `--trace 0` each job of the workload runs as `python -m cobweb.cli`
in its own process, one at a time (a closed loop with one client), in
passes over the job list until `--seconds` have gone by.  A fixed
reference job launched between the jobs scales their CPU times to a
reference speed.  With `--trace 1` a child process runs the same job list
in-process, alternating untraced and traced passes, and reports per-layer
metrics.  Either way
every output is checked by the benchmark's own oracle outside the timed
spans.  The last line of stdout is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  The full record, with the
environment and sample counts, goes to `.perfbench_out/` in the checkout.

The program is never installed: children get PYTHONPATH=<checkout>/src and
a fixed PYTHONHASHSEED, and the set-up asserts that `cobweb` is imported
from the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

STARTUP_REPEATS = 5    # `--help` launches per traced run; cli.startup_s is their median
JOB_TIMEOUT_S = 60     # a job still running after this is killed and counted failed
TRACER_TIMEOUT_S = 150

# A reference job that does not touch cobweb: interpreter start, two stdlib
# imports, pure-Python integer matrix products and a JSON round trip, the
# kinds of work the jobs do.  A run launches it between jobs, at most once
# every CAL_EVERY_S, and scales the CPU time of each job and set-up by
# CAL_NOMINAL_S over the reference launches just before and after it: the
# bounded metrics are CPU seconds on a machine where the reference job takes
# CAL_NOMINAL_S.  The host that shares this machine's cores slows every
# instruction in phases of seconds to minutes; the scale cancels most of
# that, and a change to cobweb cannot move it.
CAL_CODE = """\
import argparse, json
n = 64
a = [[(i * 7 + j * 3) % 5 - 2 for j in range(n)] for i in range(n)]
for _ in range(3):
    b = [list(col) for col in zip(*a)]
    a = [[sum(x * y for x, y in zip(row, col)) % 1009 for col in b] for row in a]
d = {f"{i},{j}": v for i, row in enumerate(a) for j, v in enumerate(row)}
assert len(json.loads(json.dumps(d))) == n * n
"""
CAL_NOMINAL_S = 0.1
CAL_EVERY_S = 1.0

# The bounded times are scaled CPU times; unscaled and wall-clock figures
# go to the table and the record.
END_TO_END = {"setup_s": "s", "cpu_s": "s", "job_cpu_p50_s": "s", "job_cpu_p90_s": "s",
              "peak_rss_mib": "MiB"}

_ZETA = ("closure", "label_delta", "label_knuth", "label_S")
_MOBIUS = ("closed_form", "invert", "recurrence")
_SUITES = ("zeta", "mobius", "max", "markov", "whitney")
PER_LAYER = {
    "cli.startup_s": "s", "cli.self_s": "s", "fsequence.calls": "count",
    "fsequence.self_s": "s", "invariants.whitney_s": "s", "invariants.charpoly_s": "s",
    **{f"incidence.zeta.{m}_s": "s" for m in _ZETA},
    **{f"incidence.mobius.{m}_s": "s" for m in _MOBIUS},
    "incidence.max_s": "s", "incidence.eta_s": "s", "incidence.coding_s": "s",
    "incidence.reachable_s": "s",
    "blockmat.closure_s": "s", "blockmat.closure_calls": "count",
    "blockmat.inverse_s": "s", "blockmat.inverse_calls": "count",
    "blockmat.mul_s": "s", "blockmat.mul_calls": "count", "blockmat.entries": "count",
    **{f"incidence.{k}.peak_mib": "MiB" for k in ("zeta", "mobius", "max", "eta")},
    "chains.count_calls": "count", "chains.count_s": "s", "chains.enum_s": "s",
    "chains.listed": "count",
    **{f"suites.{s}_s": "s" for s in _SUITES},
    "suites.checks": "count", "suites.skipped": "count",
    "formats.load_s": "s", "formats.dump_s": "s", "formats.emit_s": "s",
    "formats.emit_bytes": "bytes", "poset.build_s": "s", "poset.nodes": "count",
    "trace.overhead_frac": "ratio",
}
# counts that must repeat exactly between traced passes and runs of one seed
EXACT_COUNTS = ("chains.count_calls", "blockmat.closure_calls", "blockmat.inverse_calls",
                "blockmat.mul_calls")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    """The caller's environment without PYTHON* and COBWEB_* settings, with
    the checkout's `src` as the only extra import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "COBWEB_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


# -- set-up -------------------------------------------------------------------

def warm_up(env: dict, cwd: Path):
    """Import cobweb the way the jobs will, and insist it is this checkout's."""
    code = "import cobweb, cobweb.cli; print(cobweb.__file__)"
    res = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    where = Path(res.stdout.strip()).resolve() if res.returncode == 0 else None
    if where is None or (ROOT / "src") not in where.parents:
        raise BenchError(f"cobweb imported from {where or res.stderr.strip()!r}, "
                         f"not from {ROOT / 'src'}")


def _cpu_seconds() -> float:
    """User+sys time of this process and every child it has waited for."""
    usage = [resource.getrusage(who)
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def setup(workload: str, seed: int, inputs: Path, env: dict) -> tuple:
    """Generate the inputs into `inputs` and warm up.  Returns the CPU
    seconds and wall seconds this took, and the jobs."""
    c0, t0 = _cpu_seconds(), time.perf_counter()
    inputs.mkdir(parents=True)
    jobs = workloads.build(workload, seed, inputs)
    warm_up(env, inputs)
    return _cpu_seconds() - c0, time.perf_counter() - t0, jobs


# -- untraced passes ----------------------------------------------------------

def spawn(job: dict, inputs: Path, outdir: Path, env: dict) -> dict:
    """Run one job as a subprocess; latency from spawn to exit, rusage
    from os.wait4."""
    argv = [sys.executable, "-m", "cobweb.cli", *job["args"]]
    if job["out"]:
        argv += ["-o", str(outdir / f"{job['id']}.out")]
    with open(outdir / f"{job['id']}.stdout", "wb") as so, \
            open(outdir / f"{job['id']}.stderr", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=inputs, env=env, stdin=subprocess.DEVNULL,
                                stdout=so, stderr=se)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"id": job["id"], "code": proc.returncode, "latency": latency,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_kib": usage.ru_maxrss}


def calibrate(env: dict, cwd: Path) -> float:
    """CPU seconds of one launch of the reference job."""
    proc = subprocess.Popen([sys.executable, "-c", CAL_CODE], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if os.waitstatus_to_exitcode(status) != 0:
        raise BenchError("the reference job failed")
    return usage.ru_utime + usage.ru_stime


def job_output(job: dict, outdir: Path) -> tuple:
    """(stdout, stderr, output) bytes of one finished job; output is the
    -o file for jobs that write one, else stdout."""
    def read(suffix):
        path = outdir / f"{job['id']}{suffix}"
        return path.read_bytes() if path.exists() else b""

    stdout = read(".stdout")
    return stdout, read(".stderr"), read(".out") if job["out"] else stdout


def verify_pass(oracle: Oracle, jobs: dict, outdir: Path, results: list) -> list:
    """Failure reasons, one per failed job of a finished pass."""
    fails = []
    for res in results:
        job = jobs[res["id"]]
        stdout, stderr, output = job_output(job, outdir)
        why = oracle.verify(job, res["code"], stdout, stderr, output)
        if why:
            fails.append(f"{job['id']} ({' '.join(job['args'])}): {why}")
    return fails


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics, the i-th of n weighted by the mass a Beta(p (n + 1),
    (1 - p) (n + 1)) density puts on ((i - 1) / n, i / n), integrated here
    by the midpoint rule.  Unlike a single order statistic it does not jump
    when two jobs of unequal cost swap ranks."""
    xs, n, steps = sorted(values), len(values), 4000
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mass = [math.exp((a - 1) * math.log(t) + (b - 1) * math.log(1 - t))
            for t in ((k + 0.5) / steps for k in range(steps))]
    weights = [sum(mass[i * steps // n:(i + 1) * steps // n]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def reference_scale(cals: list, t: float) -> float:
    """CAL_NOMINAL_S over the mean CPU time of the reference launches just
    before and just after time `t` (the one launch there is at either end
    of the run).  `cals` holds (time, cpu) pairs in time order."""
    i = bisect.bisect([when for when, _ in cals], t)
    near = [cpu for _, cpu in cals[max(i - 1, 0):i + 1]]
    return CAL_NOMINAL_S * len(near) / sum(near)


def e2e_run(workload: str, seed: int, jobs: list, inputs: Path, work: Path, env: dict,
            seconds: float, setups: list) -> dict:
    """Passes over the jobs, with the reference job launched between them,
    until `seconds` have gone by; the first two passes are whole, a later
    one stops at the first job that would start after `seconds`.  After
    each pass the set-up is timed once more, in a scratch directory, so
    that set-up samples spread over the run like the passes do.  `setups`
    holds (cpu, wall) pairs; the first was timed just before this run."""
    oracle, by_id = Oracle(inputs), {j["id"]: j for j in jobs}
    start = time.perf_counter()
    clock = lambda: time.perf_counter() - start
    walls, results, fails, cals, setup_times = [], [], [], [], [-1.0]

    def calibrate_now():
        t = clock()
        cals.append((t, calibrate(env, inputs)))

    while len(walls) < 2 or clock() < seconds:
        outdir = work / f"pass{len(walls)}"
        outdir.mkdir()
        done, busy = [], 0.0
        for job in jobs:
            if len(walls) >= 2 and clock() >= seconds:
                break
            if not cals or clock() - cals[-1][0] >= CAL_EVERY_S:
                calibrate_now()
            t0 = clock()
            done.append({**spawn(job, inputs, outdir, env), "t": t0})
            busy += clock() - t0
        walls.append(busy)
        results += done
        fails += verify_pass(oracle, by_id, outdir, done)
        shutil.rmtree(outdir)
        again = work / "setup-again"
        setup_times.append(clock())
        setups.append(setup(workload, seed, again, env)[:2])
        shutil.rmtree(again)
    calibrate_now()
    for r in results:
        r["scaled_cpu"] = r["cpu"] * reference_scale(cals, r["t"])
    n = len(results)
    # Each job's median over the passes; a burst of contention then moves
    # only the samples it overlapped.  One pass is the sum of these, and the
    # job quantiles are estimated from them.
    medians = lambda key: [statistics.median(r[key] for r in results if r["id"] == j["id"])
                           for j in jobs]
    cpu, raw_cpu, wall = medians("scaled_cpu"), medians("cpu"), medians("latency")
    setup_cpu = statistics.median(c * reference_scale(cals, t)
                                  for (c, _), t in zip(setups, setup_times))
    return {
        "metrics": {"setup_s": setup_cpu, "cpu_s": sum(cpu),
                    "job_cpu_p50_s": quantile(cpu, 0.5), "job_cpu_p90_s": quantile(cpu, 0.9),
                    "peak_rss_mib": max(r["rss_kib"] for r in results) / 1024},
        "raw_cpu": {"setup_s": statistics.median(c for c, _ in setups), "cpu_s": sum(raw_cpu),
                    "job_cpu_p50_s": quantile(raw_cpu, 0.5),
                    "job_cpu_p90_s": quantile(raw_cpu, 0.9)},
        "wall_clock": {"setup_s": statistics.median(w for _, w in setups),
                       "wall_s": sum(wall), "job_p50_s": quantile(wall, 0.5),
                       "job_p90_s": quantile(wall, 0.9)},
        "calibration": {"median_scale": CAL_NOMINAL_S / statistics.median(c for _, c in cals),
                        "samples": cals},
        "jobs_cpu": [[r["t"], r["id"], r["cpu"]] for r in results],
        "attempted": n, "fails": fails, "passes": len(walls), "pass_walls": walls,
        "samples": {"jobs": len(jobs), "per_job": len(walls), "calibration": len(cals),
                    "jobs_beyond_cpu_p90": sum(c > quantile(cpu, 0.9) for c in cpu)},
    }


# -- traced run -----------------------------------------------------------------

def cli_startup(env: dict, cwd: Path) -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-m", "cobweb.cli", "--help"], cwd=cwd,
                             env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if res.returncode != 0:
            raise BenchError(f"cobweb --help exited with {res.returncode}")
    return statistics.median(times)


def traced_run(jobs: list, inputs: Path, work: Path, env: dict, seconds: float,
               spans_out: Path) -> dict:
    spec = {"jobs": jobs, "inputs": str(inputs), "work": str(work), "seconds": seconds,
            "spans_out": str(spans_out), "result_out": str(work / "tracer.json")}
    (work / "tracer_spec.json").write_text(json.dumps(spec), encoding="utf-8")
    startup = cli_startup(env, inputs)
    with open(work / "tracer.log", "wb") as log:
        res = subprocess.run([sys.executable, str(HERE / "tracer.py"),
                              str(work / "tracer_spec.json")], cwd=inputs, env=env,
                             stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                             timeout=TRACER_TIMEOUT_S)
    if res.returncode != 0:
        tail = (work / "tracer.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"tracer exited with {res.returncode}:\n{tail}")
    out = json.loads((work / "tracer.json").read_text(encoding="utf-8"))
    oracle, by_id = Oracle(inputs), {j["id"]: j for j in jobs}
    attempted, fails = 0, []
    for p in out["passes"]:
        attempted += len(p["results"])
        fails += verify_pass(oracle, by_id, Path(p["dir"]), p["results"])
        shutil.rmtree(p["dir"])
    traced = [p for p in out["passes"] if p["traced"]]
    plain = [p["wall"] for p in out["passes"] if p["wall"] is not None and not p["traced"]]
    layers = {name: traced[0]["layers"].get(name, 0) for name in PER_LAYER}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            layers[name] = statistics.median(p["layers"].get(name, 0.0) for p in traced)
    for k in ("zeta", "mobius", "max", "eta"):
        layers[f"incidence.{k}.peak_mib"] = out["peaks"].get(k, 0.0)
    layers["cli.startup_s"] = startup
    layers["trace.overhead_frac"] = (statistics.median(p["wall"] for p in traced)
                                     / statistics.median(plain))
    repeat = all(p["layers"].get(c, 0) == traced[0]["layers"].get(c, 0)
                 for p in traced for c in EXACT_COUNTS)
    return {"metrics": layers, "attempted": attempted, "fails": fails,
            "passes": len(traced), "counts_repeat": repeat, "spans": out["spans"],
            "cobweb_file": out["cobweb_file"]}


# -- environment and output ---------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head or "unknown"
    ref = head[len("ref: "):]
    direct = _read(git / ref)
    if direct:
        return direct
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    cpu_max = _read(Path("/sys/fs/cgroup/cpu.max"))
    if cpu_max is None:  # cgroup v1
        quota = _read(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"))
        period = _read(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us"))
        cpu_max = f"{quota} {period}" if quota and period else "unavailable"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu.max": cpu_max, "python": platform.python_version(), "commit": commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cobweb" / "cli.py").is_file():
        print(f"perfbench: no cobweb source tree under {ROOT}", file=sys.stderr)
        return 2
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    try:
        inputs = work / "inputs"
        cpu, wall, jobs = setup(args.workload, args.seed, inputs, env)
        setups = [(cpu, wall)]
        if args.trace:
            run = traced_run(jobs, inputs, work, env, args.seconds,
                             outdir / f"{tag}.spans.jsonl")
        else:
            run = e2e_run(args.workload, args.seed, jobs, inputs, work, env,
                          args.seconds, setups)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    failed = len(run["fails"])
    record = {"env": environment(args), "setup_cpu_wall": setups,
              "fail_frac": failed / run["attempted"],
              **{k: v for k, v in run.items() if k != "metrics"},
              "metrics": {k: {"value": run["metrics"][k], "unit": u} for k, u in units.items()}}
    (outdir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("# env " + json.dumps(record["env"]) + " samples " + json.dumps(run.get("samples")))
    for why in run["fails"][:10]:
        print(f"FAIL {why}")
    print(f"# {args.workload} seed={args.seed} passes={run['passes']} "
          f"attempted={run['attempted']} failed={failed} "
          f"fail_frac={record['fail_frac']:.4f}")
    for k, m in record["metrics"].items():
        print(f"{k:32s} {m['value']:14.6f} {m['unit']}")
    for k, v in run.get("raw_cpu", {}).items():
        print(f"{'(unscaled) ' + k:32s} {v:14.6f} s")
    for k, v in run.get("wall_clock", {}).items():
        print(f"{'(wall clock) ' + k:32s} {v:14.6f} s")
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
