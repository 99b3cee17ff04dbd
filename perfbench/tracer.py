"""In-process traced run of one job list.

Run by `run.py --trace 1` as `python tracer.py <spec.json>` in a child
whose PYTHONPATH points at the checkout's `src`.  It imports cobweb once,
then alternates untraced and traced passes over the job list, each job
being `cobweb.cli.main(argv)` with stdout and stderr sent to files, until
the passes add up to the requested seconds.  A last pass runs the largest
zeta, mobius, max and eta jobs under tracemalloc for kernel peaks.

Tracing wraps public functions of each layer, as they are bound in every
cobweb module that calls them, and records one span per call: name, start,
end, parent span and job.  Spans stay in memory and are written out at the
end; the summary (self times, counts, pass walls, per-job exit codes) goes
to the result file named in the spec.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path


def _by_method(prefix, default):
    return lambda a, kw: f"{prefix}.{kw.get('method', a[1] if len(a) > 1 else default)}"


# (defining module, function) -> span name, or a function of the call's
# positional and keyword arguments giving it.
TARGETS = {
    ("cobweb.cli", "run"): "cli.run",
    ("cobweb.fsequence", "preset"): "fsequence",
    ("cobweb.fsequence", "fnomial"): "fsequence",
    ("cobweb.fsequence", "f_factorial"): "fsequence",
    ("cobweb.fsequence", "f_falling"): "fsequence",
    ("cobweb.fsequence", "is_cobweb_admissible"): "fsequence",
    ("cobweb.invariants", "whitney_first"): "invariants.whitney",
    ("cobweb.invariants", "whitney_second"): "invariants.whitney",
    ("cobweb.invariants", "char_poly"): "invariants.charpoly",
    ("cobweb.incidence", "zeta"): _by_method("incidence.zeta", "closure"),
    ("cobweb.incidence", "mobius"): _by_method("incidence.mobius", "invert"),
    ("cobweb.incidence", "max_matrix"): "incidence.max",
    ("cobweb.incidence", "max_inverse"): "incidence.max",
    ("cobweb.incidence", "eta"): "incidence.eta",
    ("cobweb.incidence", "eta_inverse"): "incidence.eta",
    ("cobweb.incidence", "coding_matrix"): "incidence.coding",
    ("cobweb.incidence", "reachable_sets"): "incidence.reachable",
    ("cobweb.blockmat", "nilpotent_closure"): "blockmat.closure",
    ("cobweb.blockmat", "unitriangular_inverse"): "blockmat.inverse",
    ("cobweb.blockmat", "mul"): "blockmat.mul",
    ("cobweb.chains", "count_layer_chains"): "chains.count",
    ("cobweb.chains", "count_interval_chains"): "chains.count",
    ("cobweb.chains", "count_tail_chains"): "chains.count",
    ("cobweb.chains", "count_head_chains"): "chains.count",
    ("cobweb.chains", "enumerate_max_chains"): "chains.enum",
    ("cobweb.suites", "run_checks"): "suites.run",
    ("cobweb.suites", "suite_zeta"): "suites.zeta",
    ("cobweb.suites", "suite_mobius"): "suites.mobius",
    ("cobweb.suites", "suite_max"): "suites.max",
    ("cobweb.suites", "suite_markov"): "suites.markov",
    ("cobweb.suites", "suite_whitney"): "suites.whitney",
    ("cobweb.formats", "poset_from_json"): "formats.load",
    ("cobweb.formats", "poset_to_json"): "formats.dump",
    ("cobweb.formats", "write_matrix_csv"): "formats.emit",
    ("cobweb.formats", "write_matrix_json"): "formats.emit",
    ("cobweb.formats", "coding_to_json"): "formats.emit",
    ("cobweb.formats", "chains_to_json"): "formats.emit",
    ("cobweb.formats", "to_dot"): "formats.emit",
    ("cobweb.formats", "la_scala"): "formats.emit",
}


def _count_entries(counts, args, out):
    counts["blockmat.entries"] += out.size ** 2


def _count_listed(counts, args, out):
    counts["chains.listed"] += len(out)


def _count_checks(counts, args, out):
    counts["suites.checks"] += len(out)
    counts["suites.skipped"] += sum(1 for r in out if str(r.detail).startswith("skipped"))


def _count_nodes(counts, args, out):
    counts["poset.nodes"] += args[0].node_count


# span name -> hook called with (counts, args, result) after each call
ON_RETURN = {"blockmat.closure": _count_entries, "blockmat.inverse": _count_entries,
             "blockmat.mul": _count_entries, "chains.enum": _count_listed,
             "suites.run": _count_checks, "poset.build": _count_nodes}

# zeta/mobius/max/eta kernels as the CLI binds them -> peak metric group
KERNELS = {"zeta": "zeta", "mobius": "mobius", "max_matrix": "max",
           "max_inverse": "max", "eta": "eta", "eta_inverse": "eta"}


class Tracer:
    """Patches the targets in every loaded cobweb module and records spans
    while installed."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index, job]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []    # (namespace, key, original), dict or module

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = ON_RETURN.get(name) if isinstance(name, str) else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name(args, kwargs) if callable(name) else name, clock(), 0.0,
                   stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    def install(self):
        import cobweb.cli  # noqa: F401  loads every module of the package
        from cobweb.poset import GradedPoset
        mods = [m for n, m in sys.modules.items() if n == "cobweb" or n.startswith("cobweb.")]
        for (modname, attr), name in TARGETS.items():
            orig = getattr(sys.modules[modname], attr)
            _rebind(mods, orig, self._wrap(orig, name), self._undo)
        init = GradedPoset.__init__
        self._undo.append((GradedPoset, "__init__", init))
        GradedPoset.__init__ = self._wrap(init, "poset.build")

    def uninstall(self):
        _restore(self._undo)


def _rebind(mods, orig, new, undo):
    """Replace `orig` by `new` wherever a module binds it, directly or as
    a value of a module-level dict (the suite table)."""
    for m in mods:
        for key, val in list(vars(m).items()):
            if val is orig:
                undo.append((m, key, orig))
                setattr(m, key, new)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is orig:
                        undo.append((val, k, orig))
                        val[k] = new


def _restore(undo):
    for ns, key, orig in reversed(undo):
        if isinstance(ns, dict):
            ns[key] = orig
        else:
            setattr(ns, key, orig)
    undo.clear()


def self_times(spans, first: int = 0) -> tuple:
    """Per span name over spans[first:]: total self time (duration minus
    the time covered by direct children) and call count.  Spans before
    `first` must not be parents of later ones."""
    child = [0.0] * (len(spans) - first)
    for name, start, end, parent, job in spans[first:]:
        if parent >= 0:
            child[parent - first] += end - start
    table, calls = defaultdict(float), Counter()
    for i, (name, start, end, parent, job) in enumerate(spans[first:]):
        table[name] += end - start - child[i]
        calls[name] += 1
    return table, calls


def layer_metrics(spans, first: int, counts) -> dict:
    """The per-layer metrics of the traced pass that recorded spans[first:],
    keyed by metric name."""
    table, calls = self_times(spans, first)
    out = {f"{name}_s": t for name, t in table.items()}
    out["cli.self_s"] = out.pop("cli.run_s", 0.0)
    out["fsequence.calls"] = calls["fsequence"]
    out["chains.count_calls"] = calls["chains.count"]
    for name in ("blockmat.closure", "blockmat.inverse", "blockmat.mul"):
        out[f"{name}_calls"] = calls[name]
    out.update(counts)
    return out


def _run_job(cli, job, outdir: Path) -> dict:
    argv = list(job["args"])
    out_path = outdir / f"{job['id']}.out"
    if job["out"]:
        argv += ["-o", str(out_path)]
    with open(outdir / f"{job['id']}.stdout", "w", encoding="utf-8") as so, \
            open(outdir / f"{job['id']}.stderr", "w", encoding="utf-8") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except Exception:  # a crash is a job failure, reported like a subprocess traceback
            traceback.print_exc()
            code = 1
    return {"id": job["id"], "code": code}


def _emitted_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.suffix in (".out", ".stdout"))


def _largest_kernel_jobs(jobs, inputs: Path) -> list:
    """For each of zeta, mobius, max and eta, the job on the most nodes."""
    best = {}
    for job in jobs:
        cmd = job["args"][0]
        if cmd in ("zeta", "mobius", "max", "eta"):
            obj = json.loads((inputs / job["args"][1]).read_text(encoding="utf-8"))
            n = sum(obj["level_sizes"])
            if cmd not in best or n > best[cmd][0]:
                best[cmd] = (n, job)
    return [job for n, job in best.values()]


def _peak_pass(cli, jobs, outdir: Path) -> tuple:
    """Run jobs under tracemalloc; peak MiB per kernel group, measured from
    the kernel's entry to its return, result included."""
    peaks = {}
    undo = []
    mods = [sys.modules["cobweb.cli"]]

    def measured(fn, group):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
            peaks[group] = max(peaks.get(group, 0.0), peak)
            return out
        return wrapper

    for attr, group in KERNELS.items():
        orig = getattr(cli, attr)
        _rebind(mods, orig, measured(orig, group), undo)
    outdir.mkdir()
    tracemalloc.start()
    try:
        results = [_run_job(cli, job, outdir) for job in jobs]
    finally:
        tracemalloc.stop()
        _restore(undo)
    return peaks, results


def _pass(cli, jobs, outdir: Path, tracer: Tracer | None = None) -> dict:
    """One pass over the job list, traced when a tracer is given."""
    outdir.mkdir()
    first, before = len(tracer.spans) if tracer else 0, Counter(tracer.counts if tracer else ())
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        results = []
        for job in jobs:
            if tracer:
                tracer.job = f"{outdir.name}/{job['id']}"
            results.append(_run_job(cli, job, outdir))
    finally:
        wall = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
    rec = {"dir": str(outdir), "traced": tracer is not None, "wall": wall, "results": results}
    if tracer:
        counts = tracer.counts - before
        counts["formats.emit_bytes"] = _emitted_bytes(outdir)
        rec["layers"] = layer_metrics(tracer.spans, first, counts)
    return rec


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    jobs, inputs, work = spec["jobs"], Path(spec["inputs"]), Path(spec["work"])
    import cobweb
    import cobweb.cli as cli
    tracer = Tracer()
    # The first pass only warms up the interpreter's allocator and is not
    # timed; then untraced and traced passes alternate.
    passes = [dict(_pass(cli, jobs, work / "twarm"), wall=None)]
    measured = 0.0
    while measured < spec["seconds"]:
        for t in (None, tracer):
            passes.append(_pass(cli, jobs, work / f"tpass{len(passes)}", t))
            measured += passes[-1]["wall"]
    peak_dir = work / "tpeak"
    kernel_jobs = _largest_kernel_jobs(jobs, inputs)
    peaks, peak_results = _peak_pass(cli, kernel_jobs, peak_dir)
    passes.append({"dir": str(peak_dir), "traced": False, "wall": None,
                   "results": peak_results, "jobs": [j["id"] for j in kernel_jobs]})
    with open(spec["spans_out"], "w", encoding="utf-8") as fh:
        for name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "job": job}) + "\n")
    Path(spec["result_out"]).write_text(json.dumps({
        "cobweb_file": cobweb.__file__, "passes": passes,
        "peaks": peaks, "spans": len(tracer.spans)}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
