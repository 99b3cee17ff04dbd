"""Tests of the benchmark itself: seeded generation, the output oracle and
failure accounting, the metric names, the quantile estimator, the reference
job, and the tracer's span arithmetic.

    python -m pytest perfbench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs_and_jobs(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    jobs_a = workloads.build(workload, 7, a)
    jobs_b = workloads.build(workload, 7, b)
    assert json.dumps(jobs_a) == json.dumps(jobs_b)
    assert _tree(a) == _tree(b)
    jobs_c = workloads.build(workload, 8, c)
    assert json.dumps(jobs_a) != json.dumps(jobs_c) or _tree(a) != _tree(c)


def test_random_posets_have_no_mute_nodes():
    rng = random.Random(3)
    for density in (0.05, 0.3, 0.6):
        sizes = workloads.even_sizes(122, 6)
        assert sum(sizes) == 122 and max(sizes) - min(sizes) <= 1
        for blk in workloads.random_blocks(rng, sizes, density):
            assert all(any(row) for row in blk)
            assert all(any(row[j] for row in blk) for j in range(len(blk[0])))


def _write_outputs(outdir: Path, job: dict, code: int, output: str, stderr: str = ""):
    (outdir / f"{job['id']}.stdout").write_text("" if job["out"] else output)
    (outdir / f"{job['id']}.stderr").write_text(stderr)
    if job["out"]:
        (outdir / f"{job['id']}.out").write_text(output)
    return {"id": job["id"], "code": code}


def _small_cobweb(base: Path) -> str:
    (base / "p.json").write_text(json.dumps(oracle.cobweb_dict([1, 2, 3], "nat")))
    return "p.json"


def test_flipped_entry_nonzero_exit_and_traceback_each_count_as_failures(tmp_path):
    p = _small_cobweb(tmp_path)
    good = "\n".join(oracle.expected_matrix_rows(oracle.Poset(
        json.loads((tmp_path / p).read_text())), "mobius")) + "\n"
    flipped = good.replace("-1", "1", 1)
    jobs = {f"j{i}": {"id": f"j{i}", "args": ["mobius", p], "out": True,
                      "expect": {"kind": "matrix", "poset": p, "of": "mobius"}}
            for i in range(4)}
    outdir = tmp_path / "out"
    outdir.mkdir()
    results = [
        _write_outputs(outdir, jobs["j0"], 0, good),
        _write_outputs(outdir, jobs["j1"], 0, flipped),
        _write_outputs(outdir, jobs["j2"], 1, good),
        _write_outputs(outdir, jobs["j3"], 0, good,
                       "Traceback (most recent call last):\n  boom\n"),
    ]
    fails = run.verify_pass(oracle.Oracle(tmp_path), jobs, outdir, results)
    assert [f.split()[0] for f in fails] == ["j1", "j2", "j3"]
    assert "entry (1,2)" in fails[0]
    assert "exit code 1" in fails[1]
    assert "traceback" in fails[2]


def _mobius_by_recurrence(P: oracle.Poset) -> list:
    reach = P.reach()
    mu = [[0] * P.n for _ in range(P.n)]
    for x in range(P.n):
        mu[x][x] = 1
        for y in sorted(reach[x] - {x}):
            mu[x][y] = -sum(mu[x][z] for z in reach[x] if z != y and y in reach[z])
    return mu


def test_general_oracles_accept_exact_and_reject_perturbed_outputs(tmp_path):
    rng = random.Random(5)
    sizes = [3, 4, 3, 4]
    obj = oracle.poset_dict(sizes, workloads.random_blocks(rng, sizes, 0.4))
    assert not obj["flags"]["cobweb"]
    (tmp_path / "g.json").write_text(json.dumps(obj))
    P = oracle.Poset(obj)
    mu = _mobius_by_recurrence(P)
    orc = oracle.Oracle(tmp_path)
    job = {"id": "m", "expect": {"kind": "matrix", "poset": "g.json", "of": "mobius"}}
    csv = lambda m: "".join(",".join(map(str, r)) + "\n" for r in m)
    assert orc.verify(job, 0, b"", b"", csv(mu).encode()) is None
    x, y = next((x, y) for x in range(P.n) for y in range(P.n) if mu[x][y] and x != y)
    mu[x][y] += 1
    assert orc.verify(job, 0, b"", b"", csv(mu).encode())
    zeta = [[1 if y in P.reach()[x] else 0 for y in range(P.n)] for x in range(P.n)]
    zjob = {"id": "z", "expect": {"kind": "matrix", "poset": "g.json", "of": "zeta"}}
    assert orc.verify(zjob, 0, b"", b"", csv(zeta).encode()) is None
    zeta[0][P.n - 1] ^= 1
    assert orc.verify(zjob, 0, b"", b"", csv(zeta).encode())


def test_benchmark_json_names_every_metric_the_driver_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_quantile_is_a_smooth_weighted_mean_of_order_statistics():
    assert run.quantile([0.25] * 7, 0.9) == pytest.approx(0.25)
    assert run.quantile([4.0, 1.0, 3.0, 2.0, 5.0], 0.5) == pytest.approx(3.0)
    xs = [0.1, 0.2, 0.25, 0.4, 0.9]
    qs = [run.quantile(xs, p) for p in (0.1, 0.5, 0.9)]
    assert min(xs) < qs[0] < qs[1] < qs[2] < max(xs)
    # a swap of ranks between two near-equal jobs moves it only a little
    assert run.quantile([0.2, 0.21, 0.3], 0.5) == pytest.approx(
        run.quantile([0.21, 0.2, 0.3], 0.5))
    assert abs(run.quantile([0.2, 0.22, 0.3], 0.5)
               - run.quantile([0.2, 0.2, 0.3], 0.5)) < 0.02


def test_reference_scale_uses_the_launches_around_each_time():
    cals = [(0.0, 0.1), (1.0, 0.3), (2.0, 0.2)]
    nominal = run.CAL_NOMINAL_S
    assert run.reference_scale(cals, -1.0) == pytest.approx(nominal / 0.1)
    assert run.reference_scale(cals, 0.5) == pytest.approx(nominal / 0.2)
    assert run.reference_scale(cals, 1.5) == pytest.approx(nominal / 0.25)
    assert run.reference_scale(cals, 9.0) == pytest.approx(nominal / 0.2)


def test_reference_job_runs_without_cobweb(tmp_path):
    env = run.child_env()
    env["PYTHONPATH"] = str(tmp_path)
    assert 0 < run.calibrate(env, tmp_path) < run.JOB_TIMEOUT_S


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1, "j"], ["b", 1.0, 5.0, 0, "j"],
             ["c", 2.0, 3.0, 1, "j"], ["b", 6.0, 7.0, 0, "j"]]
    table, calls = tracer.self_times(spans)
    assert table["a"] == pytest.approx(5.0)
    assert table["b"] == pytest.approx(4.0)
    assert table["c"] == pytest.approx(1.0)
    assert calls["b"] == 2
    tail, _ = tracer.self_times(spans + [["d", 11.0, 12.0, -1, "k"],
                                         ["e", 11.5, 11.75, 4, "k"]], first=4)
    assert dict(tail) == pytest.approx({"d": 0.75, "e": 0.25})


def test_traced_counts_repeat_exactly_and_outputs_verify(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import cobweb.cli as cli
    inputs = tmp_path / "in"
    inputs.mkdir()
    jobs = workloads.build("small-queries", 2, inputs)[:12]
    monkeypatch.chdir(inputs)
    orc, by_id, layers = oracle.Oracle(inputs), {j["id"]: j for j in jobs}, []
    for k in range(2):
        t = tracer.Tracer()
        outdir = tmp_path / f"p{k}"
        outdir.mkdir()
        t.install()
        try:
            results = [tracer._run_job(cli, job, outdir) for job in jobs]
        finally:
            t.uninstall()
        assert run.verify_pass(orc, by_id, outdir, results) == []
        layers.append(tracer.layer_metrics(t.spans, 0, t.counts))
    assert cli.run.__module__ == "cobweb.cli" and cli.run.__name__ == "run"
    counts = {k: v for k, v in layers[0].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in layers[1].items() if not k.endswith("_s")}
    assert counts["fsequence.calls"] > 0 and counts["poset.nodes"] > 0
