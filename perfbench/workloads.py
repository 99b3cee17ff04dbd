"""Seeded inputs and job lists for the benchmark workloads.

`build(workload, seed, base)` writes every input file into `base` and
returns the job list.  A job is a dict: `id`, `args` (the CLI arguments,
with input paths relative to `base`), `out` (True when the job takes
`-o <path>`), and `expect`, the oracle's description of a correct output.
The same workload and seed always give byte-identical files and jobs.

Sizes are chosen so that one pass over a job list takes a few seconds on a
2-core machine; the cost notes below are seconds per call measured there.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from oracle import cobweb_dict, poset_dict, seq_values

WORKLOADS = ("dense-cobweb", "check-suites", "general-blocks", "small-queries")


def build(workload: str, seed: int, base: Path) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng, Path(base))
    for i, job in enumerate(jobs):
        job["id"] = f"j{i:03d}"
    return jobs


def _write(base: Path, name: str, obj) -> str:
    (base / name).write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return name


def _cobweb(base: Path, name: str, seq: str, levels: int, root: bool = False) -> str:
    sizes = seq_values(seq, levels, base)
    return _write(base, name, cobweb_dict([1] + sizes if root else sizes, seq))


def random_blocks(rng: random.Random, sizes: list, density: float) -> list:
    """0/1 blocks with each entry set at `density`, then patched so that no
    row and no column is empty: the poset has no mute nodes."""
    blocks = []
    for a, b in zip(sizes, sizes[1:]):
        blk = [[1 if rng.random() < density else 0 for _ in range(b)] for _ in range(a)]
        for row in blk:
            if not any(row):
                row[rng.randrange(b)] = 1
        for j in range(b):
            if not any(row[j] for row in blk):
                blk[rng.randrange(a)][j] = 1
        blocks.append(blk)
    return blocks


def even_sizes(total: int, levels: int) -> list:
    """`levels` sizes summing to `total`, differing by at most one, so that
    the cost of a random poset depends on the seed only through its blocks."""
    return [total // levels + (i < total % levels) for i in range(levels)]


def _random_poset(rng, base, name, total, levels, density) -> str:
    sizes = even_sizes(total, levels)
    return _write(base, name, poset_dict(sizes, random_blocks(rng, sizes, density)))


def _matrix_job(cmd, poset, of, *flags):
    return {"args": [cmd, poset, *flags], "out": True,
            "expect": {"kind": "matrix", "poset": poset, "of": of}}


def _dense_cobweb(rng, base):
    # Every zeta/mobius/max route plus eta^-1, CSV to a file.  The cubic
    # routes (invert, recurrence, max, eta^-1) run at 232-247 nodes, the
    # label-delta route at 143, closure at 502 and the near-linear routes at
    # 1013.  The inputs are fixed by the sequences; the seed sets job order.
    # An odd job count keeps the median job inside one job's samples.
    nat12 = _cobweb(base, "nat12.json", "nat", 12)          # 78 nodes
    fib10 = _cobweb(base, "fib10.json", "fib", 10)          # 143
    fib11 = _cobweb(base, "fib11.json", "fib", 11)          # 232
    g7 = _cobweb(base, "gauss7.json", "gauss:q=2", 7)       # 247
    g8 = _cobweb(base, "gauss8.json", "gauss:q=2", 8)       # 502
    g9 = _cobweb(base, "gauss9.json", "gauss:q=2", 9)       # 1013
    jobs = [
        _matrix_job("zeta", g8, "zeta", "--method", "closure"),         # 1.3
        _matrix_job("zeta", fib11, "zeta", "--method", "closure"),
        _matrix_job("zeta", g9, "zeta", "--method", "label-s"),         # 1.1
        _matrix_job("zeta", g7, "zeta", "--method", "label-knuth"),
        _matrix_job("zeta", fib10, "zeta", "--method", "label-delta"),  # 0.6
        _matrix_job("mobius", g9, "mobius", "--method", "closed-form"), # 0.6
        _matrix_job("mobius", g7, "mobius", "--method", "invert"),      # 0.6
        _matrix_job("mobius", fib11, "mobius", "--method", "invert"),
        _matrix_job("mobius", g7, "mobius", "--method", "recurrence"),  # 0.5
        _matrix_job("mobius", nat12, "mobius", "--method", "recurrence"),
        _matrix_job("max", g7, "max"),
        _matrix_job("max", fib11, "max"),
        _matrix_job("eta", g7, "eta_inverse", "--inverse"),
    ]
    rng.shuffle(jobs)
    return jobs


def _check_suites(rng, base):
    # check --suite all: a cobweb, a rooted cobweb (so the whitney suite
    # runs) and two random non-cobwebs, 78-121 nodes; the max suite's
    # per-pair chain oracle dominates.  The two random posets have the same
    # shape, so the median job does not flip between unequal costs.
    posets = [
        _cobweb(base, "nat12.json", "nat", 12),                       # 78 nodes
        _cobweb(base, "rgauss6.json", "gauss:q=2", 6, root=True),     # 121
        _random_poset(rng, base, "randA.json", 105, 7, 0.3),
        _random_poset(rng, base, "randB.json", 105, 7, 0.2),
    ]
    rng.shuffle(posets)
    return [{"args": ["check", p, "--suite", "all"], "out": False,
             "expect": {"kind": "check", "poset": p}} for p in posets]


def _general_blocks(rng, base):
    # Random 0/1-block posets with no mute nodes at densities 0.5, 0.3 and
    # 0.1, so no cobweb shortcut applies.  Each gets the gen --blocks round
    # trip and the general kernels.  All three have 260 nodes on 7 levels,
    # so that the slowest jobs (mobius invert) cost about the same and p90
    # does not flip between unequal costs.
    jobs = []
    levels = 7
    for k, density in enumerate((0.5, 0.3, 0.1)):
        sizes = even_sizes(260, levels)
        blocks = random_blocks(rng, sizes, density)
        bl = _write(base, f"blocks{k}.json", blocks)
        p = _write(base, f"rand{k}.json", poset_dict(sizes, blocks))
        jobs += [
            {"args": ["gen", "--blocks", bl], "out": True,
             "expect": {"kind": "gen", "poset": p}},
            _matrix_job("zeta", p, "zeta"),
            _matrix_job("mobius", p, "mobius", "--method", "invert"),
            _matrix_job("mobius", p, "mobius", "--method", "recurrence"),
            _matrix_job("max", p, "max"),
            {"args": ["chains", p, "--from", "1", "--to", str(levels), "--count-only"],
             "out": True,
             "expect": {"kind": "chains_count", "poset": p, "from": 1, "to": levels}},
        ]
    rng.shuffle(jobs)
    return jobs


_SEQS = ("nat", "fib", "gauss:q=2", "gauss:q=3", "const:2", "file:seq.txt")


def _small_queries(rng, base):
    # 39 short calls on posets of at most 30 nodes: interpreter start,
    # import, argparse and JSON load dominate each one.  Five of them list
    # all 15,625 maximal chains of a 30-node cobweb; being the slowest 13%,
    # they hold p90 inside one job's samples instead of the noise tail of
    # 34 near-equal calls.
    (base / "seq.txt").write_text("".join(f"{rng.randint(1, 6)}\n" for _ in range(12)),
                                  encoding="utf-8")
    posets = {
        _cobweb(base, "nat6.json", "nat", 6): 6,              # 21 nodes
        _cobweb(base, "fib6.json", "fib", 6): 6,              # 20
        _cobweb(base, "gauss4.json", "gauss:q=2", 4): 4,      # 26
        _random_poset(rng, base, "rand.json", 24, 5, 0.4): 5,
    }
    rooted = [_cobweb(base, "rnat5.json", "nat", 5, root=True),
              _cobweb(base, "rfib6.json", "fib", 6, root=True),
              _cobweb(base, "rgauss3.json", "gauss:q=2", 3, root=True)]
    names = list(posets)
    wide = _cobweb(base, "const5.json", "const:5", 6)        # 30 nodes

    def seq():
        return rng.choice(_SEQS)

    def layer(p):
        lo = rng.randint(1, posets[p])
        return lo, rng.randint(lo, posets[p])

    def fnomial_job():
        s, n = seq(), rng.randint(0, 12)
        k = rng.randint(0, n)
        return {"args": ["fnomial", "--seq", s, str(n), str(k)], "out": False,
                "expect": {"kind": "fnomial", "seq": s, "n": n, "k": k}}

    def kroton_job():
        s, r = seq(), rng.randint(1, 6)
        t = rng.randint(r, 12)
        return {"args": ["kroton", "--seq", s, str(r), str(t)], "out": False,
                "expect": {"kind": "kroton", "seq": s, "r": r, "s": t}}

    def coding_job():
        s, n = seq(), rng.randint(3, 10)
        return {"args": ["coding", "--seq", s, "--levels", str(n)], "out": True,
                "expect": {"kind": "coding", "seq": s, "n": n}}

    def admissible_job():
        s, n = seq(), rng.randint(4, 10)
        return {"args": ["admissible", "--seq", s, "--up-to", str(n)], "out": False,
                "expect": {"kind": "admissible", "seq": s, "up_to": n}}

    def rooted_job(kind):
        p = rng.choice(rooted)
        return {"args": [kind, p], "out": False, "expect": {"kind": kind, "poset": p}}

    def view_job(kind):
        p = rng.choice(names + rooted)
        return {"args": [kind, p], "out": True, "expect": {"kind": kind, "poset": p}}

    def chains_list_job():
        p = rng.choice(names)
        lo, hi = layer(p)
        return {"args": ["chains", p, "--from", str(lo), "--to", str(hi)], "out": True,
                "expect": {"kind": "chains_list", "poset": p, "from": lo, "to": hi}}

    def chains_count_job():
        p = rng.choice(names)
        lo, hi = layer(p)
        return {"args": ["chains", p, "--from", str(lo), "--to", str(hi), "--count-only"],
                "out": True,
                "expect": {"kind": "chains_count", "poset": p, "from": lo, "to": hi}}

    def chains_interval_job():
        p = rng.choice(names)
        n = json.loads((base / p).read_text(encoding="utf-8"))["level_sizes"]
        x, y = sorted(rng.sample(range(1, sum(n) + 1), 2))
        return {"args": ["chains", p, "--interval", str(x), str(y)], "out": True,
                "expect": {"kind": "chains_interval", "poset": p, "x": x, "y": y}}

    def gen_job():
        s, n, root = rng.choice(_SEQS[:5]), rng.randint(1, 5), rng.random() < 0.5
        return {"args": ["gen", "--seq", s, "--levels", str(n)] + (["--root"] if root else []),
                "out": True, "expect": {"kind": "gen", "seq": s, "levels": n, "root": root}}

    mix = ([fnomial_job] * 4 + [kroton_job] * 3 + [coding_job] * 3 + [admissible_job] * 3
           + [lambda: rooted_job("whitney")] * 3 + [lambda: rooted_job("charpoly")] * 3
           + [lambda: view_job("dot")] * 3 + [lambda: view_job("lascala")] * 3
           + [chains_list_job] * 2 + [chains_count_job] * 2 + [chains_interval_job] * 2
           + [gen_job] * 3)
    jobs = [make() for make in mix]
    jobs += [{"args": ["chains", wide, "--from", "1", "--to", "6"], "out": True,
              "expect": {"kind": "chains_list", "poset": wide, "from": 1, "to": 6}}
             for _ in range(5)]
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {"dense-cobweb": _dense_cobweb, "check-suites": _check_suites,
             "general-blocks": _general_blocks, "small-queries": _small_queries}
