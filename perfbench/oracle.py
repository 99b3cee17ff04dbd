"""The benchmark's own output oracle.

Every expected value is derived from the poset definition or the sequence
alone, never from the program under test: level-pair closed forms for
cobwebs, graph traversal and downward chain tallies for general posets, and
direct products for the sequence queries.  `verify` turns one job's exit
code, streams and output into a failure reason, or None when it passed.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from fractions import Fraction
from pathlib import Path


# -- sequences ----------------------------------------------------------------

def seq_values(spec: str, n: int, base: Path) -> list:
    """<1_F, ..., n_F> for a sequence spec as the CLI accepts it."""
    if spec == "nat":
        return list(range(1, n + 1))
    if spec == "fib":
        out, a, b = [], 1, 1
        for _ in range(n):
            out.append(a)
            a, b = b, a + b
        return out
    if spec.startswith("gauss:q="):
        q = int(spec[len("gauss:q="):])
        return [(q ** k - 1) // (q - 1) for k in range(1, n + 1)]
    if spec.startswith("const:"):
        return [int(spec[len("const:"):])] * n
    if spec.startswith("file:"):
        text = (base / spec[len("file:"):]).read_text(encoding="utf-8")
        vals = [int(ln) for ln in text.split()]
        if len(vals) < n:
            raise ValueError(f"{spec} holds {len(vals)} values, {n} needed")
        return vals[:n]
    raise ValueError(f"unknown sequence spec {spec!r}")


def fnomial(F: list, n: int, k: int) -> Fraction:
    num = den = 1
    for j in range(n - k + 1, n + 1):
        num *= F[j - 1]
    for j in range(1, k + 1):
        den *= F[j - 1]
    return Fraction(num, den)


def kroton(F: list, r: int, s: int) -> int:
    if s <= r:
        return 0
    out = 1
    for i in range(r + 1, s):
        out *= F[i - 1] - 1
    return out


# -- posets -------------------------------------------------------------------

def poset_dict(sizes, blocks, sequence=None) -> dict:
    """Poset JSON object in the layout the CLI reads and `gen` writes."""
    cobweb = all(v == 1 for blk in blocks for row in blk for v in row)
    return {"level_sizes": list(sizes), "blocks": blocks,
            "flags": {"cobweb": cobweb, "no_mute": True}, "sequence": sequence}


def cobweb_dict(sizes, sequence=None) -> dict:
    blocks = [[[1] * b for _ in range(a)] for a, b in zip(sizes, sizes[1:])]
    return poset_dict(sizes, blocks, sequence)


class Poset:
    """Level sizes plus cover blocks, with the graph views the oracle needs.
    Nodes are 0-based global indices in natural labeling order."""

    def __init__(self, obj: dict):
        self.sizes = list(obj["level_sizes"])
        self.blocks = obj["blocks"]
        self.off = [0]
        for s in self.sizes:
            self.off.append(self.off[-1] + s)
        self.n = self.off[-1]
        self.level = [lv for lv, s in enumerate(self.sizes) for _ in range(s)]
        self.up = [[] for _ in range(self.n)]
        for k, blk in enumerate(self.blocks):
            for i, row in enumerate(blk):
                self.up[self.off[k] + i] = [self.off[k + 1] + j
                                            for j, v in enumerate(row) if v]
        self.is_cobweb = all(v == 1 for blk in self.blocks for row in blk for v in row)
        self._reach = None

    def reach(self) -> list:
        """reach()[x] is the set of y with x <= y, by breadth-first search."""
        if self._reach is None:
            out = []
            for x in range(self.n):
                seen = {x}
                todo = deque([x])
                while todo:
                    for z in self.up[todo.popleft()]:
                        if z not in seen:
                            seen.add(z)
                            todo.append(z)
                out.append(seen)
            self._reach = out
        return self._reach

    def layer_chains(self, lo: int, hi: int) -> list:
        """Maximal chains of levels lo..hi (1-based) as [[level, pos], ...]
        lists, depth first in lexicographic position order."""
        out = []

        def walk(x, path):
            if self.level[x] == hi - 1:
                out.append([[self.level[z] + 1, z - self.off[self.level[z]] + 1]
                            for z in path])
                return
            for z in self.up[x]:
                walk(z, path + [z])

        for x in range(self.off[lo - 1], self.off[lo]):
            walk(x, [x])
        return out

    def chains_to(self, y: int) -> list:
        """Downward tally: entry x counts the maximal chains of [x, y]."""
        t = [0] * self.n
        t[y] = 1
        for lv in range(self.level[y] - 1, -1, -1):
            for x in range(self.off[lv], self.off[lv + 1]):
                t[x] = sum(t[z] for z in self.up[x])
        return t


def _cobweb_rows(P: Poset, block_value) -> list:
    """CSV rows of a cobweb matrix that is 1 on the diagonal, 0 inside
    diagonal blocks and below, and block_value(r, s) on level pair r < s."""
    rows = []
    L = len(P.sizes)
    for r in range(L):
        suffix = "".join("," + ",".join([str(block_value(r, s))] * P.sizes[s])
                         for s in range(r + 1, L))
        prefix = "0," * P.off[r]
        for p in range(P.sizes[r]):
            diag = ",".join("1" if q == p else "0" for q in range(P.sizes[r]))
            rows.append(prefix + diag + suffix)
    return rows


def _product(vals) -> int:
    out = 1
    for v in vals:
        out *= v
    return out


def expected_matrix_rows(P: Poset, of: str) -> list:
    """Exact CSV rows for zeta, max, and (cobwebs only) mobius and eta^-1."""
    S = P.sizes
    if P.is_cobweb:
        forms = {
            "zeta": lambda r, s: 1,
            "max": lambda r, s: _product(S[r + 1:s]),
            "mobius": lambda r, s: (-1) ** (s - r) * _product(v - 1 for v in S[r + 1:s]),
            "eta_inverse": lambda r, s: (-1) ** (s - r) * _product(S[r + 1:s]),
        }
        return _cobweb_rows(P, forms[of])
    if of == "zeta":
        reach = P.reach()
        return [",".join("1" if y in reach[x] else "0" for y in range(P.n))
                for x in range(P.n)]
    if of == "max":
        cols = [P.chains_to(y) for y in range(P.n)]
        return [",".join(str(cols[y][x]) for y in range(P.n)) for x in range(P.n)]
    raise ValueError(f"no exact row oracle for {of} on a non-cobweb")


def _first_row_mismatch(got: list, want: list) -> str:
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            gs, ws = g.split(","), w.split(",")
            if len(gs) != len(ws):
                return f"row {i + 1}: {len(gs)} entries, expected {len(ws)}"
            j = next(j for j in range(len(ws)) if gs[j] != ws[j])
            return f"entry ({i + 1},{j + 1}): got {gs[j]}, expected {ws[j]}"
    return ""


def check_mobius_general(P: Poset, rows: list, seed: str) -> str:
    """Exact support and diagonal, then Freivalds checks of mu*zeta = I and
    zeta*mu = I with zeta taken from breadth-first reachability."""
    if len(rows) != P.n:
        return f"{len(rows)} rows, expected {P.n}"
    try:
        mu = [[int(v) for v in row.split(",")] for row in rows]
    except ValueError as e:
        return f"non-integer entry: {e}"
    reach = P.reach()
    down = [[] for _ in range(P.n)]
    for x in range(P.n):
        if len(mu[x]) != P.n:
            return f"row {x + 1}: {len(mu[x])} entries, expected {P.n}"
        if mu[x][x] != 1:
            return f"entry ({x + 1},{x + 1}) is {mu[x][x]}, expected 1"
        for y in range(P.n):
            if mu[x][y] and y not in reach[x]:
                return f"entry ({x + 1},{y + 1}) is nonzero on an incomparable pair"
        for y in reach[x]:
            down[y].append(x)
    rng = random.Random(seed)
    for _ in range(2):
        v = [rng.getrandbits(61) for _ in range(P.n)]
        zv = [sum(v[y] for y in reach[z]) for z in range(P.n)]
        if any(sum(m * w for m, w in zip(mu[x], zv)) != v[x] for x in range(P.n)):
            return "mu * zeta differs from the identity"
        vm = [sum(v[x] * mu[x][y] for x in range(P.n)) for y in range(P.n)]
        if any(sum(vm[z] for z in down[y]) != v[y] for y in range(P.n)):
            return "zeta * mu differs from the identity"
    return ""


# -- per-kind expectations ------------------------------------------------------

class Oracle:
    """Verifies job outputs against inputs found in `base`, caching parsed
    posets across jobs."""

    def __init__(self, base: Path):
        self.base = Path(base)
        self._posets = {}
        self._passed = {}  # job id -> digest of an output that passed

    def poset(self, name: str) -> Poset:
        if name not in self._posets:
            obj = json.loads((self.base / name).read_text(encoding="utf-8"))
            self._posets[name] = Poset(obj)
        return self._posets[name]

    def verify(self, job: dict, code: int, stdout: bytes, stderr: bytes,
               output: bytes) -> str | None:
        """Failure reason for one run of `job`, or None when it passed.

        `output` is what the job wrote: the -o file for jobs that have one,
        else stdout."""
        if b"Traceback (most recent call last)" in stderr:
            return "traceback on stderr"
        if code != 0:
            return f"exit code {code}"
        digest = hashlib.sha256(output).digest()
        if self._passed.get(job["id"]) == digest:
            return None
        try:
            why = self._check(job["expect"], output.decode("utf-8"))
        except (ValueError, KeyError, IndexError, TypeError) as e:
            why = f"unreadable output: {type(e).__name__}: {e}"
        if not why:
            self._passed[job["id"]] = digest
        return why or None

    def _check(self, exp: dict, text: str) -> str:
        kind = exp["kind"]
        if kind == "matrix":
            P = self.poset(exp["poset"])
            rows = text.splitlines()
            if exp["of"] == "mobius" and not P.is_cobweb:
                return check_mobius_general(P, rows, exp["poset"])
            return _first_row_mismatch(rows, expected_matrix_rows(P, exp["of"]))
        if kind == "check":
            lines = text.splitlines()
            if not lines:
                return "check printed nothing"
            for ln in lines:
                if not (ln.startswith("PASS ") or
                        (not ln.startswith("FAIL") and "skip" in ln.lower())):
                    return f"check line not passed: {ln!r}"
            return ""
        if kind == "gen":
            return "" if json.loads(text) == self._gen_expected(exp) else \
                "generated poset differs from the expected one"
        P = self.poset(exp["poset"]) if "poset" in exp else None
        if kind == "chains_count":
            want = sum(P.chains_to(y)[x]
                       for y in range(P.off[exp["to"] - 1], P.off[exp["to"]])
                       for x in range(P.off[exp["from"] - 1], P.off[exp["from"]]))
            return _same(text.strip(), str(want))
        if kind == "chains_interval":
            x, y = exp["x"] - 1, exp["y"] - 1
            want = P.chains_to(y)[x] if P.level[x] < P.level[y] else int(x == y)
            return _same(text.strip(), str(want))
        if kind == "chains_list":
            got = json.loads(text)
            return "" if got == P.layer_chains(exp["from"], exp["to"]) else \
                "chain listing differs from depth-first enumeration"
        if kind == "dot":
            return _check_dot(P, text)
        if kind == "lascala":
            reach = P.reach()
            want = "".join(" ".join("1" if y in reach[x] else ("." if y > x else " ")
                                    for y in range(P.n)) + "\n" for x in range(P.n))
            return _same(text, want)
        if kind in ("whitney", "charpoly"):
            S = P.sizes
            w = [S[r] * (-1) ** r * _product(v - 1 for v in S[1:r]) for r in range(len(S))]
            if kind == "charpoly":
                return _same(json.loads(text), w)
            got = [[int(t) for t in ln.split()] for ln in text.splitlines()]
            return _same(got, [[r, w[r], S[r]] for r in range(len(S))])
        need = max(exp.get(key, 0) for key in ("n", "s", "up_to"))
        F = seq_values(exp["seq"], need, self.base)
        if kind == "fnomial":
            v = fnomial(F, exp["n"], exp["k"])
            want = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            return _same(text.strip(), want)
        if kind == "kroton":
            return _same(text.strip(), str(kroton(F, exp["r"], exp["s"])))
        if kind == "coding":
            n = exp["n"]
            want = "".join(",".join(str(0 if s < r else 1 if s == r else
                                        (-1) ** (s - r) * kroton(F, r, s))
                                    for s in range(1, n + 1)) + "\n"
                           for r in range(1, n + 1))
            return _same(text, want)
        if kind == "admissible":
            want = "admissible"
            for n in range(exp["up_to"] + 1):
                bad = [k for k in range(n + 1) if fnomial(F, n, k).denominator != 1]
                if bad:
                    want = f"first_failure({n},{bad[0]})"
                    break
            return _same(text.strip(), want)
        raise ValueError(f"unknown expectation kind {kind!r}")

    def _gen_expected(self, exp: dict) -> dict:
        if "poset" in exp:
            return json.loads((self.base / exp["poset"]).read_text(encoding="utf-8"))
        sizes = seq_values(exp["seq"], exp["levels"], self.base)
        if exp["root"]:
            sizes = [1] + sizes
        return cobweb_dict(sizes, exp["seq"])


def _same(got, want) -> str:
    return "" if got == want else f"got {str(got)[:80]!r}, expected {str(want)[:80]!r}"


def _check_dot(P: Poset, text: str) -> str:
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or not lines[0].startswith("digraph") or lines[-1] != "}":
        return "not a DOT digraph"
    groups, arcs = [], set()
    for ln in lines[1:-1]:
        if ln.startswith("{ rank=same;"):
            groups.append(set(ln[len("{ rank=same;"):-1].replace(";", " ").split()))
        elif "->" in ln:
            arcs.add(tuple(t.strip(" ;") for t in ln.split("->")))
    name = lambda x: f"v{P.level[x] + 1}_{x - P.off[P.level[x]] + 1}"
    want_groups = [{name(x) for x in range(P.off[lv], P.off[lv + 1])}
                   for lv in range(len(P.sizes))]
    if groups != want_groups:
        return "rank groups differ from the levels"
    if arcs != {(name(x), name(z)) for x in range(P.n) for z in P.up[x]}:
        return "arcs differ from the cover relation"
    return ""
