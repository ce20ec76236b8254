"""The four benchmark workloads: seeded inputs, the timed operation, the check.

Each workload runs in cycles. A cycle is a fixed multiset of input shapes
(cell bands, diagram sizes, command kinds) in a seeded order with seeded
contents, so every run of the same length does the same mix of work and
only the random details change with the seed. Cycle ``i`` of seed ``s``
depends on nothing else, so a later phase can replay exactly the inputs
an earlier phase ran.

The operation calls the program only through module attributes
(``families.census``, ``invariants.report``...), so the tracer's wrappers
see every call. Checks run after the timer stops and compare against
``oracle``, which never calls the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import contactsurg.cli as cli
from contactsurg import diagram, families, invariants, lens

import oracle

OK, WRONG, ERROR = "ok", "wrong", "error"


def cycle_rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{cycle}")


def _band_pick(workload: str, seed: int, band: int, cycle: int, values: list):
    """One value of a band per cycle, cycling through the band in a balanced order.

    Bands list their values from cheap to dear. The order alternates the
    two ends (0, n-1, 1, n-2, ...) from a seeded starting point, so any
    run of consecutive cycles costs close to the band's average and the
    cost of a run's tail does not depend on which values came up twice.
    """
    n = len(values)
    order = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    start = random.Random(f"{workload}/{seed}/band{band}").randrange(n)
    return values[order[(start + cycle) % n]]


# --------------------------------------------------------------------------
# census
# --------------------------------------------------------------------------

CENSUS_GRID = [(n, s) for n in range(2, 7) for s in range(2, 7)]
CENSUS_TAIL_BANDS = [
    [(n, 3) for n in range(8, 13)],              # many rows, small M
    [(3, s) for s in range(7, 12)],              # few rows, larger M
    [(4, 7), (5, 7), (6, 7), (4, 8), (5, 8)],    # both
    [(2, s) for s in range(16, 21)],             # largest M (s + 4 = 20..24)
]


@lru_cache(maxsize=None)
def census_expected(n: int, s: int) -> dict:
    """Rows, count and labels of the census, from the oracle alone.

    Exceptional rows share one linking matrix, so all of them are solved
    in one batch. Each closed-form Euler residue is certified against the
    benchmark's own algebra: rot == residue * [meridian of L] in H1.
    """
    order = oracle.family_order(n, s)
    rows = [("standard", (rot,), oracle.standard_d3(n, s, rot), rot % order)
            for rot in oracle.standard_rots(n, s)]
    cells = list(oracle.family_cells(n, s))
    specs = [oracle.promote(oracle.exceptional_spec(n, s, *c)) for c in cells]
    m = oracle.linking_matrix(specs[0])
    if any(oracle.linking_matrix(sp) != m for sp in specs):
        raise oracle.OracleError("exceptional diagrams of one cell differ in M")
    forms = [oracle.exceptional_closed_forms(n, s, *c) for c in cells]
    size = len(m)
    e0 = [1] + [0] * (size - 1)
    shifted = [[r - f["euler"] * e for r, e in zip(sp["rot"], e0)]
               for sp, f in zip(specs, forms)]
    d, cols = oracle.solve_scaled(m, [sp["rot"] for sp in specs] + shifted + [e0])
    if abs(d) != order or abs(d) // gcd(abs(d), *cols[-1]) != order:
        raise oracle.OracleError(f"H1 of cell ({n}, {s}) is not generated by L's meridian")
    sigma = oracle.signature(m)
    for i, (c, sp, f) in enumerate(zip(cells, specs, forms)):
        if any(x % d for x in cols[len(specs) + i]):
            raise oracle.OracleError(f"closed-form Euler residue fails for {c}")
        c2 = Fraction(sum(x * r for x, r in zip(cols[i], sp["rot"])), d)
        rows.append(("exceptional", c, oracle.d3_from(c2, sigma, 1 + size, 2), f["euler"]))
    return {"order": order, "rows": rows, "count": oracle.giroux_honda(order, s * s)}


class Census:
    name = "census"
    tail_pct = 90.0

    def cycle(self, seed: int, idx: int):
        ops = list(CENSUS_GRID)
        ops += [_band_pick(self.name, seed, b, idx, band)
                for b, band in enumerate(CENSUS_TAIL_BANDS)]
        cycle_rng(self.name, seed, idx).shuffle(ops)
        return ops, []

    def warmup_input(self):
        return (2, 2)

    def op(self, inp):
        n, s = inp
        c = families.census(n, s)
        return c, c.problems(), families.distinctness_bounds(n, s)

    def check(self, inp, out):
        n, s = inp
        c, problems, bounds = out
        try:
            want = census_expected(n, s)
        except oracle.OracleError as exc:
            return WRONG, str(exc)
        if problems:
            return WRONG, f"problems() = {problems}"
        if not bounds.all_pass():
            return WRONG, "distinctness bounds fail"
        if (c.lens.p, c.lens.q) != (want["order"], s * s):
            return WRONG, f"lens {c.lens}"
        if c.expected_count != want["count"]:
            return WRONG, f"count {c.expected_count} != {want['count']}"
        got = [("standard", (r.rot,), r.d3, r.residue) for r in c.standard]
        got += [("exceptional", (r.params.k, r.params.l, r.params.p_stab, r.params.q_stab),
                 r.d3, r.residue) for r in c.exceptional]
        if got != want["rows"]:
            bad = next(g for g, w in zip(got + [None], want["rows"] + [None]) if g != w)
            return WRONG, f"row {bad}"
        return OK, ""


# --------------------------------------------------------------------------
# diagrams
# --------------------------------------------------------------------------

DIAGRAM_SIZES = (list(range(6, 16)) * 2          # small
                 + list(range(16, 28))           # medium
                 + [28, 33, 38, 44])             # tail
# Fixed share of refusal inputs: (size, kind) slots replacing a generic one.
DIAGRAM_SPECIAL = {(9, 1): "singular", (20, 0): "singular", (12, 1): "tb0"}


def _rot_for(rng: random.Random, tb: int) -> int:
    choices = list(range(tb + 1, -tb, 2))
    return rng.choice(choices) if choices else rng.choice((-1, 1))


def random_spec(rng: random.Random, n: int, kind: str = "generic") -> dict:
    """A generic diagram with a knot; ``kind`` plants a refusal.

    'singular' makes two components' rows of M equal; 'tb0' makes one
    (+1)-component have tb = 0. Other diagrams are redrawn until det M != 0.
    """
    while True:
        coeff = [rng.choice((1, -1, -1)) for _ in range(n)]
        tb = [rng.randint(-5, -1) for _ in range(n)]
        lk = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lk[i][j] = lk[j][i] = rng.randint(-2, 2)
        if kind == "singular":
            i, j = rng.sample(range(n), 2)
            v = rng.randint(-2, 2)
            lk[i][j] = lk[j][i] = v
            for c in (i, j):
                coeff[c] = -1
                tb[c] = v + 1
            for k in range(n):
                if k not in (i, j):
                    lk[j][k] = lk[k][j] = lk[i][k]
        elif kind == "tb0":
            c = rng.randrange(n)
            coeff[c], tb[c] = 1, 0
        rot = [_rot_for(rng, t) for t in tb]
        tb0 = rng.randint(-6, -1)
        knot = {"tb0": tb0, "rot0": _rot_for(rng, tb0),
                "lk": [rng.randint(-2, 2) for _ in range(n)]}
        spec = {"ids": [f"c{i}" for i in range(n)], "tb": tb, "rot": rot,
                "coeff": coeff, "lk": lk, "knot": knot}
        if (oracle.det(oracle.linking_matrix(spec)) == 0) == (kind == "singular"):
            return spec


def spec_to_json(spec: dict) -> dict:
    ids = spec["ids"]
    obj = {"components": [{"id": i, "tb": t, "rot": r, "coeff": c} for i, t, r, c
                          in zip(ids, spec["tb"], spec["rot"], spec["coeff"])],
           "linking": [{"a": ids[i], "b": ids[j], "lk": spec["lk"][i][j]}
                       for i in range(len(ids)) for j in range(i + 1, len(ids))]}
    if spec.get("knot"):
        k = spec["knot"]
        obj["knot"] = {"id": "L", "tb0": k["tb0"], "rot0": k["rot0"],
                       "lk": dict(zip(ids, k["lk"]))}
    return obj


def check_report(spec: dict, rep, facts: dict | None = None) -> tuple[str, str]:
    """Compare an InvariantReport-shaped record with the oracle's facts.

    ``rep`` needs chi, sigma, det_m, q_plus, c_squared, d3, h1,
    euler_class, euler_residue, euler_generator and problems.
    """
    f = facts or oracle.diagram_facts(spec)
    n = f["n"]
    if (rep.chi, rep.det_m, rep.q_plus) != (f["chi"], f["det"], f["q"]):
        return WRONG, f"chi/det/q {(rep.chi, rep.det_m, rep.q_plus)}"
    orders = tuple(rep.h1)
    if any(b % a for a, b in zip(orders, orders[1:]) if a):
        return WRONG, f"H1 orders {orders} break the divisibility chain"
    if len(rep.euler_class) != len(orders) or any(
            o and not 0 <= x < o for x, o in zip(rep.euler_class, orders)):
        return WRONG, f"euler class {rep.euler_class} outside H1 {orders}"
    if f["det"] == 0:
        r = f["rank"]
        if abs(rep.sigma) > r or (rep.sigma - r) % 2:
            return WRONG, f"sigma {rep.sigma} with rank {r}"
        if 0 not in orders or rep.c_squared is not None or rep.d3 is not None \
                or not rep.problems:
            return WRONG, "singular M not refused"
        return OK, ""
    if rep.sigma != f["sigma"] or (rep.sigma - n) % 2 or abs(rep.sigma) > n:
        return WRONG, f"sigma {rep.sigma} != {f['sigma']}"
    if prod(orders) != abs(f["det"]):
        return WRONG, f"prod H1 {orders} != |det| {abs(f['det'])}"
    if all(x == 0 for x in rep.euler_class) != f["rot_in_image"]:
        return WRONG, "euler class zero-ness disagrees with M^-1 rot integrality"
    if rep.c_squared != f["c2"]:
        return WRONG, f"c2 {rep.c_squared} != {f['c2']}"
    if f["tb0_blocked"]:
        if rep.d3 is not None or not rep.problems:
            return WRONG, "tb = 0 (+1)-component not refused"
    elif rep.d3 != oracle.d3_from(f["c2"], f["sigma"], f["chi"], f["q"]) or rep.problems:
        return WRONG, f"d3 {rep.d3}"
    if not orders:
        if rep.euler_residue not in (0, None):
            return WRONG, f"residue {rep.euler_residue} on trivial H1"
    elif rep.euler_residue is not None:
        if len(orders) != 1:
            return WRONG, f"residue on non-cyclic H1 {orders}"
        g = spec["ids"].index(rep.euler_generator)
        if not oracle.residue_holds(spec, rep.euler_residue, g, orders[0]):
            return WRONG, f"rot != {rep.euler_residue} * meridian({rep.euler_generator})"
    return OK, ""


def check_knot(f: dict, tb, rot) -> tuple[str, str]:
    if f["det"] == 0:
        return OK, ""
    if (tb, rot) != (f["tb_L"], f["rot_L"]):
        return WRONG, f"tb/rot(L) {(tb, rot)} != {(f['tb_L'], f['rot_L'])}"
    return OK, ""


class Diagrams:
    name = "diagrams"
    tail_pct = 90.0

    def cycle(self, seed: int, idx: int):
        rng = cycle_rng(self.name, seed, idx)
        seen: dict[int, int] = {}
        slots = []
        for n in DIAGRAM_SIZES:
            kind = DIAGRAM_SPECIAL.get((n, seen.get(n, 0)), "generic")
            seen[n] = seen.get(n, 0) + 1
            slots.append((n, kind))
        rng.shuffle(slots)
        ops = []
        for n, kind in slots:
            spec = random_spec(rng, n, kind)
            ops.append((json.dumps(spec_to_json(spec)), spec, kind))
        return ops, []

    def warmup_input(self):
        spec = random_spec(random.Random("warmup"), 6)
        return json.dumps(spec_to_json(spec)), spec, "generic"

    def op(self, inp):
        d = diagram.diagram_from_json(json.loads(inp[0]))
        violations = diagram.validate(d)
        if any(v.fatal for v in violations):
            return violations, None, None
        rep = invariants.report(d)
        knot = []
        for fn in (invariants.tb_surgered, invariants.rot_surgered):
            try:
                knot.append(fn(d))
            except invariants.NonTorsionEulerClassError as exc:
                knot.append(exc)
        return violations, rep, knot

    def check(self, inp, out):
        _, spec, _ = inp
        violations, rep, knot = out
        if rep is None:
            return WRONG, f"valid diagram rejected: {violations[0]}"
        f = oracle.diagram_facts(spec)
        status = check_report(spec, rep, f)
        if status[0] != OK:
            return status
        refused = [isinstance(k, Exception) for k in knot]
        if refused != [f["det"] == 0] * 2:
            return WRONG, f"knot refusals {refused} with det {f['det']}"
        return check_knot(f, *knot)


# --------------------------------------------------------------------------
# lens
# --------------------------------------------------------------------------

LENS_P_MAX = 10_000
LENS_CYCLE = 400


def _van_der_corput(i: int) -> float:
    x, scale = 0.0, 0.5
    while i:
        x += scale * (i & 1)
        i >>= 1
        scale /= 2
    return x


class Lens:
    name = "lens"
    tail_pct = 99.0

    def cycle(self, seed: int, idx: int):
        """Stratified draw: each cycle covers every p-stratum and q/p-stratum once.

        The offset of q/p inside its stratum follows a van der Corput
        sequence over the cycles (from a seeded start), so the few ops with
        q nearest p, which set the tail, spread evenly over the run instead
        of by luck.
        """
        rng = cycle_rng(self.name, seed, idx)
        ps, us = list(range(LENS_CYCLE)), list(range(LENS_CYCLE))
        rng.shuffle(ps)
        rng.shuffle(us)
        offset = (_van_der_corput(idx) + random.Random(f"{self.name}/{seed}").random()) % 1.0
        ops = []
        for a, b in zip(ps, us):
            p = 3 + int((a + rng.random()) / LENS_CYCLE * (LENS_P_MAX - 3))
            q = min(p - 1, max(1, int((b + offset) / LENS_CYCLE * p)))
            while gcd(p, q) != 1:
                q -= 1
            ops.append((p, q))
        return ops, []

    def warmup_input(self):
        return (7, 4)

    def op(self, inp):
        space = lens.LensSpace(*inp)
        expansion = lens.neg_contfrac(space)
        value = lens.eval_neg_contfrac(expansion.terms)
        return expansion.terms, value, lens.tight_count(space)

    def check(self, inp, out):
        p, q = inp
        terms, value, count = out
        if not terms or min(terms) < 2:
            return WRONG, f"term below 2 in {terms[:8]}"
        if oracle.convergent(list(terms)) != (p, q):
            return WRONG, "terms do not evaluate to p/q"
        if (value.numerator, value.denominator) != (p, q):
            return WRONG, f"eval {value} != {p}/{q}"
        if count != oracle.giroux_honda(p, q):
            return WRONG, f"tight count {count}"
        return OK, ""


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

EXIT_DOCUMENTED = {0, 2, 3, 4, 5}
CLI_MIX = (["invariants"] * 4 + ["invariants-json"] * 3 + ["knot"] * 3
           + ["family"] * 2 + ["census"] * 2 + ["contfrac"] * 2 + ["tight-count"] * 2
           + ["bad-field", "bad-pair", "bad-json", "singular", "tb0", "no-knot"])
# Component counts of the ten valid diagram files of a cycle, and the small
# census cells the census commands cycle through.
CLI_SIZES = [4, 5, 6, 8, 9, 10, 12, 13, 14, 16]
CLI_CENSUS = [(n, s) for n in range(2, 5) for s in range(2, 5)]
# Hostile inputs that end in a traceback today. They run every cycle as
# probes; their outcome is reported apart from the op mix (see README).
CLI_HOSTILE = ["non-utf8", "big-int", "deep-json"]


def _coprime_pair(rng: random.Random, pmax: int) -> tuple[int, int]:
    p = rng.randint(3, pmax)
    q = rng.randint(1, p - 1)
    while gcd(p, q) != 1:
        q -= 1
    return p, q


def _kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _h1_from_text(text: str) -> tuple[int, ...]:
    if text == "trivial":
        return ()
    return tuple(0 if t == "Z" else int(t[2:]) for t in text.split(" x "))


class _Rep:
    """InvariantReport-shaped record rebuilt from CLI output."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def _rep_from_text(out: str) -> _Rep:
    kv = _kv(out)
    residue = generator = None
    if "euler residue" in kv:
        r, _, rest = kv["euler residue"].partition(" (generator: meridian of ")
        residue, generator = int(r), rest.rstrip(")")
    coords = kv["euler class"].strip("()")
    return _Rep(chi=int(kv["chi"]), sigma=int(kv["sigma"]), det_m=int(kv["det M"]),
                q_plus=int(kv["q"]),
                c_squared=Fraction(kv["c2"]) if "c2" in kv else None,
                d3=Fraction(kv["d3"]) if "d3" in kv else None,
                h1=_h1_from_text(kv["H1"]),
                euler_class=tuple(int(x) for x in coords.split(", ")) if coords else (),
                euler_residue=residue, euler_generator=generator, problems=())


def _rep_from_json(out: str) -> _Rep:
    obj = json.loads(out)
    frac = {k: None if obj[k] is None else Fraction(obj[k]) for k in ("c_squared", "d3")}
    return _Rep(chi=obj["chi"], sigma=obj["sigma"], det_m=obj["det_m"], q_plus=obj["q_plus"],
                h1=tuple(obj["h1"]), euler_class=tuple(obj["euler_class"]),
                euler_residue=obj["euler_residue"], euler_generator=obj["euler_generator"],
                problems=tuple(obj["problems"]), **frac)


def _spec_from_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    ids = [c["id"] for c in obj["components"]]
    pos = {c: i for i, c in enumerate(ids)}
    lk = [[0] * len(ids) for _ in ids]
    for e in obj["linking"]:
        lk[pos[e["a"]]][pos[e["b"]]] = lk[pos[e["b"]]][pos[e["a"]]] = e["lk"]
    k = obj["knot"]
    return {"ids": ids, "tb": [c["tb"] for c in obj["components"]],
            "rot": [c["rot"] for c in obj["components"]],
            "coeff": [c["coeff"] for c in obj["components"]], "lk": lk,
            "knot": {"tb0": k["tb0"], "rot0": k["rot0"], "lk": [k["lk"][i] for i in ids]}}


class Cli:
    """One ``python -m contactsurg.cli`` process per op.

    ``in_process`` switches the op to calling ``cli.main(argv)`` directly;
    the traced run uses it so the tracer sees the layers below main.
    """

    name = "cli"
    tail_pct = 90.0

    def __init__(self, workdir: str, in_process: bool = False):
        self.workdir = workdir
        self.in_process = in_process

    def _write(self, name: str, data) -> str:
        path = os.path.join(self.workdir, name)
        mode = "wb" if isinstance(data, bytes) else "w"
        with open(path, mode) as fh:
            fh.write(data)
        return path

    def _diagram_file(self, rng, name: str, kind: str = "generic", knot: bool = True,
                      size: int | None = None):
        spec = random_spec(rng, size or rng.randint(4, 16), kind)
        if not knot:
            spec["knot"] = None
        return self._write(name, json.dumps(spec_to_json(spec), indent=1)), spec

    def _make(self, rng, kind: str, tag: str, size=None, cell=None):
        """Return (argv, expected exit code, check context)."""
        fname = f"{tag}.json"
        if kind in ("invariants", "invariants-json", "knot"):
            path, spec = self._diagram_file(rng, fname, size=size)
            argv = ["knot", path] if kind == "knot" else ["invariants", path]
            if kind == "invariants-json":
                argv += ["--format", "json"]
            return argv, 0, (kind, spec)
        if kind == "family":
            n, s = rng.randint(2, 6), rng.randint(2, 6)
            k, qs = rng.randrange(n - 1), rng.randint(1, s - 1)
            cell = (k, n - 2 - k, s - 1 - qs, qs)
            path = os.path.join(self.workdir, fname)
            argv = ["family", "--n", str(n), "--s", str(s), "--k", str(cell[0]),
                    "--l", str(cell[1]), "--pstab", str(cell[2]), "--qstab", str(cell[3]),
                    "--emit", path]
            return argv, 0, (kind, (n, s, cell, path))
        if kind == "census":
            n, s = cell
            return ["census", "--n", str(n), "--s", str(s)], 0, (kind, (n, s))
        if kind in ("contfrac", "tight-count"):
            p, q = _coprime_pair(rng, LENS_P_MAX)
            return [kind, str(p), str(q)], 0, (kind, (p, q))
        if kind in ("singular", "tb0"):
            path, _ = self._diagram_file(rng, fname, kind)
            return ["invariants", path], 3, (kind, None)
        if kind == "no-knot":
            path, _ = self._diagram_file(rng, fname, knot=False)
            return ["knot", path], 4, (kind, None)
        obj = spec_to_json(random_spec(rng, rng.randint(4, 8)))
        if kind == "bad-field":
            obj["components"][0]["color"] = "red"
            text = json.dumps(obj)
        elif kind == "bad-pair":
            obj["linking"].append(dict(obj["linking"][0]))
            text = json.dumps(obj)
        elif kind == "bad-json":
            text = json.dumps(obj)[:-2]
        elif kind == "non-utf8":
            text = json.dumps(obj).encode()[:40] + bytes([0xFF, 0xFE]) + b"]}"
        elif kind == "big-int":
            obj["components"][0]["tb"] = 0
            text = json.dumps(obj).replace('"tb": 0', '"tb": 7' + "3" * 4400, 1)
        elif kind == "deep-json":
            depth = 20000 + rng.randrange(1000)
            text = '{"components": ' + "[" * depth + "]" * depth + ', "linking": []}'
        else:
            raise ValueError(kind)
        return ["invariants", self._write(fname, text)], 2, (kind, None)

    def cycle(self, seed: int, idx: int):
        rng = cycle_rng(self.name, seed, idx)
        kinds = list(CLI_MIX)
        rng.shuffle(kinds)
        sizes = list(CLI_SIZES)
        rng.shuffle(sizes)
        cells = [_band_pick(self.name, seed, 0, 2 * idx + j, CLI_CENSUS) for j in range(2)]
        ops = []
        for i, k in enumerate(kinds):
            size = sizes.pop() if k in ("invariants", "invariants-json", "knot") else None
            cell = cells.pop() if k == "census" else None
            ops.append(self._make(rng, k, f"c{idx}_{i}", size, cell))
        probes = [self._make(rng, k, f"c{idx}_h{i}") for i, k in enumerate(CLI_HOSTILE)]
        return ops, probes

    def warmup_input(self):
        return ["contfrac", "7", "4"], 0, ("contfrac", (7, 4))

    def op(self, inp):
        argv = inp[0]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback: the process would exit 1
                    code, err = 1, io.StringIO(f"Traceback\n{type(exc).__name__}: {exc}")
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "contactsurg.cli", *argv],
                              capture_output=True, text=True,
                              errors="replace", timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inp, out):
        _, expected_code, (kind, ctx) = inp
        code, stdout, stderr = out
        if code != expected_code:
            status = ERROR if code not in EXIT_DOCUMENTED or "Traceback" in stderr else WRONG
            return status, f"{kind}: exit {code}, expected {expected_code}"
        if code:
            return OK, ""
        try:
            return self._check_output(kind, ctx, stdout)
        except (KeyError, ValueError, IndexError, oracle.OracleError) as exc:
            return WRONG, f"{kind}: {exc!r}"

    def _check_output(self, kind, ctx, stdout):
        if kind in ("invariants", "invariants-json"):
            rep = _rep_from_text(stdout) if kind == "invariants" else _rep_from_json(stdout)
            return check_report(ctx, rep)
        if kind == "knot":
            kv = _kv(stdout)
            return check_knot(oracle.diagram_facts(ctx), Fraction(kv["tb"]), Fraction(kv["rot"]))
        if kind == "family":
            n, s, cell, path = ctx
            f = oracle.exceptional_closed_forms(n, s, *cell)
            kv = _kv(stdout)
            got = (kv["lens space"], int(kv["tb"]), int(kv["c2"]), Fraction(kv["d3"]),
                   int(kv["euler"]))
            want = (f"L({oracle.family_order(n, s)},{s * s})", f["tb"], f["c2"],
                    f["d3_sphere"], f["euler"])
            if got != want:
                return WRONG, f"family {got} != {want}"
            spec = _spec_from_file(path)
            if spec != oracle.exceptional_spec(n, s, *cell):
                return WRONG, "emitted diagram differs from the paper's"
            facts = oracle.diagram_facts(spec)
            if (facts["tb_L"], facts["c2"]) != (f["tb"], f["c2"]):
                return WRONG, "emitted diagram disagrees with the closed forms"
            return OK, ""
        if kind == "census":
            n, s = ctx
            want = census_expected(n, s)
            lines = stdout.splitlines()
            got = []
            for line in lines[2:-1]:
                source, *params, d3, residue = line.split()
                vals = tuple(int(p.split("=")[1]) for p in params)
                if source == "standard":
                    if vals[0] != -s * (s * n - 1):
                        return WRONG, f"standard tb {vals[0]}"
                    vals = vals[1:]
                got.append((source, vals, Fraction(d3), int(residue)))
            if got != want["rows"] or lines[-1] != f"census ok: {want['count']} distinct classes":
                return WRONG, f"census ({n}, {s}) output differs"
            return OK, ""
        p, q = ctx
        if kind == "contfrac":
            want = f"{p}/{q} = [{', '.join(map(str, oracle.neg_contfrac(p, q)))}]"
            return (OK, "") if stdout.strip() == want else (WRONG, "contfrac output")
        return (OK, "") if int(stdout) == oracle.giroux_honda(p, q) else (WRONG, "tight-count")


def get(name: str, workdir: str = "", in_process: bool = False):
    if name == "cli":
        return Cli(workdir, in_process)
    return {"census": Census, "diagrams": Diagrams, "lens": Lens}[name]()


NAMES = ("census", "diagrams", "cli", "lens")
