"""Tests of the benchmark itself: determinism, its checker, short runs.

    python3 -m pytest bench/test_bench.py -q      (or: python3 -m unittest bench/test_bench.py)
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from contactsurg import invariants  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_build", "test")


def _workdir(name: str) -> str:
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _cli_cycle_bytes(workdir: str, seed: int) -> list:
    """The argv of a cli cycle with its input files' bytes, path-independent."""
    ops, probes = workloads.Cli(workdir).cycle(seed, 0)
    out = []
    for argv, code, _ in ops + probes:
        files = [open(a, "rb").read() for a in argv if a.startswith(workdir) and os.path.exists(a)]
        out.append(([a.replace(workdir, "") for a in argv], code, files))
    return out


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in ("census", "diagrams", "lens"):
            wl = workloads.get(name)
            for idx in (0, 3):
                a, b = wl.cycle(7, idx), wl.cycle(7, idx)
                self.assertEqual(json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True))
            self.assertNotEqual(json.dumps(wl.cycle(7, 0)), json.dumps(wl.cycle(8, 0)), name)
        first = _cli_cycle_bytes(_workdir("a"), 7)
        self.assertEqual(first, _cli_cycle_bytes(_workdir("b"), 7))
        self.assertNotEqual(first, _cli_cycle_bytes(_workdir("c"), 8))

    def test_same_seed_same_traced_counts(self):
        def counts(name, n_ops):
            wl = workloads.get(name, _workdir(name), in_process=True)
            ops, _ = wl.cycle(3, 0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                for inp in ops[:n_ops]:
                    tracer.begin_op()
                    wl.op(inp)
                    tracer.end_op()
            finally:
                tracer.uninstall()
            return dict(tracer.calls), tracer.metrics()["exactla.unique_matrix_frac"]

        for name, n_ops in (("census", 6), ("diagrams", 8), ("lens", 200), ("cli", 10)):
            self.assertEqual(counts(name, n_ops), counts(name, n_ops), name)

    def test_tracer_restores_every_binding(self):
        from contactsurg import cli, families, invariants as inv
        before = (inv.linking_matrix, families.tight_count, cli.census,
                  families.TightStructureCensus.problems)
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(inv.linking_matrix, before[0])
        self.assertIsNot(cli.census, before[2])
        tracer.uninstall()
        self.assertEqual(before, (inv.linking_matrix, families.tight_count, cli.census,
                                  families.TightStructureCensus.problems))


class Oracle(unittest.TestCase):
    def test_worked_example(self):
        spec = workloads._spec_from_file(os.path.join(ROOT, "fixtures", "fig2.json"))
        f = oracle.diagram_facts(spec)
        self.assertEqual((f["det"], f["sigma"], f["c2"]), (-1, -1, 7))
        self.assertEqual(oracle.d3_from(f["c2"], f["sigma"], f["chi"], f["q"]), Fraction(3, 2))
        self.assertEqual(f["tb_L"], -6)

    def test_lens(self):
        self.assertEqual(oracle.neg_contfrac(7, 4), [2, 4])
        self.assertEqual(oracle.convergent([2, 4]), (7, 4))
        self.assertEqual(oracle.giroux_honda(7, 4), 3)


class CheckerCatchesPlantedErrors(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.get("diagrams")
        ops, _ = self.wl.cycle(5, 0)
        self.inp = next(i for i in ops if i[2] == "generic" and len(i[1]["ids"]) <= 10)
        self.out = self.wl.op(self.inp)
        self.assertEqual(self.wl.check(self.inp, self.out), (workloads.OK, ""))

    def _planted(self, **changes):
        violations, rep, knot = self.out
        return violations, dataclasses.replace(rep, **changes), knot

    def test_d3_off_by_a_quarter(self):
        bad = self._planted(d3=self.out[1].d3 + Fraction(1, 4))
        self.assertEqual(self.wl.check(self.inp, bad)[0], workloads.WRONG)

    def test_wrong_h1_order(self):
        h1 = self.out[1].h1
        bad = self._planted(h1=h1[:-1] + (h1[-1] * 2,) if h1 else (2,),
                            euler_class=self.out[1].euler_class or (0,))
        self.assertEqual(self.wl.check(self.inp, bad)[0], workloads.WRONG)

    def test_wrong_knot_rot(self):
        violations, rep, (tb, rot) = self.out
        bad = (violations, rep, (tb, rot + 1))
        self.assertEqual(self.wl.check(self.inp, bad)[0], workloads.WRONG)

    def test_census_row_off(self):
        wl = workloads.get("census")
        c, problems, bounds = wl.op((3, 3))
        self.assertEqual(wl.check((3, 3), (c, problems, bounds)), (workloads.OK, ""))
        row = c.exceptional[1]
        rows = list(c.exceptional)
        rows[1] = dataclasses.replace(row, d3=row.d3 + Fraction(1, 4))
        bad = dataclasses.replace(c, exceptional=tuple(rows))
        self.assertEqual(wl.check((3, 3), (bad, problems, bounds))[0], workloads.WRONG)
        rows[1] = dataclasses.replace(row, residue=row.residue + 1)
        bad = dataclasses.replace(c, exceptional=tuple(rows))
        self.assertEqual(wl.check((3, 3), (bad, problems, bounds))[0], workloads.WRONG)

    def test_lens_wrong_count(self):
        wl = workloads.get("lens")
        terms, value, count = wl.op((101, 37))
        self.assertEqual(wl.check((101, 37), (terms, value, count))[0], workloads.OK)
        self.assertEqual(wl.check((101, 37), (terms, value, count + 1))[0], workloads.WRONG)
        self.assertEqual(wl.check((101, 37), ((1,) + terms, value, count))[0], workloads.WRONG)

    def test_cli_wrong_output_and_crash(self):
        wl = workloads.get("cli", _workdir("planted"), in_process=True)
        inp = wl._make(__import__("random").Random(1), "invariants", "x")
        code, out, err = wl.op(inp)
        self.assertEqual(wl.check(inp, (code, out, err)), (workloads.OK, ""))
        kv = workloads._kv(out)
        planted = out.replace(f"d3 = {kv['d3']}", f"d3 = {Fraction(kv['d3']) + Fraction(1, 4)}")
        self.assertEqual(wl.check(inp, (code, planted, err))[0], workloads.WRONG)
        self.assertEqual(wl.check(inp, (1, "", "Traceback"))[0], workloads.ERROR)

    def test_refusals_are_expected(self):
        ops, _ = self.wl.cycle(5, 0)
        for inp in ops:
            if inp[2] != "generic" and len(inp[1]["ids"]) <= 12:
                out = self.wl.op(inp)
                self.assertEqual(self.wl.check(inp, out), (workloads.OK, ""), inp[2])
                self.assertTrue(out[1].problems)
                if inp[2] == "singular":
                    self.assertIsInstance(out[2][0], invariants.NonTorsionEulerClassError)


class ShortRuns(unittest.TestCase):
    def _run(self, cwd, *args):
        proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                              cwd=cwd, capture_output=True, text=True, timeout=170)
        return proc

    def test_every_workload_short(self):
        spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
        for name in workloads.NAMES:
            for trace in ("0", "1") if name == "lens" else ("0",):
                proc = self._run(ROOT, "--workload", name, "--seed", "1", "--seconds", "0.01",
                                 "--trace", trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                info, res = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                if name == "cli":  # the known crashers ran as probes
                    self.assertEqual(info["detail"]["hostile"], len(workloads.CLI_HOSTILE))
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                want = spec["per_layer" if trace == "1" else "end_to_end"]
                self.assertEqual(set(res["metrics"]), {m["name"] for m in want})
                for m in want:
                    self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])

    def test_refuses_without_sources(self):
        bare = _workdir("bare")
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = self._run(bare, "--workload", "lens", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
