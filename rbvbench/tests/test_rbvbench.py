"""Self-tests of the benchmark program.

    python3 -m unittest discover -s rbvbench/tests -v

They build rbvbench (as run.py does) and run it briefly on the two
fast workloads.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.BUILD / "selftest"


def bench(workload, trace, expected=run.EXPECTED, seed=3, seconds=1):
    proc = subprocess.run(
        [str(run.BUILD / "rbvbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--expected", str(expected)],
        capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1]), proc.stderr


def metric_lines(lines):
    """name -> (value, unit, note) from the [metric] lines."""
    out = {}
    for line in lines:
        m = re.match(r"\[metric\] (\S+) (\S+) (\S+) \((.*)\)$", line)
        if m:
            out[m[1]] = (float(m[2]), m[3], m[4])
    return out


def perturbed(match, edit):
    """A copy of expected.txt with the first line containing @p match
    rewritten by @p edit."""
    lines = run.EXPECTED.read_text().splitlines()
    i = next(i for i, l in enumerate(lines) if match in l)
    lines[i] = edit(lines[i])
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / "expected.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


class RbvbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(["rbvbench"])
        cls.e2e = bench("cluster-crash", 0)
        cls.layer = bench("serve-micromix", 1)

    def check_metrics(self, result, specs):
        code, lines, js, _ = result
        self.assertEqual(code, 0)
        self.assertTrue(js["correct"])
        self.assertGreaterEqual(js["attempted"], 1)
        self.assertEqual(js["failed"], 0)
        printed = metric_lines(lines)
        self.assertEqual(set(js["metrics"]), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(js["metrics"][m["name"]]["unit"], m["unit"])
            self.assertEqual(printed[m["name"]][1], m["unit"])
            self.assertTrue(math.isfinite(js["metrics"][m["name"]]["value"]))

    def test_every_metric_name_and_unit_prints(self):
        self.check_metrics(self.e2e, SPEC["end_to_end"])
        self.check_metrics(self.layer, SPEC["per_layer"])
        for m in SPEC["end_to_end"]:
            self.assertGreater(self.e2e[2]["metrics"][m["name"]]["value"], 0)

    def test_ratios_carry_their_bases(self):
        printed = metric_lines(self.layer[1])
        ratios = [n for n, (_, unit, _) in printed.items()
                  if unit in ("frac", "1/req")
                  and n not in ("trace_overhead_frac", "model.id_acc")]
        self.assertGreater(len(ratios), 10)
        for name in ratios:
            self.assertRegex(printed[name][2], r"base [0-9a-z_.e+]+[ ;]", name)
        self.assertIn("requests", printed)
        self.assertIn("model.lb_candidates_per_req", printed)

    def test_spans_sum_to_traced_wall_time(self):
        printed = metric_lines(self.layer[1])
        spans = {n: v for n, (v, _, note) in printed.items()
                 if note.startswith("base traced_wall_s;")}
        self.assertIn("sim.run_self_frac", spans)
        self.assertIn("traced_wall_s", printed)
        self.assertAlmostEqual(sum(spans.values()), 1.0, delta=0.01)
        self.assertGreater(spans["sim.run_self_frac"], 0.5)

    def test_perturbed_digest_fails(self):
        path = perturbed("cluster-crash 1 digest",
                         lambda l: l[:-1] + ("0" if l[-1] != "0" else "1"))
        code, _, js, err = bench("cluster-crash", 0, expected=path)
        self.assertEqual(code, 1)
        self.assertFalse(js["correct"])
        self.assertIn("seed 1: stdout digest", err)

    def test_perturbed_counter_fails(self):
        def bump(line):
            *head, value = line.split()
            return " ".join(head + [str(int(value) + 1)])
        path = perturbed("cluster-crash 20101 counter.sim.events_fired",
                         bump)
        code, _, js, err = bench("cluster-crash", 1, expected=path)
        self.assertEqual(code, 1)
        self.assertFalse(js["correct"])
        self.assertIn("counter.sim.events_fired", err)


if __name__ == "__main__":
    unittest.main()
