#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
    python3 perfbench/compare.py --self-test

Each directory holds the `.json` records runs write to `.bench_results/`.
Untraced records are grouped by workload; for every end-to-end metric of
BENCHMARK.json one row is printed per (workload, metric), marked:

  improved    the change wins at least 9 of every 10 runs paired with the
              base (ties count for neither), the medians differ by more
              than the distance between the base's quartiles, and the
              change fails no larger share of its operations than the base;
  worse       the change's median is worse than the base's by more than the
              metric's bound;
  unresolved  not worse by the bound, but the base's own quartile spread is
              wider than the bound, and not every change run beats every
              base run;
  no worse    otherwise.

Runs are paired by seed when both sides ran the same seeds, else in order.
Runs that failed a check, and metrics a run could not measure, are left out
of the metric rows but count in each workload's row of failed operations.
A last row per workload gives each side's median share of CPU time the
hypervisor stole during its runs; a verdict drawn while one side ran with
much more stolen time than the other measured the host, not the change.
"""

import json
import pathlib
import statistics
import sys


def load(directory):
    """Untraced records of `directory`, by workload, ordered by seed."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record["run"]["trace"]:
            continue
        runs.setdefault(record["run"]["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["run"]["seed"])
    return runs


def pair(base, change):
    """(base, change) value pairs: by seed where the seeds agree, else in order."""
    base_by_seed = {seed: v for seed, v in base}
    change_by_seed = {seed: v for seed, v in change}
    common = sorted(set(base_by_seed) & set(change_by_seed))
    if len(common) == min(len(base), len(change)):
        return [(base_by_seed[s], change_by_seed[s]) for s in common]
    return list(zip([v for _, v in base], [v for _, v in change]))


def spread(values):
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(base, change, better, bound, failed_more=False):
    """Classify `change` against `base` (lists of (seed, value)).

    `better` is "lower" or "higher"; `bound` is the share of the base median
    by which the metric may worsen; `failed_more` says the change failed a
    larger share of its operations than the base, which rules out a gain.
    """
    beats = (lambda c, b: c < b) if better == "lower" else (lambda c, b: c > b)
    b_vals = [v for _, v in base]
    c_vals = [v for _, v in change]
    b_med = statistics.median(b_vals)
    c_med = statistics.median(c_vals)
    pairs = pair(base, change)
    wins = sum(1 for b, c in pairs if beats(c, b))
    gain = pairs and wins >= 0.9 * len(pairs) and abs(c_med - b_med) > spread(b_vals)
    if gain and not failed_more:
        return "improved"
    worse_by = (c_med - b_med) if better == "lower" else (b_med - c_med)
    if worse_by > bound * abs(b_med):
        return "worse"
    if spread(b_vals) > bound * abs(b_med):
        if all(beats(c, b) for c in c_vals for b in b_vals):
            return "no worse"
        return "unresolved"
    return "no worse"


def failure_share(records):
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    return failed / attempted if attempted else 0.0


def series(records, name):
    """(seed, value) of metric `name` over the runs that passed their checks
    and measured it."""
    out = []
    for r in records:
        value = r["result"]["metrics"].get(name, {}).get("value")
        if r["result"]["correct"] and value is not None:
            out.append((r["run"]["seed"], value))
    return out


def compare(base_dir, change_dir, benchmark):
    spec = json.loads(pathlib.Path(benchmark).read_text())
    base, change = load(base_dir), load(change_dir)
    rows = []
    for workload in sorted(set(base) & set(change)):
        b_failed = failure_share(base[workload])
        c_failed = failure_share(change[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = series(base[workload], name), series(change[workload], name)
            if not b or not c:
                continue
            rows.append(
                (
                    workload,
                    name,
                    statistics.median(v for _, v in b),
                    statistics.median(v for _, v in c),
                    len(b),
                    len(c),
                    verdict(
                        b, c, metric["better"], metric["bound"], c_failed > b_failed
                    ),
                )
            )
        rows.append(
            (
                workload,
                "failed_share",
                b_failed,
                c_failed,
                len(base[workload]),
                len(change[workload]),
                "",
            )
        )
        steal = [
            [r["run"]["steal_pct"] for r in side if r["run"].get("steal_pct") is not None]
            for side in (base[workload], change[workload])
        ]
        if all(steal):
            rows.append(
                (
                    workload,
                    "host_steal_pct",
                    statistics.median(steal[0]),
                    statistics.median(steal[1]),
                    len(steal[0]),
                    len(steal[1]),
                    "",
                )
            )
    return rows


def self_test():
    import unittest

    def runs(values, seed0=0):
        return [(seed0 + i, v) for i, v in enumerate(values)]

    class CompareRule(unittest.TestCase):
        def test_clear_gain_is_improved(self):
            base = runs([100 + i for i in range(10)])
            change = runs([80 + i for i in range(10)])
            self.assertEqual(verdict(base, change, "lower", 0.1), "improved")
            self.assertEqual(verdict(change, base, "higher", 0.1), "improved")

        def test_nine_in_ten_wins_are_required_and_ties_count_for_neither(self):
            base = runs([100.0] * 10)
            # 8 wins, 2 ties: a big median gap, but only 8/10 wins.
            change = runs([50.0] * 8 + [100.0] * 2)
            self.assertNotEqual(verdict(base, change, "lower", 0.1), "improved")
            change = runs([50.0] * 9 + [100.0])
            self.assertEqual(verdict(base, change, "lower", 0.1), "improved")

        def test_gain_within_the_base_spread_is_not_improved(self):
            base = runs([90, 95, 100, 105, 110, 90, 95, 100, 105, 110])
            change = runs([v - 1 for _, v in base])
            self.assertEqual(verdict(base, change, "lower", 0.25), "no worse")

        def test_beyond_the_bound_is_worse(self):
            base = runs([100 + i * 0.1 for i in range(10)])
            change = runs([130 + i * 0.1 for i in range(10)])
            self.assertEqual(verdict(base, change, "lower", 0.1), "worse")
            self.assertEqual(verdict(base, change, "lower", 0.5), "no worse")
            self.assertEqual(verdict(change, base, "higher", 0.1), "worse")

        def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
            base = runs([50, 150, 60, 140, 70, 130, 80, 120, 90, 110])
            change = runs([v + 1 for _, v in base])
            self.assertEqual(verdict(base, change, "lower", 0.05), "unresolved")
            # Every change run beats every base run: not unresolved, but the
            # gap is inside the base's spread, so no gain is claimed either.
            base = runs([100, 102, 140, 101, 150, 103, 99, 160, 98, 170])
            change = runs([90 + i * 0.1 for i in range(10)])
            self.assertEqual(verdict(base, change, "lower", 0.05), "no worse")
            change = runs([97.9] * 7 + [97.0, 150, 150])
            self.assertEqual(verdict(base, change, "lower", 0.05), "unresolved")

        def test_no_gain_while_failing_more(self):
            base = runs([100 + i for i in range(10)])
            change = runs([80 + i for i in range(10)])
            self.assertEqual(
                verdict(base, change, "lower", 0.1, failed_more=True), "no worse"
            )
            change = runs([130 + i for i in range(10)])
            self.assertEqual(
                verdict(base, change, "lower", 0.1, failed_more=True), "worse"
            )

        def test_failed_runs_count_as_failures_not_as_values(self):
            def record(seed, value, correct=True, attempted=10, failed=0):
                return {
                    "run": {"seed": seed},
                    "result": {
                        "correct": correct,
                        "attempted": attempted,
                        "failed": failed,
                        "metrics": {"m": {"value": value, "unit": "ms"}},
                    },
                }

            records = [
                record(1, 5.0),
                record(2, None, correct=False, failed=10),
                record(3, 7.0, correct=False, failed=1),
                record(4, 6.0),
            ]
            self.assertEqual(series(records, "m"), [(1, 5.0), (4, 6.0)])
            self.assertEqual(series(records, "absent"), [])
            self.assertAlmostEqual(failure_share(records), 11 / 40)

        def test_a_failed_run_does_not_break_the_comparison(self):
            import tempfile

            def write(directory, seed, value, correct, failed):
                record = {
                    "run": {"workload": "w", "seed": seed, "trace": False},
                    "result": {
                        "correct": correct,
                        "attempted": 4,
                        "failed": failed,
                        "metrics": {"m": {"value": value, "unit": "ms"}},
                    },
                }
                path = pathlib.Path(directory) / f"w-{seed}.json"
                path.write_text(json.dumps(record))

            spec = {"end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}]}
            with tempfile.TemporaryDirectory() as tmp:
                tmp = pathlib.Path(tmp)
                (tmp / "base").mkdir()
                (tmp / "change").mkdir()
                for seed in range(10):
                    write(tmp / "base", seed, 100.0 + seed, True, 0)
                    write(tmp / "change", seed, 50.0 + seed, True, 0)
                write(tmp / "change", 10, None, False, 4)
                (tmp / "spec.json").write_text(json.dumps(spec))
                rows = compare(tmp / "base", tmp / "change", tmp / "spec.json")
            by_metric = {row[1]: row for row in rows}
            self.assertEqual(by_metric["m"][4:], (10, 10, "no worse"))
            self.assertEqual(by_metric["failed_share"][2:4], (0.0, 4 / 44))

        def test_pairs_follow_seeds_when_both_sides_share_them(self):
            base = [(3, 1.0), (1, 2.0)]
            change = [(1, 20.0), (3, 10.0)]
            self.assertEqual(pair(base, change), [(2.0, 20.0), (1.0, 10.0)])
            self.assertEqual(pair([(1, 1.0)], [(2, 5.0)]), [(1.0, 5.0)])

    suite = unittest.defaultTestLoader.loadTestsFromTestCase(CompareRule)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    benchmark = "BENCHMARK.json"
    if "--benchmark" in argv:
        i = argv.index("--benchmark")
        benchmark = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(argv[0], argv[1], benchmark)
    print(f"{'workload':<18} {'metric':<16} {'base':>14} {'change':>14} {'n':>7}  verdict")
    for workload, name, b, c, nb, nc, v in rows:
        print(f"{workload:<18} {name:<16} {b:>14.6g} {c:>14.6g} {nb:>3}/{nc:<3}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
