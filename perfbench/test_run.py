"""Tests of run.py's result-line parsing and expected-value comparison.

    cd perfbench && python3 -m unittest test_run
"""

import json
import unittest

import run

SPECS = {"run_s": "s", "mean_qoe": "qoe"}


def line(**overrides):
    result = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "run_s": {"value": 1.25, "unit": "s"},
            "mean_qoe": {"value": 0.5, "unit": "qoe"},
        },
    }
    result.update(overrides)
    return json.dumps(result)


class ParseResultTest(unittest.TestCase):
    def test_accepts_a_well_formed_line(self):
        result = run.parse_result(line(), SPECS)
        self.assertEqual(result["metrics"]["run_s"]["value"], 1.25)

    def test_keeps_every_digit(self):
        text = line(metrics={
            "run_s": {"value": 0.33620106999933341, "unit": "s"},
            "mean_qoe": {"value": 0.39200586427160433, "unit": "qoe"}})
        result = run.parse_result(text, SPECS)
        self.assertEqual(result["metrics"]["mean_qoe"]["value"],
                         0.39200586427160433)

    def test_rejects(self):
        bad = {
            "not json": "{",
            "extra key": line(extra=1),
            "missing metric": line(metrics={
                "run_s": {"value": 1.0, "unit": "s"}}),
            "extra metric": line(metrics={
                "run_s": {"value": 1.0, "unit": "s"},
                "mean_qoe": {"value": 0.5, "unit": "qoe"},
                "other": {"value": 1.0, "unit": "s"}}),
            "wrong unit": line(metrics={
                "run_s": {"value": 1.0, "unit": "ms"},
                "mean_qoe": {"value": 0.5, "unit": "qoe"}}),
            "string value": line(metrics={
                "run_s": {"value": "1.0", "unit": "s"},
                "mean_qoe": {"value": 0.5, "unit": "qoe"}}),
            "nothing attempted": line(attempted=0),
            "fractional count": line(failed=0.5),
            "non-boolean correct": line(correct=1),
        }
        for why, text in bad.items():
            with self.assertRaises(run.BenchError, msg=why):
                run.parse_result(text, SPECS)
        with self.assertRaises(run.BenchError):
            run.parse_result('{"correct": true, "attempted": 1, "failed": 0, '
                             '"metrics": {"run_s": {"value": NaN, "unit": "s"},'
                             ' "mean_qoe": {"value": 0.5, "unit": "qoe"}}}',
                             SPECS)


class ExpectedTest(unittest.TestCase):
    def test_checks_are_read_from_the_report(self):
        report = ["metric run_s 1.5 s", "check records 1596852",
                  "check mean_qoe 0.51566342210008209", "FAILED something"]
        self.assertEqual(run.parse_checks(report),
                         {"records": 1596852.0,
                          "mean_qoe": 0.51566342210008209})

    def test_mismatches_are_reported(self):
        expected = {"replay_day": {"records": 1596852, "mean_qoe": 0.5}}
        self.assertEqual(run.compare_expected(
            "replay_day", {"records": 1596852.0, "mean_qoe": 0.5}, expected),
            [])
        problems = run.compare_expected(
            "replay_day", {"records": 1596851.0}, expected)
        self.assertEqual(len(problems), 2)
        self.assertEqual(run.compare_expected("other", {}, expected), [])


if __name__ == "__main__":
    unittest.main()
