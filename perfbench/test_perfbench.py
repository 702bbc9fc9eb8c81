"""Unit tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import hashlib
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cliload  # noqa: E402
import common  # noqa: E402
import serveload  # noqa: E402
import traced  # noqa: E402

PROMETHEUS = """\
# HELP selfstab_serve_ttfb_us time to first byte
# TYPE selfstab_serve_ttfb_us histogram
selfstab_serve_ttfb_us_bucket{endpoint="healthz",le="0"} 0
selfstab_serve_ttfb_us_bucket{endpoint="healthz",le="7"} 1
selfstab_serve_ttfb_us_bucket{endpoint="healthz",le="15"} 3
selfstab_serve_ttfb_us_bucket{endpoint="healthz",le="+Inf"} 3
selfstab_serve_ttfb_us_sum{endpoint="healthz"} 30
selfstab_serve_ttfb_us_count{endpoint="healthz"} 3
selfstab_serve_ttfb_us_bucket{endpoint="submit",le="255"} 1
selfstab_serve_ttfb_us_bucket{endpoint="submit",le="+Inf"} 1
selfstab_serve_ttfb_us_sum{endpoint="submit"} 200
selfstab_serve_ttfb_us_count{endpoint="submit"} 1
selfstab_serve_shed_total 0
"""


class TailRule(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        value, pct, n = common.tail(list(range(1, 101)))
        self.assertEqual(value, 90)
        self.assertEqual(n, 100)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(1 for v in range(1, 101) if v > value), 10)

    def test_order_does_not_matter(self):
        values = [5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 12]
        self.assertEqual(common.tail(values)[0], 2)

    def test_too_few_samples_fall_back_to_max(self):
        self.assertEqual(common.tail([3, 1, 2]), (3, 100.0, 3))


class PrometheusText(unittest.TestCase):
    def test_log2_buckets_are_cumulative_and_filtered_by_label(self):
        samples = traced.parse_prometheus(PROMETHEUS)
        h = traced.histogram(samples, "selfstab_serve_ttfb_us", endpoint="healthz")
        self.assertEqual(h["sum"], 30)
        self.assertEqual(h["count"], 3)
        self.assertEqual(h["buckets"], [(0.0, 0), (7.0, 1), (15.0, 3), (float("inf"), 3)])
        everything = traced.histogram(samples, "selfstab_serve_ttfb_us")
        self.assertEqual(everything["count"], 4)
        self.assertEqual(samples[("selfstab_serve_shed_total", ())], 0)

    def test_mean_of_the_observations_between_scrapes(self):
        before = traced.parse_prometheus(PROMETHEUS)
        after = traced.parse_prometheus(
            PROMETHEUS.replace('_sum{endpoint="healthz"} 30', '_sum{endpoint="healthz"} 50').replace(
                '_count{endpoint="healthz"} 3', '_count{endpoint="healthz"} 5'
            )
        )
        self.assertEqual(traced.mean_delta(before, after, "selfstab_serve_ttfb_us", endpoint="healthz"), 10)
        self.assertEqual(traced.mean_delta(before, before, "selfstab_serve_ttfb_us"), 0.0)


class Schedule(unittest.TestCase):
    def test_pure_function_of_seed_and_rate(self):
        a = serveload.schedule(7, 20.0, 10.0)
        self.assertEqual(a, serveload.schedule(7, 20.0, 10.0))
        self.assertNotEqual(a, serveload.schedule(8, 20.0, 10.0))
        self.assertNotEqual(a, serveload.schedule(7, 25.0, 10.0))
        self.assertEqual(len(a), 200)

    def test_arrivals_are_jittered_within_their_slot(self):
        sched = serveload.schedule(3, 20.0, 10.0)
        gaps = set()
        for i, (due, _) in enumerate(sched):
            self.assertTrue(i / 20.0 <= due < (i + 1) / 20.0)
            if i:
                gaps.add(round(due - sched[i - 1][0], 6))
        self.assertGreater(len(gaps), 100)

    def test_every_deck_holds_the_mix_and_cold_keys_cycle(self):
        sched = serveload.schedule(5, 20.0, 20.0)
        classes = [cls for _, (cls, _) in sched]
        for start in range(0, len(classes), 20):
            deck = classes[start : start + 20]
            self.assertEqual([deck.count(c) for c in serveload.CLASSES], [5, 10, 3, 2])
        cold = [job for _, (cls, job) in sched if cls == "verify_cold"]
        self.assertEqual(len(cold), 60)
        self.assertEqual(len(set(cold)), 60)
        combos = [(spec, k) for _, spec, k, _ in cold]
        for start in range(0, 60, 15):
            self.assertEqual(len(set(combos[start : start + 15])), 15)
        for kind, _, k, max_states in cold:
            self.assertEqual(kind, "verify")
            self.assertIn(k, serveload.COLD_K)
            self.assertGreaterEqual(max_states, 3**10)
        body = json.loads(serveload.job_body(cold[0], {cold[0][1]: "spec"}))
        self.assertEqual(set(body), {"kind", "spec", "k", "max_states"})


def synth_doc(success, truncated=False, examined=1, solutions=()):
    return json.dumps(
        {
            "success": success,
            "truncated": truncated,
            "counters": {"resolve_sets_examined": examined},
            "solutions": [{"protocol_file": text} for text in solutions],
        }
    ).encode()


class AnswerChecks(unittest.TestCase):
    def setUp(self):
        self.expected = cliload.load_expected()

    def test_committed_verify_answer_passes_and_tampered_fails(self):
        want = self.expected["verify"]["check:sum_not_two"]
        good = json.dumps(want["rows"]).encode()
        self.assertIsNone(cliload.check_verify_answer(want, 0, good))
        rows = json.loads(good)
        rows[0]["illegitimate_deadlocks"] = 1
        self.assertIsNotNone(cliload.check_verify_answer(want, 0, json.dumps(rows).encode()))
        self.assertIsNotNone(cliload.check_verify_answer(want, 2, good))

    def test_sweep_soundness_disagreement_fails(self):
        want = self.expected["verify"]["sweep"]
        doc = {"totals": want["totals"], "campaign": {"job_count": want["job_count"]}, "soundness": {}}
        self.assertIsNone(cliload.check_verify_answer(want, 2, json.dumps(doc).encode()))
        doc["soundness"]["disagreements"] = [{"spec": "x", "k": 3}]
        self.assertIsNotNone(cliload.check_verify_answer(want, 2, json.dumps(doc).encode()))

    def test_false_failure_is_failed_and_truncation_inconclusive(self):
        ok = lambda _: True  # noqa: E731
        want = {"success": False}
        self.assertEqual(cliload.classify_synth(want, 2, synth_doc(False), ok)[0], "ok")
        status, reason = cliload.classify_synth(want, 2, synth_doc(False, examined=0), ok)
        self.assertEqual(status, "failed")
        self.assertIn("false failure", reason)
        self.assertEqual(cliload.classify_synth(want, 2, synth_doc(False, True, 0), ok)[0], "inconclusive")
        self.assertEqual(cliload.classify_synth(want, 0, synth_doc(False), ok)[0], "failed")

    def test_solutions_must_self_stabilize(self):
        want = {"success": True}
        doc = synth_doc(True, solutions=["good", "bad"])
        self.assertEqual(cliload.classify_synth(want, 0, doc, lambda t: True)[0], "ok")
        self.assertEqual(cliload.classify_synth(want, 0, doc, lambda t: t == "good")[0], "failed")
        self.assertEqual(cliload.classify_synth(want, 0, synth_doc(True), lambda t: True)[0], "failed")

    def test_serve_result_must_equal_cli_bytes_and_exit_code(self):
        cli = {("verify", "sum_not_two", 6): (b"[]\n", 0)}

        def op(body, code):
            o = serveload.Op("verify_cached")
            o.ok = True
            o.key = ("verify", "sum_not_two", 6)
            o.digest = hashlib.sha256(body).digest()
            o.exit_code = code
            return o

        self.assertEqual(serveload.check_answers([op(b"[]\n", "0")], cli.get), (0, []))
        failed, reasons = serveload.check_answers([op(b"[ ]\n", "0"), op(b"[]\n", "2")], cli.get)
        self.assertEqual(failed, 2)
        self.assertEqual(len(reasons), 2)


class HttpParsing(unittest.TestCase):
    def test_parses_status_headers_and_body(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nx-selfstab-exit-code: 2\r\n\r\nabc"
        self.assertEqual(
            serveload.parse_response(raw), (200, {"content-length": "3", "x-selfstab-exit-code": "2"}, b"abc")
        )
        with self.assertRaises(OSError):
            serveload.parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc")


if __name__ == "__main__":
    unittest.main()
