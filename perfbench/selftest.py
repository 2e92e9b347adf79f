"""Self-tests of the benchmark's checker and request order.

Run from the root of a checkout: python3 perfbench/selftest.py
"""

import random
import sys
import unittest
from pathlib import Path

import workloads as wl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

ZETA2 = wl.EVAL[0]  # zeta(2) at tol 1e-10, text output
ZSTAR22_JSON = wl.EVAL[10]  # zeta*(2,2) at tol 1e-6, JSON output
THMA = wl.CLOSED_FORMS[0]


class CheckerTest(unittest.TestCase):
    def test_value_inside_its_bound_is_ok(self):
        out = b"1.6449340668482264 (error <= 1.000e-11)\n"
        self.assertEqual(wl.classify(ZETA2, 0, out)[0], wl.OK)

    def test_value_outside_its_bound_is_wrong(self):
        out = b"1.6449340668 (error <= 1.000e-11)\n"
        self.assertEqual(wl.classify(ZETA2, 0, out)[0], wl.WRONG)
        out = b'{"error_bound": "1e-9", "value": "1.8940652"}\n'
        self.assertEqual(wl.classify(ZSTAR22_JSON, 0, out)[0], wl.WRONG)

    def test_exit_2_is_failed(self):
        self.assertEqual(wl.classify(ZETA2, 2, b"")[0], wl.FAILED)

    def test_bound_above_tolerance_is_failed(self):
        out = b"1.6449340668482264 (error <= 6.231e-10)\n"
        self.assertEqual(wl.classify(ZETA2, 0, out)[0], wl.FAILED)
        out = b'{"error_bound": "1.5e-06", "value": "1.8940656589944918"}\n'
        self.assertEqual(wl.classify(ZSTAR22_JSON, 0, out)[0], wl.FAILED)

    def test_other_exit_codes_are_wrong(self):
        self.assertEqual(wl.classify(ZETA2, 3, b"")[0], wl.WRONG)
        self.assertEqual(wl.classify(THMA, 1, b"")[0], wl.WRONG)

    def test_digest_mismatch_is_wrong(self):
        self.assertEqual(wl.classify(THMA, 0, b"1/2 * pi^48\n")[0], wl.WRONG)

    def test_every_exact_request_has_a_golden_digest(self):
        for req in wl.CLOSED_FORMS + (wl.EVAL[-1],):
            self.assertIn(req.name, wl.golden())

    def test_cross_check_rejects_a_wrong_coefficient(self):
        outputs = {THMA.name: b"1/2 * pi^48\n", "bernoulli-400": b"1/6\n"}
        self.assertEqual(wl.cross_check(outputs), [THMA.name, "bernoulli-400"])

    def test_session_checks(self):
        req = {"op": "stuffle", "words": [[2, 1], [3]]}
        good = {"commutative": True, "weights": [6], "mult_sum": 5}
        self.assertEqual(wl.check_session(req, good), wl.OK)
        self.assertEqual(wl.check_session(req, {**good, "mult_sum": 4}), wl.WRONG)
        req = {"op": "s_map", "words": [[1, 2, 3]]}
        good = {"terms": 4, "coeffs": ["1"], "weights": [6]}
        self.assertEqual(wl.check_session(req, good), wl.OK)
        self.assertEqual(wl.check_session(req, {**good, "terms": 3}), wl.WRONG)


class OrderTest(unittest.TestCase):
    def test_seed_reorders_without_changing_the_set(self):
        for requests in wl.CLI_WORKLOADS.values():
            a = wl.order(requests, random.Random(1))
            b = wl.order(requests, random.Random(2))
            self.assertNotEqual(a, b)
            self.assertEqual(sorted(r.name for r in a), sorted(r.name for r in requests))
            self.assertEqual(sorted(r.name for r in b), sorted(r.name for r in requests))
            self.assertEqual(a, wl.order(requests, random.Random(1)))

    def test_session_stream_repeats_for_a_seed(self):
        def take(seed):
            stream = wl.session_requests(seed)
            return [next(stream) for _ in range(100)]

        self.assertEqual(take(1), take(1))
        self.assertNotEqual(take(1), take(2))


if __name__ == "__main__":
    unittest.main()
