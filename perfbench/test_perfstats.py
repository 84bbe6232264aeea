#!/usr/bin/env python3
"""Tests of the benchmark's own rules: python3 perfbench/test_perfstats.py"""

import json
import os
import socket
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats as ps  # noqa: E402
import run  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_definition(self):
        values = [15, 20, 35, 40, 50]
        self.assertEqual(ps.nearest_rank(values, 5), 15)
        self.assertEqual(ps.nearest_rank(values, 30), 20)
        self.assertEqual(ps.nearest_rank(values, 40), 20)
        self.assertEqual(ps.nearest_rank(values, 50), 35)
        self.assertEqual(ps.nearest_rank(values, 100), 50)
        self.assertEqual(ps.nearest_rank(values, 0), 15)

    def test_order_free(self):
        self.assertEqual(ps.nearest_rank([3, 1, 2], 50), 2)

    def test_empty(self):
        with self.assertRaises(ValueError):
            ps.nearest_rank([], 50)

    def test_samples_beyond(self):
        self.assertEqual(ps.samples_beyond(100, 90), 10)
        self.assertEqual(ps.samples_beyond(99, 90), 9)
        self.assertEqual(ps.samples_beyond(1000, 99), 10)
        self.assertEqual(ps.samples_beyond(999, 99), 9)
        self.assertEqual(ps.samples_beyond(1, 50), 0)


def mix(shares, scale=10.0):
    """Samples of classes c0, c1, ... with the given counts; class i's
    latencies sit around scale * (i + 1), well apart from its neighbours."""
    out = []
    for i, count in enumerate(shares):
        out += [(scale * (i + 1) + j * 1e-3, f"c{i}") for j in range(count)]
    return out


class ClassBoundary(unittest.TestCase):
    def test_bands_follow_latency_not_name(self):
        samples = [(50.0, "a")] * 30 + [(1.0, "b")] * 70
        self.assertEqual([b[0] for b in ps.class_bands(samples)], ["b", "a"])
        cls, lo, hi = ps.class_bands(samples)[0]
        self.assertAlmostEqual(hi, 70.0)

    def test_inside_a_class_passes(self):
        # Three equal classes: boundaries at 33.3 and 66.7.
        samples = mix([100, 100, 100])
        self.assertEqual(ps.check_percentile(samples, 50, "x"),
                         ps.nearest_rank([s[0] for s in samples], 50))
        ps.check_percentile(samples, 90, "x")

    def test_on_a_boundary_refuses(self):
        # Two equal classes put p50 exactly on their boundary.
        with self.assertRaises(ps.Refused):
            ps.check_percentile(mix([100, 100]), 50, "x")
        # 48% / 52%: p50 is 2 points inside the upper class; refused.
        with self.assertRaises(ps.Refused):
            ps.check_percentile(mix([96, 104]), 50, "x")
        # 46% / 54%: 4 points inside; accepted.
        ps.check_percentile(mix([92, 108]), 50, "x")

    def test_axis_ends_are_not_boundaries(self):
        # A single class: p99 near the top end is fine.
        ps.check_percentile(mix([2000]), 99, "x")
        # The top band spans 80-100: p99 is 19 points inside.
        ps.check_percentile(mix([500, 500, 500, 500, 500]), 99, "x")

    def test_too_few_samples_beyond_refuses(self):
        with self.assertRaises(ps.Refused):
            ps.check_percentile(mix([99]), 90, "x")
        ps.check_percentile(mix([100]), 90, "x")
        with self.assertRaises(ps.Refused):
            ps.check_percentile(mix([999]), 99, "x")

    def test_cpu_to_wall_guard(self):
        ps.check_cpu_to_wall(1.0)
        ps.check_cpu_to_wall(1.05)
        with self.assertRaises(ps.Refused):
            ps.check_cpu_to_wall(1.06)


REFS = {
    # (instance, state, qnum) -> reference bounds of that state.
    ("a", 0, 1): {"min": 0, "max": 19},
    ("a", 1, 1): {"min": 1, "max": 19},
}


def read(version, lo, hi, **resp):
    body = {"ok": True, "degraded": False, "min": lo, "max": hi,
            "min_exact": True, "max_exact": True, "version": version}
    body.update(resp)
    return {"kind": "r", "instance": "a", "qnum": 1, "want_state": -1,
            "resp": body}


def write(version, want_state, ok=True):
    return {"kind": "w", "instance": "a", "qnum": 0, "want_state": want_state,
            "resp": {"ok": ok, "version": version}}


class VersionState(unittest.TestCase):
    def test_parity(self):
        self.assertEqual([ps.state_of_version(v) for v in (1, 2, 3, 4)],
                         [0, 1, 0, 1])

    def test_toggled_back_write_returns_first_state_bounds(self):
        # Load (v1, state 0), edit (v2, state 1), edit back (v3, state 0):
        # a read at v3 must carry the state-0 bounds again.
        self.assertIsNone(ps.service_failure(read(1, 0, 19), REFS))
        self.assertIsNone(ps.service_failure(write(2, 1), REFS))
        self.assertIsNone(ps.service_failure(read(2, 1, 19), REFS))
        self.assertIsNone(ps.service_failure(write(3, 0), REFS))
        self.assertIsNone(ps.service_failure(read(3, 0, 19), REFS))
        self.assertEqual(ps.service_failure(read(3, 1, 19), REFS),
                         "bounds differ from reference")

    def test_write_on_wrong_version(self):
        self.assertEqual(ps.service_failure(write(3, 1), REFS),
                         "write landed on the wrong version")


class FailureCounting(unittest.TestCase):
    def test_each_kind_counts(self):
        ops = [
            read(1, 0, 19),                                     # good
            read(1, 0, 18),                                     # mismatch
            read(1, 0, 19, degraded=True),                      # degraded
            read(1, 0, 19, max_exact=False),                    # not exact
            {"kind": "r", "instance": "a", "qnum": 1, "want_state": -1,
             "resp": {"ok": False, "status": "Overloaded"}},    # overloaded
            {"kind": "r", "instance": "a", "qnum": 1, "want_state": -1,
             "resp": {"ok": False, "status": "Internal"}},      # error
            write(2, 1),                                        # good
        ]
        attempted, failed, reasons = ps.count_failures(
            ops, lambda o: ps.service_failure(o, REFS))
        self.assertEqual(attempted, 7)
        self.assertEqual(failed, 5)
        self.assertEqual(reasons, {"bounds differ from reference": 1,
                                   "degraded": 1, "not exact": 1,
                                   "overloaded": 1, "error": 1})

    def test_wrong_warmup_answer_is_a_failure_not_a_refusal(self):
        # A mismatch or an error in warm-up is a wrong answer: it counts
        # as a failed operation (exit 1), beside the measured operations.
        warm = [read(1, 0, 18),
                {"kind": "r", "instance": "a", "qnum": 1, "want_state": -1,
                 "resp": {"ok": False, "status": "Internal"}}]
        measured = [read(1, 0, 19), read(1, 0, 17)]
        attempted, failed, reasons = ps.account(
            warm, measured, lambda o: ps.service_failure(o, REFS))
        self.assertEqual((attempted, failed), (4, 3))
        self.assertEqual(reasons, {"bounds differ from reference": 2,
                                   "error": 1})

    def test_inexact_warmup_answer_refuses(self):
        for bad in (read(1, 0, 19, min_exact=False),
                    read(1, 0, 19, degraded=True)):
            with self.assertRaises(ps.Refused):
                ps.account([read(1, 0, 19), bad], [],
                           lambda o: ps.service_failure(o, REFS))
        # Measured inexact answers are failures, not refusals.
        self.assertEqual(ps.account([], [read(1, 0, 19, degraded=True)],
                                    lambda o: ps.service_failure(o, REFS)),
                         (1, 1, {"degraded": 1}))

    def test_offline_reads(self):
        refs = {("q1", 0): {"min": 0, "max": 49}}
        good = {"ok": 1, "exact": 1, "class": "q1", "state": 0, "min": 0,
                "max": 49}
        self.assertIsNone(ps.offline_read_failure(good, refs))
        self.assertEqual(ps.offline_read_failure(dict(good, max=48), refs),
                         "bounds differ from reference")
        self.assertEqual(ps.offline_read_failure(dict(good, exact=0), refs),
                         "not exact")
        self.assertEqual(ps.offline_read_failure(dict(good, ok=0), refs),
                         "error")
        self.assertEqual(ps.offline_read_failure(dict(good, state=1), refs),
                         "no reference")


class HostSpeedScaling(unittest.TestCase):
    def test_times_and_rates_scale_memory_does_not(self):
        # A run whose probe took twice the reference ran on a host half as
        # fast: its times halve and its rates double at reference speed.
        window = {"probe_ms": 2 * run.PROBE_REF_MS, "probes": 40}
        e2e = {"read_ms.mean": 80.0, "setup_s": 0.5, "reads_per_s": 10.0,
               "peak_rss_mb": 64.0}
        self.assertEqual(run.at_reference_speed(e2e, window),
                         {"read_ms.mean": 40.0, "setup_s": 0.25,
                          "reads_per_s": 20.0, "peak_rss_mb": 64.0})

    def test_no_probe_refuses(self):
        with self.assertRaises(ps.Refused):
            run.at_reference_speed({"read_ms.mean": 1.0},
                                   {"probe_ms": 0, "probes": 0})


LOADGEN = os.path.join(run.BUILD, "perfbench_loadgen")


@unittest.skipUnless(os.path.exists(LOADGEN) and
                     os.path.exists(os.path.join(run.BUILD, "licm_serve")),
                     "build first: python3 perfbench/run.py ...")
class LiveToggle(unittest.TestCase):
    """Against a real licm_serve: edit instance b's toggled constraint to
    state 1 and back, and check each state's reads against the offline
    references, over line-JSON."""

    def test_toggled_back_write_returns_first_state_bounds(self):
        out = subprocess.run([LOADGEN, "ref", "--workload", "svc-rw"],
                             capture_output=True, text=True, check=True,
                             timeout=120, env=run.child_env()).stdout
        recs = [json.loads(line) for line in out.splitlines()]
        edit = next(r for r in recs if r["type"] == "edit"
                    and r["instance"] == "b")
        refs = {("b", r["state"], int(r["class"][1:])): r for r in recs
                if r["type"] == "ref" and r["instance"] == "b"}
        bounds = {key: (r["min"], r["max"]) for key, r in refs.items()}
        self.assertTrue(any(bounds[("b", 0, q)] != bounds[("b", 1, q)]
                            for q in (1, 2, 3)), "the toggle moves no bounds")

        proc, port, _ = run.start_server([edit["spec"]])
        try:
            with socket.create_connection(("127.0.0.1", port)) as conn:
                stream = conn.makefile("rw")

                def call(request):
                    stream.write(json.dumps(request) + "\n")
                    stream.flush()
                    return json.loads(stream.readline())

                state = 0
                for want in (0, 1, 0):
                    if want != state:
                        reply = call({"op": "mutate", "id": 1, "instance": "b",
                                      "action": "edit",
                                      "cindex": edit["cindex"],
                                      "cop": edit[f"cop{want}"],
                                      "rhs": edit[f"rhs{want}"]})
                        self.assertIsNone(ps.service_failure(
                            {"kind": "w", "want_state": want, "resp": reply},
                            refs))
                        state = want
                    for qnum in (1, 2, 3):
                        reply = call({"op": "query", "id": 2, "instance": "b",
                                      "qnum": qnum})
                        self.assertEqual(ps.state_of_version(reply["version"]),
                                         want)
                        self.assertIsNone(ps.service_failure(
                            {"kind": "r", "instance": "b", "qnum": qnum,
                             "resp": reply}, refs))
        finally:
            run.stop_server(proc, port)


if __name__ == "__main__":
    unittest.main()
