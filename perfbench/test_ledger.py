"""Tests of the cost-ledger benchmark's own rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The RSS test builds perfbench_sim on first use (as run.py does).
"""

import copy
import json
import subprocess
import unittest

import ledger
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def raw_run(**overrides):
    """A consistent counter set shaped like perfbench_sim's output."""
    raw = {
        "servers": [{"name": "kvs", "received": 100, "completed": 97,
                     "dropped_no_app": 1, "dropped_overflow": 2, "queued": 0}],
        "clients": [{"name": "client", "sent": 120, "received": 110, "lost": 6,
                     "outstanding": 4}],
        "ledger": [[10.0, 120.0], [119.5, 120.0]],
        "pkts_measured": 200,
        "pkts_total": 230,
        "events_executed": 1000,
        "events_measured": 800,
        "slice_wall_ns": [1000.0] * 40,
        "slice_pkts": [5] * 40,
        "ref_slices": [],
        "pending": [3] * 40,
        "window_start_ms": 100.0,
        "slice_sim_ms": 5.0,
        "transition_ms": [112.0],
        "rss_after_warm_mb": 50.0,
        "rss_end_mb": 58.0,
        "sim_s_measured": 0.2,
        "peak_rss_mb": 60.0,
        "ref_ns": ledger.REFERENCE_NS,
        "worker_threads": 1,
        "build_s": 0.01,
        "setup_s": 0.21,
        "prefill_s": 0.2,
        "fingerprint": {"events_executed": 1000, "served": 110,
                        "latency_ns_p50": 2500, "latency_ns_p99": 12000},
        "counters": {
            "kvs.l1_hits": 50, "kvs.l2_hits": 20, "kvs.misses_to_host": 10,
            "kvs.host_gets": 10, "kvs.host_sets": 2, "net.pcie_crossings": 20,
            "net.switch_forwarded": 100, "net.link_drops": 0,
            "device.fpga_hw": 70, "device.app_ingress": 80, "device.fpga_to_host": 10,
            "dns.answered_host": 5, "stats.rate_records": 150,
            "stats.histogram_records": 110,
        },
    }
    raw.update(overrides)
    return raw


def failed_checks(raw):
    return [name for name, ok, _ in ledger.check_invariants(raw) if not ok]


class PercentileRuleTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        for n in (11, 12, 50, 100, 400, 999, 1000, 1001, 5000):
            values = list(range(n))
            value, level, count = ledger.percentile_rule(values)
            beyond = sum(1 for v in values if v > value)
            self.assertEqual(count, n)
            self.assertGreaterEqual(beyond, 10, n)
            self.assertLessEqual(level, 0.99 + 1.0 / n)  # Nearest rank.

    def test_highest_qualifying_rank(self):
        # 400 slices: the p97.5 slice has exactly 10 beyond it.
        value, level, _ = ledger.percentile_rule(list(range(400)))
        self.assertEqual(value, 389)
        self.assertAlmostEqual(level, 0.975)

    def test_capped_at_p99_for_long_runs(self):
        value, level, _ = ledger.percentile_rule(list(range(5000)))
        self.assertAlmostEqual(level, 0.99)
        self.assertEqual(value, 4949)

    def test_order_does_not_matter(self):
        values = [5, 1, 9, 3, 7, 2, 8, 4, 6, 0, 10, 11, 12]
        self.assertEqual(ledger.percentile_rule(values),
                         ledger.percentile_rule(sorted(values)))

    def test_too_few_samples_reports_max(self):
        self.assertEqual(ledger.percentile_rule([3, 1, 2]), (3, 1.0, 3))
        with self.assertRaises(ValueError):
            ledger.percentile_rule([])


class InvariantTest(unittest.TestCase):
    def test_consistent_counters_pass(self):
        self.assertEqual(failed_checks(raw_run()), [])

    def test_server_mismatch_fires(self):
        raw = raw_run()
        raw["servers"][0]["completed"] -= 1
        self.assertEqual(failed_checks(raw),
                         ["server kvs received == completed + dropped"])

    def test_server_queued_request_is_accounted(self):
        raw = raw_run()
        raw["servers"][0]["completed"] -= 1
        raw["servers"][0]["queued"] = 1
        self.assertEqual(failed_checks(raw), [])

    def test_client_mismatch_fires_with_fail_fraction(self):
        raw = raw_run()
        raw["clients"][0]["lost"] += 1
        self.assertEqual(failed_checks(raw), [
            "client client sent == received + lost + outstanding",
            "req_fail_frac == (lost + outstanding) / sent",
        ])

    def test_budget_violation_fires(self):
        raw = raw_run(ledger=[[10.0, 120.0], [120.5, 120.0]])
        self.assertEqual(failed_checks(raw),
                         ["ledger committed <= budget at every slice sample"])

    def test_unlimited_budget_never_violates(self):
        self.assertEqual(failed_checks(raw_run(ledger=[[500.0, 0.0]])), [])

    def test_no_ledger_no_budget_check(self):
        names = [name for name, _, _ in ledger.check_invariants(raw_run(ledger=[]))]
        self.assertNotIn("ledger committed <= budget at every slice sample", names)

    def test_no_measured_packets_fires(self):
        self.assertEqual(failed_checks(raw_run(pkts_measured=0)),
                         ["client packets measured > 0"])

    def test_req_fail_frac_from_counters(self):
        self.assertAlmostEqual(ledger.req_fail_frac(raw_run()["clients"]), 10 / 120)

    def test_fingerprint_mismatch(self):
        a = {"events_executed": 1, "served": 2}
        self.assertEqual(ledger.fingerprint_mismatches(a, dict(a)), [])
        self.assertEqual(ledger.fingerprint_mismatches(a, {"events_executed": 1, "served": 3}),
                         ["served"])


class LedgerTest(unittest.TestCase):
    def setUp(self):
        self.run = raw_run(slice_wall_ns=[10000.0] * 40)
        self.trace = copy.deepcopy(self.run)
        self.trace["slice_wall_ns"] = [12000.0] * 40  # 20% tracing overhead.
        self.trace["calls"] = {"peek_ns": 20.0, "run_next_ns_p50": 100.0,
                               "run_next_ns_p99": 900.0}
        self.trace["replay"] = {
            "sim.queue_event_ns": 30.0, "net.link_send_ns": 50.0,
            "kvs.store_op_ns": 40.0, "dns.zone_lookup_ns": 60.0,
            "dns.wire_bytes_ns": 200.0, "dns.encode_ns": 190.0,
            "paxos.acceptor_handle_ns": 80.0, "stats.window_record_ns": 10.0,
            "stats.histogram_record_ns": 5.0, "workload.factory_ns": 70.0,
        }

    def test_rows_close_to_traced_wall(self):
        m = ledger.per_layer([self.run], self.trace)
        rows = sum(v for k, (v, _) in m.items() if k.startswith("ledger."))
        traced = ledger.wall_ns_per_pkt(self.trace)
        self.assertAlmostEqual(rows, traced)
        # Within trace.overhead: the traced wall is the untraced wall scaled
        # by the overhead the run reports.
        overhead = m["trace.overhead"][0]
        self.assertAlmostEqual(overhead, 1.2)
        self.assertAlmostEqual(rows / overhead, ledger.wall_ns_per_pkt(self.run))
        self.assertGreater(m["ledger.unattributed_ns_per_pkt"][0], 0)
        name, ok, _ = ledger.check_ledger(m)
        self.assertTrue(ok, name)

    def test_rows_past_traced_wall_fail(self):
        # A store replay of 4000 ns per op attributes 4000 x 172 / 230 = 2991
        # ns per packet to kvs, past the 2400 ns per packet traced wall.
        self.trace["replay"]["kvs.store_op_ns"] = 4000.0
        m = ledger.per_layer([self.run], self.trace)
        self.assertLess(m["ledger.unattributed_ns_per_pkt"][0], 0)
        _, ok, detail = ledger.check_ledger(m)
        self.assertFalse(ok, detail)

    def test_row_is_ns_per_call_times_calls_per_pkt(self):
        m = ledger.per_layer([self.run], self.trace)
        # kv ops: 2 x (50 + 20 + 10) LaKe lookups + 10 gets + 2 sets = 172.
        self.assertAlmostEqual(m["ledger.kvs_ns_per_pkt"][0], 40.0 * 172 / 230)
        # Queue replay plus the extra peek, per executed event.
        self.assertAlmostEqual(m["ledger.sim_ns_per_pkt"][0], (30.0 + 20.0) * 1000 / 230)

    def test_twins_set_efficiency_and_overhead_base(self):
        # Both twins are untraced; the single-queue one, not the parallel
        # repeats, is the base of the single-queue traced run's overhead.
        sq = dict(self.run, slice_wall_ns=[10000.0] * 40)
        mt = dict(self.run, worker_threads=2, slice_wall_ns=[7000.0] * 40)
        runs = [dict(self.run, slice_wall_ns=[8000.0] * 40)]
        m = ledger.per_layer(runs, self.trace, sq, mt)
        self.assertAlmostEqual(m["sim.sharded.efficiency"][0], 10000.0 / (7000.0 * 2))
        self.assertAlmostEqual(m["trace.overhead"][0], 1.2)

    def test_shift_slice(self):
        # Slice 2 runs the events in (110, 115] ms: a transition at 112 ms and
        # one on its closing boundary both fall in it.
        walls = [1e6] * 40
        walls[2] = 7e6
        for at in (112.0, 115.0):
            raw = raw_run(slice_wall_ns=walls, transition_ms=[at])
            self.assertEqual(ledger.shift_slice_ms(raw), [7.0])
        raw = raw_run(slice_wall_ns=walls, transition_ms=[100.0, 300.5])
        self.assertEqual(ledger.shift_slice_ms(raw), [])


class EndToEndTest(unittest.TestCase):
    def test_slower_host_scales_back_to_reference(self):
        calm = raw_run()
        busy = raw_run(slice_wall_ns=[1300.0] * 40, ref_ns=1.3 * ledger.REFERENCE_NS)
        self.assertAlmostEqual(ledger.wall_ns_per_pkt(busy), ledger.wall_ns_per_pkt(calm))
        self.assertAlmostEqual(ledger.slice_stats(busy)[0], ledger.slice_stats(calm)[0])

    def test_slices_after_reference_samples_left_out(self):
        # Slices 0 and 10 follow a reference sample and refill the caches it
        # evicted: their time is not simulator time.
        walls = [1000.0] * 40
        walls[0] = walls[10] = 9000.0
        raw = raw_run(slice_wall_ns=walls, ref_slices=[0, 10])
        self.assertAlmostEqual(ledger.wall_ns_per_pkt(raw), 1000.0 / 5)
        median, tail, _, count = ledger.slice_stats(raw)
        self.assertEqual((median, tail, count), (1000.0 / 1e6, 1000.0 / 1e6, 38))

    def test_medians_over_repeats_reject_one_slow_repeat(self):
        runs = [raw_run(slice_wall_ns=[w] * 40) for w in (1000.0, 5000.0, 1100.0)]
        setup_only = [{"setup_s": 0.2, "ref_ns": ledger.REFERENCE_NS}]
        e2e = ledger.end_to_end(runs, setup_only)
        self.assertAlmostEqual(e2e["wall_ns_per_pkt"][0], 1100.0 * 40 / 200)
        self.assertAlmostEqual(e2e["slice_ms_p50"][0], 1100.0 / 1e6)
        self.assertAlmostEqual(e2e["setup_s"][0], 0.21)
        self.assertEqual(set(e2e), {m["name"] for m in BENCHMARK["end_to_end"]})

    def test_per_layer_names_match_benchmark_json(self):
        trace = LedgerTest()
        trace.setUp()
        m = ledger.per_layer([trace.run], trace.trace)
        self.assertEqual(list(m), [x["name"] for x in BENCHMARK["per_layer"]])
        self.assertEqual([u for _, u in m.values()], [x["unit"] for x in BENCHMARK["per_layer"]])


class RssReaderTest(unittest.TestCase):
    def test_reader_sees_touched_memory(self):
        binary = run.build()
        out = subprocess.run([str(binary), "--mode", "rss-check"], check=True,
                             capture_output=True, text=True).stdout
        r = json.loads(out.strip().splitlines()[-1])
        grown = r["rss_after_mb"] - r["rss_before_mb"]
        self.assertGreater(grown, 0.9 * r["allocated_mb"])
        self.assertLess(grown, 1.1 * r["allocated_mb"] + 4)
        self.assertGreaterEqual(r["peak_mb"] + 0.5, r["rss_after_mb"])


if __name__ == "__main__":
    unittest.main()
