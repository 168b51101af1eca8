"""Metric arithmetic and correctness checks of the cost-ledger benchmark.

Pure functions over the raw JSON that perfbench_sim prints, so that the
rules (percentile choice, invariants, ledger closure) are unit-tested apart
from any simulation. run.py is the command that drives them.
"""

import math
import statistics

# Host times are reported at a fixed reference speed: each process times a
# fixed memory-bound kernel (perfbench_sim's HostReference) before every
# tenth slice (a set-up-only process: after its set-up), and its times are scaled by REFERENCE_NS / that kernel's
# median. The slice after each sample refills the caches the kernel evicted
# and is left out of every host-time figure. Other
# tenants of a shared host slow both alike, so the ratio stays put where raw
# wall time drifts by tens of percent from one minute to the next.
REFERENCE_NS = 550_000.0


def host_scale(raw):
    """Factor from a process's wall ns to ns at the reference speed."""
    return REFERENCE_NS / raw["ref_ns"]


def unscaled(raw):
    """The same run with its host times left as measured (scale 1)."""
    return dict(raw, ref_ns=REFERENCE_NS)


def percentile_rule(values, min_beyond=10, cap=0.99):
    """Highest percentile that keeps at least `min_beyond` samples above it.

    Returns (value, level, count): the sample at that rank, the percentile
    level actually reported (capped at `cap`), and the number of samples.
    With fewer than min_beyond + 1 samples no rank qualifies; the maximum is
    returned with level 1.0 so the caller can see the rule did not apply.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    if n <= min_beyond:
        return ordered[-1], 1.0, n
    # Rank r (0-based) has n - 1 - r samples above it; the highest rank with
    # >= min_beyond above is n - 1 - min_beyond. Cap at `cap` when the run
    # has enough samples for the nominal percentile.
    rank = n - 1 - min_beyond
    rank = min(rank, max(0, math.ceil(cap * n) - 1))
    level = (rank + 1) / n
    return ordered[rank], level, n


def req_fail_frac(clients):
    """Simulated client requests not answered, over requests sent."""
    sent = sum(c["sent"] for c in clients)
    received = sum(c["received"] for c in clients)
    return (sent - received) / sent if sent else 0.0


def check_invariants(raw):
    """Correctness checks on one run's counters.

    Returns a list of (name, ok, detail). Every entry is one attempted
    operation of the benchmark; a False one is a failed operation.
    """
    checks = []
    # Counters are read after the drain that follows the window, when no
    # request is in service; one still queued would be counted, too.
    for s in raw["servers"]:
        drops = s["dropped_no_app"] + s["dropped_overflow"]
        ok = s["received"] == s["completed"] + drops + s["queued"]
        checks.append((
            "server %s received == completed + dropped" % s["name"], ok,
            "%d vs %d + %d + %d queued" % (s["received"], s["completed"], drops,
                                            s["queued"])))
    for c in raw["clients"]:
        rhs = c["received"] + c["lost"] + c["outstanding"]
        checks.append((
            "client %s sent == received + lost + outstanding" % c["name"],
            c["sent"] == rhs, "%d vs %d" % (c["sent"], rhs)))
    if raw["ledger"]:  # Workloads without an orchestrator have no ledger.
        violations = budget_violations(raw["ledger"])
        checks.append(("ledger committed <= budget at every slice sample",
                       violations == 0,
                       "%d of %d samples over budget" % (violations, len(raw["ledger"]))))
    # The failure share must come from the same counters the client check
    # reconciles: unanswered = lost + outstanding.
    unanswered = sum(c["lost"] + c["outstanding"] for c in raw["clients"])
    sent = sum(c["sent"] for c in raw["clients"])
    from_losses = unanswered / sent if sent else 0.0
    frac = req_fail_frac(raw["clients"])
    checks.append(("req_fail_frac == (lost + outstanding) / sent",
                   abs(frac - from_losses) <= 1e-12,
                   "%.9f vs %.9f" % (frac, from_losses)))
    checks.append(("client packets measured > 0", raw["pkts_measured"] > 0,
                   str(raw["pkts_measured"])))
    return checks


def budget_violations(ledger, tolerance=1e-9):
    """Samples whose committed watts exceed a positive budget."""
    return sum(1 for committed, budget in ledger
               if budget > 0 and committed > budget + tolerance)


def fingerprint_mismatches(reference, other):
    """Keys on which two simulated fingerprints differ (event identity)."""
    keys = set(reference) | set(other)
    return sorted(k for k in keys if reference.get(k) != other.get(k))


def measured_slices(raw):
    """(wall ns, client packets) of each slice not after a reference sample."""
    skip = set(raw["ref_slices"])
    return [(wall, pkts) for i, (wall, pkts)
            in enumerate(zip(raw["slice_wall_ns"], raw["slice_pkts"])) if i not in skip]


def wall_ns_per_pkt(raw):
    slices = measured_slices(raw)
    return (sum(w for w, _ in slices) / sum(p for _, p in slices)) * host_scale(raw)


def slice_stats(raw):
    """(median slice ms, tail slice ms, tail level, slice count) of one run."""
    scale = host_scale(raw)
    slices_ms = [wall / 1e6 * scale for wall, _ in measured_slices(raw)]
    tail, level, count = percentile_rule(slices_ms)
    return statistics.median(slices_ms), tail, level, count


def end_to_end(runs, setups):
    """End-to-end metrics, as {name: (value, unit)}.

    `runs` are repeats of one untraced run (same seed, same window); each
    time metric is the median over the repeats, which rejects a repeat that
    a noisy neighbour slowed. `setups` are set-up-only processes; setup_s is
    the median set-up time over them and the repeats.
    """
    setup_samples = [r["setup_s"] * host_scale(r) for r in list(setups) + list(runs)]
    stats = [slice_stats(r) for r in runs]
    return {
        "wall_ns_per_pkt": (statistics.median(wall_ns_per_pkt(r) for r in runs), "ns"),
        "slice_ms_p50": (statistics.median(s[0] for s in stats), "ms"),
        "slice_ms_p99": (statistics.median(s[1] for s in stats), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def rss_growth_mb_per_sim_s(raw):
    return (raw["rss_end_mb"] - raw["rss_after_warm_mb"]) / raw["sim_s_measured"]


def calls_per_pkt(raw):
    """Calls into each replayed layer per simulated client packet.

    Counters are whole-run totals, so they are divided by whole-run packets.
    Where a layer's call count is not a counter of its own it is estimated
    from the counters that drive it; each estimate is named below.
    """
    c = raw["counters"]
    pkts = raw["pkts_total"]
    sent = sum(x["sent"] for x in raw["clients"])
    # LaKe: an L1 lookup per GET, an L2 lookup or promote/fill per L1 miss;
    # the host store: one op per GET or SET that reaches it.
    lake_gets = c["kvs.l1_hits"] + c["kvs.l2_hits"] + c["kvs.misses_to_host"]
    kv_ops = 2 * lake_gets + c["kvs.host_gets"] + c["kvs.host_sets"]
    answered = c.get("dns.answered_host", 0) + c.get("dns.answered_tor", 0)
    # Link hops: the client link per packet, one egress per switch forward,
    # and the PCIe link per host crossing.
    hops = pkts + c.get("net.switch_forwarded", 0) + c["net.pcie_crossings"]
    return {
        "sim": raw["events_executed"] / pkts,
        "net": hops / pkts,
        "kvs": kv_ops / pkts,
        # One zone lookup and one response DnsWireBytes per answered query
        # (the query's own DnsWireBytes is inside the workload factory).
        "dns": answered / pkts,
        "paxos": c.get("paxos.acceptor_instances", 0) / pkts,
        "stats_window": c["stats.rate_records"] / pkts,
        "stats_histogram": c["stats.histogram_records"] / pkts,
        "workload": sent / pkts,
    }


def ledger_rows(trace, replay, calls, traced_ns_per_pkt):
    """Per-layer ns per packet; the unattributed row closes the sum.

    Each row is ns per call of the layer's public function (timed by a
    replay) x calls per client packet. Layers without a replay (device,
    host, ondemand, power, fault, row, scenarios) fall into the unattributed
    row. The rows sum to `traced_ns_per_pkt` exactly.
    """
    per = calls_per_pkt(trace)
    rows = {
        # RunUntil peeks the calendar once more per event than the replay's
        # RunNext loop does.
        "sim": (replay["sim.queue_event_ns"] + calls["peek_ns"]) * per["sim"],
        "net": replay["net.link_send_ns"] * per["net"],
        "kvs": replay["kvs.store_op_ns"] * per["kvs"],
        "dns": (replay["dns.zone_lookup_ns"] + replay["dns.wire_bytes_ns"]) * per["dns"],
        "paxos": replay["paxos.acceptor_handle_ns"] * per["paxos"],
        "stats": (replay["stats.window_record_ns"] * per["stats_window"]
                  + replay["stats.histogram_record_ns"] * per["stats_histogram"]),
        "workload": replay["workload.factory_ns"] * per["workload"],
    }
    rows["unattributed"] = traced_ns_per_pkt - sum(rows.values())
    return rows


def check_ledger(metrics):
    """The attributed ledger rows must fit in the traced wall they divide.

    Replays time each call alone, without the traced loop's clock reads, so
    they can only undercount it; rows that sum past the traced wall (the sum
    of all rows) mean a replay or a calls-per-packet estimate is wrong, and
    the unattributed row goes negative. Returns one (name, ok, detail) check.
    """
    rows = {k: v for k, (v, _) in metrics.items() if k.startswith("ledger.")}
    traced = sum(rows.values())
    attributed = traced - rows["ledger.unattributed_ns_per_pkt"]
    return ("ledger rows attributed <= traced wall",
            0 <= attributed <= traced,
            "%.1f of %.1f ns per packet" % (attributed, traced))


def shift_slice_ms(raw):
    """Wall ms of each measured slice that contains a placement transition.

    Slice i (0-based) runs the events in (start + i w, start + (i + 1) w].
    """
    start = raw["window_start_ms"]
    width = raw["slice_sim_ms"]
    walls = raw["slice_wall_ns"]
    hit = sorted({math.ceil((t - start) / width) - 1 for t in raw["transition_ms"]
                  if start < t <= start + width * len(walls)})
    return [walls[i] / 1e6 for i in hit]


def per_layer(runs, trace, sq=None, mt=None):
    """Per-layer metrics, as {name: (value, unit)}.

    `runs` are the untraced repeats, `trace` the traced run of the same seed
    and window. A sharded workload is traced on its single-queue engine and
    adds that engine's untraced twin `sq` and its multi-thread parallel twin
    `mt` (None otherwise); `sq` is then the untraced base of trace.overhead.
    Counts come from the untraced run (they repeat exactly), timings from
    the traced one; untraced wall times are medians over the repeats.
    """
    run = runs[0]
    c = run["counters"]
    fp = run["fingerprint"]
    calls = {k: v * host_scale(trace) for k, v in trace["calls"].items()}
    replay = {k: v * host_scale(trace) for k, v in trace["replay"].items()}
    sent = sum(x["sent"] for x in run["clients"])
    traced_ns = wall_ns_per_pkt(trace)
    if sq is not None:
        untraced_ns = wall_ns_per_pkt(sq)
    else:
        untraced_ns = statistics.median(wall_ns_per_pkt(r) for r in runs)
    lake_gets = c["kvs.l1_hits"] + c["kvs.l2_hits"] + c["kvs.misses_to_host"]
    shift_slices = [ms * host_scale(run) for ms in shift_slice_ms(run)]
    if sq is not None and mt is not None:
        efficiency = wall_ns_per_pkt(sq) / (wall_ns_per_pkt(mt) * mt["worker_threads"])
    else:
        efficiency = 1.0
    m = {
        "sim.events_per_pkt": (run["events_measured"] / run["pkts_measured"], "count"),
        "sim.peek_ns": (calls["peek_ns"], "ns"),
        "sim.run_next_ns_p50": (calls["run_next_ns_p50"], "ns"),
        "sim.run_next_ns_p99": (calls["run_next_ns_p99"], "ns"),
        "sim.pending_peak": (max(run["pending"]), "count"),
        "sim.sharded.efficiency": (efficiency, "ratio"),
        "net.link_send_ns": (replay["net.link_send_ns"], "ns"),
        "net.switch_fwd_per_pkt": (c.get("net.switch_forwarded", 0) / run["pkts_total"], "count"),
        "net.link_drops": (c["net.link_drops"], "count"),
        "device.fpga_hw_frac": (c["device.fpga_hw"] / max(c["device.app_ingress"], 1), "ratio"),
        "device.fpga_to_host": (c["device.fpga_to_host"], "count"),
        "device.tor_answered_frac": (c.get("device.tor_answered", 0) / max(sent, 1), "ratio"),
        "host.completed": (sum(s["completed"] for s in run["servers"]), "count"),
        "host.dropped": (sum(s["dropped_no_app"] + s["dropped_overflow"]
                             for s in run["servers"]), "count"),
        "kvs.store_op_ns": (replay["kvs.store_op_ns"], "ns"),
        "kvs.lake_hit_ratio": ((c["kvs.l1_hits"] + c["kvs.l2_hits"]) / max(lake_gets, 1), "ratio"),
        "dns.zone_lookup_ns": (replay["dns.zone_lookup_ns"], "ns"),
        "dns.wire_bytes_ns": (replay["dns.wire_bytes_ns"], "ns"),
        "dns.encode_ns": (replay["dns.encode_ns"], "ns"),
        "paxos.acceptor_instances": (c.get("paxos.acceptor_instances", 0), "count"),
        "paxos.acceptor_handle_ns": (replay["paxos.acceptor_handle_ns"], "ns"),
        "stats.window_record_ns": (replay["stats.window_record_ns"], "ns"),
        "stats.histogram_record_ns": (replay["stats.histogram_record_ns"], "ns"),
        "ondemand.decisions": (c.get("ondemand.decisions", 0), "count"),
        "ondemand.shifts": (c.get("ondemand.shifts", 0), "count"),
        "ondemand.warm_shifts": (c.get("ondemand.warm_shifts", 0), "count"),
        "ondemand.checkpoints": (c.get("ondemand.checkpoints", 0), "count"),
        "ondemand.shift_slice_ms": (max(shift_slices) if shift_slices else 0.0, "ms"),
        "power.committed_w_mean": (c.get("ondemand.committed_w_mean", 0.0), "W"),
        "power.budget_violations": (budget_violations(run["ledger"]), "count"),
        "fault.failures_detected": (c.get("fault.failures_detected", 0), "count"),
        "fault.recoveries": (c.get("fault.recoveries", 0), "count"),
        "row.cap_updates": (c.get("row.cap_updates", 0), "count"),
        "workload.factory_ns": (replay["workload.factory_ns"], "ns"),
        "workload.sim_latency_us_p50": (fp["latency_ns_p50"] / 1e3, "us"),
        "workload.sim_latency_us_p99": (fp["latency_ns_p99"] / 1e3, "us"),
        "req_fail_frac": (req_fail_frac(run["clients"]), "ratio"),
        "rss_growth_mb_per_sim_s": (
            statistics.median(rss_growth_mb_per_sim_s(r) for r in runs), "MB/s"),
        "scenarios.build_s": (trace["build_s"] * host_scale(trace), "s"),
        "scenarios.prefill_s": (trace["prefill_s"] * host_scale(trace), "s"),
        "trace.overhead": (traced_ns / untraced_ns, "ratio"),
    }
    for layer, ns in ledger_rows(trace, replay, calls, traced_ns).items():
        m["ledger.%s_ns_per_pkt" % layer] = (ns, "ns")
    return m
