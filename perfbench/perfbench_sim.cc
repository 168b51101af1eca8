// perfbench_sim: runs one canonical simulation and prints its raw
// measurements as one JSON object on the last line of stdout. run.py turns
// them into the benchmark's metrics and checks; nothing here decides
// pass/fail.
//
//   perfbench_sim --workload W --seed N --seconds S --mode MODE
//
// Modes:
//   setup      build + prefill + start only (one set-up-time sample).
//   run        the untraced run: end-to-end measurements. The simulation is
//              advanced with RunUntil in equal slices of simulated time.
//   trace      the traced run: same simulation and seed, driven with
//              NextEventTime/RunNext (sampled per-call timing), then replays
//              of each layer's public calls on the workload's own inputs.
//              Spans are kept in memory and written once, to --spans PATH.
//              The sharded workload is traced on its single-queue engine,
//              the one queue such a loop can drive.
//   run-sq     the sharded workload's single-queue twin, advanced like `run`
//              (the untraced base of its trace.overhead and efficiency).
//   run-mt     the sharded workload's multi-thread parallel twin, advanced
//              like `run` (the sharded-engine efficiency figure).
//   rss-check  allocates and touches a known amount of memory and reports
//              the RSS reader before and after (the benchmark's RSS test).
//
// Only public simulator API is used: scenario constructors, component
// counters, Simulation/ShardedSimulation run calls and free functions.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/dns/dns_message.h"
#include "src/dns/zone.h"
#include "src/kvs/kv_store.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/kvs/netcache.h"
#include "src/net/link.h"
#include "src/paxos/roles.h"
#include "src/paxos/software_roles.h"
#include "src/row/row_scenario.h"
#include "src/row/row_spec.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/multi_rack.h"
#include "src/scenarios/rack_scenario.h"
#include "src/sim/sharded.h"
#include "src/sim/simulation.h"
#include "src/stats/histogram.h"
#include "src/stats/timeseries.h"
#include "src/workload/dns_workload.h"
#include "src/workload/etc_workload.h"

namespace {

using namespace incod;

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- JSON ----
// Minimal streaming writer: objects, arrays, numbers and strings.
class Json {
 public:
  void Begin(const char* key = nullptr) { Open(key, '{'); }
  void End() { Close('}'); }
  void BeginArray(const char* key = nullptr) { Open(key, '['); }
  void EndArray() { Close(']'); }
  void Num(const char* key, double v) {
    Prefix(key);
    if (!std::isfinite(v)) {
      out_ << "null";
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
  }
  void Int(const char* key, int64_t v) {
    Prefix(key);
    out_ << v;
  }
  void Str(const char* key, const std::string& v) {
    Prefix(key);
    out_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ << '\\';
      }
      out_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    out_ << '"';
  }
  std::string str() const { return out_.str(); }

 private:
  void Prefix(const char* key) {
    if (!first_.empty()) {
      if (!first_.back()) {
        out_ << ',';
      }
      first_.back() = false;
    }
    if (key != nullptr) {
      out_ << '"' << key << "\":";
    }
  }
  void Open(const char* key, char c) {
    Prefix(key);
    out_ << c;
    first_.push_back(true);
  }
  void Close(char c) {
    out_ << c;
    first_.pop_back();
  }
  std::ostringstream out_;
  std::vector<bool> first_;
};

// ----------------------------------------------------------------- RSS ----
// Resident set size from /proc/self/statm (second field, in pages).
double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0;
  long resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// Peak resident set size of this process (getrusage ru_maxrss, KiB on Linux).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------ Host reference ----
// A fixed memory-bound kernel (independent random reads over 64 MiB, a
// working set that, like the simulations', lives partly in a shared
// last-level cache and partly in DRAM), timed before every
// kReferenceEvery-th slice so that it follows the host's speed through the
// window (in `setup` mode: after the set-up). Its median time lets run.py express host time at a fixed
// reference speed, a within-run ratio that cancels the slowdowns other
// tenants of a shared host impose on every process. The kernel evicts the
// simulation's caches, so the slice after each sample pays to refill them;
// that slice is left out of the measured figures.
// The buffer is resident for the whole process; SimPeakRssMb() excludes it.
volatile uint64_t reference_sink = 0;

constexpr int kReferenceEvery = 10;

class HostReference {
 public:
  static constexpr size_t kBytes = size_t{64} << 20;
  static constexpr int kReads = 20000;

  HostReference() : buf_(kBytes / sizeof(uint64_t), 1) {}

  void Sample() {
    uint64_t sum = 0;
    const int64_t t0 = WallNs();
    for (int i = 0; i < kReads; ++i) {
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      sum += buf_[state_ & (buf_.size() - 1)];
    }
    samples_.push_back(WallNs() - t0);
    reference_sink = sum;  // Keeps the reads.
  }
  double MedianNs() const {
    std::vector<int64_t> v = samples_;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? static_cast<double>(v[n / 2])
                      : static_cast<double>(v[n / 2 - 1] + v[n / 2]) / 2.0;
  }

 private:
  std::vector<uint64_t> buf_;
  uint64_t state_ = 88172645463325252ULL;
  std::vector<int64_t> samples_;
};

double SimPeakRssMb() {
  return PeakRssMb() - static_cast<double>(HostReference::kBytes) / (1024.0 * 1024.0);
}

// --------------------------------------------------------------- Spans ----
// In-memory span recorder for the traced run; written out once at the end
// as Chrome trace-event JSON.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(WallNs()) {}
  int Begin(const char* name, int parent = -1) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({name, WallNs(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) {
      spans_[static_cast<size_t>(id)].end = WallNs();
    }
  }
  void Add(const char* name, int64_t start, int64_t end, int parent) {
    if (enabled_) {
      spans_.push_back({name, start, end, parent});
    }
  }
  size_t size() const { return spans_.size(); }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name, (s.start - origin_) / 1e3,
                    (s.end - s.start) / 1e3, i, s.parent);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    int64_t start;
    int64_t end;
    int parent;
  };
  bool enabled_;
  int64_t origin_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ Counters ----
struct ServerCount {
  std::string name;
  uint64_t received = 0, completed = 0, dropped_no_app = 0, dropped_overflow = 0, queued = 0;
};
struct ClientCount {
  std::string name;
  uint64_t sent = 0, received = 0, lost = 0, outstanding = 0;
};

ServerCount CountServer(const std::string& name, const Server& s) {
  return {name,           s.requests_received(), s.requests_completed(),
          s.dropped_no_app(), s.dropped_overflow(),  s.rx_queued()};
}
ClientCount CountClient(const LoadClient& c) {
  return {c.SinkName(), c.sent(), c.received(), c.lost(), c.outstanding()};
}
// Paxos retries are resends of one request: sent counts each request once,
// and it ends completed, abandoned or still outstanding.
ClientCount CountPaxosClient(const PaxosClient& c) {
  return {"paxos-client", c.sent(), c.completed(), c.timeouts_abandoned(), c.outstanding()};
}

// Drops over every named link of a testbed (names as the fault layer
// registers them; each link counted once).
double LinkDrops(ScenarioTestbed& tb) {
  std::set<const Link*> seen;
  double drops = 0;
  for (const std::string& name : tb.faults().LinkNames()) {
    const Link* link = tb.builder().topology().FindLink(name);
    if (link != nullptr && seen.insert(link).second) {
      drops += static_cast<double>(link->total_dropped());
    }
  }
  return drops;
}

void AddServers(ScenarioTestbed& tb, const std::string& prefix, std::vector<ServerCount>& out) {
  for (size_t i = 0; i < tb.member_count(); ++i) {
    ScenarioMember& m = tb.member(i);
    if (m.server != nullptr) {
      out.push_back(CountServer(prefix + m.name, *m.server));
    }
  }
}

// A factory replay's inputs, shared by the layer replays: generated
// requests (with their packet sizes) and Poisson send times.
struct Stream {
  std::vector<Packet> requests;
  std::vector<SimTime> times;
  int64_t factory_ns = 0;  // Wall time of the factory calls.
};

Stream ReplayFactory(const RequestFactory& factory, double rate, size_t n, uint64_t seed) {
  Stream s;
  s.requests.reserve(n);
  s.times.reserve(n);
  Rng rng(seed);
  PoissonArrival arrival(rate);
  SimTime t = 0;
  const int64_t t0 = WallNs();
  for (size_t i = 0; i < n; ++i) {
    s.requests.push_back(factory(100, i + 1, t, rng));
  }
  s.factory_ns = WallNs() - t0;
  for (size_t i = 0; i < n; ++i) {
    t += arrival.NextGap(rng);
    s.times.push_back(t);
  }
  return s;
}

// ------------------------------------------------------------ Workload ----
// One canonical simulation. Timeline: set-up, warm-up, then `slices` equal
// slices of simulated time (the measured window).
class Workload {
 public:
  virtual ~Workload() = default;

  // Scenario construction (spans: build) and prefill (spans: prefill).
  virtual void Build(uint64_t seed, SimTime window_start, SimDuration window) = 0;
  virtual void Prefill() = 0;
  // Starts clients/orchestrators (part of set-up: up to the first event).
  virtual void Start() = 0;

  virtual void RunUntil(SimTime t) = 0;
  // The queue the traced loop drives with NextEventTime/RunNext.
  virtual Simulation& TraceQueue() = 0;
  virtual uint64_t events_executed() = 0;
  virtual size_t pending_events() = 0;

  // Simulated client packets so far: requests sent plus replies received.
  virtual uint64_t ClientPackets() = 0;
  virtual void Servers(std::vector<ServerCount>& out) = 0;
  virtual void Clients(std::vector<ClientCount>& out) = 0;
  // Power ledgers, sampled per slice: {committed, budget} pairs.
  virtual void Ledgers(std::vector<std::pair<double, double>>& out) = 0;
  // Layer counters (model outputs; identical between traced and untraced).
  virtual void Counters(std::map<std::string, double>& out) = 0;
  // Simulated fingerprint entries beyond the common ones.
  virtual void Fingerprint(std::map<std::string, double>& out) = 0;
  // Times (simulated) of placement transitions, for shift-slice lookup.
  virtual std::vector<SimTime> TransitionTimes() = 0;

  // Replay inputs: the workload's KV and DNS factories with their rates.
  struct FactorySpec {
    std::string layer;  // "kvs" or "dns"
    RequestFactory factory;
    double rate = 0;
  };
  virtual std::vector<FactorySpec> Factories() = 0;
  // Store capacity and prefill the KV replay should mirror.
  virtual size_t KvStoreCapacity() = 0;
  virtual uint64_t KvPrefill() = 0;
  virtual size_t ZoneSize() = 0;
  // Engine of a sharded workload: the single-queue reference, or the
  // parallel engine on `threads` workers.
  virtual void UseEngine(bool /*single_queue*/, int /*threads*/) {}
  virtual int worker_threads() const { return 1; }
};

// Simulated client latency over all of a workload's clients.
void AddClientLatency(const std::vector<const Histogram*>& hs, std::map<std::string, double>& fp) {
  Histogram merged;
  for (const Histogram* h : hs) {
    merged.Merge(*h);
  }
  fp["latency_ns_p50"] = static_cast<double>(merged.ValueAtQuantile(0.50));
  fp["latency_ns_p99"] = static_cast<double>(merged.ValueAtQuantile(0.99));
}

// ----- kvs_etc: KvsTestbed with LaKe, ETC Zipf-0.99, 97:3 GET:SET ----------
// The keyspace (1M) is far larger than LaKe's 4096-entry L1 and its L2 is
// cut to 100k entries, so L1, DRAM L2 and the host all serve.
class KvsEtc : public Workload {
 public:
  static constexpr uint64_t kKeys = 1'000'000;
  static constexpr size_t kL2Entries = 100'000;
  static constexpr double kRate = 1'000'000;

  void Build(uint64_t seed, SimTime window_start, SimDuration window) override {
    sim_ = std::make_unique<Simulation>(seed);
    KvsTestbedOptions options;
    options.mode = KvsMode::kLake;
    options.lake.l2_entries = kL2Entries;
    tb_ = std::make_unique<KvsTestbed>(*sim_, options);
    EtcWorkloadConfig etc;
    etc.kvs_service = tb_->ServiceNode();
    etc.key_population = kKeys;
    etc_ = std::make_unique<EtcWorkload>(etc);
    client_ = &tb_->AddClient(LoadClientConfig{}, std::make_unique<PoissonArrival>(kRate),
                              etc_->MakeFactory());
    client_->StopAt(window_start + window);
  }
  void Prefill() override { tb_->Prefill(kKeys, 64); }
  void Start() override { client_->Start(); }
  void RunUntil(SimTime t) override { sim_->RunUntil(t); }
  Simulation& TraceQueue() override { return *sim_; }
  uint64_t events_executed() override { return sim_->events_executed(); }
  size_t pending_events() override { return sim_->pending_events(); }
  uint64_t ClientPackets() override { return client_->sent() + client_->received(); }
  void Servers(std::vector<ServerCount>& out) override {
    out.push_back(CountServer("kvs-host", *tb_->server()));
  }
  void Clients(std::vector<ClientCount>& out) override { out.push_back(CountClient(*client_)); }
  void Ledgers(std::vector<std::pair<double, double>>&) override {}
  void Counters(std::map<std::string, double>& c) override {
    FpgaNic& fpga = *tb_->fpga();
    LakeCache& lake = *tb_->lake();
    MemcachedServer& mc = *tb_->memcached();
    c["device.app_ingress"] = static_cast<double>(fpga.app_ingress_packets());
    c["device.fpga_hw"] = static_cast<double>(fpga.processed_in_hardware());
    c["device.fpga_to_host"] = static_cast<double>(fpga.delivered_to_host());
    c["kvs.l1_hits"] = static_cast<double>(lake.l1_hits());
    c["kvs.l2_hits"] = static_cast<double>(lake.l2_hits());
    c["kvs.misses_to_host"] = static_cast<double>(lake.misses_to_host());
    c["kvs.host_gets"] = static_cast<double>(mc.gets());
    c["kvs.host_sets"] = static_cast<double>(mc.sets());
    c["stats.rate_records"] =
        static_cast<double>(fpga.app_ingress_packets() + fpga.processed_in_hardware());
    c["stats.histogram_records"] = static_cast<double>(client_->received());
    c["net.pcie_crossings"] = 2.0 * static_cast<double>(fpga.delivered_to_host());
    c["net.link_drops"] = LinkDrops(tb_->scenario());
  }
  void Fingerprint(std::map<std::string, double>& fp) override {
    fp["kvs_served"] = static_cast<double>(client_->received());
    fp["lake_hw"] = static_cast<double>(tb_->fpga()->processed_in_hardware());
    AddClientLatency({&client_->latency()}, fp);
  }
  std::vector<SimTime> TransitionTimes() override { return {}; }
  std::vector<FactorySpec> Factories() override {
    return {{"kvs", etc_->MakeFactory(), kRate}};
  }
  size_t KvStoreCapacity() override { return kL2Entries; }
  uint64_t KvPrefill() override { return kKeys; }
  size_t ZoneSize() override { return 0; }

 private:
  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<KvsTestbed> tb_;
  std::unique_ptr<EtcWorkload> etc_;  // Its factory points into it.
  LoadClient* client_ = nullptr;
};

// ----- rack_ondemand: the rack_scheduler mixed rack, timeline compressed ---
// KVS ETC + DNS + Paxos under one RackOrchestrator with a 120 W budget and
// warm KVS shifts. Inside the measured window: DNS steps up to 300 kqps
// (DNS -> ToR shift), the KVS surges to 500 kqps (warm host -> LaKe shift)
// and falls back (warm shift home).
class RackOnDemand : public Workload {
 public:
  static constexpr uint64_t kKeys = 500'000;

  void Build(uint64_t seed, SimTime window_start, SimDuration window) override {
    sim_ = std::make_unique<Simulation>(seed);
    MixedRackOptions options;
    options.power_budget_watts = 120.0;
    options.orchestrator.min_saving_watts = 2.0;
    options.orchestrator.check_period = Milliseconds(20);
    options.orchestrator.min_dwell = Milliseconds(100);
    options.orchestrator.sample_period = Milliseconds(20);
    options.warm.kvs = true;
    options.paxos_client.requests_per_second = 170000;
    rack_ = std::make_unique<MixedRackScenario>(*sim_, options);
    auto kvs_arrival = std::make_unique<PoissonArrival>(kKvsQuiet);
    PoissonArrival* kvs_knob = kvs_arrival.get();
    etc_ = std::make_unique<EtcWorkload>(EtcConfig());
    kvs_ = &rack_->AddKvsClient(LoadClientConfig{}, std::move(kvs_arrival), etc_->MakeFactory());
    auto dns_arrival = std::make_unique<PoissonArrival>(kDnsQuiet);
    PoissonArrival* dns_knob = dns_arrival.get();
    dns_ = &rack_->AddDnsClient(LoadClientConfig{}, std::move(dns_arrival),
                                MakeDnsRequestFactory(DnsConfig()));
    const auto at = [&](double fraction) {
      return window_start + static_cast<SimTime>(fraction * static_cast<double>(window));
    };
    // The surge fills most of the window so its slices, not the quiet
    // phases', set the slice-time median.
    sim_->ScheduleAt(at(0.05), [dns_knob] { dns_knob->SetRate(kDnsBusy); });
    sim_->ScheduleAt(at(0.10), [kvs_knob] { kvs_knob->SetRate(kKvsSurge); });
    sim_->ScheduleAt(at(0.85), [kvs_knob] { kvs_knob->SetRate(kKvsQuiet); });
    kvs_->StopAt(at(1.0));
    dns_->StopAt(at(1.0));
    rack_->paxos_client()->StopAt(at(1.0));
  }
  void Prefill() override { rack_->PrefillKvs(kKeys, 64); }
  void Start() override {
    rack_->orchestrator().Start();
    kvs_->Start();
    dns_->Start();
    rack_->paxos_client()->Start();
  }
  void RunUntil(SimTime t) override { sim_->RunUntil(t); }
  Simulation& TraceQueue() override { return *sim_; }
  uint64_t events_executed() override { return sim_->events_executed(); }
  size_t pending_events() override { return sim_->pending_events(); }
  uint64_t ClientPackets() override {
    PaxosClient& p = *rack_->paxos_client();
    return kvs_->sent() + kvs_->received() + dns_->sent() + dns_->received() + p.sent() +
           p.retries() + p.completed();
  }
  void Servers(std::vector<ServerCount>& out) override { AddServers(rack_->scenario(), "", out); }
  void Clients(std::vector<ClientCount>& out) override {
    out.push_back(CountClient(*kvs_));
    out.push_back(CountClient(*dns_));
    out.push_back(CountPaxosClient(*rack_->paxos_client()));
  }
  void Ledgers(std::vector<std::pair<double, double>>& out) override {
    const RackPowerLedger& ledger = rack_->orchestrator().ledger();
    out.emplace_back(ledger.committed_watts(), ledger.budget_watts());
  }
  void Counters(std::map<std::string, double>& c) override {
    FpgaNic& fpga = rack_->kvs_fpga();
    LakeCache& lake = rack_->lake();
    MemcachedServer& mc = rack_->memcached();
    RackOrchestrator& orch = rack_->orchestrator();
    c["device.app_ingress"] = static_cast<double>(fpga.app_ingress_packets());
    c["device.fpga_hw"] = static_cast<double>(fpga.processed_in_hardware());
    c["device.fpga_to_host"] = static_cast<double>(fpga.delivered_to_host());
    c["device.tor_answered"] = static_cast<double>(rack_->dns_program().answered());
    c["net.switch_forwarded"] = static_cast<double>(rack_->tor().forwarded());
    c["kvs.l1_hits"] = static_cast<double>(lake.l1_hits());
    c["kvs.l2_hits"] = static_cast<double>(lake.l2_hits());
    c["kvs.misses_to_host"] = static_cast<double>(lake.misses_to_host());
    c["kvs.host_gets"] = static_cast<double>(mc.gets());
    c["kvs.host_sets"] = static_cast<double>(mc.sets());
    c["dns.answered_host"] = static_cast<double>(rack_->dns_server().requests_completed());
    c["dns.answered_tor"] = static_cast<double>(rack_->dns_program().answered());
    size_t instances = 0;
    for (size_t i = 0; i < rack_->scenario().member_count(); ++i) {
      ScenarioMember& m = rack_->scenario().member(i);
      for (auto& app : m.host_apps) {
        if (auto* acceptor = dynamic_cast<SoftwareAcceptor*>(app.get())) {
          instances += acceptor->state().stored_instances();
        }
      }
    }
    c["paxos.acceptor_instances"] = static_cast<double>(instances);
    c["ondemand.decisions"] = static_cast<double>(orch.decisions_evaluated());
    c["ondemand.shifts"] = static_cast<double>(orch.total_shifts());
    c["ondemand.warm_shifts"] = static_cast<double>(orch.warm_shifts());
    c["ondemand.checkpoints"] = static_cast<double>(orch.checkpoints_taken());
    c["ondemand.committed_w_mean"] = orch.committed_watts_series().MeanValue();
    c["fault.failures_detected"] = static_cast<double>(orch.failures_detected());
    c["fault.recoveries"] = static_cast<double>(orch.recoveries());
    c["stats.rate_records"] =
        static_cast<double>(fpga.app_ingress_packets() + fpga.processed_in_hardware() +
                            rack_->tor().forwarded() + rack_->tor().consumed_in_pipeline());
    c["stats.histogram_records"] =
        static_cast<double>(kvs_->received() + dns_->received() + rack_->paxos_client()->completed());
    c["net.pcie_crossings"] = 2.0 * static_cast<double>(fpga.delivered_to_host());
    c["net.link_drops"] = LinkDrops(rack_->scenario());
  }
  void Fingerprint(std::map<std::string, double>& fp) override {
    fp["kvs_served"] = static_cast<double>(kvs_->received());
    fp["dns_served"] = static_cast<double>(dns_->received());
    fp["paxos_served"] = static_cast<double>(rack_->paxos_client()->completed());
    fp["shifts"] = static_cast<double>(rack_->orchestrator().total_shifts());
    fp["transitions"] = static_cast<double>(TransitionTimes().size());
    fp["failures_detected"] = static_cast<double>(rack_->orchestrator().failures_detected());
    AddClientLatency({&kvs_->latency(), &dns_->latency()}, fp);
  }
  std::vector<SimTime> TransitionTimes() override {
    std::vector<SimTime> times;
    for (const auto& t : rack_->kvs_migrator().transitions()) times.push_back(t.at);
    for (const auto& t : rack_->dns_migrator().transitions()) times.push_back(t.at);
    if (rack_->paxos_migrator() != nullptr) {
      for (const auto& t : rack_->paxos_migrator()->transitions()) times.push_back(t.at);
    }
    std::sort(times.begin(), times.end());
    return times;
  }
  std::vector<FactorySpec> Factories() override {
    return {{"kvs", etc_->MakeFactory(), kKvsSurge},
            {"dns", MakeDnsRequestFactory(DnsConfig()), kDnsBusy}};
  }
  size_t KvStoreCapacity() override { return MemcachedConfig{}.capacity_entries; }
  uint64_t KvPrefill() override { return kKeys; }
  size_t ZoneSize() override { return MixedRackOptions{}.zone_size; }

 private:
  static constexpr double kKvsQuiet = 20000;
  static constexpr double kKvsSurge = 500000;
  static constexpr double kDnsQuiet = 20000;
  static constexpr double kDnsBusy = 300000;
  static EtcWorkloadConfig EtcConfig() {
    EtcWorkloadConfig config;
    config.kvs_service = kRackKvsServerNode;
    config.key_population = kKeys;
    return config;
  }
  static DnsWorkloadConfig DnsConfig() {
    DnsWorkloadConfig config;
    config.dns_service = kRackDnsServerNode;
    return config;
  }
  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<MixedRackScenario> rack_;
  std::unique_ptr<EtcWorkload> etc_;  // Its factory points into it.
  LoadClient* kvs_ = nullptr;
  LoadClient* dns_ = nullptr;
};

// ----- fabric_faulted: 4-rack row on the parallel sharded engine ----------
// Every rack orchestrated, LaKe forced on, NetCache in each ASIC ToR as the
// recovery landing spot, periodic checkpoints. One correlated fault wave in
// the window: LaKe deaths in every rack, an uplink flap, a global brownout.
class FabricFaulted : public Workload {
 public:
  static constexpr int kRacks = 4;
  // Measured runs use one worker: rounds, lookahead, mailboxes and barriers
  // all run, but no cross-core contention of a shared host leaks into the
  // time. The multi-thread twin (kTwinThreads) gives the sharded-engine
  // efficiency.
  static constexpr int kTwinThreads = 2;

  void Build(uint64_t seed, SimTime window_start, SimDuration window) override {
    ShardedSimulation::Options so;
    so.num_shards = kRacks + 1;
    so.num_threads = threads_;
    so.mode = single_queue_ ? ShardedSimulation::Mode::kSingleQueue
                            : ShardedSimulation::Mode::kParallel;
    so.seed = seed;
    ssim_ = std::make_unique<ShardedSimulation>(so);
    RowSpec spec = MakeMultiRackRowSpec(Options());
    for (int r = 0; r < kRacks; ++r) {
      RowRackSpec& rack = spec.racks[static_cast<size_t>(r)];
      ScenarioMemberSpec& kvs = rack.scenario.members[0];
      kvs.target.initially_active = false;
      kvs.target.name = "lake";
      rack.scenario.tor.asic = true;
      kvs.switch_app = "kvs";
      kvs.env.service = MultiRackScenario::KvsHostNode(r);
      rack.orchestrate = true;
      rack.orchestrator.check_period = Milliseconds(2);
      rack.orchestrator.min_dwell = Seconds(30);
      rack.orchestrator.sample_period = Milliseconds(2);
      rack.orchestrator.heartbeat_period = Milliseconds(1);
      rack.orchestrator.failure_threshold = 2;
      rack.orchestrator.checkpoint_period = Milliseconds(10);
      RowAppSpec app;
      app.member = 0;
      app.switch_option = true;
      rack.apps.push_back(app);
    }
    spec.power.global_budget_watts = 120;
    spec.power.report_period = Milliseconds(2);
    spec.power.apportion_period = Milliseconds(5);
    spec.power.sample_period = Milliseconds(2);
    spec.power.min_rack_watts = 5;
    const auto at = [&](double fraction) {
      return window_start + static_cast<SimTime>(fraction * static_cast<double>(window));
    };
    AppendDeviceDeathWave(spec.faults, {0, 1, 2, 3}, "lake", at(0.25));
    AppendUplinkFlapWave(spec.faults, {1}, at(0.45), Milliseconds(5));
    RowFaultEventSpec brownout;
    brownout.kind = RowFaultEventSpec::Kind::kGlobalBrownout;
    brownout.at = at(0.65);
    brownout.watts = 40;
    spec.faults.events.push_back(brownout);
    for (const RowClientSpec& client : spec.racks[0].clients) {
      client_specs_.push_back(client);
    }
    row_ = std::make_unique<RowScenario>(*ssim_, std::move(spec));
    for (int r = 0; r < kRacks; ++r) {
      for (size_t i = 0; i < row_->client_count(r); ++i) {
        row_->client(r, i).StopAt(at(1.0));
      }
    }
  }
  void Prefill() override {
    const MultiRackOptions options = Options();
    for (int r = 0; r < kRacks; ++r) {
      auto* memcached = row_->rack(r).member_host_app_as<MemcachedServer>(0);
      auto* lake = row_->rack(r).member_offload_app_as<LakeCache>(0);
      for (uint64_t k = 0; k < options.prefill; ++k) {
        memcached->store().Set(k, options.value_bytes);
      }
      lake->WarmFill(0, options.prefill, options.value_bytes);
    }
  }
  void Start() override {
    row_->Start();
    for (int r = 0; r < kRacks; ++r) {
      row_->rack_orchestrator(r)->ForcePlacement(row_->orchestrator_index(r, 0), 0);
    }
  }
  void RunUntil(SimTime t) override { ssim_->RunUntil(t); }
  Simulation& TraceQueue() override { return ssim_->shard(0); }
  uint64_t events_executed() override { return ssim_->events_executed(); }
  size_t pending_events() override { return ssim_->pending_events(); }
  uint64_t ClientPackets() override { return row_->TotalSent() + row_->TotalReceived(); }
  void Servers(std::vector<ServerCount>& out) override {
    for (int r = 0; r < kRacks; ++r) {
      AddServers(row_->rack(r), "rack" + std::to_string(r) + "/", out);
    }
  }
  void Clients(std::vector<ClientCount>& out) override {
    for (int r = 0; r < kRacks; ++r) {
      for (size_t i = 0; i < row_->client_count(r); ++i) {
        ClientCount c = CountClient(row_->client(r, i));
        c.name = "rack" + std::to_string(r) + "/" + c.name;
        out.push_back(c);
      }
    }
  }
  void Ledgers(std::vector<std::pair<double, double>>& out) override {
    for (int r = 0; r < kRacks; ++r) {
      const RackPowerLedger& ledger = row_->rack_orchestrator(r)->ledger();
      out.emplace_back(ledger.committed_watts(), ledger.budget_watts());
    }
    const RowPowerLedger& row = row_->row_orchestrator()->ledger();
    out.emplace_back(row.apportioned_watts(), row.budget_watts());
  }
  void Counters(std::map<std::string, double>& c) override {
    const auto add = [&c](const char* key, uint64_t v) { c[key] += static_cast<double>(v); };
    for (int r = 0; r < kRacks; ++r) {
      ScenarioTestbed& tb = row_->rack(r);
      FpgaNic& fpga = *tb.member(0).fpga;
      auto* lake = tb.member_offload_app_as<LakeCache>(0);
      auto* mc = tb.member_host_app_as<MemcachedServer>(0);
      auto* netcache = dynamic_cast<KvSwitchCache*>(tb.member(0).switch_program_app.get());
      const RackOrchestrator& orch = *row_->rack_orchestrator(r);
      const uint64_t dns_host = tb.member(1).server->requests_completed();
      add("device.app_ingress", fpga.app_ingress_packets());
      add("device.fpga_hw", fpga.processed_in_hardware());
      add("device.fpga_to_host", fpga.delivered_to_host());
      add("device.tor_answered", netcache->hits());
      add("net.switch_forwarded", tb.tor()->forwarded());
      add("kvs.l1_hits", lake->l1_hits());
      add("kvs.l2_hits", lake->l2_hits());
      add("kvs.misses_to_host", lake->misses_to_host());
      add("kvs.host_gets", mc->gets());
      add("kvs.host_sets", mc->sets());
      add("dns.answered_host", dns_host);
      add("ondemand.decisions", orch.decisions_evaluated());
      add("ondemand.shifts", orch.total_shifts());
      add("ondemand.warm_shifts", orch.warm_shifts());
      add("ondemand.checkpoints", orch.checkpoints_taken());
      c["ondemand.committed_w_mean"] += orch.committed_watts_series().MeanValue();
      add("fault.failures_detected", orch.failures_detected());
      add("fault.recoveries", orch.recoveries());
      add("stats.rate_records", fpga.app_ingress_packets() + fpga.processed_in_hardware() +
                                    tb.tor()->forwarded() +
                                    tb.tor_asic()->consumed_in_pipeline());
      for (size_t i = 0; i < row_->client_count(r); ++i) {
        add("stats.histogram_records", row_->client(r, i).received());
      }
      add("net.pcie_crossings", 2 * (fpga.delivered_to_host() + dns_host));
      c["net.link_drops"] += LinkDrops(tb);
      add("net.link_drops", row_->uplink(r).total_dropped());
    }
    add("net.switch_forwarded", row_->spine().forwarded());
    add("stats.rate_records", row_->spine().forwarded());
    add("row.cap_updates", row_->row_orchestrator()->caps_issued());
  }
  void Fingerprint(std::map<std::string, double>& fp) override {
    std::vector<const Histogram*> hs;
    double served = 0, shifts = 0, failures = 0;
    for (int r = 0; r < kRacks; ++r) {
      for (size_t i = 0; i < row_->client_count(r); ++i) {
        served += static_cast<double>(row_->client(r, i).received());
        hs.push_back(&row_->client(r, i).latency());
      }
      shifts += static_cast<double>(row_->rack_orchestrator(r)->total_shifts());
      failures += static_cast<double>(row_->rack_orchestrator(r)->failures_detected());
    }
    fp["served"] = served;
    fp["shifts"] = shifts;
    fp["transitions"] = static_cast<double>(TransitionTimes().size());
    fp["failures_detected"] = failures;
    fp["caps_issued"] = static_cast<double>(row_->row_orchestrator()->caps_issued());
    AddClientLatency(hs, fp);
  }
  std::vector<SimTime> TransitionTimes() override {
    std::vector<SimTime> times;
    for (int r = 0; r < kRacks; ++r) {
      for (const RackDecisionRecord& d : row_->rack_orchestrator(r)->decision_log()) {
        times.push_back(d.at);
      }
    }
    std::sort(times.begin(), times.end());
    return times;
  }
  std::vector<FactorySpec> Factories() override {
    std::vector<FactorySpec> out;
    for (const RowClientSpec& client : client_specs_) {
      const bool dns = client.workload.kind == ScenarioWorkloadSpec::Kind::kDnsQueries;
      out.push_back({dns ? "dns" : "kvs",
                     MakeScenarioRequestFactory(client.workload, client.service, &row_->zone()),
                     client.rate_per_second});
    }
    return out;
  }
  size_t KvStoreCapacity() override { return MemcachedConfig{}.capacity_entries; }
  uint64_t KvPrefill() override { return Options().prefill; }
  size_t ZoneSize() override { return Options().zone_size; }
  void UseEngine(bool single_queue, int threads) override {
    single_queue_ = single_queue;
    threads_ = threads;
  }
  int worker_threads() const override { return threads_; }

 private:
  static MultiRackOptions Options() {
    MultiRackOptions options;
    options.num_racks = kRacks;
    options.kvs_rate_per_second = 150000;
    options.dns_rate_per_second = 75000;
    // The scenario's default 4000-key set fits LaKe's 4096-entry L1, so a
    // checkpoint covers it and recovery restores every hot key.
    return options;
  }
  bool single_queue_ = false;
  int threads_ = 1;
  std::unique_ptr<ShardedSimulation> ssim_;
  std::unique_ptr<RowScenario> row_;
  std::vector<RowClientSpec> client_specs_;
};

// Per-workload timeline: warm-up, slice length, and how many slices of
// simulated time one wall second buys on a 4-thread x86 box (Release). The
// window is sized from --seconds so a run measures roughly that long while
// its event stream stays a pure function of (workload, seed, seconds).
struct Timeline {
  SimDuration warmup;
  SimDuration slice;
  double slices_per_wall_s;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Timeline* timeline) {
  if (name == "kvs_etc") {
    *timeline = {Milliseconds(100), Milliseconds(5), 64};
    return std::make_unique<KvsEtc>();
  }
  if (name == "rack_ondemand") {
    *timeline = {Milliseconds(200), Milliseconds(5), 58};
    return std::make_unique<RackOnDemand>();
  }
  if (name == "fabric_faulted") {
    *timeline = {Milliseconds(50), Milliseconds(5), 75};
    return std::make_unique<FabricFaulted>();
  }
  return nullptr;
}

struct Args {
  std::string workload;
  std::string mode = "run";
  std::string spans_path;
  uint64_t seed = 1;
  double seconds = 10;
};

struct SetupTimes {
  double build_s = 0;
  double prefill_s = 0;
};

SetupTimes SetUp(Workload& w, uint64_t seed, SimTime window_start, SimDuration window,
                 Spans& spans, int parent) {
  SetupTimes st;
  const int setup = spans.Begin("setup", parent);
  int64_t t0 = WallNs();
  const int build = spans.Begin("scenarios.build", setup);
  w.Build(seed, window_start, window);
  spans.End(build);
  int64_t t1 = WallNs();
  const int prefill = spans.Begin("scenarios.prefill", setup);
  w.Prefill();
  spans.End(prefill);
  int64_t t2 = WallNs();
  const int start = spans.Begin("scenarios.start", setup);
  w.Start();
  spans.End(start);
  int64_t t3 = WallNs();
  spans.End(setup);
  st.build_s = static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9;
  st.prefill_s = static_cast<double>(t2 - t1) / 1e9;
  return st;
}

// Sampled per-call timing of the traced loop.
struct CallTimes {
  std::vector<int32_t> peek_ns;
  std::vector<int32_t> run_next_ns;
  uint64_t peeks = 0;
  uint64_t run_nexts = 0;
};

constexpr uint64_t kCallSampleMask = 31;  // Time one call in 32.

// Advances `sim` to `end` exactly as RunUntil would (NextEventTime then
// RunNext while the next event is due), timing a sample of the calls.
void TracedRunUntil(Simulation& sim, SimTime end, CallTimes& calls, Spans& spans, int parent) {
  for (;;) {
    const bool sampled = (calls.peeks & kCallSampleMask) == 0;
    ++calls.peeks;
    SimTime next;
    if (sampled) {
      const int64_t t0 = WallNs();
      next = sim.NextEventTime();
      calls.peek_ns.push_back(static_cast<int32_t>(WallNs() - t0));
    } else {
      next = sim.NextEventTime();
    }
    if (next == Simulation::kNoEventTime || next > end) {
      break;
    }
    const bool sampled_run = (calls.run_nexts & kCallSampleMask) == 0;
    ++calls.run_nexts;
    if (sampled_run) {
      const int64_t t0 = WallNs();
      sim.RunNext();
      const int64_t t1 = WallNs();
      calls.run_next_ns.push_back(static_cast<int32_t>(std::min<int64_t>(t1 - t0, INT32_MAX)));
      if ((calls.run_nexts & 0xFFFF) == 1) {
        spans.Add("sim.event", t0, t1, parent);
      }
    } else {
      sim.RunNext();
    }
  }
  sim.RunUntil(end);  // Nothing is due; only moves Now() to `end`.
}

double Quantile(std::vector<int32_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const size_t k = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

// Cost of one steady_clock read pair, subtracted from sampled call times:
// the mean over back-to-back pairs, with the slowest 1% (preempted) dropped.
double ClockOverheadNs() {
  std::vector<int32_t> d;
  for (int i = 0; i < 20000; ++i) {
    const int64_t t0 = WallNs();
    d.push_back(static_cast<int32_t>(WallNs() - t0));
  }
  std::sort(d.begin(), d.end());
  d.resize(d.size() * 99 / 100);
  double sum = 0;
  for (int32_t v : d) {
    sum += v;
  }
  return sum / static_cast<double>(d.size());
}

// ------------------------------------------------------- Layer replays ----
// Each returns wall ns per call of the layer's public function on inputs
// drawn from the workload's own request streams.
struct NullSink : PacketSink {
  void Receive(Packet) override { ++received; }
  std::string SinkName() const override { return "null"; }
  uint64_t received = 0;
};

double ReplayLinkSend(const Stream& s) {
  Simulation sim(1);
  Link link(sim, Link::Config{}, "replay");
  NullSink a, b;
  link.Connect(&a, &b);
  const int64_t t0 = WallNs();
  for (size_t i = 0; i < s.requests.size(); ++i) {
    sim.RunUntil(s.times[i]);
    link.Send(&a, s.requests[i]);
  }
  sim.Run();
  const int64_t t1 = WallNs();
  return static_cast<double>(t1 - t0) / static_cast<double>(std::max<uint64_t>(b.received, 1));
}

double ReplayKvStore(const std::vector<const Stream*>& kv, size_t capacity, uint64_t prefill) {
  KvStore store(capacity);
  for (uint64_t k = 0; k < prefill; ++k) {
    store.Set(k, 64);
  }
  uint64_t ops = 0;
  uint32_t bytes = 0;
  uint64_t hits = 0;
  const int64_t t0 = WallNs();
  for (const Stream* s : kv) {
    for (const Packet& p : s->requests) {
      const KvRequest* req = PayloadIf<KvRequest>(p);
      if (req == nullptr) {
        continue;
      }
      ++ops;
      if (req->op == KvOp::kGet) {
        hits += store.Get(req->key, &bytes) ? 1 : 0;
      } else {
        store.Set(req->key, req->value_bytes);
      }
    }
  }
  const int64_t t1 = WallNs();
  if (hits > ops) {
    std::abort();  // Unreachable; keeps the loop's results observable.
  }
  return ops == 0 ? 0 : static_cast<double>(t1 - t0) / static_cast<double>(ops);
}

struct DnsReplay {
  double zone_lookup_ns = 0;
  double wire_bytes_ns = 0;
  double encode_ns = 0;
};

DnsReplay ReplayDns(const Stream& s, size_t zone_size) {
  Zone zone;
  zone.FillSynthetic(zone_size);
  std::vector<const DnsMessage*> queries;
  for (const Packet& p : s.requests) {
    if (const DnsMessage* m = PayloadIf<DnsMessage>(p)) {
      queries.push_back(m);
    }
  }
  DnsReplay r;
  if (queries.empty()) {
    return r;
  }
  const double n = static_cast<double>(queries.size());
  uint64_t sink = 0;
  int64_t t0 = WallNs();
  for (const DnsMessage* m : queries) {
    sink += zone.Lookup(m->questions[0].name).has_value() ? 1 : 0;
  }
  int64_t t1 = WallNs();
  r.zone_lookup_ns = static_cast<double>(t1 - t0) / n;
  t0 = WallNs();
  for (const DnsMessage* m : queries) {
    sink += DnsWireBytes(*m);
  }
  t1 = WallNs();
  r.wire_bytes_ns = static_cast<double>(t1 - t0) / n;
  t0 = WallNs();
  for (const DnsMessage* m : queries) {
    sink += EncodeDnsMessage(*m).size();
  }
  t1 = WallNs();
  r.encode_ns = static_cast<double>(t1 - t0) / n;
  if (sink == 0) {
    std::abort();  // Every query encodes to a non-empty wire message.
  }
  return r;
}

// Phase 2A over sequential instances on one acceptor: the path that grows
// the vote log every decided instance.
double ReplayAcceptor(size_t n) {
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;
  AcceptorState acceptor(group, 0);
  PaxosMessage msg;
  msg.type = PaxosMsgType::kPhase2a;
  msg.round = 1;
  size_t outs = 0;
  const int64_t t0 = WallNs();
  for (size_t i = 1; i <= n; ++i) {
    msg.instance = static_cast<uint32_t>(i);
    msg.value = i;
    outs += acceptor.HandleMessage(msg).size();
  }
  const int64_t t1 = WallNs();
  if (outs == 0 || acceptor.stored_instances() != n) {
    std::abort();  // Every accepted 2A is stored and answered.
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(n);
}

double ReplayWindow(const Stream& s) {
  SlidingWindowRate window(Milliseconds(10));
  double sink = 0;
  const int64_t t0 = WallNs();
  for (SimTime t : s.times) {
    window.RecordEvent(t);
  }
  const int64_t t1 = WallNs();
  sink += window.RatePerSecond(s.times.back());
  if (!(sink >= 0)) {
    std::abort();
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(s.times.size());
}

double ReplayHistogram(const Stream& s) {
  Histogram h;
  const int64_t t0 = WallNs();
  SimTime prev = 0;
  for (SimTime t : s.times) {
    h.Record(static_cast<uint64_t>(std::max<SimTime>(t - prev, 1)));
    prev = t;
  }
  const int64_t t1 = WallNs();
  if (h.count() != s.times.size()) {
    std::abort();
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(s.times.size());
}

// The event queue alone, shaped like the workload's: `pending` live events,
// of which a few near-term ones churn (each run reschedules itself at an
// exponential delay, the workload's mean event spacing per churner) and the
// rest are parked far ahead like the scenarios' timers. Returns ns per
// executed event: schedule, peek, pop and dispatch of an empty handler.
double ReplayQueue(size_t pending, SimDuration mean_gap, uint64_t events) {
  constexpr size_t kChurners = 16;
  const size_t churners = std::min(pending, kChurners);
  Simulation sim(7);
  Rng rng(11);
  const double mean = static_cast<double>(mean_gap) * static_cast<double>(churners);
  uint64_t ran = 0;
  std::function<void()> tick = [&] {
    ++ran;
    sim.Schedule(static_cast<SimDuration>(rng.Exponential(mean)) + 1, [&] { tick(); });
  };
  for (size_t i = 0; i < churners; ++i) {
    sim.Schedule(static_cast<SimDuration>(rng.Exponential(mean)) + 1, [&] { tick(); });
  }
  for (size_t i = churners; i < pending; ++i) {
    sim.Schedule(Seconds(3600) + static_cast<SimDuration>(i), [] {});
  }
  const int64_t t0 = WallNs();
  while (ran < events && sim.RunNext()) {
  }
  const int64_t t1 = WallNs();
  return static_cast<double>(t1 - t0) / static_cast<double>(std::max<uint64_t>(ran, 1));
}

// --------------------------------------------------------------- Modes ----
constexpr SimDuration kDrain = Milliseconds(5);

void EmitCommon(Json& j, Workload& w, uint64_t events_measured, uint64_t pkts_measured,
                SimDuration window) {
  j.Int("events_executed", static_cast<int64_t>(w.events_executed()));
  j.Int("events_measured", static_cast<int64_t>(events_measured));
  j.Int("pkts_measured", static_cast<int64_t>(pkts_measured));
  j.Int("pkts_total", static_cast<int64_t>(w.ClientPackets()));
  j.Num("sim_s_measured", ToSeconds(window));
  std::vector<ServerCount> servers;
  w.Servers(servers);
  j.BeginArray("servers");
  for (const ServerCount& s : servers) {
    j.Begin();
    j.Str("name", s.name);
    j.Int("received", static_cast<int64_t>(s.received));
    j.Int("completed", static_cast<int64_t>(s.completed));
    j.Int("dropped_no_app", static_cast<int64_t>(s.dropped_no_app));
    j.Int("dropped_overflow", static_cast<int64_t>(s.dropped_overflow));
    j.Int("queued", static_cast<int64_t>(s.queued));
    j.End();
  }
  j.EndArray();
  std::vector<ClientCount> clients;
  w.Clients(clients);
  j.BeginArray("clients");
  for (const ClientCount& c : clients) {
    j.Begin();
    j.Str("name", c.name);
    j.Int("sent", static_cast<int64_t>(c.sent));
    j.Int("received", static_cast<int64_t>(c.received));
    j.Int("lost", static_cast<int64_t>(c.lost));
    j.Int("outstanding", static_cast<int64_t>(c.outstanding));
    j.End();
  }
  j.EndArray();
  std::map<std::string, double> counters;
  w.Counters(counters);
  j.Begin("counters");
  for (const auto& [k, v] : counters) {
    j.Num(k.c_str(), v);
  }
  j.End();
  std::map<std::string, double> fp;
  fp["events_executed"] = static_cast<double>(w.events_executed());
  w.Fingerprint(fp);
  j.Begin("fingerprint");
  for (const auto& [k, v] : fp) {
    j.Num(k.c_str(), v);
  }
  j.End();
}

int Main(const Args& args) {
  if (args.mode == "rss-check") {
    constexpr size_t kMb = 64;
    const double before = CurrentRssMb();
    std::vector<char> block(kMb << 20);
    for (size_t i = 0; i < block.size(); i += 4096) {
      block[i] = static_cast<char>(i);
    }
    const double after = CurrentRssMb();
    Json j;
    j.Begin();
    j.Num("allocated_mb", kMb);
    j.Num("rss_before_mb", before);
    j.Num("rss_after_mb", after);
    j.Num("peak_mb", PeakRssMb());
    j.Int("checksum", block[4096 * 3]);
    j.End();
    std::cout << j.str() << "\n";
    return 0;
  }

  Timeline tl{};
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, &tl);
  if (w == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  const bool traced = args.mode == "trace";
  const bool single_queue = args.mode == "run-sq";
  const bool multi_thread = args.mode == "run-mt";
  if (args.mode != "setup" && args.mode != "run" && !traced && !single_queue &&
      !multi_thread) {
    std::cerr << "unknown mode: " << args.mode << "\n";
    return 2;
  }
  if (single_queue || traced) {
    w->UseEngine(true, 1);
  } else if (multi_thread) {
    w->UseEngine(false, FabricFaulted::kTwinThreads);
  }
  const int slices =
      std::max(20, static_cast<int>(std::lround(args.seconds * tl.slices_per_wall_s)));
  const SimDuration window = tl.slice * slices;
  const SimTime window_start = tl.warmup;

  HostReference reference;
  Spans spans(traced);
  const int root = spans.Begin("run");
  const SetupTimes setup = SetUp(*w, args.seed, window_start, window, spans, root);

  Json j;
  j.Begin();
  j.Str("workload", args.workload);
  j.Str("mode", args.mode);
  j.Int("seed", static_cast<int64_t>(args.seed));
  j.Str("build_type", PERFBENCH_BUILD_TYPE);
  j.Str("compiler", PERFBENCH_COMPILER);
  j.Int("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.Int("worker_threads", w->worker_threads());
  j.Num("build_s", setup.build_s);
  j.Num("prefill_s", setup.prefill_s);
  j.Num("setup_s", setup.build_s + setup.prefill_s);
  if (args.mode == "setup") {
    for (int i = 0; i < 10; ++i) {
      reference.Sample();
    }
    j.Num("ref_ns", reference.MedianNs());
    j.End();
    std::cout << j.str() << "\n";
    return 0;
  }

  CallTimes calls;
  const auto advance = [&](SimTime t, int parent) {
    if (traced) {
      TracedRunUntil(w->TraceQueue(), t, calls, spans, parent);
    } else {
      w->RunUntil(t);
    }
  };

  const int warm = spans.Begin("warmup", root);
  advance(window_start, warm);
  spans.End(warm);
  const uint64_t events_at_warm = w->events_executed();
  const uint64_t pkts_at_warm = w->ClientPackets();
  const double rss_after_warm = CurrentRssMb();

  std::vector<int64_t> slice_wall;
  std::vector<size_t> pending;
  std::vector<uint64_t> slice_pkts;
  uint64_t pkts_before = pkts_at_warm;
  std::vector<std::pair<double, double>> ledger;
  slice_wall.reserve(static_cast<size_t>(slices));
  std::vector<int> ref_slices;  // Slices that follow a reference sample.
  for (int s = 1; s <= slices; ++s) {
    if ((s - 1) % kReferenceEvery == 0) {
      reference.Sample();
      ref_slices.push_back(s - 1);
    }
    const int span = spans.Begin("slice", root);
    const int64_t t0 = WallNs();
    advance(window_start + tl.slice * s, span);
    const int64_t t1 = WallNs();
    spans.End(span);
    slice_wall.push_back(t1 - t0);
    pending.push_back(w->pending_events());
    const uint64_t pkts_now = w->ClientPackets();
    slice_pkts.push_back(pkts_now - pkts_before);
    pkts_before = pkts_now;
    w->Ledgers(ledger);
  }
  const double rss_end = CurrentRssMb();
  const uint64_t events_at_end = w->events_executed();
  const uint64_t pkts_at_end = w->ClientPackets();
  // Clients stopped sending at the window's end; let in-flight requests
  // finish (unmeasured) so the counters reconcile at quiescence.
  advance(window_start + window + kDrain, root);

  j.Num("slice_sim_ms", ToMilliseconds(tl.slice));
  j.Num("window_start_ms", ToMilliseconds(window_start));
  j.BeginArray("slice_wall_ns");
  for (int64_t v : slice_wall) j.Int(nullptr, v);
  j.EndArray();
  j.BeginArray("slice_pkts");
  for (uint64_t v : slice_pkts) j.Int(nullptr, static_cast<int64_t>(v));
  j.EndArray();
  j.BeginArray("ref_slices");
  for (int v : ref_slices) j.Int(nullptr, v);
  j.EndArray();
  j.BeginArray("pending");
  for (size_t v : pending) j.Int(nullptr, static_cast<int64_t>(v));
  j.EndArray();
  j.BeginArray("ledger");
  for (const auto& [committed, budget] : ledger) {
    j.BeginArray();
    j.Num(nullptr, committed);
    j.Num(nullptr, budget);
    j.EndArray();
  }
  j.EndArray();
  j.BeginArray("transition_ms");
  for (SimTime t : w->TransitionTimes()) j.Num(nullptr, ToMilliseconds(t));
  j.EndArray();
  j.Num("rss_after_warm_mb", rss_after_warm);
  j.Num("rss_end_mb", rss_end);
  j.Num("peak_rss_mb", SimPeakRssMb());
  j.Num("ref_ns", reference.MedianNs());
  EmitCommon(j, *w, events_at_end - events_at_warm, pkts_at_end - pkts_at_warm, window);

  if (traced) {
    const double clock = ClockOverheadNs();
    j.Begin("calls");
    j.Num("peek_ns", std::max(0.0, Quantile(calls.peek_ns, 0.5) - clock));
    j.Num("run_next_ns_p50", std::max(0.0, Quantile(calls.run_next_ns, 0.5) - clock));
    j.Num("run_next_ns_p99", std::max(0.0, Quantile(calls.run_next_ns, 0.99) - clock));
    j.End();
  }

  if (traced) {
    // Layer replays on the workload's own request streams.
    const int replays = spans.Begin("replays", root);
    constexpr size_t kStream = 200'000;
    std::vector<Stream> streams;
    std::vector<std::string> layers;
    double factory_ns = 0;
    size_t factory_calls = 0;
    const int fspan = spans.Begin("workload.factory", replays);
    uint64_t stream_seed = args.seed * 1000003;
    for (Workload::FactorySpec& f : w->Factories()) {
      streams.push_back(ReplayFactory(f.factory, f.rate, kStream, ++stream_seed));
      layers.push_back(f.layer);
      factory_ns += static_cast<double>(streams.back().factory_ns);
      factory_calls += kStream;
    }
    spans.End(fspan);
    std::vector<const Stream*> kv;
    const Stream* dns = nullptr;
    for (size_t i = 0; i < streams.size(); ++i) {
      if (layers[i] == "kvs") kv.push_back(&streams[i]);
      if (layers[i] == "dns" && dns == nullptr) dns = &streams[i];
    }
    // Workloads without DNS traffic still time the DNS calls, on the mixed
    // rack's query stream, so every run prints every layer figure.
    Stream fallback_dns;
    size_t zone_size = w->ZoneSize();
    if (dns == nullptr) {
      DnsWorkloadConfig config;
      config.dns_service = 2;
      fallback_dns = ReplayFactory(MakeDnsRequestFactory(config), 300000, kStream, ++stream_seed);
      dns = &fallback_dns;
      zone_size = config.zone_size;
    }
    j.Begin("replay");
    j.Num("workload.factory_ns", factory_ns / static_cast<double>(std::max<size_t>(factory_calls, 1)));
    int span = spans.Begin("kvs.store", replays);
    j.Num("kvs.store_op_ns", ReplayKvStore(kv, w->KvStoreCapacity(), w->KvPrefill()));
    spans.End(span);
    span = spans.Begin("dns.replay", replays);
    const DnsReplay d = ReplayDns(*dns, zone_size);
    spans.End(span);
    j.Num("dns.zone_lookup_ns", d.zone_lookup_ns);
    j.Num("dns.wire_bytes_ns", d.wire_bytes_ns);
    j.Num("dns.encode_ns", d.encode_ns);
    span = spans.Begin("net.link", replays);
    j.Num("net.link_send_ns", ReplayLinkSend(kv.empty() ? *dns : *kv.front()));
    spans.End(span);
    span = spans.Begin("paxos.acceptor", replays);
    j.Num("paxos.acceptor_handle_ns", ReplayAcceptor(kStream));
    spans.End(span);
    span = spans.Begin("stats.window", replays);
    j.Num("stats.window_record_ns", ReplayWindow(streams.front()));
    spans.End(span);
    span = spans.Begin("stats.histogram", replays);
    j.Num("stats.histogram_record_ns", ReplayHistogram(streams.front()));
    spans.End(span);
    span = spans.Begin("sim.queue", replays);
    const size_t pending_peak = *std::max_element(pending.begin(), pending.end());
    const uint64_t measured = std::max<uint64_t>(events_at_end - events_at_warm, 1);
    const SimDuration gap = std::max<SimDuration>(window / static_cast<SimDuration>(measured), 1);
    j.Num("sim.queue_event_ns", ReplayQueue(std::max<size_t>(pending_peak, 1), gap, 2'000'000));
    spans.End(span);
    j.End();
    spans.End(replays);
  }
  spans.End(root);
  if (traced && !args.spans_path.empty()) {
    if (!spans.Write(args.spans_path)) {
      std::cerr << "cannot write spans to " << args.spans_path << "\n";
      return 1;
    }
    j.Int("spans", static_cast<int64_t>(spans.size()));
  }
  j.End();
  std::cout << j.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--mode") {
      args.mode = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      std::cerr << "unknown flag " << key << "\n";
      return 2;
    }
  }
  if ((argc - 1) % 2 != 0) {
    std::cerr << "usage: perfbench_sim --workload W --seed N --seconds S --mode "
                 "setup|run|trace|run-sq|run-mt|rss-check [--spans PATH]\n";
    return 2;
  }
  try {
    return Main(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_sim: " << e.what() << "\n";
    return 1;
  }
}
