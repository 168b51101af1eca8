// Datacenter-row power orchestration: one global ledger over N racks.
//
// A row (or a whole PDU line-up) shares one provisioned power envelope.
// The RowOrchestrator generalizes the rack orchestrator's economics one
// level up: each RackOrchestrator keeps making §9 placement decisions
// against *its* budget, and the row decides what those budgets are. Every
// report period each rack posts its committed offload watts and its demand
// (RackOrchestrator::OffloadDemandWatts) to the row's home shard; every
// apportion period the row waterfills the global budget across racks —
// equal-share or demand-weighted — and pushes the changed budgets back down
// as RackOrchestrator::ApplyPowerCap calls, which evict greedily inside the
// rack when a budget shrinks below its commitments.
//
// Determinism: the row lives in one shard (the spine's), racks in theirs.
// All row <-> rack traffic crosses shards through
// ShardedSimulation::PostCrossShard at now + lookahead, the same
// conservative path packets use, so single-queue and parallel runs of a
// row under power pressure stay event-identical (the engine_diff_test
// contract extends to the row).
#ifndef INCOD_SRC_ROW_ROW_ORCHESTRATOR_H_
#define INCOD_SRC_ROW_ROW_ORCHESTRATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/ondemand/rack.h"
#include "src/sim/sharded.h"
#include "src/stats/timeseries.h"

namespace incod {

// Global row power ledger: tracks the watts apportioned to each rack so the
// sum never exceeds the row budget — the row-level mirror of
// RackPowerLedger, keyed by rack name.
class RowPowerLedger {
 public:
  // budget_watts <= 0 means unlimited.
  explicit RowPowerLedger(double budget_watts = 0);

  // Apportions `watts` to `rack` (replacing any prior apportionment).
  // Returns false — leaving the prior apportionment intact — if the global
  // budget would be exceeded.
  bool TryApportion(const std::string& rack, double watts);
  void Release(const std::string& rack);

  // Global brownout: steps the budget (existing apportionments may now
  // exceed it; the orchestrator re-apportions until the invariant holds).
  void SetBudgetWatts(double watts) { budget_ = watts; }

  double budget_watts() const { return budget_; }
  bool unlimited() const { return budget_ <= 0; }
  double apportioned_watts() const;
  double RemainingWatts() const;
  const std::map<std::string, double>& apportionments() const {
    return apportionments_;
  }

 private:
  double budget_;
  std::map<std::string, double> apportionments_;
};

// What a rack tells the row each report period.
struct RowRackReport {
  SimTime at = 0;
  double committed_watts = 0;  // Rack ledger's current offload commitments.
  double demand_watts = 0;     // RackOrchestrator::OffloadDemandWatts().
  uint64_t offloaded_apps = 0;
};

// One entry of the row's decision log. kApportion: a rack budget was set
// (one record per issued cap, including the initial Start() apportionment).
// kGlobalBrownout: the global budget stepped. kRackBrownout: a per-rack
// ceiling was imposed (watts < 0: cleared).
struct RowDecisionRecord {
  enum class Kind { kApportion, kGlobalBrownout, kRackBrownout };
  Kind kind = Kind::kApportion;
  SimTime at = 0;
  std::string rack;  // Empty for kGlobalBrownout.
  double watts = 0;
};

struct RowOrchestratorConfig {
  enum class Policy { kEqualShare, kDemandWeighted };
  // Global row budget (<= 0: unlimited — reports are still collected but no
  // caps are ever issued).
  double global_budget_watts = 0;
  Policy policy = Policy::kDemandWeighted;
  SimDuration report_period = Milliseconds(50);
  SimDuration apportion_period = Milliseconds(100);
  SimDuration sample_period = Milliseconds(100);
  // Per-rack floor under demand weighting (0: none). Floors are scaled down
  // proportionally when they alone would exceed the budget.
  double min_rack_watts = 0;
};

// Pure apportionment kernel, exposed for the property suite. Waterfills
// `budget` over the racks: each gets its floor (min_rack_watts clamped to
// its ceiling; floors scale down if they alone exceed the budget), then the
// remainder is divided proportionally to weight — 1 under kEqualShare, the
// reported demand under kDemandWeighted (equal when no rack demands) —
// iteratively re-spreading the excess of ceiling-clamped racks. The result
// sums to the budget exactly unless every rack is ceiling-clamped, and
// never exceeds any ceiling.
struct RowRackApportionInput {
  double demand_watts = 0;
  double ceiling_watts = -1;  // < 0: no ceiling.
};
std::vector<double> ComputeRowApportionment(
    double budget_watts, const std::vector<RowRackApportionInput>& racks,
    RowOrchestratorConfig::Policy policy, double min_rack_watts);

class RowOrchestrator {
 public:
  // `home_shard` is where the row's ledger, log and apportion loop live
  // (conventionally the spine's shard).
  RowOrchestrator(ShardedSimulation& sharded, int home_shard,
                  RowOrchestratorConfig config = {});

  // Registers a rack (its orchestrator lives in `rack_shard`). The rack's
  // name keys the global ledger. Returns the rack index.
  size_t AddRack(std::string name, int rack_shard, RackOrchestrator* rack);

  // Applies the initial apportionment (synchronously — setup time) and
  // schedules the report pumps and the apportion loop.
  void Start();
  void Stop() { stopped_ = true; }

  // --- Row-scale faults (call from events in the home shard) ---
  // Global brownout: step the row budget and re-apportion immediately; the
  // cap cascade evicts inside every rack whose budget shrank.
  void ApplyGlobalBrownout(double watts);
  // Per-rack brownout: impose (or, with watts < 0, clear) an apportionment
  // ceiling on one rack; the freed budget flows to the others.
  void ApplyRackBrownout(size_t rack_index, double watts);

  // --- Introspection ---
  const RowPowerLedger& ledger() const { return ledger_; }
  size_t rack_count() const { return racks_.size(); }
  const std::string& rack_name(size_t index) const { return racks_.at(index).name; }
  // Latest report received from the rack (default-constructed before one
  // arrives).
  const RowRackReport& rack_report(size_t index) const {
    return racks_.at(index).report;
  }
  // Rack budget the row last issued (the ledger's apportionment).
  double CurrentApportionment(size_t index) const;
  const std::vector<RowDecisionRecord>& decision_log() const { return decision_log_; }
  uint64_t caps_issued() const { return caps_issued_; }
  uint64_t reports_received() const { return reports_received_; }
  uint64_t apportion_rounds() const { return apportion_rounds_; }
  uint64_t global_brownouts() const { return global_brownouts_; }
  uint64_t rack_brownouts() const { return rack_brownouts_; }
  // Sampled every sample_period: total apportioned watts and the budget.
  const TimeSeries& apportioned_series() const { return apportioned_series_; }
  const TimeSeries& budget_series() const { return budget_series_; }

 private:
  struct RowRack {
    std::string name;
    int shard = 0;
    RackOrchestrator* rack = nullptr;
    RowRackReport report;
    double ceiling_watts = -1;  // < 0: none (rack-brownout override).
    double issued_watts = -1;   // Last cap pushed down (< 0: none yet).
  };

  Simulation& home() { return sharded_.shard(home_shard_); }
  // Delivery delay for row <-> rack messages: the engine lookahead (the
  // uplink fiber), identical in both engine modes.
  SimDuration HopDelay() const;
  // Runs `fn` in `shard` at now + HopDelay(); same-shard destinations use an
  // ordinary scheduled event (the branch depends only on topology, not on
  // engine mode, so both modes take the same path).
  void PostToShard(int src, int dst, InlineEvent fn);
  void Reapportion();
  // Pushes one rack's cap down (the ledger entry was already updated by the
  // caller) and logs kApportion. `initial` applies synchronously (setup).
  void IssueCap(RowRack& rack, double watts, bool initial);
  std::vector<double> ComputeShares() const;

  ShardedSimulation& sharded_;
  int home_shard_;
  RowOrchestratorConfig config_;
  RowPowerLedger ledger_;
  std::vector<RowRack> racks_;
  std::vector<RowDecisionRecord> decision_log_;
  TimeSeries apportioned_series_{"row_apportioned_watts"};
  TimeSeries budget_series_{"row_budget_watts"};
  uint64_t caps_issued_ = 0;
  uint64_t reports_received_ = 0;
  uint64_t apportion_rounds_ = 0;
  uint64_t global_brownouts_ = 0;
  uint64_t rack_brownouts_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_ROW_ROW_ORCHESTRATOR_H_
