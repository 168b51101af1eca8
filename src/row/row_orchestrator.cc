#include "src/row/row_orchestrator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace incod {
namespace {

// Re-issue a rack's cap only when it moved by more than this.
constexpr double kCapEpsilonWatts = 0.5;

}  // namespace

RowPowerLedger::RowPowerLedger(double budget_watts) : budget_(budget_watts) {}

double RowPowerLedger::apportioned_watts() const {
  double total = 0;
  for (const auto& [rack, watts] : apportionments_) {
    total += watts;
  }
  return total;
}

double RowPowerLedger::RemainingWatts() const {
  if (unlimited()) {
    return std::numeric_limits<double>::infinity();
  }
  return budget_ - apportioned_watts();
}

bool RowPowerLedger::TryApportion(const std::string& rack, double watts) {
  if (watts < 0) {
    throw std::invalid_argument("RowPowerLedger: negative apportionment");
  }
  double prior = 0;
  auto it = apportionments_.find(rack);
  if (it != apportionments_.end()) {
    prior = it->second;
  }
  // A shrink always moves toward the invariant, so it is accepted even while
  // the total sits above a freshly-lowered (brownout) budget — rejecting it
  // would wedge the ledger over budget forever.
  if (!unlimited() && watts > prior &&
      apportioned_watts() - prior + watts > budget_) {
    return false;
  }
  apportionments_[rack] = watts;
  return true;
}

void RowPowerLedger::Release(const std::string& rack) { apportionments_.erase(rack); }

// ---------------------------------------------------------------------------

std::vector<double> ComputeRowApportionment(
    double budget_watts, const std::vector<RowRackApportionInput>& racks,
    RowOrchestratorConfig::Policy policy, double min_rack_watts) {
  const size_t n = racks.size();
  std::vector<double> shares(n, 0);
  if (n == 0 || budget_watts <= 0) {
    return shares;
  }
  auto ceiling = [&racks](size_t i) {
    return racks[i].ceiling_watts < 0 ? std::numeric_limits<double>::infinity()
                                      : racks[i].ceiling_watts;
  };
  // Floors first; when the floors alone exceed the budget they scale down
  // proportionally (everyone keeps the same fraction of their floor).
  double floor_sum = 0;
  for (size_t i = 0; i < n; ++i) {
    shares[i] = std::max(0.0, std::min(min_rack_watts, ceiling(i)));
    floor_sum += shares[i];
  }
  if (floor_sum > budget_watts) {
    const double scale = budget_watts / floor_sum;
    for (double& s : shares) {
      s *= scale;
    }
    return shares;
  }
  double remaining = budget_watts - floor_sum;
  std::vector<bool> clamped(n);
  for (size_t i = 0; i < n; ++i) {
    clamped[i] = shares[i] >= ceiling(i);
  }
  // Waterfill: distribute proportionally to weight; racks whose share would
  // cross their ceiling are pinned there and their excess re-spreads over
  // the rest next round. Each round pins at least one rack or finishes, so
  // the loop runs at most n times.
  while (remaining > 1e-9) {
    std::vector<double> weight(n, 0);
    double weight_sum = 0;
    size_t unclamped = 0;
    for (size_t i = 0; i < n; ++i) {
      if (clamped[i]) {
        continue;
      }
      ++unclamped;
      weight[i] = policy == RowOrchestratorConfig::Policy::kDemandWeighted
                      ? std::max(0.0, racks[i].demand_watts)
                      : 1.0;
      weight_sum += weight[i];
    }
    if (unclamped == 0) {
      break;  // Every rack ceiling-clamped: the budget is simply not usable.
    }
    if (weight_sum <= 0) {
      // Nobody demands anything: split the remainder equally.
      for (size_t i = 0; i < n; ++i) {
        weight[i] = clamped[i] ? 0.0 : 1.0;
      }
      weight_sum = static_cast<double>(unclamped);
    }
    bool pinned = false;
    double distributed = 0;
    for (size_t i = 0; i < n; ++i) {
      if (clamped[i] || weight[i] <= 0) {
        continue;
      }
      const double add = remaining * weight[i] / weight_sum;
      const double room = ceiling(i) - shares[i];
      if (add >= room) {
        shares[i] = ceiling(i);
        distributed += room;
        clamped[i] = true;
        pinned = true;
      }
    }
    if (!pinned) {
      for (size_t i = 0; i < n; ++i) {
        if (!clamped[i] && weight[i] > 0) {
          shares[i] += remaining * weight[i] / weight_sum;
        }
      }
      // Zero-weight unclamped racks (demand-weighted, no demand) keep their
      // floor; the proportional adds above consumed the whole remainder.
      remaining = 0;
      break;
    }
    remaining -= distributed;
  }
  return shares;
}

// ---------------------------------------------------------------------------

RowOrchestrator::RowOrchestrator(ShardedSimulation& sharded, int home_shard,
                                 RowOrchestratorConfig config)
    : sharded_(sharded),
      home_shard_(home_shard),
      config_(config),
      ledger_(config.global_budget_watts) {
  if (home_shard < 0 || home_shard >= sharded.num_shards()) {
    throw std::invalid_argument("RowOrchestrator: home shard out of range");
  }
}

size_t RowOrchestrator::AddRack(std::string name, int rack_shard,
                                RackOrchestrator* rack) {
  if (started_) {
    throw std::logic_error("RowOrchestrator: AddRack after Start");
  }
  if (rack == nullptr) {
    throw std::invalid_argument("RowOrchestrator: null rack");
  }
  if (rack_shard < 0 || rack_shard >= sharded_.num_shards()) {
    throw std::invalid_argument("RowOrchestrator: rack shard out of range");
  }
  if (name.empty()) {
    throw std::invalid_argument("RowOrchestrator: rack needs a name");
  }
  for (const auto& existing : racks_) {
    if (existing.name == name) {
      throw std::invalid_argument("RowOrchestrator: duplicate rack name " + name);
    }
  }
  RowRack entry;
  entry.name = std::move(name);
  entry.shard = rack_shard;
  entry.rack = rack;
  racks_.push_back(std::move(entry));
  return racks_.size() - 1;
}

double RowOrchestrator::CurrentApportionment(size_t index) const {
  const auto it = ledger_.apportionments().find(racks_.at(index).name);
  return it == ledger_.apportionments().end() ? 0.0 : it->second;
}

SimDuration RowOrchestrator::HopDelay() const {
  const SimDuration lookahead = sharded_.lookahead();
  // A row always has cross-shard uplinks, but a single-shard build (tests)
  // may not: any positive delay works there, nothing crosses shards.
  return lookahead == Simulation::kNoEventTime ? Microseconds(5) : lookahead;
}

void RowOrchestrator::PostToShard(int src, int dst, InlineEvent fn) {
  Simulation& src_sim = sharded_.shard(src);
  const SimTime deliver_at = src_sim.Now() + HopDelay();
  if (src == dst) {
    // Same shard: an ordinary event at the same delivery time. The branch
    // depends only on the topology, never on the engine mode, so both modes
    // schedule identically.
    src_sim.ScheduleAt(deliver_at, std::move(fn));
    return;
  }
  sharded_.PostCrossShard(src, dst, deliver_at, std::move(fn));
}

std::vector<double> RowOrchestrator::ComputeShares() const {
  std::vector<RowRackApportionInput> inputs;
  inputs.reserve(racks_.size());
  for (const auto& rack : racks_) {
    RowRackApportionInput input;
    input.demand_watts = rack.report.demand_watts;
    input.ceiling_watts = rack.ceiling_watts;
    inputs.push_back(input);
  }
  return ComputeRowApportionment(ledger_.budget_watts(), inputs, config_.policy,
                                 config_.min_rack_watts);
}

void RowOrchestrator::IssueCap(RowRack& rack, double watts, bool initial) {
  // RackPowerLedger reads <= 0 as *unlimited*: a browned-out rack gets an
  // epsilon budget instead (evicts every offload, admits none).
  const double cap = std::max(watts, 0.01);
  rack.issued_watts = cap;
  ++caps_issued_;
  decision_log_.push_back(RowDecisionRecord{RowDecisionRecord::Kind::kApportion,
                                            initial ? 0 : home().Now(), rack.name,
                                            cap});
  RackOrchestrator* target = rack.rack;
  if (initial) {
    // Setup time: apply synchronously before any event runs (identical in
    // both engine modes — no events involved).
    target->ApplyPowerCap(cap);
    return;
  }
  PostToShard(home_shard_, rack.shard,
              [target, cap] { target->ApplyPowerCap(cap); });
}

void RowOrchestrator::Reapportion() {
  if (ledger_.unlimited() || racks_.empty()) {
    return;
  }
  ++apportion_rounds_;
  const std::vector<double> shares = ComputeShares();
  // Two passes, shrink before grow: the ledger's replace-semantics accepts
  // every shrink outright, and the freed watts make every grow admissible
  // (the kernel guarantees the shares sum within the budget).
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < racks_.size(); ++i) {
      RowRack& rack = racks_[i];
      double share = shares[i];
      const double prior = CurrentApportionment(i);
      const bool shrink = share <= prior;
      if ((pass == 0) != shrink) {
        continue;
      }
      if (!ledger_.TryApportion(rack.name, share)) {
        // Floating-point slack on the last grow: take exactly what is left.
        share = prior + std::max(0.0, ledger_.RemainingWatts());
        ledger_.TryApportion(rack.name, share);
      }
      // Quiet small moves: the ledger stays exact, the rack keeps its cap.
      if (rack.issued_watts >= 0 &&
          std::abs(share - rack.issued_watts) <= kCapEpsilonWatts) {
        continue;
      }
      IssueCap(rack, share, /*initial=*/false);
    }
  }
}

void RowOrchestrator::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  if (!ledger_.unlimited() && !racks_.empty()) {
    // Initial apportionment, synchronously at setup: no reports yet, so
    // demand weighting degenerates to an equal split over the floors.
    ++apportion_rounds_;
    const std::vector<double> shares = ComputeShares();
    for (size_t i = 0; i < racks_.size(); ++i) {
      ledger_.TryApportion(racks_[i].name, shares[i]);
      IssueCap(racks_[i], shares[i], /*initial=*/true);
    }
    SchedulePeriodic(home(), config_.apportion_period, config_.apportion_period,
                     [this] {
                       if (stopped_) {
                         return false;
                       }
                       Reapportion();
                       return true;
                     });
  }
  SchedulePeriodic(home(), config_.sample_period, config_.sample_period, [this] {
    if (stopped_) {
      return false;
    }
    const SimTime now = home().Now();
    apportioned_series_.Append(now, ledger_.apportioned_watts());
    budget_series_.Append(now, ledger_.budget_watts());
    return true;
  });
  for (size_t i = 0; i < racks_.size(); ++i) {
    Simulation& rack_sim = sharded_.shard(racks_[i].shard);
    SchedulePeriodic(rack_sim, config_.report_period, config_.report_period,
                     [this, i] {
                       if (stopped_) {
                         return false;
                       }
                       const RowRack& rack = racks_[i];
                       RowRackReport report;
                       report.at = sharded_.shard(rack.shard).Now();
                       report.committed_watts = rack.rack->ledger().committed_watts();
                       report.demand_watts = rack.rack->OffloadDemandWatts();
                       uint64_t offloaded = 0;
                       for (size_t a = 0; a < rack.rack->app_count(); ++a) {
                         if (rack.rack->current_option(a) != nullptr) {
                           ++offloaded;
                         }
                       }
                       report.offloaded_apps = offloaded;
                       PostToShard(rack.shard, home_shard_, [this, i, report] {
                         racks_[i].report = report;
                         ++reports_received_;
                       });
                       return true;
                     });
  }
}

void RowOrchestrator::ApplyGlobalBrownout(double watts) {
  ledger_.SetBudgetWatts(watts);
  ++global_brownouts_;
  decision_log_.push_back(RowDecisionRecord{RowDecisionRecord::Kind::kGlobalBrownout,
                                            home().Now(), std::string(), watts});
  Reapportion();
}

void RowOrchestrator::ApplyRackBrownout(size_t rack_index, double watts) {
  RowRack& rack = racks_.at(rack_index);
  rack.ceiling_watts = watts;  // < 0 clears the ceiling.
  ++rack_brownouts_;
  decision_log_.push_back(RowDecisionRecord{RowDecisionRecord::Kind::kRackBrownout,
                                            home().Now(), rack.name, watts});
  Reapportion();
}

}  // namespace incod
