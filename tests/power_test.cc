// Tests for the power models: curves, CPU presets, module ledger, PSU,
// meters, and the §8 tipping-point search.
#include <gtest/gtest.h>

#include "src/ondemand/energy_advisor.h"
#include "src/power/cpu_power.h"
#include "src/power/curve.h"
#include "src/power/ledger.h"
#include "src/power/meter.h"
#include "src/power/psu.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

TEST(CurveTest, InterpolatesLinearly) {
  PiecewiseLinearCurve curve({{0, 0}, {10, 100}});
  EXPECT_DOUBLE_EQ(curve.Evaluate(5), 50.0);
  EXPECT_DOUBLE_EQ(curve.Evaluate(2.5), 25.0);
}

TEST(CurveTest, ClampsOutsideDomain) {
  PiecewiseLinearCurve curve({{1, 10}, {2, 20}});
  EXPECT_DOUBLE_EQ(curve.Evaluate(0), 10.0);
  EXPECT_DOUBLE_EQ(curve.Evaluate(5), 20.0);
}

TEST(CurveTest, MultiSegment) {
  PiecewiseLinearCurve curve({{0, 0}, {1, 10}, {3, 20}});
  EXPECT_DOUBLE_EQ(curve.Evaluate(0.5), 5.0);
  EXPECT_DOUBLE_EQ(curve.Evaluate(2.0), 15.0);
}

TEST(CurveTest, InverseLower) {
  PiecewiseLinearCurve curve({{0, 0}, {10, 100}});
  EXPECT_DOUBLE_EQ(curve.InverseLower(50), 5.0);
  EXPECT_DOUBLE_EQ(curve.InverseLower(-5), 0.0);
  EXPECT_DOUBLE_EQ(curve.InverseLower(500), 10.0);
}

TEST(CurveTest, RejectsBadPoints) {
  EXPECT_THROW(PiecewiseLinearCurve({{0, 0}}), std::invalid_argument);
  EXPECT_THROW(PiecewiseLinearCurve({{1, 0}, {1, 5}}), std::invalid_argument);
  EXPECT_THROW(PiecewiseLinearCurve({{2, 0}, {1, 5}}), std::invalid_argument);
}

TEST(CurveTest, MinMaxAndMonotonicity) {
  PiecewiseLinearCurve curve({{0, 5}, {1, 3}, {2, 9}});
  EXPECT_DOUBLE_EQ(curve.MinY(), 3.0);
  EXPECT_DOUBLE_EQ(curve.MaxY(), 9.0);
  EXPECT_FALSE(curve.IsNonDecreasing());
  PiecewiseLinearCurve mono({{0, 1}, {1, 2}});
  EXPECT_TRUE(mono.IsNonDecreasing());
}

TEST(CpuPowerTest, XeonMatchesPaperAnchors) {
  // §7: idle 56 W; one core 91 W; 10 % of one core 86 W; all 28 cores 134 W.
  CpuPowerModel xeon = MakeXeonE52660Server("xeon");
  xeon.SetUtilization(0.0);
  EXPECT_DOUBLE_EQ(xeon.PowerWatts(), 56.0);
  xeon.SetUtilization(0.1);
  EXPECT_DOUBLE_EQ(xeon.PowerWatts(), 86.0);
  xeon.SetUtilization(1.0);
  EXPECT_DOUBLE_EQ(xeon.PowerWatts(), 91.0);
  xeon.SetUtilization(28.0);
  EXPECT_DOUBLE_EQ(xeon.PowerWatts(), 134.0);
}

TEST(CpuPowerTest, XeonExtraCoreCostsFewWatts) {
  // §7: "the overhead of an additional core running is small, in the order
  // of 1W-2W".
  CpuPowerModel xeon = MakeXeonE52660Server("xeon");
  xeon.SetUtilization(1.0);
  const double one = xeon.PowerWatts();
  xeon.SetUtilization(2.0);
  const double two = xeon.PowerWatts();
  EXPECT_GE(two - one, 0.5);
  EXPECT_LE(two - one, 2.5);
}

TEST(CpuPowerTest, UtilizationClamps) {
  CpuPowerModel i7 = MakeI7Server("i7", I7MemcachedCurve());
  i7.SetUtilization(-1.0);
  EXPECT_DOUBLE_EQ(i7.utilization(), 0.0);
  i7.SetUtilization(100.0);
  EXPECT_DOUBLE_EQ(i7.utilization(), 4.0);
}

TEST(CpuPowerTest, I7CurvesAreMonotone) {
  EXPECT_TRUE(I7MemcachedCurve().IsNonDecreasing());
  EXPECT_TRUE(I7LibpaxosCurve().IsNonDecreasing());
  EXPECT_TRUE(I7DpdkCurve().IsNonDecreasing());
  EXPECT_TRUE(I7NsdCurve().IsNonDecreasing());
  EXPECT_TRUE(XeonE52660SyntheticCurve().IsNonDecreasing());
}

TEST(CpuPowerTest, DpdkBurnsNearlyPeakAtLowLoad) {
  // §4.3: DPDK "power consumption ... is high even under low load".
  const auto dpdk = I7DpdkCurve();
  EXPECT_GT(dpdk.Evaluate(1.0), 0.85 * dpdk.Evaluate(4.0));
}

TEST(LedgerTest, StatesScalePower) {
  PowerLedger ledger("board");
  ledger.AddModule(MakeModuleSpec("logic", 2.0, 0.6, 1.0), ModulePowerState::kIdle);
  ledger.AddModule(MakeModuleSpec("dram", 4.8, 1.0, 0.6), ModulePowerState::kIdle);
  EXPECT_DOUBLE_EQ(ledger.PowerWatts(), 6.8);
  ledger.SetState("logic", ModulePowerState::kClockGated);
  EXPECT_DOUBLE_EQ(ledger.PowerWatts(), 1.2 + 4.8);
  ledger.SetState("dram", ModulePowerState::kReset);  // 40 % saving.
  EXPECT_NEAR(ledger.PowerWatts(), 1.2 + 2.88, 1e-9);
  ledger.SetState("dram", ModulePowerState::kPowerGated);
  EXPECT_DOUBLE_EQ(ledger.PowerWatts(), 1.2);
}

TEST(LedgerTest, DuplicateAndMissingModules) {
  PowerLedger ledger("board");
  ledger.AddModule(MakeModuleSpec("m", 1.0, 1.0, 1.0));
  EXPECT_THROW(ledger.AddModule(MakeModuleSpec("m", 1.0, 1.0, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(ledger.SetState("missing", ModulePowerState::kActive), std::out_of_range);
  EXPECT_TRUE(ledger.HasModule("m"));
  EXPECT_FALSE(ledger.HasModule("missing"));
}

TEST(LedgerTest, SetStateAllAndNames) {
  PowerLedger ledger("board");
  ledger.AddModule(MakeModuleSpec("a", 1.0, 0.5, 0.5));
  ledger.AddModule(MakeModuleSpec("b", 3.0, 0.5, 0.5));
  ledger.SetStateAll(ModulePowerState::kPowerGated);
  EXPECT_DOUBLE_EQ(ledger.PowerWatts(), 0.0);
  EXPECT_EQ(ledger.ModuleNames().size(), 2u);
  EXPECT_STREQ(ModulePowerStateName(ModulePowerState::kReset), "reset");
}

TEST(PsuTest, EfficiencyLossIncreasesWallPower) {
  PsuModel psu(150.0);
  EXPECT_GT(psu.WallWatts(15.0), 15.0);
  EXPECT_DOUBLE_EQ(psu.WallWatts(0.0), 0.0);
  // Efficiency is better at mid load than at a sliver of load.
  EXPECT_GT(psu.EfficiencyAt(75.0), psu.EfficiencyAt(2.0));
}

TEST(PsuTest, RejectsNonPositiveRating) {
  EXPECT_THROW(PsuModel(0), std::invalid_argument);
}

class ConstantSource : public PowerSource {
 public:
  explicit ConstantSource(double watts) : watts_(watts) {}
  double PowerWatts() const override { return watts_; }
  std::string PowerName() const override { return "const"; }
  void set_watts(double watts) { watts_ = watts; }

 private:
  double watts_;
};

TEST(MeterTest, IntegratesConstantPower) {
  Simulation sim;
  ConstantSource source(50.0);
  WallPowerMeter meter(sim, Milliseconds(1));
  meter.Attach(&source);
  meter.Start();
  sim.RunUntil(Seconds(2));
  // 50 W for 2 s = 100 J.
  EXPECT_NEAR(meter.EnergyJoules(), 100.0, 0.5);
  EXPECT_DOUBLE_EQ(meter.InstantWatts(), 50.0);
}

TEST(MeterTest, SumsMultipleSources) {
  Simulation sim;
  ConstantSource a(10.0);
  ConstantSource b(20.0);
  WallPowerMeter meter(sim);
  meter.Attach(&a);
  meter.Attach(&b);
  EXPECT_DOUBLE_EQ(meter.InstantWatts(), 30.0);
}

TEST(MeterTest, MeanWattsOverInterval) {
  Simulation sim;
  ConstantSource source(40.0);
  WallPowerMeter meter(sim, Milliseconds(1));
  meter.Attach(&source);
  meter.Start();
  sim.Schedule(Seconds(1), [&] { source.set_watts(80.0); });
  sim.RunUntil(Seconds(2));
  EXPECT_NEAR(meter.MeanWatts(0, Seconds(1)), 40.0, 0.5);
  EXPECT_NEAR(meter.MeanWatts(Seconds(1), Seconds(2)), 80.0, 0.5);
}

TEST(MeterTest, StopHaltsSampling) {
  Simulation sim;
  ConstantSource source(10.0);
  WallPowerMeter meter(sim, Milliseconds(1));
  meter.Attach(&source);
  meter.Start();
  sim.RunUntil(Milliseconds(10));
  meter.Stop();
  const double energy = meter.EnergyJoules();
  sim.RunUntil(Seconds(1));
  EXPECT_NEAR(meter.EnergyJoules(), energy, 0.011);
}

TEST(RaplTest, AccumulatesEnergy) {
  Simulation sim;
  double watts = 30.0;
  RaplCounter rapl(sim, [&] { return watts; }, Milliseconds(1));
  rapl.Start();
  sim.RunUntil(Seconds(1));
  // ~30 J = 30e6 uJ.
  EXPECT_NEAR(static_cast<double>(rapl.EnergyMicrojoules()), 30e6, 1e5);
}

TEST(RaplTest, AverageWattsSince) {
  Simulation sim;
  RaplCounter rapl(sim, [] { return 25.0; }, Milliseconds(1));
  rapl.Start();
  sim.RunUntil(Seconds(1));
  const uint64_t e1 = rapl.EnergyMicrojoules();
  sim.RunUntil(Seconds(3));
  EXPECT_NEAR(rapl.AverageWattsSince(e1, Seconds(2)), 25.0, 0.5);
  EXPECT_DOUBLE_EQ(rapl.AverageWattsSince(0, 0), 0.0);
}

TEST(EnergyModelTest, TippingPointFound) {
  // Software: 35 + 0.0001 * R ; network: 47 flat -> tip at R = 120000.
  auto software = [](double r) { return 35.0 + 1e-4 * r; };
  auto network = [](double r) {
    (void)r;
    return 47.0;
  };
  const auto tip = TippingPointRate(software, network, 0, 1e6, 1.0);
  ASSERT_TRUE(tip.has_value());
  EXPECT_NEAR(*tip, 120000.0, 10.0);
}

TEST(EnergyModelTest, TippingPointAbsentWhenNetworkNeverWins) {
  auto software = [](double) { return 10.0; };
  auto network = [](double) { return 50.0; };
  EXPECT_FALSE(TippingPointRate(software, network, 0, 1e6).has_value());
}

TEST(EnergyModelTest, TippingPointAtZeroWhenNetworkAlwaysWins) {
  auto software = [](double) { return 50.0; };
  auto network = [](double) { return 10.0; };
  const auto tip = TippingPointRate(software, network, 0, 1e6);
  ASSERT_TRUE(tip.has_value());
  EXPECT_DOUBLE_EQ(*tip, 0.0);
}

}  // namespace
}  // namespace incod
