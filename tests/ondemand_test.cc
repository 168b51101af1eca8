// Tests for the on-demand migrators, controllers, and the energy advisor.
#include <gtest/gtest.h>

#include <memory>

#include "src/device/fpga_nic.h"
#include "src/kvs/lake.h"
#include "src/ondemand/controller.h"
#include "src/ondemand/energy_advisor.h"
#include "src/ondemand/migrator.h"
#include "src/power/cpu_power.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

struct MigratorHarness {
  MigratorHarness() : sim(), fpga(sim, Config()) {
    fpga.InstallApp(&lake);
  }
  static FpgaNicConfig Config() {
    FpgaNicConfig config;
    config.host_node = 1;
    config.device_node = 50;
    return config;
  }
  Simulation sim;
  LakeCache lake{LakeConfig{}};
  FpgaNic fpga;
};

TEST(StateTransferMigratorTest, StartsOnHostWithSavings) {
  MigratorHarness h;
  StateTransferMigrator migrator(h.sim, h.fpga);
  EXPECT_EQ(migrator.placement(), Placement::kHost);
  EXPECT_FALSE(h.fpga.app_active());
  EXPECT_TRUE(h.fpga.clock_gating());
  EXPECT_TRUE(h.fpga.memory_reset());
}

TEST(StateTransferMigratorTest, ShiftToNetworkEnablesEverything) {
  MigratorHarness h;
  StateTransferMigrator migrator(h.sim, h.fpga);
  migrator.ShiftToNetwork();
  EXPECT_EQ(migrator.placement(), Placement::kNetwork);
  EXPECT_TRUE(h.fpga.app_active());
  EXPECT_FALSE(h.fpga.clock_gating());
  EXPECT_FALSE(h.fpga.memory_reset());
  EXPECT_EQ(migrator.transitions().size(), 1u);
  // Idempotent.
  migrator.ShiftToNetwork();
  EXPECT_EQ(migrator.transitions().size(), 1u);
}

TEST(StateTransferMigratorTest, ShiftBackRestoresSavings) {
  MigratorHarness h;
  StateTransferMigrator migrator(h.sim, h.fpga);
  migrator.ShiftToNetwork();
  const double active_watts = h.fpga.PowerWatts();
  migrator.ShiftToHost();
  EXPECT_EQ(migrator.placement(), Placement::kHost);
  EXPECT_LT(h.fpga.PowerWatts(), active_watts);  // Gating saves power.
  EXPECT_EQ(migrator.transitions().size(), 2u);
  EXPECT_EQ(migrator.transitions()[1].to, Placement::kHost);
}

TEST(StateTransferMigratorTest, OptionsDisableSavings) {
  MigratorHarness h;
  StateTransferMigrator migrator(
      h.sim, h.fpga, StateTransferMigrator::Options::FromPolicy(ParkPolicy::kKeepWarm));
  EXPECT_FALSE(h.fpga.clock_gating());
  EXPECT_FALSE(h.fpga.memory_reset());
}

TEST(StateTransferMigratorTest, CacheWarmupAfterShift) {
  // §9.2: enabling LaKe after memory reset starts with cold caches.
  MigratorHarness h;
  StateTransferMigrator migrator(h.sim, h.fpga);
  h.lake.WarmFill(0, 100, 64);  // Filled while... then reset on construction
  // (construction already put memories in reset, clearing state).
  EXPECT_EQ(h.lake.l1().size(), 100u);  // WarmFill happened after reset edge.
  migrator.ShiftToNetwork();
  migrator.ShiftToHost();  // Memories back to reset: caches cleared.
  EXPECT_EQ(h.lake.l1().size(), 0u);
}

// A fake migrator for controller tests.
class FakeMigrator : public Migrator {
 public:
  void ShiftToNetwork() override { RecordTransition(0, Placement::kNetwork); }
  void ShiftToHost() override { RecordTransition(0, Placement::kHost); }
};

struct NetworkControllerHarness {
  NetworkControllerHarness() : sim(), fpga(sim, MigratorHarness::Config()) {
    fpga.InstallApp(&lake);
  }
  void OfferTraffic(double rate_pps, SimDuration duration) {
    const auto gap = static_cast<SimDuration>(1e9 / rate_pps);
    const int64_t n = duration / gap;
    const SimTime start = sim.Now();
    for (int64_t i = 0; i < n; ++i) {
      sim.ScheduleAt(start + i * gap, [this] {
        Packet pkt;
        pkt.src = 100;
        pkt.dst = 1;
        pkt.proto = AppProto::kKv;
        pkt.payload = KvRequest{KvOp::kGet, 1, 0};
        fpga.Receive(pkt);
      });
    }
  }
  Simulation sim;
  LakeCache lake{LakeConfig{}};
  FpgaNic fpga;
  FakeMigrator migrator;
};

TEST(NetworkControllerTest, ShiftsUpWhenRateSustained) {
  NetworkControllerHarness h;
  // The device forwards to a host we don't model here; give it a sink link.
  NetworkControllerConfig config;
  config.up_rate_pps = 100000;
  config.up_window = Milliseconds(500);
  config.down_rate_pps = 20000;
  config.down_window = Seconds(1);
  config.min_dwell = Milliseconds(100);
  NetworkController controller(h.sim, h.fpga, h.migrator, config);
  controller.Start();
  h.OfferTraffic(200000, Seconds(2));
  h.sim.RunUntil(Seconds(2));
  EXPECT_EQ(h.migrator.placement(), Placement::kNetwork);
  ASSERT_GE(h.migrator.transitions().size(), 1u);
  EXPECT_EQ(h.migrator.transitions()[0].to, Placement::kNetwork);
}

TEST(NetworkControllerTest, StaysOnHostBelowThreshold) {
  NetworkControllerHarness h;
  NetworkControllerConfig config;
  config.up_rate_pps = 100000;
  config.up_window = Milliseconds(500);
  NetworkController controller(h.sim, h.fpga, h.migrator, config);
  controller.Start();
  h.OfferTraffic(30000, Seconds(2));
  h.sim.RunUntil(Seconds(2));
  EXPECT_EQ(h.migrator.placement(), Placement::kHost);
  EXPECT_TRUE(h.migrator.transitions().empty());
}

TEST(NetworkControllerTest, ShiftsBackWhenLoadDrops) {
  NetworkControllerHarness h;
  NetworkControllerConfig config;
  config.up_rate_pps = 100000;
  config.up_window = Milliseconds(500);
  config.down_rate_pps = 20000;
  config.down_window = Milliseconds(500);
  config.min_dwell = Milliseconds(100);
  NetworkController controller(h.sim, h.fpga, h.migrator, config);
  controller.Start();
  h.OfferTraffic(200000, Seconds(1));
  h.sim.RunUntil(Seconds(1));
  EXPECT_EQ(h.migrator.placement(), Placement::kNetwork);
  // Quiet period: rate collapses below the down threshold.
  h.sim.RunUntil(Seconds(3));
  EXPECT_EQ(h.migrator.placement(), Placement::kHost);
}

TEST(NetworkControllerTest, HysteresisPreventsOscillation) {
  // Rate between the two thresholds must not cause back-and-forth: "Using
  // two sets of parameters provides hysteresis" (§9.1).
  NetworkControllerHarness h;
  NetworkControllerConfig config;
  config.up_rate_pps = 150000;
  config.up_window = Milliseconds(500);
  config.down_rate_pps = 50000;
  config.down_window = Milliseconds(500);
  config.min_dwell = Milliseconds(100);
  NetworkController controller(h.sim, h.fpga, h.migrator, config);
  controller.Start();
  h.OfferTraffic(100000, Seconds(4));  // Between down (50K) and up (150K).
  h.sim.RunUntil(Seconds(4));
  EXPECT_TRUE(h.migrator.transitions().empty());
}

struct HostControllerHarness {
  HostControllerHarness()
      : sim(),
        server(sim, MakeServerConfig()),
        fpga(sim, MigratorHarness::Config()),
        rapl(sim, [this] { return server.RaplPackageWatts(); }, Milliseconds(1)) {
    fpga.InstallApp(&lake);
    rapl.Start();
  }
  static ServerConfig MakeServerConfig() {
    ServerConfig config;
    config.node = 1;
    config.power_curve = I7MemcachedCurve();
    return config;
  }
  Simulation sim;
  Server server;
  LakeCache lake{LakeConfig{}};
  FpgaNic fpga;
  RaplCounter rapl;
  FakeMigrator migrator;
};

TEST(HostControllerTest, ShiftsWhenPowerAndCpuSustained) {
  HostControllerHarness h;
  HostControllerConfig config;
  config.up_power_watts = 25.0;
  config.up_cpu_usage = -1.0;  // CPU gate disabled for this test.
  config.up_window = Seconds(1);
  config.min_dwell = Milliseconds(100);
  HostController controller(h.sim, h.server, AppProto::kKv, h.rapl, h.fpga, h.migrator,
                            config);
  controller.Start();
  h.server.SetBackgroundUtilization(3.5);  // Pushes RAPL well above 25 W.
  h.sim.RunUntil(Seconds(3));
  EXPECT_EQ(h.migrator.placement(), Placement::kNetwork);
}

TEST(HostControllerTest, NoShiftWhenPowerLow) {
  HostControllerHarness h;
  HostControllerConfig config;
  config.up_power_watts = 25.0;
  config.up_cpu_usage = 0.0;
  HostController controller(h.sim, h.server, AppProto::kKv, h.rapl, h.fpga, h.migrator,
                            config);
  controller.Start();
  h.sim.RunUntil(Seconds(3));  // Idle server: RAPL ~8 W.
  EXPECT_EQ(h.migrator.placement(), Placement::kHost);
}

TEST(HostControllerTest, RequiresSustainedWindowNotSpike) {
  // "the information is inspected over time, avoiding harsh decisions based
  // on spikes and outliers" (§9.1).
  HostControllerHarness h;
  HostControllerConfig config;
  config.up_power_watts = 25.0;
  config.up_cpu_usage = -1.0;
  config.up_window = Seconds(3);
  HostController controller(h.sim, h.server, AppProto::kKv, h.rapl, h.fpga, h.migrator,
                            config);
  controller.Start();
  // A 500 ms spike, then idle.
  h.server.SetBackgroundUtilization(4.0);
  h.sim.Schedule(Milliseconds(500), [&] { h.server.SetBackgroundUtilization(0.0); });
  h.sim.RunUntil(Seconds(5));
  EXPECT_EQ(h.migrator.placement(), Placement::kHost);
}

TEST(HostControllerTest, ShiftsBackOnLowDeviceRate) {
  HostControllerHarness h;
  HostControllerConfig config;
  config.up_power_watts = 25.0;
  config.up_cpu_usage = -1.0;
  config.up_window = Milliseconds(500);
  config.down_rate_pps = 1000;  // Device is idle: rate 0 < 1000.
  config.down_power_watts = 200.0;
  config.down_window = Milliseconds(500);
  config.min_dwell = Milliseconds(100);
  HostController controller(h.sim, h.server, AppProto::kKv, h.rapl, h.fpga, h.migrator,
                            config);
  controller.Start();
  h.server.SetBackgroundUtilization(3.5);
  h.sim.RunUntil(Seconds(2));
  EXPECT_EQ(h.migrator.placement(), Placement::kNetwork);
  h.server.SetBackgroundUtilization(0.0);
  h.sim.RunUntil(Seconds(5));
  EXPECT_EQ(h.migrator.placement(), Placement::kHost);
}

// ---- Park policies under migration (§9.2) ----

TEST(ParkPolicyMigrationTest, ReprogramHaltSuppressesClassifierTraffic) {
  // §9.2: loading the bitstream causes "a momentary traffic halt" — for the
  // configured halt window the classifier sees (and forwards) nothing.
  MigratorHarness h;
  const SimDuration halt = Milliseconds(40);
  StateTransferMigrator migrator(
      h.sim, h.fpga,
      StateTransferMigrator::Options::FromPolicy(ParkPolicy::kReprogram, halt));

  auto offer_packet = [&] {
    Packet pkt;
    pkt.src = 100;
    pkt.dst = 1;
    pkt.proto = AppProto::kKv;
    pkt.payload = KvRequest{KvOp::kGet, 1, 0};
    h.fpga.Receive(pkt);
  };

  migrator.ShiftToNetwork();
  EXPECT_TRUE(h.fpga.reprogramming());
  // Traffic offered through the whole halt window is dropped unseen.
  const int kDuringHalt = 10;
  for (int i = 0; i < kDuringHalt; ++i) {
    h.sim.Schedule(halt * i / kDuringHalt, offer_packet);
  }
  h.sim.RunUntil(halt - Milliseconds(1));
  EXPECT_EQ(h.fpga.app_ingress_packets(), 0u);
  EXPECT_EQ(h.fpga.processed_in_hardware(), 0u);
  EXPECT_EQ(h.fpga.dropped(), static_cast<uint64_t>(kDuringHalt));
  EXPECT_TRUE(h.fpga.reprogramming());

  // Once the halt elapses the app is live and traffic flows again.
  h.sim.RunUntil(halt + Milliseconds(1));
  EXPECT_FALSE(h.fpga.reprogramming());
  EXPECT_TRUE(h.fpga.app_active());
  offer_packet();
  h.sim.Run();
  EXPECT_EQ(h.fpga.app_ingress_packets(), 1u);
  EXPECT_EQ(h.fpga.processed_in_hardware(), 1u);
}

TEST(ParkPolicyMigrationTest, KeepWarmShiftsAreInstant) {
  // kKeepWarm pays idle watts for instant shifts: no reprogramming window,
  // app active the moment the migrator flips the classifier.
  MigratorHarness h;
  StateTransferMigrator migrator(
      h.sim, h.fpga, StateTransferMigrator::Options::FromPolicy(ParkPolicy::kKeepWarm));
  migrator.ShiftToNetwork();
  EXPECT_FALSE(h.fpga.reprogramming());
  EXPECT_TRUE(h.fpga.app_active());
  // A packet at the shift instant is classified and processed.
  Packet pkt;
  pkt.src = 100;
  pkt.dst = 1;
  pkt.proto = AppProto::kKv;
  pkt.payload = KvRequest{KvOp::kGet, 1, 0};
  h.fpga.Receive(pkt);
  h.sim.Run();
  EXPECT_EQ(h.fpga.processed_in_hardware(), 1u);
  // And the shift back is just as instant (memories stay warm).
  h.lake.WarmFill(0, 10, 64);
  migrator.ShiftToHost();
  EXPECT_FALSE(h.fpga.reprogramming());
  EXPECT_EQ(h.lake.l1().size(), 10u);
}

// ---- Hysteresis dwell under oscillating signals (§9.1) ----

// Migrator that stamps transitions with simulated time.
class TimedFakeMigrator : public Migrator {
 public:
  explicit TimedFakeMigrator(Simulation& sim) : sim_(sim) {}
  void ShiftToNetwork() override { RecordTransition(sim_.Now(), Placement::kNetwork); }
  void ShiftToHost() override { RecordTransition(sim_.Now(), Placement::kHost); }

 private:
  Simulation& sim_;
};

void ExpectDwellRespected(const std::vector<TransitionEvent>& transitions,
                          SimDuration min_dwell) {
  for (size_t i = 1; i < transitions.size(); ++i) {
    EXPECT_GE(transitions[i].at - transitions[i - 1].at, min_dwell)
        << "shift " << i << " violated min_dwell";
  }
}

TEST(NetworkControllerTest, OscillatingRateShiftsAtMostOncePerDwell) {
  // A rate square-wave straddling up_rate_pps (and, once offloaded, the
  // down threshold) tempts the controller to flip every window; min_dwell
  // must cap it at one shift per dwell period.
  NetworkControllerHarness h;
  TimedFakeMigrator migrator(h.sim);
  NetworkControllerConfig config;
  config.up_rate_pps = 100000;
  config.up_window = Milliseconds(200);
  config.down_rate_pps = 90000;  // Narrow band: both thresholds crossable.
  config.down_window = Milliseconds(200);
  config.min_dwell = Seconds(1);
  NetworkController controller(h.sim, h.fpga, migrator, config);
  controller.Start();
  // 250 ms bursts of 150 kpps alternating with 250 ms of ~20 kpps.
  for (int cycle = 0; cycle < 16; ++cycle) {
    const SimTime start = cycle * Milliseconds(500);
    h.sim.ScheduleAt(start, [&h] { h.OfferTraffic(150000, Milliseconds(250)); });
    h.sim.ScheduleAt(start + Milliseconds(250),
                     [&h] { h.OfferTraffic(20000, Milliseconds(250)); });
  }
  h.sim.RunUntil(Seconds(8));
  ASSERT_GE(migrator.transitions().size(), 2u);  // It did oscillate...
  ExpectDwellRespected(migrator.transitions(), config.min_dwell);
  // ...but never faster than one shift per dwell: <= sim_time / dwell + 1.
  EXPECT_LE(migrator.transitions().size(), 9u);
}

TEST(HostControllerTest, OscillatingPowerShiftsAtMostOncePerDwell) {
  HostControllerHarness h;
  TimedFakeMigrator migrator(h.sim);
  HostControllerConfig config;
  config.up_power_watts = 25.0;
  config.up_cpu_usage = -1.0;  // Power-only gate for a clean square wave.
  config.up_window = Milliseconds(200);
  config.down_rate_pps = 1000;  // Device idle: rate condition always true.
  config.down_power_watts = 25.0;
  config.down_window = Milliseconds(200);
  config.min_dwell = Seconds(1);
  HostController controller(h.sim, h.server, AppProto::kKv, h.rapl, h.fpga, migrator,
                            config);
  controller.Start();
  // RAPL square wave straddling the 25 W threshold every 300 ms.
  for (int cycle = 0; cycle < 14; ++cycle) {
    const SimTime start = cycle * Milliseconds(600);
    h.sim.ScheduleAt(start, [&h] { h.server.SetBackgroundUtilization(3.5); });
    h.sim.ScheduleAt(start + Milliseconds(300),
                     [&h] { h.server.SetBackgroundUtilization(0.0); });
  }
  h.sim.RunUntil(Seconds(8));
  ASSERT_GE(migrator.transitions().size(), 2u);
  ExpectDwellRespected(migrator.transitions(), config.min_dwell);
  EXPECT_LE(migrator.transitions().size(), 9u);
}

// ---- Energy advisor ----

TEST(EnergyAdvisorTest, ServerRatePowerSaturates) {
  auto fn = MakeServerRatePower(I7MemcachedCurve(), Microseconds(4), 4);
  EXPECT_DOUBLE_EQ(fn(0), 35.0);
  EXPECT_GT(fn(500000), fn(100000));
  // Beyond saturation (1 Mpps) power stops growing.
  EXPECT_DOUBLE_EQ(fn(2e6), fn(1.1e6));
}

TEST(EnergyAdvisorTest, KvsTippingPointNearPaperValue) {
  // Software: memcached curve + 4 W NIC. Network: host idle + LaKe board.
  auto software = MakeServerRatePower(I7MemcachedCurve(), Microseconds(4), 4);
  auto software_with_nic = [software](double r) { return software(r) + 4.0; };
  auto network = MakeFpgaRatePower(35.0, 24.0, 1.0, 13e6);
  const auto advice = AdvisePlacement(software_with_nic, network, 2e6);
  ASSERT_TRUE(advice.tipping_rate_pps.has_value());
  // Fig 3a: "the crossing point occurring around 80Kpps".
  EXPECT_GT(*advice.tipping_rate_pps, 40000.0);
  EXPECT_LT(*advice.tipping_rate_pps, 140000.0);
}

TEST(EnergyAdvisorTest, SwitchTippingPointNearZero) {
  // §9.4: for a ToR switch already forwarding, Pd_N(R) ~ 0 marginal, so the
  // tipping point is almost zero.
  auto software = MakeServerRatePower(I7LibpaxosCurve(), Microseconds(5600) / 1000, 1);
  auto network = MakeSwitchMarginalPower(0.02, 350.0, 2.5e9);
  const auto advice = AdvisePlacement(software, network, 1e6);
  ASSERT_TRUE(advice.tipping_rate_pps.has_value());
  EXPECT_TRUE(advice.network_always_wins);
}

TEST(EnergyAdvisorTest, NeverWinsReported) {
  auto cheap_software = [](double) { return 10.0; };
  auto network = MakeFpgaRatePower(35.0, 24.0, 1.0, 13e6);
  const auto advice = AdvisePlacement(cheap_software, network, 1e6);
  EXPECT_TRUE(advice.network_never_wins);
  EXPECT_FALSE(advice.tipping_rate_pps.has_value());
}

TEST(EnergyAdvisorTest, PeriodEnergyComposition) {
  auto power = [](double) { return 50.0; };
  // 1e6 packets at 1e5 pps = 10 s busy at 50 W + 20 s idle at 10 W = 700 J.
  EXPECT_NEAR(PeriodEnergyJoules(power, 10.0, 1e6, 1e5, 30.0), 700.0, 1e-9);
  // Zero rate: pure idle.
  EXPECT_NEAR(PeriodEnergyJoules(power, 10.0, 0, 0, 30.0), 300.0, 1e-9);
}

TEST(EnergyAdvisorTest, InvalidArgumentsThrow) {
  EXPECT_THROW(MakeServerRatePower(I7MemcachedCurve(), Microseconds(1), 0),
               std::invalid_argument);
  EXPECT_THROW(MakeFpgaRatePower(35, 24, 1, 0), std::invalid_argument);
  EXPECT_THROW(MakeSwitchMarginalPower(0.02, 350, 0), std::invalid_argument);
}

}  // namespace
}  // namespace incod
