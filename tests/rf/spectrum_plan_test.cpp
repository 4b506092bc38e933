// Unit tests for the monitor-driven SpectrumPlanner (tentpole, part 2):
// the hop -> hop -> TX escalation state machine, min-dwell rate limiting,
// mesh-wide channel-penalty sharing, peer-occupancy avoidance, and the
// composition of planner actions with RelayLink's latency probe (a retune
// is a coupling-label change, not a new signal path).
#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "rf/relay.hpp"
#include "rf/spectrum_plan.hpp"

namespace mute::rf {
namespace {

SpectrumPlannerOptions quick_options() {
  SpectrumPlannerOptions opt;  // defaults: 8 channels, threshold 2, dwell .25
  return opt;
}

TEST(SpectrumPlanner, StartsOnFrequencyDivisionAssignment) {
  SpectrumPlanner planner(4, quick_options());
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(planner.channel_of(k), k);
    EXPECT_DOUBLE_EQ(planner.tx_gain_db(k), 0.0);
  }
  // No evidence, no action.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(planner.plan(k, 0.0).kind, PlannerActionKind::kNone);
  }
}

TEST(SpectrumPlanner, RefusesFewerChannelsThanRelays) {
  SpectrumPlannerOptions opt = quick_options();
  opt.channel_count = 3;
  EXPECT_THROW(SpectrumPlanner(4, opt), PreconditionError);
}

TEST(SpectrumPlanner, OneBlipIsNotEvidence) {
  SpectrumPlanner planner(4, quick_options());
  planner.note_adverse(0, 0.0);  // pressure 1 < hop_threshold 2
  EXPECT_EQ(planner.plan(0, 0.01).kind, PlannerActionKind::kNone);
  EXPECT_EQ(planner.channel_of(0), 0u);
}

TEST(SpectrumPlanner, SustainedAdverseHopsToTheCleanestFreeChannel) {
  SpectrumPlanner planner(4, quick_options());
  for (int i = 0; i < 3; ++i) planner.note_adverse(0, 0.01 * i);
  const PlannerAction a = planner.plan(0, 0.05);
  ASSERT_EQ(a.kind, PlannerActionKind::kHop);
  EXPECT_EQ(a.relay, 0u);
  // Channels 1-3 are peer-occupied; 4 is the lowest-index clean channel.
  EXPECT_EQ(a.channel, 4u);
  EXPECT_EQ(planner.channel_of(0), 4u);
  // The hop consumed the pressure; the indicted channel keeps its penalty
  // as a warning to the rest of the mesh.
  EXPECT_DOUBLE_EQ(planner.adverse_pressure(0), 0.0);
  EXPECT_GT(planner.channel_penalty(0), 2.0);
}

TEST(SpectrumPlanner, ChannelPenaltiesWarnPeersOffTheBadChannel) {
  SpectrumPlanner planner(4, quick_options());
  // Relay 0 suffers on channel 0 and hops away (to 4).
  for (int i = 0; i < 3; ++i) planner.note_adverse(0, 0.01 * i);
  ASSERT_EQ(planner.plan(0, 0.05).kind, PlannerActionKind::kHop);
  // Relay 1 then suffers on ITS channel. Its hop must avoid both the
  // peer-occupied channels (2, 3, 4) and the channel relay 0's evidence
  // indicted (0) — landing on 5, not 0, although 0 is unoccupied.
  for (int i = 0; i < 3; ++i) planner.note_adverse(1, 0.06 + 0.01 * i);
  const PlannerAction a = planner.plan(1, 0.1);
  ASSERT_EQ(a.kind, PlannerActionKind::kHop);
  EXPECT_EQ(a.channel, 5u);
}

TEST(SpectrumPlanner, MinDwellRateLimitsActions) {
  SpectrumPlanner planner(4, quick_options());
  for (int i = 0; i < 3; ++i) planner.note_adverse(0, 0.01 * i);
  ASSERT_EQ(planner.plan(0, 0.05).kind, PlannerActionKind::kHop);
  // Interference follows (wideband): pressure rebuilds immediately, but
  // the planner must not hop again inside min_dwell_s — no hop storms.
  for (int i = 0; i < 3; ++i) planner.note_adverse(0, 0.06 + 0.01 * i);
  EXPECT_GE(planner.adverse_pressure(0), SpectrumPlanner::kHopThreshold);
  EXPECT_EQ(planner.plan(0, 0.1).kind, PlannerActionKind::kNone);
  EXPECT_EQ(planner.plan(0, 0.29).kind, PlannerActionKind::kNone);
  // Past the dwell the action lands.
  EXPECT_NE(planner.plan(0, 0.05 + 0.26).kind, PlannerActionKind::kNone);
}

TEST(SpectrumPlanner, EscalatesToTxPowerWhenNoChannelIsCleaner) {
  // As many relays as channels: every other channel is peer-occupied, so
  // a suffering relay has nowhere to hop and must escalate TX power,
  // stepping to the cap and never past it.
  SpectrumPlannerOptions opt = quick_options();
  opt.channel_count = 4;
  opt.min_dwell_s = 0.0;
  SpectrumPlanner planner(4, opt);

  for (int i = 0; i < 3; ++i) planner.note_adverse(2, 0.01 * i);
  PlannerAction a = planner.plan(2, 0.05);
  ASSERT_EQ(a.kind, PlannerActionKind::kTxStep);
  EXPECT_DOUBLE_EQ(a.tx_gain_db, 3.0);

  for (int i = 0; i < 3; ++i) planner.note_adverse(2, 0.06 + 0.01 * i);
  a = planner.plan(2, 0.1);
  ASSERT_EQ(a.kind, PlannerActionKind::kTxStep);
  EXPECT_DOUBLE_EQ(a.tx_gain_db, 6.0);
  EXPECT_DOUBLE_EQ(planner.tx_gain_db(2), 6.0);

  // Fully escalated: no further action, and the pressure is paid down so
  // the planner does not spin at the cap.
  for (int i = 0; i < 3; ++i) planner.note_adverse(2, 0.11 + 0.01 * i);
  const double before = planner.adverse_pressure(2);
  a = planner.plan(2, 0.15);
  EXPECT_EQ(a.kind, PlannerActionKind::kNone);
  EXPECT_DOUBLE_EQ(planner.tx_gain_db(2), 6.0);
  EXPECT_LT(planner.adverse_pressure(2), before);
}

TEST(SpectrumPlanner, HopMarginBlocksSidewaysHops) {
  // One relay, two channels, no decay: after fleeing channel 0 (penalty 3)
  // the relay suffers equally on channel 1. With both channels equally
  // dirty no candidate clears the hop margin, so the planner escalates TX
  // instead of ping-ponging between two bad channels.
  SpectrumPlannerOptions opt = quick_options();
  opt.channel_count = 2;
  opt.penalty_decay_per_s = 0.0;
  opt.min_dwell_s = 0.0;
  SpectrumPlanner planner(1, opt);
  for (int i = 0; i < 3; ++i) planner.note_adverse(0, 0.01 * i);
  ASSERT_EQ(planner.plan(0, 0.05).kind, PlannerActionKind::kHop);
  ASSERT_EQ(planner.channel_of(0), 1u);
  for (int i = 0; i < 3; ++i) planner.note_adverse(0, 0.06 + 0.01 * i);
  const PlannerAction a = planner.plan(0, 0.1);
  EXPECT_EQ(a.kind, PlannerActionKind::kTxStep)
      << "equal penalties must not produce a sideways hop";
  EXPECT_EQ(planner.channel_of(0), 1u);
}

TEST(SpectrumPlanner, CleanEvidencePaysDownPressure) {
  SpectrumPlanner planner(2, quick_options());
  planner.note_adverse(0, 0.0);
  EXPECT_GT(planner.adverse_pressure(0), 0.9);
  planner.note_clean(0, 0.01);
  planner.note_clean(0, 0.02);
  EXPECT_DOUBLE_EQ(planner.adverse_pressure(0), 0.0);
  EXPECT_EQ(planner.plan(0, 0.03).kind, PlannerActionKind::kNone);
}

TEST(SpectrumPlanner, PressureAndPenaltiesDecayWithTime) {
  SpectrumPlanner planner(2, quick_options());
  for (int i = 0; i < 3; ++i) planner.note_adverse(0, 0.01 * i);
  EXPECT_GT(planner.adverse_pressure(0), 2.0);
  // Ten seconds of silence: exp(-0.5 * 10) ~ 6.7e-3 of the pressure left.
  EXPECT_EQ(planner.plan(0, 10.0).kind, PlannerActionKind::kNone);
  EXPECT_LT(planner.adverse_pressure(0), 0.05);
  EXPECT_LT(planner.channel_penalty(0), 0.05);
}

TEST(RelayLink, RetuneComposesWithTheLatencyCache) {
  // A retune is a narrowband coupling label, not a new signal path, and
  // the latency probe runs a fresh, fault-free copy of the link: one link
  // that streams a faulted record (a pinned jammer and a clock drift that
  // shifts its own group delay), retunes and steps its TX gain must keep
  // giving the same probe bits, and so must a second link built alike.
  RelayConfig cfg;
  cfg.faults.jammer(0.0, 1.0, 800.0, 20.0, /*channel=*/0)
      .clock_drift(0.0, 1.0, 200.0);
  RelayLink link(cfg, 42);
  const double d0 = link.measure_latency_samples();
  Signal record(static_cast<std::size_t>(1.25 * cfg.audio_rate));
  for (std::size_t i = 0; i < record.size(); ++i) {
    record[i] = static_cast<Sample>(
        0.1 * std::sin(0.071 * static_cast<double>(i)));
  }
  (void)link.process(record);
  EXPECT_EQ(link.measure_latency_samples(), d0);
  link.retune(5);
  EXPECT_EQ(link.measure_latency_samples(), d0);
  link.set_tx_gain_db(3.0);
  EXPECT_EQ(link.measure_latency_samples(), d0);
  EXPECT_EQ(RelayLink(cfg, 42).measure_latency_samples(), d0);
}

TEST(RelayLink, RetuneDoesNotPerturbTheBenignPath) {
  // Two identical links, same seed; one retunes mid-stream. With no
  // channel-pinned jammer in the air the received audio must stay
  // bit-identical — the property that lets the mesh runner retune links
  // mid-run without disturbing benign-scenario equivalence.
  RelayConfig cfg;
  RelayLink a(cfg, 7);
  RelayLink b(cfg, 7);
  Signal probe(4096);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    probe[i] = static_cast<Sample>(
        0.1 * std::sin(0.071 * static_cast<double>(i)));
  }
  const Signal ya1 = a.process(probe);
  const Signal yb1 = b.process(probe);
  ASSERT_EQ(ya1.size(), yb1.size());
  for (std::size_t i = 0; i < ya1.size(); ++i) {
    ASSERT_EQ(ya1[i], yb1[i]) << "links diverged before the retune";
  }
  b.retune(6);
  const Signal ya2 = a.process(probe);
  const Signal yb2 = b.process(probe);
  for (std::size_t i = 0; i < ya2.size(); ++i) {
    ASSERT_EQ(ya2[i], yb2[i]) << "retune perturbed the benign path at " << i;
  }
}

TEST(RelayLink, HoppingOffAPinnedJammerChannelRestoresTheLink) {
  // A jammer pinned to channel 0 wrecks the link tuned there; the same
  // link retuned to a distant channel barely couples to it. This is the
  // physical lever the planner's kHop action pulls.
  RelayConfig cfg;
  cfg.faults.jammer(0.0, 10.0, 800.0, 20.0, /*channel=*/0);
  auto jammed = [&](std::size_t channel) {
    RelayLink link(cfg, 9);
    link.retune(channel);
    Signal probe(8192);
    for (std::size_t i = 0; i < probe.size(); ++i) {
      probe[i] = static_cast<Sample>(
          0.1 * std::sin(0.071 * static_cast<double>(i)));
    }
    const Signal y = link.process(probe);
    double power = 0.0;
    for (std::size_t i = 2048; i < y.size(); ++i) {
      power += static_cast<double>(y[i]) * static_cast<double>(y[i]);
    }
    return power / static_cast<double>(y.size() - 2048);
  };
  const double on_jammed = jammed(0);
  const double dodged = jammed(4);
  // On-channel the strong jammer captures the discriminator (output
  // collapses or goes to garbage — either way far from the clean probe
  // power); two channels away the coupling is negligible.
  EXPECT_GT(on_jammed / dodged + dodged / on_jammed, 5.0)
      << "jammer made no difference: pinning is not channel-selective";
}

}  // namespace
}  // namespace mute::rf
