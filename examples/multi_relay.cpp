// Scenario: three relays cover the room (Section 4.2). The noise source
// moves; the client periodically GCC-PHAT-correlates each relay's
// forwarded waveform with its error mic and associates with the relay
// offering the largest positive lookahead — or none, when the source is
// closest to the client itself.
#include <cstdio>

#include "acoustics/environment.hpp"
#include "audio/generators.hpp"
#include "core/relay_select.hpp"
#include "core/timing.hpp"

int main() {
  using namespace mute;

  acoustics::Scene scene = acoustics::Scene::paper_office();
  const double fs = scene.sample_rate;
  const acoustics::Point client{3.0, 2.5, 1.2};
  const acoustics::Point relays[] = {
      {0.3, 2.5, 1.5}, {5.7, 0.4, 1.5}, {5.7, 4.6, 1.5}};

  std::printf("Multi-relay scenario: the noise source wanders around the "
              "office.\n\n");

  // The source walks along a path; every second the client re-selects.
  const acoustics::Point path[] = {
      {0.8, 2.5, 1.4},  // by the door (west)
      {1.5, 1.0, 1.4},  // south-west corner
      {4.5, 0.7, 1.4},  // along the south wall
      {5.3, 2.5, 1.4},  // east side
      {5.0, 4.3, 1.4},  // north-east
      {3.2, 2.7, 1.3},  // right next to the client
  };

  audio::WhiteNoiseSource noise(0.2, 3);
  core::RelaySelector selector(3, fs, /*period_s=*/1.0);

  for (const auto& pos : path) {
    acoustics::Scene s = scene;
    s.noise_source = pos;
    // Synthesize one second of what each microphone hears.
    const auto n_sig = noise.generate(static_cast<std::size_t>(fs));
    Signal streams[3] = {
        acoustics::build_path(s, pos, relays[0], "r0").apply(n_sig),
        acoustics::build_path(s, pos, relays[1], "r1").apply(n_sig),
        acoustics::build_path(s, pos, relays[2], "r2").apply(n_sig)};
    const auto ear = acoustics::build_path(s, pos, client, "ear").apply(n_sig);

    std::optional<core::RelaySelection> sel;
    for (std::size_t t = 0; t < ear.size(); ++t) {
      const Sample relay_samples[] = {streams[0][t], streams[1][t],
                                      streams[2][t]};
      if (auto fresh = selector.push(relay_samples, ear[t])) sel = *fresh;
    }
    std::printf("source at (%.1f, %.1f): ", pos.x, pos.y);
    if (sel && sel->chosen) {
      std::printf("relay #%zu selected, lookahead %+.2f ms -> LANC active "
                  "(N = %zu taps)\n",
                  sel->chosen->relay_index + 1,
                  sel->chosen->lookahead_s * 1e3,
                  core::lookahead_taps(
                      core::usable_lookahead_s(
                          sel->chosen->lookahead_s,
                          core::LatencyBudget::mute_ear_device()),
                      fs));
    } else {
      std::printf("no relay offers positive lookahead -> cancellation "
                  "paused, user nudged to reposition\n");
    }
  }
  return 0;
}
