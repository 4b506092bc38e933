// Figure 16: cancellation as lookahead shrinks toward the Equation-3
// lower bound. Exactly like the paper, the physical scene is untouched;
// a delayed line buffer inside the DSP starves the reference of lead time.
#include <cstdio>

#include "bench_util.hpp"
#include "sim/parallel_sweep.hpp"

int main() {
  using namespace mute;
  using bench::run_scheme;

  std::printf("Figure 16 reproduction: impact of shorter lookahead.\n");
  std::printf("Paper expectation: cancellation improves monotonically from\n"
              "the Lower Bound (≈ no effect) as lookahead grows.\n");

  const double kDur = 12.0;
  // Discover the total usable lookahead of the unmodified deployment.
  const auto baseline =
      run_scheme(sim::Scheme::kMuteHollow, sim::NoiseKind::kWhite, 42, 4.0);
  const double total_s = baseline.result.usable_lookahead_s;
  std::printf("\nusable lookahead above the bound: %.2f ms\n", total_s * 1e3);

  struct Variant {
    const char* label;
    double more_ms;
  };
  const Variant variants[] = {{"Lower Bound", 0.0},
                              {"0.38ms More", 0.38},
                              {"0.75ms More", 0.75},
                              {"1.13ms More", 1.13}};

  // The baseline discovery run above is sequential (its lookahead feeds
  // every variant's config); the four variant runs are independent and
  // sweep in parallel.
  constexpr std::size_t kVariants = sizeof(variants) / sizeof(variants[0]);
  std::vector<std::pair<std::string, const eval::CancellationSpectrum*>> curves;
  const auto runs = sim::parallel_sweep(kVariants, [&](std::size_t i) {
    const double extra = std::max(0.0, total_s - variants[i].more_ms * 1e-3);
    return run_scheme(
        sim::Scheme::kMuteHollow, sim::NoiseKind::kWhite, 42, kDur,
        [&](sim::SystemConfig& cfg) { cfg.extra_reference_delay_s = extra; });
  });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    curves.emplace_back(variants[i].label, &runs[i].spectrum);
  }
  bench::print_cancellation_curves(
      "Figure 16: cancellation vs frequency per lookahead margin", curves);

  std::printf("\n-- broadband averages --\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::printf("%-12s : %6.1f dB (N = %3zu taps)\n", variants[i].label,
                runs[i].spectrum.average_db(30, 4000),
                runs[i].result.noncausal_taps);
  }

  return 0;
}
