#pragma once

// Shared plumbing for the bench binaries: strict command-line value
// parsing, and for the figure-regeneration binaries, running a scheme,
// computing its cancellation spectrum, and printing paper-style series.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute::bench {

/// Parse the whole of `text` as a finite T, or exit 2 (the usage-error
/// status of every bench CLI) naming the flag.
template <typename T>
T parse_or_exit(const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end ||
      !std::isfinite(static_cast<double>(value))) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(), text);
    std::exit(2);
  }
  return value;
}

/// parse_or_exit for counts and durations, which must be positive.
template <typename T>
T parse_positive_or_exit(const std::string& flag, const char* text) {
  const T value = parse_or_exit<T>(flag, text);
  if (!(value > T{})) {
    std::fprintf(stderr, "%s must be positive: '%s'\n", flag.c_str(), text);
    std::exit(2);
  }
  return value;
}

struct SchemeRun {
  sim::SystemResult result;
  eval::CancellationSpectrum spectrum;  // 1/3-octave smoothed
};

/// Run one scheme on one workload with optional config tweaks.
inline SchemeRun run_scheme(
    sim::Scheme scheme, sim::NoiseKind noise_kind, std::uint64_t seed,
    double duration_s = 10.0,
    const std::function<void(sim::SystemConfig&)>& tweak = {}) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = sim::make_scheme_config(scheme, scene, seed);
  cfg.duration_s = duration_s;
  if (tweak) tweak(cfg);
  auto noise = sim::make_noise(noise_kind, cfg.scene.sample_rate, seed + 1000);
  SchemeRun out{sim::run_anc_simulation(*noise, cfg), {}};
  out.spectrum = eval::cancellation_spectrum(out.result.disturbance,
                                             out.result.residual,
                                             out.result.sample_rate,
                                             duration_s / 2.0)
                     .smoothed(3.0);
  return out;
}

/// Print a set of named cancellation curves as a table of frequency rows
/// (the paper's figure as numbers) plus an ASCII chart.
inline void print_cancellation_curves(
    const std::string& title,
    const std::vector<std::pair<std::string, const eval::CancellationSpectrum*>>&
        curves,
    double f_max = 4000.0, std::size_t points = 16) {
  std::printf("\n== %s ==\n\n", title.c_str());
  std::vector<std::string> headers = {"freq_Hz"};
  for (const auto& curve : curves) headers.push_back(curve.first);
  eval::Table table(headers);

  // Shared frequency grid: `points` even steps up to f_max.
  std::vector<double> grid;
  for (std::size_t p = 0; p < points; ++p) {
    grid.push_back(f_max * static_cast<double>(p + 1) /
                   static_cast<double>(points));
  }
  std::vector<eval::Series> series;
  for (const auto& [name, spec] : curves) {
    eval::Series s;
    s.name = name;
    for (double f : grid) s.y.push_back(spec->at(f));
    series.push_back(std::move(s));
  }
  for (std::size_t p = 0; p < grid.size(); ++p) {
    std::vector<std::string> row = {eval::fmt(grid[p], 0)};
    for (const auto& s : series) row.push_back(eval::fmt(s.y[p], 1));
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::printf("\ncancellation (dB, negative = quieter)\n");
  eval::print_ascii_chart(std::cout, grid, series, "frequency (Hz)", "dB");
}

}  // namespace mute::bench
