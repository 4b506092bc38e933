// Microbenchmarks (google-benchmark): real-time feasibility of the DSP
// kernels. The paper's TMS320C6713 capped the system at an 8 kHz sample
// rate; these numbers show the per-sample cost of each stage on a modern
// CPU and hence the headroom for higher rates / more taps.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "adaptive/fdaf.hpp"
#include "adaptive/fxlms.hpp"
#include "adaptive/fxlms_multi.hpp"
#include "adaptive/lms.hpp"
#include "audio/generators.hpp"
#include "common/rng.hpp"
#include "core/lanc.hpp"
#include "core/link_monitor.hpp"
#include "core/relay_select.hpp"
#include "core/shadow_filter.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/kernels.hpp"
#include "dsp/resampler.hpp"
#include "rf/fm.hpp"
#include "sim/fleet.hpp"

namespace {

using namespace mute;

// Machine-speed yardstick for tools/bench_gate.py: a deliberately scalar,
// latency-bound chain (single-accumulator naive dot) whose cost tracks the
// host's plain FP throughput and is immune to the SIMD level the kernels
// dispatch to. The gate compares kernel-time / calibration-time ratios, so
// a uniformly slower CI machine doesn't trip the regression threshold.
void BM_Calibration(benchmark::State& state) {
  std::vector<double> a(1024), b(1024);
  Rng rng(42);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.gaussian();
    b[i] = rng.gaussian();
  }
  for (auto _ : state) {
    const double d = dsp::kernels::naive::dot(a.data(), b.data(), a.size());
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Calibration);

void BM_KernelDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n), b(n);
  Rng rng(13);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.gaussian();
    b[i] = rng.gaussian();
  }
  for (auto _ : state) {
    const double d = dsp::kernels::dot(a.data(), b.data(), n);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelDot)->Arg(256)->Arg(1024)->Arg(2048);

void BM_KernelEnergy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n);
  Rng rng(14);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    const double e = dsp::kernels::energy(x.data(), n);
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelEnergy)->Arg(1024);

void BM_KernelAxpyLeakyNorm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> w(n), x(n);
  Rng rng(15);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = rng.gaussian(0.01);
    x[i] = rng.gaussian();
  }
  for (auto _ : state) {
    // keep == 1.0 so w neither decays to denormals nor diverges over the
    // millions of timed iterations; g alternates sign around zero mean.
    const double norm =
        dsp::kernels::axpy_leaky_norm(w.data(), x.data(), 1.0, 1e-12, n);
    benchmark::DoNotOptimize(norm);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelAxpyLeakyNorm)->Arg(1024);

void BM_KernelScaledAccumulate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> acc(n, 0.0), x(n);
  Rng rng(16);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    dsp::kernels::scaled_accumulate(acc.data(), x.data(), 1e-9, n);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelScaledAccumulate)->Arg(1024);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  ComplexSignal x(n);
  for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  ComplexSignal work(n);  // in place: each iteration restores x by copy
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), work.begin());
    dsp::fft_inplace(work);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
// 128: the plant tail's transform; 32768: the paper's selection round.
BENCHMARK(BM_Fft)->Arg(128)->Arg(256)->Arg(1024)->Arg(4096)->Arg(32768);

void BM_FirFilterPerSample(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> h(taps);
  for (auto& v : h) v = rng.gaussian();
  dsp::FirFilter f(h);
  Sample x = 0.3f;
  for (auto _ : state) {
    // Clamp the feedback: a random-coefficient FIR has gain >> 1, so raw
    // output->input feedback diverges to Inf within a few hundred samples
    // (caught by MUTE_CHECK_FINITE). The clamp keeps the serial data
    // dependency that makes the per-sample timing honest.
    x = f.process(std::clamp(x, -1.0f, 1.0f));
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FirFilterPerSample)->Arg(64)->Arg(256)->Arg(1024)->Arg(2048);

void BM_LancTick(benchmark::State& state) {
  const auto noncausal = static_cast<std::size_t>(state.range(0));
  std::vector<double> hse(128, 0.0);
  hse[2] = 1.0;
  core::LancOptions opts;
  opts.fxlms.causal_taps = 512;
  opts.fxlms.noncausal_taps = noncausal;
  core::LancController lanc(hse, opts);
  Rng rng(4);
  for (auto _ : state) {
    const Sample y = lanc.tick(static_cast<Sample>(rng.gaussian(0.1)));
    lanc.observe_error(y * 0.01f);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["audio_fs_headroom_x16k"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 16000.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LancTick)->Arg(0)->Arg(64)->Arg(192);

void BM_LancTickWithProfiling(benchmark::State& state) {
  std::vector<double> hse(128, 0.0);
  hse[2] = 1.0;
  core::LancOptions opts;
  opts.fxlms.causal_taps = 512;
  opts.fxlms.noncausal_taps = 128;
  opts.profiling = true;
  core::LancController lanc(hse, opts);
  Rng rng(5);
  for (auto _ : state) {
    const Sample y = lanc.tick(static_cast<Sample>(rng.gaussian(0.1)));
    lanc.observe_error(y * 0.01f);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LancTickWithProfiling);

void BM_FdafBlock(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  adaptive::BlockFdaf fdaf({.taps = taps});
  Rng rng(9);
  Signal x(taps), d(taps), e(taps);
  for (std::size_t i = 0; i < taps; ++i) {
    x[i] = static_cast<Sample>(rng.gaussian(0.2));
    d[i] = x[i] * 0.5f;
  }
  for (auto _ : state) {
    fdaf.step_block(x, d, e);
    benchmark::DoNotOptimize(e.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(taps));
}
BENCHMARK(BM_FdafBlock)->Arg(256)->Arg(1024);

void BM_MultiLancTick(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  std::vector<double> hse(64, 0.0);
  hse[2] = 1.0;
  adaptive::FxlmsOptions opts;
  opts.causal_taps = 256;
  opts.noncausal_taps = 64;
  adaptive::MultiFxlmsEngine multi(hse, opts, channels);
  Rng rng(11);
  Signal refs(channels);
  for (auto _ : state) {
    for (auto& v : refs) v = static_cast<Sample>(rng.gaussian(0.1));
    const Sample y = multi.step_output(refs);
    multi.adapt(y * 0.01f);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiLancTick)->Arg(1)->Arg(2)->Arg(4);

// The full FxLMS per-sample duty cycle (push + compute + adapt) — the
// number the hot-path budget lives or dies on. `taps` is the total filter
// length (noncausal + causal). Reference samples are pregenerated so the
// timing measures the engine, not std::normal_distribution.
void BM_FxlmsCycle(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  std::vector<double> hse(128, 0.0);
  hse[2] = 1.0;
  adaptive::FxlmsOptions opts;
  opts.causal_taps = taps / 2;
  opts.noncausal_taps = taps - taps / 2;
  adaptive::FxlmsEngine engine(hse, opts);
  Rng rng(10);
  std::vector<Sample> xs(4096);
  for (auto& v : xs) v = static_cast<Sample>(rng.gaussian(0.1));
  std::size_t i = 0;
  for (auto _ : state) {
    engine.push_reference(xs[i]);
    i = (i + 1 == xs.size()) ? 0 : i + 1;
    const Sample y = engine.compute_antinoise();
    engine.adapt(y * 0.01f);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FxlmsCycle)->Arg(256)->Arg(1024)->Arg(2048);

// The shadow pre-convergence per-sample budget: every sample pushes the
// standby's reference into the shadow history, every adapt_stride-th pays
// the O(taps) predict+adapt. This rides on top of the active LANC tick, so
// its amortized cost must stay a small fraction of BM_LancTick.
void BM_ShadowObserve(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  adaptive::FxlmsOptions opts;
  opts.causal_taps = taps / 2;
  opts.noncausal_taps = taps - taps / 2;
  core::ShadowFilter shadow(opts, core::ShadowFilterOptions{});
  shadow.assign(/*relay=*/1, opts.noncausal_taps, /*lookahead_s=*/0.004);
  Rng rng(11);
  std::vector<Sample> xs(4096), ys(4096);
  for (auto& v : xs) v = static_cast<Sample>(rng.gaussian(0.1));
  for (auto& v : ys) v = static_cast<Sample>(rng.gaussian(0.1));
  std::size_t i = 0;
  for (auto _ : state) {
    shadow.observe(xs[i], ys[i]);
    i = (i + 1 == xs.size()) ? 0 : i + 1;
    benchmark::DoNotOptimize(shadow.update_count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowObserve)->Arg(704);

// The link monitor's per-sample health estimate on the active relay feed
// (core.link_monitor.process in the e2e ledger): one second of 0.1-rms
// reference with a 0.3-rms dropout burst in it, so the hysteresis runs
// through a fault episode and back on every loop.
void BM_LinkMonitor(benchmark::State& state) {
  const double fs = 16000.0;
  core::LinkMonitor monitor(core::LinkMonitorOptions{}, fs);
  Rng rng(12);
  std::vector<Sample> xs(16000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double rms = (i >= 6000 && i < 8000) ? 0.3 : 0.1;
    xs[i] = static_cast<Sample>(rng.gaussian(rms));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.process(xs[i]));
    i = (i + 1 == xs.size()) ? 0 : i + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkMonitor);

// LMS predict+update per-sample cycle (system identification hot loop).
void BM_AdaptiveFirStep(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  adaptive::AdaptiveFir fir(taps);
  Rng rng(12);
  std::vector<Sample> xs(4096);
  for (auto& v : xs) v = static_cast<Sample>(rng.gaussian(0.2));
  std::size_t i = 0;
  for (auto _ : state) {
    const Sample x = xs[i];
    i = (i + 1 == xs.size()) ? 0 : i + 1;
    fir.predict(x);
    const Sample e = fir.update(x * 0.5f);
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveFirStep)->Arg(256)->Arg(1024);

void BM_FmModDemod(benchmark::State& state) {
  rf::FmModulator mod(60000.0, kDefaultRfSampleRate);
  rf::FmDemodulator demod(60000.0, kDefaultRfSampleRate);
  Rng rng(6);
  for (auto _ : state) {
    const Sample out =
        demod.demodulate(mod.modulate(static_cast<Sample>(rng.gaussian(0.2))));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FmModDemod);

void BM_Resample16kTo256k(benchmark::State& state) {
  Rng rng(7);
  Signal in(1600);
  for (auto& v : in) v = static_cast<Sample>(rng.gaussian(0.2));
  dsp::StreamingResampler up(16000.0, 256000.0);
  for (auto _ : state) {
    auto out = up.process(in);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1600);
}
BENCHMARK(BM_Resample16kTo256k);

// Fleet runtime per-block cost (the tentpole edge-service metric): a
// fixed-size tenant fleet sharing one looped steady-state profile on ONE
// worker lane (machine-independent — the gate must not reward core
// count), advanced one scheduling quantum per iteration. Items/s is
// device-samples per second: divide the sample rate into it for the
// per-device real-time factor; bench/e2e measures the fleet's capacity
// (devices held at RTF >= 1) end to end. The profile is built once per
// process (a couple of seconds of scene synthesis) and shared across
// repetitions.
void BM_FleetThroughput(benchmark::State& state) {
  const auto tenants = static_cast<std::size_t>(state.range(0));
  static const sim::FleetProfile& profile = *[] {
    sim::DeviceSimConfig cfg;
    cfg.duration_s = 2.0;
    cfg.seed = 7;
    cfg.use_rf_link = false;
    cfg.device.calibration_s = 0.25;
    cfg.device.selection_period_s = 0.5;
    cfg.device.secondary_taps = 96;
    cfg.device.lanc.fxlms.causal_taps = 128;
    audio::WhiteNoiseSource noise(0.1, 1011);
    return new sim::FleetProfile(
        sim::make_fleet_profile(noise, cfg, /*loop_steady_state=*/true));
  }();
  sim::FleetConfig fc;
  fc.workers = 1;
  fc.max_tenants = tenants;
  fc.arena_bytes = std::size_t{8} << 20;
  sim::FleetRuntime fleet(fc);
  const std::size_t pid = fleet.add_profile(profile);
  for (std::size_t i = 0; i < tenants; ++i) fleet.admit(pid, i + 1);
  fleet.run_blocks(80);  // power-up calibration + first selection, untimed
  for (auto _ : state) {
    fleet.run_blocks(1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tenants * fleet.block_samples()));
}
BENCHMARK(BM_FleetThroughput)->Arg(8);

// One closed-loop device tick, EarLoop::step: the relay feed, the whole
// MuteDevice::tick, the plant FIR and the ear sum. Paper-default device on
// one relay over its FM link, looped in the loud region; calibration and
// the first selection round run untimed, later rounds amortize in.
void BM_DeviceTick(benchmark::State& state) {
  static const sim::FleetProfile& profile = *[] {
    sim::DeviceSimConfig cfg;
    cfg.duration_s = 6.0;
    audio::WhiteNoiseSource noise(0.1, 776);
    return new sim::FleetProfile(
        sim::make_fleet_profile(noise, cfg, /*loop_steady_state=*/true));
  }();
  sim::EarLoop ear(profile.streams, 1);
  std::size_t cursor = 0;
  const auto step = [&] {
    if (cursor >= profile.length()) cursor = profile.loop_start;
    return ear.step(profile.streams, cursor++, 1.0);
  };
  const auto warm =
      static_cast<std::size_t>(3.5 * profile.streams.sample_rate);
  for (std::size_t t = 0; t < warm; ++t) step();
  for (auto _ : state) benchmark::DoNotOptimize(step());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DeviceTick);

// One full selection period through RelaySelector::push: the per-sample
// capture plus the GCC-PHAT round it ends with. /1 is the paper-default
// device (one relay, 1 s period), /4 the mesh (four relays, 0.5 s).
void BM_RelaySelectRound(benchmark::State& state) {
  const auto relays = static_cast<std::size_t>(state.range(0));
  const double fs = 16000.0;
  const double period_s = relays == 1 ? 1.0 : 0.5;
  const auto period = static_cast<std::size_t>(period_s * fs);
  Rng rng(8);
  Signal source(period + 400);
  for (auto& v : source) v = static_cast<Sample>(rng.gaussian(0.2));
  // Relay k hears the source 40 * (k + 1) samples before the ear.
  std::vector<Signal> feeds(relays, Signal(period));
  Signal ear(period);
  for (std::size_t t = 0; t < period; ++t) {
    ear[t] = source[t];
    for (std::size_t k = 0; k < relays; ++k) {
      feeds[k][t] = source[t + 40 * (k + 1)];
    }
  }
  core::RelaySelector selector(relays, fs, period_s);
  Signal feed(relays);
  for (auto _ : state) {
    for (std::size_t t = 0; t < period; ++t) {
      for (std::size_t k = 0; k < relays; ++k) feed[k] = feeds[k][t];
      if (auto sel = selector.push(feed, ear[t])) {
        benchmark::DoNotOptimize(sel->all.data());
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(period));
}
BENCHMARK(BM_RelaySelectRound)->Arg(1)->Arg(4);

}  // namespace

// Custom entry point: `--json out.json` is shorthand for google-benchmark's
// `--benchmark_out=out.json --benchmark_out_format=json` (what
// tools/bench_gate.py and the CI perf-smoke job consume). Everything else
// passes through to the library untouched.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      args.emplace_back(std::string("--benchmark_out=") + argv[++i]);
      args.emplace_back("--benchmark_out_format=json");
    } else if (arg.rfind("--json=", 0) == 0) {
      args.emplace_back("--benchmark_out=" + arg.substr(7));
      args.emplace_back("--benchmark_out_format=json");
    } else {
      args.push_back(arg);
    }
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
