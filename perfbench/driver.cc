// perfbench_driver — the repository benchmark.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--tiny] [--forge digest|payload]
//
// One process links the library and times calls into each layer's public
// functions from outside. Workloads (see METRICS.md for why each exists):
//   credit_1m    one 10^6-user x 19-year credit trial through
//                sim::RunExperiment, at nproc threads, 1 thread, and nproc
//                threads with a checkpoint file;
//   experiments  paper-size (N = 1000) credit / market / ensemble
//                experiments and a credit sweep at trial-level parallelism;
//   serve_mixed  an in-process serve::Server under a closed loop of nproc
//                serve::Client connections sending a seeded job stream;
//   certify      sim::CertifyRegisteredScenarios at 8192 Ulam cells.
//
// --trace 0 measures the end-to-end metrics with nothing recorded inside
// the timed calls. --trace 1 is the separate traced run: it records spans
// (name, start, end, parent) around the public calls, keeps them in
// memory, writes them to DIR/spans-WORKLOAD-seedN.json at the end, and
// reports the per-layer metrics plus the tracing overhead. Per-layer
// metrics of a layer the workload does not exercise read 0.
//
// Every run enforces the workload's correctness gates (digests equal
// across thread counts, checkpointing and tracing; served payloads
// byte-equal to the direct engine + renderer; certificate measures
// reproduced). A failed gate or a failed operation makes the run print
// "correct": false and exit 1. --forge corrupts one compared digest or
// payload, so the benchmark's self-test can prove the gates bite. --tiny
// shrinks every input for that self-test.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Progress, sample counts and digests go to stderr.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/fnv1a.h"
#include "core/ergodicity.h"
#include "credit/credit_loop.h"
#include "linalg/sparse_eigen.h"
#include "markov/sparse_ulam.h"
#include "runtime/seed_sequence.h"
#include "serve/client.h"
#include "serve/render_json.h"
#include "serve/server.h"
#include "sim/certify.h"
#include "sim/credit_scenario.h"
#include "sim/experiment.h"
#include "sim/scenario_registry.h"
#include "sim/sweep.h"
#include "stats/adr_accumulator.h"

namespace {

namespace base = eqimpact::base;
namespace credit = eqimpact::credit;
namespace linalg = eqimpact::linalg;
namespace markov = eqimpact::markov;
namespace runtime = eqimpact::runtime;
namespace serve = eqimpact::serve;
namespace sim = eqimpact::sim;
namespace stats = eqimpact::stats;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Logical CPUs this process may run on (what `nproc` prints).
size_t NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB.
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

// --- Command line ------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string forge;  ///< "", "digest" or "payload".
  std::string out_dir = ".";
  size_t cpus = 1;
};

// --- Metrics -------------------------------------------------------------

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Emitted by every workload with --trace 0. What each means per workload
// is in METRICS.md.
const MetricDecl kEndToEnd[] = {
    {"throughput_per_s", "1/s"},    {"throughput_1t_per_s", "1/s"},
    {"latency_p50_ms", "ms"},       {"latency_p95_ms", "ms"},
    {"peak_rss_mb", "MB"},          {"setup_s", "s"},
};

// Emitted by every workload with --trace 1; a layer the workload does not
// exercise reads 0.
const MetricDecl kPerLayer[] = {
    // credit_1m
    {"credit.year_s", "s"},
    {"credit.year_s_1t", "s"},
    {"credit.first_year_s", "s"},
    {"runtime.year_speedup", "ratio"},
    {"stats.observe_s", "s"},
    {"stats.observe_share", "ratio"},
    {"credit.checkpoint_bytes", "bytes"},
    {"credit.serialize_s", "s"},
    {"sim.checkpoint_write_s", "s"},
    {"sim.checkpointed_user_years_per_s", "1/s"},
    // experiments
    {"sim.trial_s.credit", "s"},
    {"sim.trial_s.market", "s"},
    {"sim.trial_s.ensemble", "s"},
    {"sim.point_s.exact", "s"},
    {"sim.point_s.binned", "s"},
    {"sim.merge_s", "s"},
    {"runtime.trial_efficiency.credit", "ratio"},
    {"runtime.trial_efficiency.sweep", "ratio"},
    {"runtime.trial_efficiency.market", "ratio"},
    {"runtime.trial_efficiency.ensemble", "ratio"},
    {"sim.trials_per_s.credit", "1/s"},
    {"sim.trials_per_s.sweep", "1/s"},
    {"sim.trials_per_s.market", "1/s"},
    {"sim.trials_per_s.ensemble", "1/s"},
    // serve_mixed
    {"serve.accept_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.queue_p95_ms", "ms"},
    {"serve.result_ms", "ms"},
    {"serve.hit_ms", "ms"},
    {"serve.miss_ms", "ms"},
    {"serve.engine_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.stalled_share", "ratio"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.jobs_sent", "count"},
    {"serve.jobs_succeeded", "count"},
    {"serve.dedup_joins", "count"},
    {"serve.runs_started", "count"},
    {"serve.rejected", "count"},
    {"serve.failed", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.transport.connections_accepted", "count"},
    {"serve.transport.connections_rejected", "count"},
    {"serve.transport.oversized_lines", "count"},
    {"serve.transport.idle_closes", "count"},
    {"serve.transport.backpressure_pauses", "count"},
    {"serve.transport.backpressure_resumes", "count"},
    {"serve.transport.peak_write_queue_bytes", "bytes"},
    // certify
    {"markov.build_s", "s"},
    {"markov.nnz", "count"},
    {"linalg.stationary_s", "s"},
    {"linalg.stationary_iters", "count"},
    {"linalg.subdominant_s", "s"},
    {"linalg.matvec_entries_per_s", "1/s"},
    // every workload
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

/// The run's result: metrics, operation counts and gate outcomes.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {
    if (trace) {
      for (const MetricDecl& m : kPerLayer) decls_.push_back(m);
    } else {
      for (const MetricDecl& m : kEndToEnd) decls_.push_back(m);
    }
  }

  /// Records a metric of the run's mode; metrics of the other mode are
  /// dropped, so workloads can set both unconditionally.
  void Set(const std::string& name, double value) {
    for (const MetricDecl& m : decls_) {
      if (name == m.name) {
        values_[name] = value;
        return;
      }
    }
  }

  /// One timed or checked operation; a failed one fails the run.
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
  void Ops(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// A correctness gate: a failure counts as a failed operation.
  void Gate(bool ok, const std::string& what) { Op(ok, "gate " + what); }

  /// Prints the result line; returns the process exit code.
  int Print() {
    std::string metrics;
    for (const MetricDecl& m : decls_) {
      auto it = values_.find(m.name);
      double value = 0.0;  // Per-layer: the layer did no work here.
      if (it != values_.end()) {
        value = it->second;
      } else if (!trace_) {
        Gate(false, std::string("metric measured: ") + m.name);
      }
      if (!std::isfinite(value)) {
        Gate(false, std::string("metric finite: ") + m.name);
        value = 0.0;
      }
      char entry[192];
      std::snprintf(entry, sizeof(entry),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", m.name, value, m.unit);
      metrics += entry;
    }
    const bool correct = failed_ == 0 && attempted_ > 0;
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {%s}}\n",
        correct ? "true" : "false", std::max<size_t>(attempted_, 1), failed_,
        metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  const bool trace_;
  std::vector<MetricDecl> decls_;
  std::map<std::string, double> values_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// --- Tracing -------------------------------------------------------------

/// In-memory span recorder. Spans are recorded from the benchmark's own
/// code around calls into the library, never inside it; they are written
/// out once, when the run ends.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Seconds since the trace began.
  double Now() const { return SecondsSince(origin_); }

  /// Records a closed span; returns its id (-1 when tracing is off).
  long Add(const std::string& name, double start, double end,
           long parent = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, end, parent});
    return static_cast<long>(spans_.size()) - 1;
  }

  /// Opens a span at Now(); End() closes it.
  long Begin(const std::string& name, long parent = -1) {
    const double now = Now();
    return Add(name, now, now, parent);
  }

  /// Closes span `id` at Now(); returns its duration in seconds.
  double End(long id) {
    if (id < 0) return 0.0;
    const double now = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = now;
    return span.end - span.start;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %ld}%s\n",
                   i, s.name.c_str(), s.start, s.end, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    long parent;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- Shared helpers ------------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 11;

/// Median wall time of `reps` calls of `setup` (each builds and tears
/// down the workload's objects and runs one small warm-up operation).
double MedianSetup(int reps, const std::function<void()>& setup) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    setup();
    samples.push_back(SecondsSince(start));
  }
  return Median(samples);
}

/// Calls `round` once, then again while another round as long as the
/// last still fits in `seconds` from the first call; returns the count.
size_t RunRounds(double seconds, const std::function<void()>& round) {
  const Clock::time_point window = Clock::now();
  size_t rounds = 0;
  double last = 0.0;
  do {
    const Clock::time_point start = Clock::now();
    round();
    last = SecondsSince(start);
    ++rounds;
  } while (SecondsSince(window) + last <= seconds);
  return rounds;
}

/// Compares digests with their reference. Under --forge digest the first
/// digest it sees is corrupted, so the self-test can watch the gate fail.
class DigestCheck {
 public:
  explicit DigestCheck(const Options& options)
      : forge_(options.forge == "digest") {}

  bool Same(uint64_t digest, uint64_t reference) {
    if (forge_) {
      forge_ = false;
      digest ^= 1u;
    }
    return digest == reference;
  }

 private:
  bool forge_;
};

/// Sample count and range of a timed series, for the stderr report.
void LogSamples(const char* name, const std::vector<double>& samples) {
  if (samples.empty()) return;
  std::fprintf(stderr, "samples %s n=%zu min %.6g median %.6g max %.6g\n",
               name, samples.size(),
               *std::min_element(samples.begin(), samples.end()),
               Median(samples),
               *std::max_element(samples.begin(), samples.end()));
}

void LogDigest(const char* name, uint64_t digest) {
  std::fprintf(stderr, "digest %s %016" PRIx64 "\n", name, digest);
}

std::unique_ptr<sim::Scenario> MakeScenario(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& assignments) {
  std::unique_ptr<sim::Scenario> scenario = sim::CreateScenario(name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario %s\n", name.c_str());
    std::exit(2);
  }
  for (const auto& assignment : assignments) {
    if (!scenario->SetParameter(assignment.first, assignment.second)) {
      std::fprintf(stderr, "scenario %s rejects %s\n", name.c_str(),
                   assignment.first.c_str());
      std::exit(2);
    }
  }
  return scenario;
}

/// Digest of one trial's outputs: its group series and its streamed
/// impact accumulator, in slot order.
uint64_t TrialDigest(const std::vector<std::vector<double>>& group_impact,
                     const stats::AdrAccumulator& impact) {
  base::Fnv1a digest;
  for (const auto& series : group_impact) digest.MixSeries(series);
  sim::MixAccumulator(&digest, impact);
  return digest.hash();
}

// --- credit_1m -------------------------------------------------------------

sim::ExperimentResult RunCreditTrial(sim::Scenario* scenario, uint64_t seed,
                                     size_t trial_threads,
                                     const std::string& checkpoint_path) {
  // run_experiment --set num_users=N --trial-threads=T [--checkpoint=P].
  sim::ExperimentOptions options;
  options.num_trials = 1;
  options.master_seed = seed;
  options.trial_threads = trial_threads;
  options.checkpoint_path = checkpoint_path;
  return sim::RunExperiment(scenario, options);
}

uint64_t CreditTrialDigest(const sim::ExperimentResult& result) {
  return TrialDigest(result.trials.at(0).group_impact, result.pooled_impact);
}

/// Per-year timing of one credit::CreditScoringLoop::Run(observer) call.
struct LoopTiming {
  double wall_s = 0.0;
  double first_year_s = 0.0;
  std::vector<double> year_s;  ///< Years 1.., observer time excluded.
  double observe_s = 0.0;      ///< Total time inside AddCrossSection.
  std::vector<double> blob_bytes;  ///< Per checkpoint_sink call.
  uint64_t digest = 0;
};

LoopTiming TraceCreditLoop(const sim::CreditScenario& scenario,
                           uint64_t seed, size_t threads, bool with_sink,
                           Trace* trace, const std::string& label) {
  // The loop options CreditScenario::RunTrial would build for trial 0.
  credit::CreditLoopOptions options = scenario.options().loop;
  options.seed = runtime::SeedSequence(seed).Seed(0);
  options.keep_user_adr = scenario.options().keep_raw_series;
  options.num_threads = threads;
  LoopTiming timing;
  long trial_span = -1;
  if (with_sink) {
    options.checkpoint_sink = [&](size_t, const std::vector<uint8_t>& state) {
      const double t = trace->Now();
      timing.blob_bytes.push_back(static_cast<double>(state.size()));
      trace->Add("checkpoint_sink", t, trace->Now(), trial_span);
    };
  }
  stats::AdrAccumulator impact(scenario.GroupLabels().size(),
                               scenario.StepLabels().size(), 64,
                               scenario.impact_lo(), scenario.impact_hi());
  credit::CreditScoringLoop loop(options);
  trial_span = trace->Begin(label);
  const double start = trace->Now();
  double previous_end = start;
  credit::CreditLoopResult record =
      loop.Run([&](const credit::YearSnapshot& snapshot) {
        const double t0 = trace->Now();
        if (snapshot.step == 0) {
          timing.first_year_s = t0 - start;
        } else {
          timing.year_s.push_back(t0 - previous_end);
        }
        trace->Add("year", previous_end, t0, trial_span);
        impact.AddCrossSection(snapshot.step, snapshot.user_adr,
                               snapshot.race_ids);
        previous_end = trace->Now();
        timing.observe_s += previous_end - t0;
        trace->Add("observe", t0, previous_end, trial_span);
      });
  timing.wall_s = trace->Now() - start;
  trace->End(trial_span);
  timing.digest = TrialDigest(record.race_adr, impact);
  return timing;
}

void RunCredit1m(const Options& options, Report* report, Trace* trace) {
  const size_t users = options.tiny ? 2000 : 1000000;
  const size_t warm_users = std::max<size_t>(users / 100, 500);
  const size_t threads = options.cpus;
  const std::string checkpoint_path =
      options.out_dir + "/credit_1m-" + std::to_string(options.seed) +
      ".ckpt";

  // Set-up: a ready scenario and one warm-up trial at 1% of the cohort.
  const double setup_s = MedianSetup(kSetupReps, [&] {
    std::unique_ptr<sim::Scenario> warm = MakeScenario(
        "credit", {{"num_users", static_cast<double>(warm_users)}});
    RunCreditTrial(warm.get(), options.seed, threads, "");
  });
  report->Set("setup_s", setup_s);

  std::unique_ptr<sim::Scenario> scenario =
      MakeScenario("credit", {{"num_users", static_cast<double>(users)}});
  const auto* credit_scenario =
      dynamic_cast<const sim::CreditScenario*>(scenario.get());
  if (credit_scenario == nullptr) {
    report->Gate(false, "registry credit scenario is a CreditScenario");
    return;
  }

  // Gate pass: the checkpointed trial (every year rewrites the snapshot).
  const double ckpt_start = trace->Now();
  const sim::ExperimentResult checkpointed =
      RunCreditTrial(scenario.get(), options.seed, threads, checkpoint_path);
  const double ckpt_wall = trace->Now() - ckpt_start;
  trace->Add("trial.checkpointed", ckpt_start, ckpt_start + ckpt_wall);
  std::remove(checkpoint_path.c_str());
  report->Op(true, "checkpointed trial");
  const uint64_t reference = sim::ExperimentDigest(checkpointed);
  const uint64_t reference_trial = CreditTrialDigest(checkpointed);
  LogDigest("credit_1m.experiment", reference);
  LogDigest("credit_1m.trial", reference_trial);
  const size_t years = scenario->StepLabels().size();
  const double user_years = static_cast<double>(users * years);
  DigestCheck check(options);

  if (!options.trace) {
    // Alternate nproc-thread and 1-thread trials for the whole window.
    std::vector<double> wall_n, wall_1;
    bool equal = true;
    RunRounds(options.seconds, [&] {
      Clock::time_point start = Clock::now();
      equal &= check.Same(sim::ExperimentDigest(RunCreditTrial(
                              scenario.get(), options.seed, threads, "")),
                          reference);
      wall_n.push_back(SecondsSince(start));
      start = Clock::now();
      equal &= check.Same(sim::ExperimentDigest(RunCreditTrial(
                              scenario.get(), options.seed, 1, "")),
                          reference);
      wall_1.push_back(SecondsSince(start));
      report->Ops(2, 0);
    });
    report->Gate(equal,
                 "credit_1m digest equal at nproc, 1 thread and checkpointed");
    LogSamples("credit_1m.trial_s.nproc", wall_n);
    LogSamples("credit_1m.trial_s.1t", wall_1);
    report->Set("throughput_per_s", user_years / Median(wall_n));
    report->Set("throughput_1t_per_s", user_years / Median(wall_1));
    report->Set("latency_p50_ms", 1e3 * Median(wall_n));
    report->Set("latency_p95_ms", 1e3 * Percentile(wall_n, 0.95));
    std::fprintf(stderr,
                 "credit_1m: %zu users, %zu rounds; nproc trial %.3fs, "
                 "1-thread %.3fs, checkpointed %.3fs\n",
                 users, wall_n.size(), Median(wall_n), Median(wall_1),
                 ckpt_wall);
    return;
  }

  // Traced: the loop's public observer and sink hooks next to the plain
  // trial through RunExperiment; the checkpointed trial is the gate pass.
  std::vector<double> year_n, year_1, year_sink, first_year, observe,
      observe_share, bytes, plain_wall, traced_wall;
  bool equal = true;
  RunRounds(options.seconds, [&] {
    const LoopTiming n = TraceCreditLoop(*credit_scenario, options.seed,
                                         threads, false, trace, "trial.nproc");
    const LoopTiming one = TraceCreditLoop(*credit_scenario, options.seed, 1,
                                           false, trace, "trial.1t");
    const LoopTiming sink = TraceCreditLoop(
        *credit_scenario, options.seed, threads, true, trace, "trial.sink");
    const Clock::time_point start = Clock::now();
    const sim::ExperimentResult plain =
        RunCreditTrial(scenario.get(), options.seed, threads, "");
    plain_wall.push_back(SecondsSince(start));
    report->Ops(4, 0);

    equal &= sim::ExperimentDigest(plain) == reference;
    equal &= check.Same(n.digest, reference_trial) &&
             one.digest == reference_trial && sink.digest == reference_trial;
    year_n.push_back(Median(n.year_s));
    year_1.push_back(Median(one.year_s));
    year_sink.push_back(Median(sink.year_s));
    first_year.push_back(n.first_year_s);
    observe.push_back(n.observe_s);
    observe_share.push_back(n.observe_s / n.wall_s);
    bytes.push_back(Median(sink.blob_bytes));
    traced_wall.push_back(n.wall_s);
  });
  report->Gate(equal,
               "credit_1m traced-loop digests equal the untraced trials'");
  const double serialize_s = Median(year_sink) - Median(year_n);
  report->Set("credit.year_s", Median(year_n));
  report->Set("credit.year_s_1t", Median(year_1));
  report->Set("credit.first_year_s", Median(first_year));
  report->Set("runtime.year_speedup", Median(year_1) / Median(year_n));
  report->Set("stats.observe_s", Median(observe));
  report->Set("stats.observe_share", Median(observe_share));
  report->Set("credit.checkpoint_bytes", Median(bytes));
  report->Set("credit.serialize_s", serialize_s);
  // Derived, not measured by a span: what the checkpointed trial costs
  // beyond the plain trial and the engine's own serialization.
  report->Set("sim.checkpoint_write_s",
              ckpt_wall - Median(plain_wall) -
                  static_cast<double>(years) * serialize_s);
  report->Set("sim.checkpointed_user_years_per_s", user_years / ckpt_wall);
  report->Set("trace.overhead_s", Median(traced_wall) - Median(plain_wall));
  std::fprintf(stderr,
               "credit_1m traced: %zu rounds; year %.4fs (1t %.4fs), "
               "observe %.3fs (%.0f%%), blob %.1f MB/year\n",
               year_n.size(), Median(year_n), Median(year_1), Median(observe),
               100.0 * Median(observe_share), Median(bytes) / 1e6);
}

// --- experiments -----------------------------------------------------------

struct ExperimentSizes {
  size_t credit_trials;
  size_t sweep_trials;  ///< Per grid point.
  size_t market_trials;
  size_t ensemble_trials;
};

const char* const kExperimentKinds[] = {"credit", "sweep", "market",
                                        "ensemble"};

/// One batch: the four experiment calls, each returning its digest and
/// the callback times the traced run needs.
struct BatchRun {
  double wall_s[4] = {0, 0, 0, 0};
  uint64_t digest[4] = {0, 0, 0, 0};
  std::vector<double> gaps[4];     ///< Completion-callback gaps.
  std::vector<double> exact_gaps;  ///< Sweep points at forgetting_factor 1.
  std::vector<double> binned_gaps; ///< Sweep points below 1.
  double merge_s[4] = {0, 0, 0, 0};
};

const double kSweepForgetting[] = {1.0, 0.9};
const double kSweepCutoff[] = {0.3, 0.35, 0.4, 0.45};

size_t TrialsOf(const ExperimentSizes& sizes, int kind) {
  switch (kind) {
    case 0: return sizes.credit_trials;
    case 1: return sizes.sweep_trials * 8;
    case 2: return sizes.market_trials;
    default: return sizes.ensemble_trials;
  }
}

BatchRun RunBatch(const ExperimentSizes& sizes, uint64_t seed, size_t threads,
                  Trace* trace) {
  BatchRun run;
  const char* scenarios[] = {"credit", "credit", "market", "ensemble"};
  for (int kind = 0; kind < 4; ++kind) {
    const long span =
        trace->Begin(std::string("experiment.") + kExperimentKinds[kind]);
    double last = 0.0;
    const double start = trace->Now();
    const Clock::time_point wall = Clock::now();
    if (kind == 1) {
      sim::SweepOptions sweep;
      sweep.experiment.num_trials = sizes.sweep_trials;
      sweep.experiment.master_seed = seed;
      sweep.experiment.num_threads = 1;
      sweep.experiment.trial_threads = 1;
      sweep.parameters = {
          {"forgetting_factor",
           std::vector<double>(std::begin(kSweepForgetting),
                               std::end(kSweepForgetting))},
          {"cutoff", std::vector<double>(std::begin(kSweepCutoff),
                                         std::end(kSweepCutoff))}};
      sweep.num_point_threads = threads;
      if (trace->enabled()) {
        last = start;
        sweep.on_point_complete = [&](size_t, const sim::SweepPoint& point,
                                      size_t, size_t) {
          const double now = trace->Now();
          (point.values.at(0) == 1.0 ? run.exact_gaps : run.binned_gaps)
              .push_back(now - last);
          trace->Add(point.values.at(0) == 1.0 ? "point.exact"
                                               : "point.binned",
                     last, now, span);
          last = now;
        };
      }
      const sim::SweepResult result = sim::RunSweep(
          sim::GetScenarioFactory("credit"), sweep);
      run.digest[kind] = sim::SweepDigest(result);
    } else {
      std::unique_ptr<sim::Scenario> scenario =
          MakeScenario(scenarios[kind], {});
      sim::ExperimentOptions experiment;
      experiment.num_trials = TrialsOf(sizes, kind);
      experiment.master_seed = seed;
      experiment.num_threads = threads;
      experiment.trial_threads = 1;
      if (trace->enabled()) {
        last = start;
        experiment.on_trial_complete = [&](size_t, const sim::TrialOutcome&,
                                           size_t, size_t) {
          const double now = trace->Now();
          run.gaps[kind].push_back(now - last);
          trace->Add("trial", last, now, span);
          last = now;
        };
      }
      const sim::ExperimentResult result =
          sim::RunExperiment(scenario.get(), experiment);
      run.digest[kind] = sim::ExperimentDigest(result);
    }
    run.wall_s[kind] = SecondsSince(wall);
    if (trace->enabled()) run.merge_s[kind] = trace->Now() - last;
    trace->End(span);
  }
  return run;
}

void RunExperiments(const Options& options, Report* report, Trace* trace) {
  ExperimentSizes sizes = options.tiny ? ExperimentSizes{4, 2, 2, 4}
                                       : ExperimentSizes{256, 16, 64, 256};
  const size_t threads = options.cpus;
  double batch_trials = 0.0;
  for (int kind = 0; kind < 4; ++kind) {
    batch_trials += static_cast<double>(TrialsOf(sizes, kind));
  }

  // Set-up: ready scenarios and one two-trial warm-up run of each kind.
  Trace off(false);
  const ExperimentSizes warm{2, 1, 2, 2};
  report->Set("setup_s", MedianSetup(kSetupReps, [&] {
                RunBatch(warm, options.seed, threads, &off);
              }));

  auto sum_wall = [](const BatchRun& run) {
    return run.wall_s[0] + run.wall_s[1] + run.wall_s[2] + run.wall_s[3];
  };
  // Untraced reference digests at nproc threads: every other run (1
  // thread, traced) must reproduce them.
  const BatchRun reference = RunBatch(sizes, options.seed, threads, &off);
  report->Ops(4, 0);
  for (int kind = 0; kind < 4; ++kind) {
    LogDigest((std::string("experiments.") + kExperimentKinds[kind]).c_str(),
              reference.digest[kind]);
  }
  DigestCheck check(options);
  auto same = [&](const BatchRun& run) {
    bool ok = true;
    for (int kind = 0; kind < 4; ++kind) {
      ok &= check.Same(run.digest[kind], reference.digest[kind]);
    }
    return ok;
  };

  bool equal = true;
  std::vector<double> wall_n{sum_wall(reference)}, wall_1;
  if (!options.trace) {
    RunRounds(options.seconds, [&] {
      const BatchRun one = RunBatch(sizes, options.seed, 1, &off);
      equal &= same(one);
      wall_1.push_back(sum_wall(one));
      const BatchRun n = RunBatch(sizes, options.seed, threads, &off);
      equal &= same(n);
      wall_n.push_back(sum_wall(n));
      report->Ops(8, 0);
    });
    report->Gate(equal, "experiment and sweep digests equal at 1 and nproc "
                        "threads");
    LogSamples("experiments.batch_s.nproc", wall_n);
    LogSamples("experiments.batch_s.1t", wall_1);
    report->Set("throughput_per_s", batch_trials / Median(wall_n));
    report->Set("throughput_1t_per_s", batch_trials / Median(wall_1));
    report->Set("latency_p50_ms", 1e3 * Median(wall_n));
    report->Set("latency_p95_ms", 1e3 * Percentile(wall_n, 0.95));
    std::fprintf(stderr,
                 "experiments: %.0f trials/batch, %zu rounds; batch %.3fs "
                 "at %zu threads, %.3fs at 1\n",
                 batch_trials, wall_1.size(), Median(wall_n), threads,
                 Median(wall_1));
    return;
  }

  // Traced: sequential dispatch gives per-trial and per-point gaps;
  // parallel dispatch gives the merge tail and the efficiency.
  std::vector<double> seq[4], par[4], gaps[4], exact, binned, merge,
      traced_n;
  RunRounds(options.seconds, [&] {
    const BatchRun one = RunBatch(sizes, options.seed, 1, trace);
    const BatchRun n = RunBatch(sizes, options.seed, threads, trace);
    const BatchRun plain = RunBatch(sizes, options.seed, threads, &off);
    report->Ops(12, 0);
    equal &= same(one) && same(n) && same(plain);
    for (int kind = 0; kind < 4; ++kind) {
      seq[kind].push_back(one.wall_s[kind]);
      par[kind].push_back(n.wall_s[kind]);
      gaps[kind].insert(gaps[kind].end(), one.gaps[kind].begin(),
                        one.gaps[kind].end());
      merge.push_back(n.merge_s[kind]);
    }
    exact.insert(exact.end(), one.exact_gaps.begin(), one.exact_gaps.end());
    binned.insert(binned.end(), one.binned_gaps.begin(),
                  one.binned_gaps.end());
    traced_n.push_back(sum_wall(n));
    wall_n.push_back(sum_wall(plain));
  });
  report->Gate(equal, "traced experiment digests equal the untraced ones");
  report->Set("sim.trial_s.credit", Median(gaps[0]));
  report->Set("sim.trial_s.market", Median(gaps[2]));
  report->Set("sim.trial_s.ensemble", Median(gaps[3]));
  report->Set("sim.point_s.exact", Median(exact));
  report->Set("sim.point_s.binned", Median(binned));
  report->Set("sim.merge_s", Median(merge));
  for (int kind = 0; kind < 4; ++kind) {
    const std::string name = kExperimentKinds[kind];
    report->Set("runtime.trial_efficiency." + name,
                Median(seq[kind]) / Median(par[kind]) /
                    static_cast<double>(threads));
    report->Set("sim.trials_per_s." + name,
                static_cast<double>(TrialsOf(sizes, kind)) /
                    Median(par[kind]));
  }
  report->Set("trace.overhead_s", Median(traced_n) - Median(wall_n));
  std::fprintf(stderr,
               "experiments traced: %zu rounds; trial credit %.2fms market "
               "%.2fms ensemble %.2fms; point exact %.1fms binned %.1fms\n",
               traced_n.size(), 1e3 * Median(gaps[0]), 1e3 * Median(gaps[2]),
               1e3 * Median(gaps[3]), 1e3 * Median(exact),
               1e3 * Median(binned));
}

// --- serve_mixed -----------------------------------------------------------

/// SplitMix64: the load generator's own stream, independent of the
/// library's RNGs so the inputs never change with the program.
struct Stream {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// One small job spec: a 2-trial job of one scenario with one parameter
/// set. Only the job's master seed varies between specs, so every spec of
/// a scenario costs the same whatever the stream seed.
struct JobSpecInput {
  struct Kind {
    const char* scenario;
    const char* parameter;
    double value;
  };
  static constexpr Kind kKinds[] = {{"credit", "num_users", 200},
                                    {"market", "exploration", 0.1},
                                    {"ensemble", "gain", 0.05}};
  static constexpr size_t kTrials = 2;

  size_t kind = 0;  ///< Index into kKinds.
  uint64_t seed = 0;

  std::string Request() const {
    char request[192];
    std::snprintf(request, sizeof(request),
                  "{\"scenario\": \"%s\", \"trials\": %zu, \"seed\": %" PRIu64
                  ", \"set\": {\"%s\": %g}}",
                  kKinds[kind].scenario, kTrials, seed, kKinds[kind].parameter,
                  kKinds[kind].value);
    return request;
  }

  /// The same job straight through the engine and the shared renderer;
  /// sets `digest` to the result's ExperimentDigest.
  std::string DirectPayload(uint64_t* digest) const {
    std::unique_ptr<sim::Scenario> scenario = MakeScenario(
        kKinds[kind].scenario, {{kKinds[kind].parameter, kKinds[kind].value}});
    sim::ExperimentOptions options;
    options.num_trials = kTrials;
    options.master_seed = seed;
    options.num_threads = 1;
    const sim::ExperimentResult result =
        sim::RunExperiment(scenario.get(), options);
    *digest = sim::ExperimentDigest(result);
    serve::RenderHeader header;
    header.num_trials = kTrials;
    header.master_seed = seed;
    header.provenance_json = serve::RenderProvenance(
        /*force_scalar=*/false, /*num_shards=*/0, /*checkpoint_path=*/"",
        /*resume=*/false, "\"served\": true");
    return serve::RenderExperimentJson(result, header);
  }
};

/// Per-client closed-loop generator: about half the jobs repeat one of
/// the client's last 16 distinct specs, the rest are new specs.
class JobStream {
 public:
  JobStream(uint64_t seed, size_t client)
      : rng_{runtime::SeedSequence(seed).Seed(client)} {}

  /// Returns the index into distinct() of the next job.
  size_t Next() {
    if (!distinct_.empty() && rng_.Next() % 2 == 0) {
      const size_t window = std::min<size_t>(distinct_.size(), 16);
      return distinct_.size() - 1 - rng_.Next() % window;
    }
    JobSpecInput spec;
    spec.kind = rng_.Next() % 3;
    spec.seed = rng_.Next() % 1000000000ULL;
    distinct_.push_back(spec);
    return distinct_.size() - 1;
  }

  const std::vector<JobSpecInput>& distinct() const { return distinct_; }

 private:
  Stream rng_;
  std::vector<JobSpecInput> distinct_;
};

struct JobRecord {
  bool ok = false;
  bool rejected = false;
  bool cached = false;
  size_t queue_depth = 0;
  double latency_ms = 0.0;
  // Event arrival times, seconds after the send; -1 when absent.
  double accepted = -1, first_progress = -1, last_before_result = -1;
};

/// A client thread's closed loop and what it saw.
struct ClientRun {
  JobStream stream;
  std::vector<std::string> first_payload;  ///< Per distinct spec.
  std::vector<uint64_t> first_digest;      ///< Per distinct spec.
  std::vector<JobRecord> jobs;
  bool payloads_repeat = true;  ///< Every repeat's bytes equal the first's.
  bool connected = false;

  ClientRun(uint64_t seed, size_t client) : stream(seed, client) {}
};

void ClientLoop(uint16_t port, double seconds, bool traced, Trace* trace,
                ClientRun* run) {
  serve::Client client;
  std::string error;
  run->connected = client.Connect(port, &error);
  if (!run->connected) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    return;
  }
  const Clock::time_point window = Clock::now();
  while (SecondsSince(window) < seconds) {
    const size_t index = run->stream.Next();
    const JobSpecInput& spec = run->stream.distinct()[index];
    JobRecord record;
    serve::ClientEvent last;
    const double send = trace->Now();
    const Clock::time_point start = Clock::now();
    bool ok;
    if (traced) {
      ok = client.SubmitAndWait(
          spec.Request(), &last, &error,
          [&record, &send, trace](const serve::ClientEvent& event) {
            const double at = trace->Now() - send;
            if (event.event == "accepted") {
              record.accepted = at;
              record.queue_depth = event.queue_depth;
            } else if (event.event == "progress") {
              if (record.first_progress < 0) record.first_progress = at;
              record.last_before_result = at;
            }
          });
    } else {
      ok = client.SubmitAndWait(spec.Request(), &last, &error);
    }
    record.latency_ms = 1e3 * SecondsSince(start);
    record.ok = ok;
    if (!ok) {
      record.rejected = last.event == "error" && last.code == "queue_full";
      std::fprintf(stderr, "job failed: %s\n", error.c_str());
      if (last.event != "error") {  // Transport failure: stop this client.
        run->jobs.push_back(record);
        return;
      }
    } else {
      record.cached = last.cached;
      if (run->first_payload.size() <= index) {
        run->first_payload.resize(index + 1);
        run->first_digest.resize(index + 1);
      }
      if (run->first_payload[index].empty()) {
        run->first_payload[index] = last.payload;
        run->first_digest[index] = last.digest;
      } else if (run->first_payload[index] != last.payload ||
                 run->first_digest[index] != last.digest) {
        run->payloads_repeat = false;
      }
    }
    if (traced) {
      const long job = trace->Add("job", send, send + record.latency_ms / 1e3);
      if (record.accepted >= 0) {
        trace->Add("accept", send, send + record.accepted, job);
      }
      if (record.first_progress >= 0) {
        trace->Add("queue", send + record.accepted,
                   send + record.first_progress, job);
        trace->Add("run", send + record.first_progress,
                   send + record.last_before_result, job);
      }
      const double before =
          record.last_before_result >= 0 ? record.last_before_result
                                         : record.accepted;
      trace->Add("result", send + before, send + record.latency_ms / 1e3,
                 job);
    }
    run->jobs.push_back(record);
  }
}

/// Runs `connections` closed-loop clients against `port` for `seconds`.
std::vector<std::unique_ptr<ClientRun>> RunClients(
    uint16_t port, size_t connections, double seconds, uint64_t seed,
    size_t first_client, bool traced, Trace* trace) {
  std::vector<std::unique_ptr<ClientRun>> runs;
  for (size_t c = 0; c < connections; ++c) {
    runs.push_back(std::make_unique<ClientRun>(seed, first_client + c));
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(ClientLoop, port, seconds, traced, trace,
                         runs[c].get());
  }
  for (std::thread& thread : threads) thread.join();
  return runs;
}

/// A cache hit slower than this waited on a delayed-ACK timer (Linux's
/// is 40 ms); serve.stalled_share counts them.
constexpr double kStallMs = 35.0;


void RunServeMixed(const Options& options, Report* report, Trace* trace) {
  const size_t connections = options.cpus;
  const double seconds = options.seconds;

  // Set-up: a started server and nproc open connections, each with one
  // warm-up job.
  report->Set("setup_s", MedianSetup(kSetupReps, [&] {
                serve::Server server{serve::ServerOptions()};
                if (!server.Start()) return;
                std::vector<std::unique_ptr<serve::Client>> clients;
                std::string error;
                for (size_t c = 0; c < connections; ++c) {
                  clients.push_back(std::make_unique<serve::Client>());
                  clients.back()->Connect(server.port(), &error);
                }
                for (size_t c = 0; c < connections; ++c) {
                  JobSpecInput warm;
                  warm.seed = c;
                  serve::ClientEvent last;
                  clients[c]->SubmitAndWait(warm.Request(), &last, &error);
                }
                server.Shutdown();
              }));

  // serve::ServerOptions() are the `run_experiment --serve` defaults:
  // epoll, 2 workers, queue 16, cache 64, 256 connections.
  serve::Server server{serve::ServerOptions()};
  if (!server.Start()) {
    report->Gate(false, "server starts");
    return;
  }
  // The main closed loop: nproc connections for 60% of the window; then
  // one connection alone for the rest (the 1-connection rate). A traced
  // run spends the first quarter of the main phase untraced, for the
  // overhead.
  double untraced_seconds = 0.0;
  std::vector<std::unique_ptr<ClientRun>> untraced;
  if (options.trace) {
    untraced_seconds = 0.15 * seconds;
    untraced = RunClients(server.port(), connections, untraced_seconds,
                          options.seed, 2 * connections, false, trace);
  }
  const double concurrent_seconds = 0.6 * seconds - untraced_seconds;
  Clock::time_point start = Clock::now();
  std::vector<std::unique_ptr<ClientRun>> concurrent = RunClients(
      server.port(), connections, concurrent_seconds, options.seed, 0,
      options.trace, trace);
  const double concurrent_wall = SecondsSince(start);
  start = Clock::now();
  std::vector<std::unique_ptr<ClientRun>> single =
      RunClients(server.port(), 1, 0.4 * seconds, options.seed, connections,
                 false, trace);
  const double single_wall = SecondsSince(start);
  const serve::TransportStats transport = server.transport_stats();
  serve::ExperimentService& service = server.service();
  const size_t runs_started = service.runs_started();
  const size_t dedup_joins = service.dedup_joins();
  const size_t hits = service.cache_hits();
  const size_t misses = service.cache_misses();
  const size_t rejected_full = service.rejected_queue_full();
  const size_t failed_jobs = service.scheduler().failed_jobs();
  server.Shutdown();

  // Tally each phase, and gate every distinct served payload against the
  // direct engine + renderer, byte for byte. A failed job misses every
  // latency limit: its latency counts as the whole window.
  std::vector<double> latencies, single_latencies, untraced_latencies,
      hit_ms, miss_ms, accept_ms, queue_ms, result_ms, engine_ms;
  size_t sent = 0, succeeded = 0, rejected = 0, max_depth = 0, stalled = 0;
  bool payloads_ok = true, connected = true;
  struct Check {
    const ClientRun* run;
    size_t spec;
  };
  std::vector<Check> checks;  // One per distinct served spec.
  auto tally = [&](std::vector<std::unique_ptr<ClientRun>>& runs,
                   std::vector<double>* phase_latencies, bool detail) {
    size_t ok = 0;
    for (auto& run : runs) {
      connected &= run->connected;
      payloads_ok &= run->payloads_repeat;
      for (const JobRecord& job : run->jobs) {
        ++sent;
        rejected += job.rejected;
        phase_latencies->push_back(job.ok ? job.latency_ms : 1e3 * seconds);
        if (!job.ok) continue;
        ++ok;
        if (!detail) continue;
        (job.cached ? hit_ms : miss_ms).push_back(job.latency_ms);
        if (job.cached && job.latency_ms > kStallMs) ++stalled;
        max_depth = std::max(max_depth, job.queue_depth);
        if (job.accepted >= 0) accept_ms.push_back(1e3 * job.accepted);
        if (job.first_progress >= 0) {
          queue_ms.push_back(1e3 * (job.first_progress - job.accepted));
        }
        const double before = job.last_before_result >= 0
                                  ? job.last_before_result
                                  : job.accepted;
        if (before >= 0) result_ms.push_back(job.latency_ms - 1e3 * before);
      }
      for (size_t i = 0; i < run->first_payload.size(); ++i) {
        if (!run->first_payload[i].empty()) checks.push_back({run.get(), i});
      }
    }
    succeeded += ok;
    return ok;
  };
  const size_t concurrent_ok = tally(concurrent, &latencies, true);
  const size_t single_ok = tally(single, &single_latencies, false);
  tally(untraced, &untraced_latencies, false);

  // The payload gate runs the distinct specs on nproc threads; a traced
  // run runs them one at a time, so serve.engine_ms is an uncontended
  // reference.
  engine_ms.resize(checks.size());
  std::vector<char> check_ok(checks.size(), 0);
  std::atomic<size_t> next_check{0};
  auto verify = [&] {
    for (size_t k = next_check++; k < checks.size(); k = next_check++) {
      const ClientRun& run = *checks[k].run;
      const size_t i = checks[k].spec;
      const Clock::time_point direct_start = Clock::now();
      uint64_t digest = 0;
      std::string direct = run.stream.distinct()[i].DirectPayload(&digest);
      engine_ms[k] = 1e3 * SecondsSince(direct_start);
      if (k == 0) {  // --forge corrupts the first check.
        if (options.forge == "payload") direct.back() ^= 1;
        if (options.forge == "digest") digest ^= 1u;
      }
      check_ok[k] = direct == run.first_payload[i] &&
                    digest == run.first_digest[i];
    }
  };
  std::vector<std::thread> verifiers;
  for (size_t t = 0; t < (options.trace ? 1 : connections); ++t) {
    verifiers.emplace_back(verify);
  }
  for (std::thread& verifier : verifiers) verifier.join();
  for (char ok : check_ok) payloads_ok &= ok != 0;
  report->Ops(sent, sent - succeeded);
  report->Gate(connected, "every client connects");
  report->Gate(payloads_ok,
               "every distinct served payload and digest equals the direct "
               "engine + renderer output, and repeats return the same bytes");

  report->Set("throughput_per_s",
              static_cast<double>(concurrent_ok) / concurrent_wall);
  report->Set("throughput_1t_per_s",
              static_cast<double>(single_ok) / single_wall);
  report->Set("latency_p50_ms", Median(latencies));
  report->Set("latency_p95_ms", Percentile(latencies, 0.95));

  const double hit_share =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  report->Set("serve.accept_ms", Median(accept_ms));
  report->Set("serve.queue_ms", Median(queue_ms));
  report->Set("serve.queue_p95_ms", Percentile(queue_ms, 0.95));
  report->Set("serve.result_ms", Median(result_ms));
  report->Set("serve.hit_ms", Median(hit_ms));
  report->Set("serve.miss_ms", Median(miss_ms));
  report->Set("serve.engine_ms", Median(engine_ms));
  report->Set("serve.overhead_ms", Median(miss_ms) - Median(engine_ms));
  report->Set("serve.stalled_share",
              hit_ms.empty() ? 0.0
                             : static_cast<double>(stalled) /
                                   static_cast<double>(hit_ms.size()));
  report->Set("serve.cache_hit_ratio", hit_share);
  report->Set("serve.jobs_sent", static_cast<double>(sent));
  report->Set("serve.jobs_succeeded", static_cast<double>(succeeded));
  report->Set("serve.dedup_joins", static_cast<double>(dedup_joins));
  report->Set("serve.runs_started", static_cast<double>(runs_started));
  report->Set("serve.rejected", static_cast<double>(rejected_full));
  report->Set("serve.failed", static_cast<double>(failed_jobs));
  report->Set("serve.queue_depth_max", static_cast<double>(max_depth));
  report->Set("serve.transport.connections_accepted",
              static_cast<double>(transport.connections_accepted));
  report->Set("serve.transport.connections_rejected",
              static_cast<double>(transport.connections_rejected));
  report->Set("serve.transport.oversized_lines",
              static_cast<double>(transport.oversized_lines));
  report->Set("serve.transport.idle_closes",
              static_cast<double>(transport.idle_closes));
  report->Set("serve.transport.backpressure_pauses",
              static_cast<double>(transport.backpressure_pauses));
  report->Set("serve.transport.backpressure_resumes",
              static_cast<double>(transport.backpressure_resumes));
  report->Set("serve.transport.peak_write_queue_bytes",
              static_cast<double>(transport.peak_write_queue_bytes));
  if (options.trace) {
    report->Set("trace.overhead_s",
                (Median(latencies) - Median(untraced_latencies)) / 1e3);
  }
  std::fprintf(stderr,
               "serve_mixed: %zu connections; sent %zu, succeeded %zu, "
               "failed %zu, rejected %zu; %zu distinct specs; cache-hit "
               "share %.3f; %zu-connection phase: %zu latency samples, p50 "
               "%.2fms, p95 %.2fms; 1-connection phase: %zu samples\n",
               connections, sent, succeeded, sent - succeeded, rejected,
               checks.size(), hit_share, connections, latencies.size(),
               Median(latencies), Percentile(latencies, 0.95),
               single_latencies.size());
}

// --- certify ---------------------------------------------------------------

/// The `run_experiment --certify --cells=N` options (1-thread solvers).
sim::ScenarioCertifyOptions CertifyOptions(size_t cells) {
  sim::ScenarioCertifyOptions options;
  options.spectral.num_cells = cells;
  return options;
}

uint64_t CertificatesDigest(
    const std::vector<sim::ScenarioCertificate>& certificates) {
  base::Fnv1a digest;
  for (const sim::ScenarioCertificate& c : certificates) {
    digest.Mix(c.spectral.measure_digest);
    digest.MixDouble(c.spectral.subdominant_modulus);
    digest.Mix(c.spectral.certified ? 1 : 0);
  }
  return digest.hash();
}

void RunCertify(const Options& options, Report* report, Trace* trace) {
  const size_t cells = options.tiny ? 256 : 8192;
  const size_t threads = options.cpus;
  std::fprintf(stderr,
               "certify: no randomness; --seed %" PRIu64 " is ignored\n",
               options.seed);

  // Set-up: the registered scenarios certified once at 1/32 resolution.
  report->Set("setup_s", MedianSetup(kSetupReps, [&] {
                sim::CertifyRegisteredScenarios(CertifyOptions(cells / 32));
              }));

  const Clock::time_point reference_start = Clock::now();
  const std::vector<sim::ScenarioCertificate> reference =
      sim::CertifyRegisteredScenarios(CertifyOptions(cells));
  std::vector<double> wall_1{SecondsSince(reference_start)};
  report->Op(true, "certify");
  const uint64_t reference_digest = CertificatesDigest(reference);
  LogDigest("certify", reference_digest);
  bool all_certified = !reference.empty();
  for (const sim::ScenarioCertificate& c : reference) {
    all_certified &= !c.has_model || c.spectral.certified;
  }
  report->Gate(all_certified, "every registered scenario is certified");
  DigestCheck check(options);
  auto same = [&](uint64_t digest) {
    return check.Same(digest, reference_digest);
  };

  if (!options.trace) {
    // Rounds of nproc concurrent certify calls (one per thread, as
    // independent callers would make them) and one call alone.
    std::vector<double> wall_n, latencies;
    std::vector<uint64_t> digests(threads);
    bool equal = true;
    RunRounds(options.seconds, [&] {
      std::vector<double> call_s(threads);
      const Clock::time_point start = Clock::now();
      std::vector<std::thread> callers;
      for (size_t c = 0; c < threads; ++c) {
        callers.emplace_back([&, c] {
          const Clock::time_point call = Clock::now();
          digests[c] = CertificatesDigest(
              sim::CertifyRegisteredScenarios(CertifyOptions(cells)));
          call_s[c] = SecondsSince(call);
        });
      }
      for (std::thread& caller : callers) caller.join();
      wall_n.push_back(SecondsSince(start));
      latencies.insert(latencies.end(), call_s.begin(), call_s.end());
      for (uint64_t digest : digests) equal &= same(digest);
      const Clock::time_point alone = Clock::now();
      equal &= same(CertificatesDigest(
          sim::CertifyRegisteredScenarios(CertifyOptions(cells))));
      wall_1.push_back(SecondsSince(alone));
      report->Ops(threads + 1, 0);
    });
    report->Gate(equal, "certificates equal in every call");
    LogSamples("certify.concurrent_s", wall_n);
    LogSamples("certify.call_s.concurrent", latencies);
    LogSamples("certify.call_s.alone", wall_1);
    const double count = static_cast<double>(reference.size());
    report->Set("throughput_per_s",
                count * static_cast<double>(threads) / Median(wall_n));
    report->Set("throughput_1t_per_s", count / Median(wall_1));
    report->Set("latency_p50_ms", 1e3 * Median(latencies));
    report->Set("latency_p95_ms", 1e3 * Percentile(latencies, 0.95));
    std::fprintf(stderr,
                 "certify: %zu scenarios at %zu cells; %zu concurrent calls "
                 "%.3fs, one call alone %.3fs\n",
                 reference.size(), cells, threads, Median(wall_n),
                 Median(wall_1));
    return;
  }

  // Traced: the certificate's phases called one by one, at the
  // certificate's own (default, 1-thread) options.
  const eqimpact::core::SpectralCertificateOptions spectral =
      CertifyOptions(cells).spectral;
  std::vector<double> build_s, solve_s, subdominant_s, traced_s;
  std::vector<double>& untraced_s = wall_1;
  double nnz = 0.0, iterations = 0.0, entries = 0.0;
  bool equal = true;
  RunRounds(options.seconds, [&] {
    const Clock::time_point plain = Clock::now();
    equal &= same(CertificatesDigest(
        sim::CertifyRegisteredScenarios(CertifyOptions(cells))));
    untraced_s.push_back(SecondsSince(plain));
    double build = 0.0, solve = 0.0, subdominant = 0.0;
    nnz = iterations = entries = 0.0;
    const double round_start = trace->Now();
    for (const sim::ScenarioCertificate& expected : reference) {
      std::unique_ptr<sim::Scenario> scenario =
          sim::CreateScenario(expected.scenario);
      const std::optional<sim::ScenarioDynamics> model =
          scenario->DynamicsModel();
      if (!model.has_value()) continue;
      const long parent = trace->Begin("certify." + expected.scenario);
      markov::SparseUlamOptions build_options;
      build_options.num_threads = spectral.num_threads;
      long span = trace->Begin("SparseUlamOperator", parent);
      const markov::SparseUlamOperator op(model->ifs, model->lo, model->hi,
                                          spectral.num_cells, build_options);
      build += trace->End(span);
      linalg::SparseSolverOptions solver;
      solver.max_iterations = spectral.max_iterations;
      solver.tolerance = spectral.tolerance;
      solver.product.num_threads = spectral.num_threads;
      span = trace->Begin("StationarySolve", parent);
      const linalg::SparseStationaryResult stationary =
          op.StationarySolve(solver);
      solve += trace->End(span);
      nnz += static_cast<double>(op.transition().nonzeros());
      iterations += static_cast<double>(stationary.iterations);
      entries += static_cast<double>(stationary.iterations) *
                 static_cast<double>(op.transition().nonzeros());
      if (!stationary.distribution.has_value()) {
        equal = false;
        trace->End(parent);
        continue;
      }
      base::Fnv1a digest;
      for (size_t i = 0; i < stationary.distribution->size(); ++i) {
        digest.MixDouble((*stationary.distribution)[i]);
      }
      linalg::SubdominantOptions subdominant_options;
      subdominant_options.subspace = spectral.arnoldi_subspace;
      subdominant_options.product.num_threads = spectral.num_threads;
      span = trace->Begin("SparseSubdominantModulus", parent);
      const linalg::SubdominantResult spectrum =
          linalg::SparseSubdominantModulus(op.transition(),
                                           *stationary.distribution,
                                           subdominant_options);
      subdominant += trace->End(span);
      trace->End(parent);
      equal &= digest.hash() == expected.spectral.measure_digest &&
               spectrum.modulus == expected.spectral.subdominant_modulus;
    }
    traced_s.push_back(trace->Now() - round_start);
    build_s.push_back(build);
    solve_s.push_back(solve);
    subdominant_s.push_back(subdominant);
    report->Ops(2, 0);
  });
  report->Gate(equal, "traced certify phases reproduce every certificate's "
                      "measure_digest and subdominant modulus");
  report->Set("markov.build_s", Median(build_s));
  report->Set("markov.nnz", nnz);
  report->Set("linalg.stationary_s", Median(solve_s));
  report->Set("linalg.stationary_iters", iterations);
  report->Set("linalg.subdominant_s", Median(subdominant_s));
  // Computed, not timed: iterations x nnz over the solve time, summed
  // over the scenarios.
  report->Set("linalg.matvec_entries_per_s", entries / Median(solve_s));
  report->Set("trace.overhead_s", Median(traced_s) - Median(untraced_s));
  std::fprintf(stderr,
               "certify traced: %zu rounds; build %.4fs, stationary %.3fs "
               "(%.0f iterations), subdominant %.3fs\n",
               traced_s.size(), Median(build_s), Median(solve_s), iterations,
               Median(subdominant_s));
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.cpus = NumCpus();
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      const std::string trace = value();
      options.trace = trace == "1";
      have_trace = trace == "0" || trace == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--forge") {
      options.forge = value();
      if (options.forge != "digest" && options.forge != "payload") {
        std::fprintf(stderr, "--forge takes digest or payload\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--tiny] "
                 "[--forge digest|payload]\n");
    return 2;
  }

  Report report(options.trace);
  Trace trace(options.trace);
  if (options.workload == "credit_1m") {
    RunCredit1m(options, &report, &trace);
  } else if (options.workload == "experiments") {
    RunExperiments(options, &report, &trace);
  } else if (options.workload == "serve_mixed") {
    RunServeMixed(options, &report, &trace);
  } else if (options.workload == "certify") {
    RunCertify(options, &report, &trace);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  report.Set("peak_rss_mb", PeakRssMb());
  if (options.trace) {
    report.Set("trace.spans", static_cast<double>(trace.size()));
    const std::string path = options.out_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    if (!trace.Write(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  return report.Print();
}
