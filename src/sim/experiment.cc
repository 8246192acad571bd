#include "sim/experiment.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "base/check.h"
#include "base/fnv1a.h"
#include "base/serial.h"
#include "runtime/parallel_for.h"
#include "runtime/seed_sequence.h"
#include "runtime/thread_pool.h"

namespace eqimpact {
namespace sim {
namespace {

// Experiment snapshot framing ("EQXP"): magic, format version, a
// fingerprint binding the snapshot to the experiment shape it belongs
// to, and a trailing FNV-1a byte checksum. The engine-level trial blob
// travels opaquely inside (it carries its own magic, fingerprint and
// checksum, so scenario-option mismatches are caught on resume by the
// engine itself). Version 2 frames EQCK version-2 trial blobs, so a
// version-1 file is rejected here, before any trial state is restored.
constexpr uint32_t kExperimentSnapshotMagic = 0x50585145u;  // "EQXP"
constexpr uint32_t kExperimentSnapshotVersion = 2;

uint64_t HashBytes(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t ExperimentFingerprint(const std::string& scenario_name,
                               const ExperimentOptions& options,
                               size_t num_groups, size_t num_steps,
                               double lo, double hi) {
  base::Fnv1a f;
  for (char ch : scenario_name) f.Mix(static_cast<uint8_t>(ch));
  f.Mix(options.num_trials);
  f.Mix(options.master_seed);
  f.Mix(options.impact_bins);
  f.Mix(num_groups);
  f.Mix(num_steps);
  f.MixDouble(lo);
  f.MixDouble(hi);
  return f.hash();
}

void WriteTrialOutcome(base::BinaryWriter* writer,
                       const TrialOutcome& outcome) {
  writer->WriteSize(outcome.group_impact.size());
  for (const std::vector<double>& series : outcome.group_impact) {
    writer->WriteDoubleVector(series);
  }
  writer->WriteDoubleVector(outcome.metrics);
}

bool ReadTrialOutcome(base::BinaryReader* reader, TrialOutcome* outcome) {
  const size_t num_groups = reader->ReadSize();
  if (!reader->ok()) return false;
  outcome->group_impact.assign(num_groups, {});
  for (std::vector<double>& series : outcome->group_impact) {
    series = reader->ReadDoubleVector();
  }
  outcome->metrics = reader->ReadDoubleVector();
  return reader->ok();
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  out->assign(size > 0 ? static_cast<size_t>(size) : 0, 0);
  const size_t read =
      out->empty() ? 0 : std::fread(out->data(), 1, out->size(), file);
  std::fclose(file);
  return !out->empty() && read == out->size();
}

// Crash-safe snapshot replacement: the bytes land in a sibling temp
// file, reach disk (fsync) and only then take the snapshot's name via
// an atomic rename — a kill at any instant leaves either the old or
// the new snapshot, never a torn one.
void AtomicWriteFile(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  EQIMPACT_CHECK(file != nullptr);
  if (!bytes.empty()) {
    EQIMPACT_CHECK_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
                      bytes.size());
  }
  EQIMPACT_CHECK_EQ(std::fflush(file), 0);
  EQIMPACT_CHECK_EQ(fsync(fileno(file)), 0);
  EQIMPACT_CHECK_EQ(std::fclose(file), 0);
  EQIMPACT_CHECK_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
}

}  // namespace

ExperimentResult RunExperiment(Scenario* scenario,
                               const ExperimentOptions& options) {
  EQIMPACT_CHECK(scenario != nullptr);
  EQIMPACT_CHECK_GT(options.num_trials, 0u);
  EQIMPACT_CHECK_GT(options.impact_bins, 0u);

  ExperimentResult result;
  result.scenario = scenario->name();
  result.group_labels = scenario->GroupLabels();
  result.step_labels = scenario->StepLabels();
  result.metric_names = scenario->MetricNames();
  const size_t num_groups = result.group_labels.size();
  const size_t num_steps = result.step_labels.size();
  EQIMPACT_CHECK_GT(num_groups, 0u);
  EQIMPACT_CHECK_GT(num_steps, 0u);

  scenario->BeginExperiment(options.num_trials);

  // Trials are embarrassingly parallel: each gets its own seed stream
  // derived from the trial index, writes into its own preallocated slot,
  // and streams its cross-sections into its own accumulator, so parallel
  // output is bitwise-identical to sequential.
  result.trials.resize(options.num_trials);
  std::vector<stats::AdrAccumulator> trial_impact;
  trial_impact.reserve(options.num_trials);
  for (size_t t = 0; t < options.num_trials; ++t) {
    trial_impact.emplace_back(num_groups, num_steps, options.impact_bins,
                              scenario->impact_lo(), scenario->impact_hi());
  }
  const runtime::SeedSequence seeds(options.master_seed);
  const bool checkpointing = !options.checkpoint_path.empty();
  runtime::ParallelForOptions dispatch;
  dispatch.num_threads = options.num_threads;
  if (checkpointing) {
    // Checkpoints linearize trial progress (the snapshot is "trials
    // [0, t) complete, trial t at step s"), so trial dispatch goes
    // sequential; within-trial parallelism (trial_threads) is
    // unaffected — and neither dispatch mode moves a bit of output.
    EQIMPACT_CHECK(scenario->SupportsCheckpoint());
    dispatch.num_threads = 1;
  }
  // Concurrent trials may not share a pool, but under sequential trial
  // dispatch with an explicit within-trial budget a single persistent
  // pool serves every trial's inner fan-out.
  std::unique_ptr<runtime::ThreadPool> trial_pool;
  if (runtime::EffectiveNumThreads(dispatch) == 1 &&
      options.trial_threads > 1) {
    trial_pool.reset(new runtime::ThreadPool(options.trial_threads));
  }

  const uint64_t fingerprint = ExperimentFingerprint(
      result.scenario, options, num_groups, num_steps, scenario->impact_lo(),
      scenario->impact_hi());
  size_t completed_trials = 0;
  std::vector<uint8_t> partial_blob;
  if (checkpointing && options.resume) {
    std::vector<uint8_t> blob;
    if (ReadFileBytes(options.checkpoint_path, &blob)) {
      EQIMPACT_CHECK_GT(blob.size(), sizeof(uint64_t));
      const size_t body_size = blob.size() - sizeof(uint64_t);
      base::BinaryReader trailer(blob.data() + body_size, sizeof(uint64_t));
      EQIMPACT_CHECK_EQ(trailer.ReadU64(),
                        HashBytes(blob.data(), body_size));
      base::BinaryReader reader(blob.data(), body_size);
      EQIMPACT_CHECK_EQ(reader.ReadU32(), kExperimentSnapshotMagic);
      EQIMPACT_CHECK_EQ(reader.ReadU32(), kExperimentSnapshotVersion);
      EQIMPACT_CHECK_EQ(reader.ReadU64(), fingerprint);
      completed_trials = reader.ReadSize();
      EQIMPACT_CHECK(reader.ok());
      EQIMPACT_CHECK_LE(completed_trials, options.num_trials);
      for (size_t t = 0; t < completed_trials; ++t) {
        EQIMPACT_CHECK(ReadTrialOutcome(&reader, &result.trials[t]));
        EQIMPACT_CHECK(trial_impact[t].Deserialize(&reader));
      }
      const bool has_partial = reader.ReadBool();
      EQIMPACT_CHECK(reader.ok());
      if (has_partial) {
        EQIMPACT_CHECK_LT(completed_trials, options.num_trials);
        EQIMPACT_CHECK_EQ(reader.ReadSize(), completed_trials);
        const size_t steps_completed = reader.ReadSize();
        EQIMPACT_CHECK_GT(steps_completed, 0u);
        EQIMPACT_CHECK(trial_impact[completed_trials].Deserialize(&reader));
        partial_blob = reader.ReadU8Vector();
        EQIMPACT_CHECK(!partial_blob.empty());
      }
      EQIMPACT_CHECK(reader.AtEnd());
    } else {
      std::fprintf(stderr,
                   "[experiment] no checkpoint at %s; starting fresh\n",
                   options.checkpoint_path.c_str());
    }
  }

  // Rewrites the snapshot file: trials [0, trials_done) complete, plus
  // (optionally) the in-flight trial's accumulator and engine blob as
  // of `steps_completed` steps.
  const auto write_snapshot = [&](size_t trials_done, bool has_partial,
                                  size_t steps_completed,
                                  const std::vector<uint8_t>& engine_blob) {
    base::BinaryWriter writer;
    writer.WriteU32(kExperimentSnapshotMagic);
    writer.WriteU32(kExperimentSnapshotVersion);
    writer.WriteU64(fingerprint);
    writer.WriteSize(trials_done);
    for (size_t t = 0; t < trials_done; ++t) {
      WriteTrialOutcome(&writer, result.trials[t]);
      trial_impact[t].Serialize(&writer);
    }
    writer.WriteBool(has_partial);
    if (has_partial) {
      writer.WriteSize(trials_done);
      writer.WriteSize(steps_completed);
      trial_impact[trials_done].Serialize(&writer);
      writer.WriteU8Vector(engine_blob);
    }
    writer.WriteU64(HashBytes(writer.buffer().data(), writer.size()));
    AtomicWriteFile(options.checkpoint_path, writer.buffer());
  };

  if (checkpointing) {
    for (size_t t = completed_trials; t < options.num_trials; ++t) {
      TrialContext context;
      context.trial_index = t;
      context.trial_seed = seeds.Seed(t);
      context.num_threads = options.trial_threads;
      context.pool = trial_pool.get();
      context.checkpoint_sink = [&write_snapshot, t](
                                    size_t steps_completed,
                                    const std::vector<uint8_t>& state) {
        write_snapshot(t, true, steps_completed, state);
      };
      if (t == completed_trials && !partial_blob.empty()) {
        context.resume_state = &partial_blob;
      }
      result.trials[t] = scenario->RunTrial(context, &trial_impact[t]);
      write_snapshot(t + 1, false, 0, {});
      if (options.on_trial_complete) {
        options.on_trial_complete(t, result.trials[t], t + 1,
                                  options.num_trials);
      }
    }
  } else {
    // Progress observation is serialized and counted under one mutex so
    // the observer sees a monotone completed count without locking of
    // its own; it never touches the trial slots, so output bits are
    // unaffected.
    std::mutex progress_mutex;
    size_t trials_completed = 0;
    runtime::ParallelFor(
        options.num_trials,
        [&options, &seeds, &result, &trial_impact, &trial_pool,
         &progress_mutex, &trials_completed, scenario](size_t t) {
          TrialContext context;
          context.trial_index = t;
          context.trial_seed = seeds.Seed(t);
          context.num_threads = options.trial_threads;
          context.pool = trial_pool.get();
          result.trials[t] = scenario->RunTrial(context, &trial_impact[t]);
          if (options.on_trial_complete) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            options.on_trial_complete(t, result.trials[t],
                                      ++trials_completed,
                                      options.num_trials);
          }
        },
        dispatch);
  }

  // Aggregation happens strictly after the join, in trial-slot order.
  // Merging into the empty pool would copy trial 0, so trial 0 becomes
  // the pool; each later trial is released once merged.
  result.pooled_impact = std::move(trial_impact[0]);
  for (size_t t = 1; t < options.num_trials; ++t) {
    result.pooled_impact.Merge(trial_impact[t]);
    trial_impact[t] = stats::AdrAccumulator();
  }

  // Per-group across-trial envelopes of the group impact series.
  result.group_envelopes.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    std::vector<std::vector<double>> across_trials;
    across_trials.reserve(options.num_trials);
    for (const TrialOutcome& trial : result.trials) {
      EQIMPACT_CHECK_EQ(trial.group_impact.size(), num_groups);
      EQIMPACT_CHECK_EQ(trial.group_impact[g].size(), num_steps);
      across_trials.push_back(trial.group_impact[g]);
    }
    result.group_envelopes.push_back(stats::AggregateEnvelope(across_trials));
  }

  // Across-trial metric moments.
  result.metric_stats.assign(result.metric_names.size(),
                             stats::RunningStats());
  for (const TrialOutcome& trial : result.trials) {
    EQIMPACT_CHECK_EQ(trial.metrics.size(), result.metric_names.size());
    for (size_t m = 0; m < trial.metrics.size(); ++m) {
      result.metric_stats[m].Add(trial.metrics[m]);
    }
  }

  // Final-step equal-impact diagnostics.
  const size_t last = num_steps - 1;
  double lo = 0.0, hi = 0.0;
  bool any_group = false;
  stats::RunningStats pooled;
  for (size_t g = 0; g < num_groups; ++g) {
    pooled.Merge(result.pooled_impact.stats(last, g));
    if (result.pooled_impact.count(last, g) == 0) continue;  // Empty class.
    const double mean = result.group_envelopes[g].mean[last];
    if (!any_group) {
      lo = hi = mean;
      any_group = true;
    } else {
      lo = std::min(lo, mean);
      hi = std::max(hi, mean);
    }
  }
  result.summary.group_gap = any_group ? hi - lo : 0.0;
  result.summary.pooled_std = pooled.StdDev();
  result.summary.pooled_mean = pooled.Mean();
  return result;
}

void MixAccumulator(base::Fnv1a* digest, const stats::AdrAccumulator& impact) {
  for (size_t k = 0; k < impact.num_steps(); ++k) {
    for (size_t g = 0; g < impact.num_groups(); ++g) {
      const stats::RunningStats& stats = impact.stats(k, g);
      digest->Mix(static_cast<uint64_t>(stats.count()));
      digest->MixDouble(stats.Mean());
      digest->MixDouble(stats.Variance());
      for (size_t b = 0; b < impact.num_bins(); ++b) {
        digest->Mix(static_cast<uint64_t>(impact.bin_count(k, g, b)));
      }
    }
  }
}

uint64_t ExperimentDigest(const ExperimentResult& result) {
  base::Fnv1a digest;
  for (const stats::SeriesEnvelope& envelope : result.group_envelopes) {
    digest.MixSeries(envelope.mean);
    digest.MixSeries(envelope.std_dev);
  }
  for (const TrialOutcome& trial : result.trials) {
    for (const std::vector<double>& series : trial.group_impact) {
      digest.MixSeries(series);
    }
    digest.MixSeries(trial.metrics);
  }
  MixAccumulator(&digest, result.pooled_impact);
  digest.MixDouble(result.summary.group_gap);
  digest.MixDouble(result.summary.pooled_std);
  digest.MixDouble(result.summary.pooled_mean);
  return digest.hash();
}

}  // namespace sim
}  // namespace eqimpact
