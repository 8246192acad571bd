// Tests for the credit engine's checkpoint/resume layer (the credit
// loop's checkpoint_sink / resume_state options and the experiment
// driver's snapshot file): checkpointing regroups persistence, and a
// snapshot resumes under any thread count without moving a bit of
// simulated output.

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/fnv1a.h"
#include "credit/credit_loop.h"
#include "sim/credit_scenario.h"
#include "sim/experiment.h"
#include "stats/adr_accumulator.h"

namespace eqimpact {
namespace {

// --- Credit loop checkpoint/resume. ----------------------------------------

/// Order-dependent digest over everything a trial reports (bitwise:
/// equal digests here mean equal doubles, bit for bit).
uint64_t LoopDigest(const credit::CreditLoopResult& result) {
  base::Fnv1a digest;
  for (const auto& series : result.user_adr) digest.MixSeries(series);
  for (const auto& series : result.race_adr) digest.MixSeries(series);
  for (const auto& series : result.race_approval) digest.MixSeries(series);
  digest.MixSeries(result.overall_adr);
  for (const auto& card : result.scorecards) {
    digest.Mix(static_cast<uint64_t>(card.year));
    digest.MixDouble(card.history_weight);
    digest.MixDouble(card.income_weight);
    digest.MixDouble(card.intercept);
  }
  return digest.hash();
}

credit::CreditLoopOptions SmallLoopOptions() {
  credit::CreditLoopOptions options;
  options.num_users = 777;        // 13 chunks of 64 with a ragged tail.
  options.users_per_chunk = 64;
  options.seed = 29;
  options.keep_user_adr = true;
  return options;
}

TEST(LoopCheckpointTest, CheckpointResumeIsBitwiseAtEveryYear) {
  // Once on the dense fold (forgetting factor 1) and once on the hashed
  // fold, whose staging follows the worker count.
  for (double forgetting_factor : {1.0, 0.9}) {
    SCOPED_TRACE(::testing::Message() << "ff=" << forgetting_factor);
    credit::CreditLoopOptions options = SmallLoopOptions();
    options.forgetting_factor = forgetting_factor;
    options.num_threads = 4;
    // Capture every yearly snapshot.
    std::vector<std::vector<uint8_t>> snapshots;
    options.checkpoint_sink = [&snapshots](size_t years_completed,
                                           const std::vector<uint8_t>& state) {
      EXPECT_EQ(years_completed, snapshots.size() + 1);
      snapshots.push_back(state);
    };
    const uint64_t reference =
        LoopDigest(credit::CreditScoringLoop(options).Run());
    const size_t num_years =
        static_cast<size_t>(options.last_year - options.first_year) + 1;
    ASSERT_EQ(snapshots.size(), num_years);

    options.checkpoint_sink = nullptr;
    for (size_t resume_year : {size_t{1}, num_years / 2, num_years - 1}) {
      // Resume under a different thread count than the checkpointing
      // run: snapshots carry no layout (or RNG-cursor) state by design.
      for (size_t threads : {size_t{1}, size_t{3}}) {
        options.num_threads = threads;
        options.resume_state = &snapshots[resume_year - 1];
        size_t first_observed_step = num_years;
        credit::CreditLoopResult resumed =
            credit::CreditScoringLoop(options).Run(
                [&first_observed_step](const credit::YearSnapshot& snapshot) {
                  if (snapshot.step < first_observed_step) {
                    first_observed_step = snapshot.step;
                  }
                });
        // Only the unfinished years re-run...
        EXPECT_EQ(first_observed_step, resume_year);
        // ...yet the completed record is bitwise the uninterrupted one.
        EXPECT_EQ(LoopDigest(resumed), reference)
            << "resumed from year " << resume_year << " at " << threads
            << " threads";
      }
    }
  }
}

// --- Experiment-level checkpoint/resume. -----------------------------------

sim::CreditScenarioOptions SmallScenarioOptions() {
  sim::CreditScenarioOptions options;
  options.loop.num_users = 300;
  options.loop.users_per_chunk = 64;
  options.loop.last_year = 2010;  // 9 steps: keeps the test quick.
  return options;
}

sim::ExperimentOptions SmallExperimentOptions() {
  sim::ExperimentOptions options;
  options.num_trials = 3;
  options.master_seed = 11;
  return options;
}

TEST(ExperimentCheckpointTest, UninterruptedCheckpointedRunMatchesPlain) {
  sim::CreditScenario plain_scenario(SmallScenarioOptions());
  const uint64_t reference = sim::ExperimentDigest(
      sim::RunExperiment(&plain_scenario, SmallExperimentOptions()));

  const std::string path = testing::TempDir() + "/eqimpact_ck_plain.bin";
  std::remove(path.c_str());
  sim::CreditScenario scenario(SmallScenarioOptions());
  sim::ExperimentOptions options = SmallExperimentOptions();
  options.checkpoint_path = path;
  EXPECT_EQ(sim::ExperimentDigest(sim::RunExperiment(&scenario, options)),
            reference);
  // The final snapshot (all trials complete) is left on disk.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  std::remove(path.c_str());
}

TEST(ExperimentCheckpointTest, ResumeWithoutSnapshotStartsFresh) {
  sim::CreditScenario plain_scenario(SmallScenarioOptions());
  const uint64_t reference = sim::ExperimentDigest(
      sim::RunExperiment(&plain_scenario, SmallExperimentOptions()));

  const std::string path = testing::TempDir() + "/eqimpact_ck_missing.bin";
  std::remove(path.c_str());
  sim::CreditScenario scenario(SmallScenarioOptions());
  sim::ExperimentOptions options = SmallExperimentOptions();
  options.checkpoint_path = path;
  options.resume = true;  // Nothing to resume from: plain fresh run.
  EXPECT_EQ(sim::ExperimentDigest(sim::RunExperiment(&scenario, options)),
            reference);
  std::remove(path.c_str());
}

/// Thrown by the aborting scenario below to simulate a crash: unlike a
/// SIGKILL it unwinds cleanly through the driver, which must leave the
/// snapshot file in a resumable state either way (it is rewritten
/// atomically before the sink returns).
struct InjectedCrash : std::runtime_error {
  InjectedCrash() : std::runtime_error("injected crash") {}
};

/// CreditScenario that dies mid-trial: after `fatal_call` engine
/// checkpoints have been persisted, the next one throws.
class CrashingCreditScenario : public sim::CreditScenario {
 public:
  CrashingCreditScenario(sim::CreditScenarioOptions options, int fatal_call)
      : sim::CreditScenario(std::move(options)), remaining_(fatal_call) {}

  sim::TrialOutcome RunTrial(const sim::TrialContext& context,
                             stats::AdrAccumulator* impacts) override {
    sim::TrialContext wrapped = context;
    if (context.checkpoint_sink) {
      const sim::TrialCheckpointSink inner = context.checkpoint_sink;
      int* remaining = &remaining_;
      wrapped.checkpoint_sink = [inner, remaining](
                                    size_t steps_completed,
                                    const std::vector<uint8_t>& state) {
        inner(steps_completed, state);  // Snapshot reaches disk first.
        if (--*remaining == 0) throw InjectedCrash();
      };
    }
    return sim::CreditScenario::RunTrial(wrapped, impacts);
  }

 private:
  int remaining_;
};

TEST(ExperimentCheckpointTest, ResumeAfterMidTrialCrashIsBitwise) {
  sim::CreditScenario plain_scenario(SmallScenarioOptions());
  const uint64_t reference = sim::ExperimentDigest(
      sim::RunExperiment(&plain_scenario, SmallExperimentOptions()));

  const std::string path = testing::TempDir() + "/eqimpact_ck_crash.bin";
  // 9 steps per trial: dying on the 13th engine checkpoint kills the
  // run after year 4 of trial 1 — mid-trial, past the trial boundary.
  std::remove(path.c_str());
  CrashingCreditScenario crashing(SmallScenarioOptions(), 13);
  sim::ExperimentOptions options = SmallExperimentOptions();
  options.checkpoint_path = path;
  EXPECT_THROW(sim::RunExperiment(&crashing, options), InjectedCrash);

  // A fresh scenario + driver resumes from the snapshot and must finish
  // with the uninterrupted run's exact aggregates. The resumed trial 1
  // replays years 5..9 only; trial 0's outcome comes from the snapshot.
  sim::CreditScenario resumed_scenario(SmallScenarioOptions());
  options.resume = true;
  EXPECT_EQ(
      sim::ExperimentDigest(sim::RunExperiment(&resumed_scenario, options)),
      reference);
  std::remove(path.c_str());
}

TEST(ExperimentCheckpointTest,
     ResumeUnderDifferentTrialThreadCountIsBitwise) {
  sim::CreditScenario plain_scenario(SmallScenarioOptions());
  const uint64_t reference = sim::ExperimentDigest(
      sim::RunExperiment(&plain_scenario, SmallExperimentOptions()));

  const std::string path = testing::TempDir() + "/eqimpact_ck_threads.bin";
  std::remove(path.c_str());
  // Crash a 4-trial-thread run mid-trial, resume at one thread: the
  // snapshot carries no layout state, so the digest must not move.
  CrashingCreditScenario crashing(SmallScenarioOptions(), 6);
  sim::ExperimentOptions options = SmallExperimentOptions();
  options.checkpoint_path = path;
  options.trial_threads = 4;
  EXPECT_THROW(sim::RunExperiment(&crashing, options), InjectedCrash);

  sim::CreditScenario resumed_scenario(SmallScenarioOptions());
  options.trial_threads = 1;
  options.resume = true;
  EXPECT_EQ(
      sim::ExperimentDigest(sim::RunExperiment(&resumed_scenario, options)),
      reference);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eqimpact
