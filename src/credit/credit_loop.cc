#include "credit/credit_loop.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "base/check.h"
#include "base/fnv1a.h"
#include "base/serial.h"
#include "credit/population.h"
#include "ml/binned_dataset.h"
#include "ml/scorecard.h"
#include "rng/random.h"
#include "runtime/kernels.h"
#include "runtime/parallel_for.h"
#include "runtime/seed_sequence.h"
#include "runtime/thread_pool.h"

namespace eqimpact {
namespace credit {
namespace {

// Independent RNG stream indices derived from the master seed, so that
// e.g. changing the repayment draws does not perturb the sampled cohort.
// The race stream seeds one sequential generator (sampling the cohort is
// a one-time cost); the income and repayment streams are roots of nested
// per-(year, chunk) sub-streams — see the chunk passes below. Threads
// only regroup whole chunks, so a checkpoint stores no RNG cursors at
// all — the streams are re-derived from (seed, year, chunk).
enum StreamIndex : uint64_t {
  kRaceStream = 0,
  kIncomeStream = 1,
  kRepaymentStream = 2,
};

// Scorecard factor templates in feature order [adr, income_code],
// mirroring the rows of the paper's Table I.
std::vector<ml::ScorecardFactor> TableOneTemplates() {
  return {
      {"History", "x Average Default Rate", 0.0},
      {"Income", "> $15K (income code)", 0.0},
  };
}

// Dense-fold key layout and limits. A key packs the pre-update filter
// counters and the income code of one example,
//   (offers << kKeyOffersShift) | (defaults << 1) | code,
// with defaults <= offers < num_years <= kMaxDenseYears < 2^15. A
// chunk's count table holds 2 * DenseSlot(num_years, 0, 0) =
// 2 * Y * (Y + 1) uint32 counts, at most 64 KB for Y <= 90; longer
// loops take the hashed fold.
constexpr uint32_t kKeyOffersShift = 16;
constexpr uint32_t kKeyDefaultsMask = 0x7fff;
constexpr size_t kMaxDenseYears = 90;
constexpr uint32_t kNoDenseGroup = 0xffffffffu;

// Index into the dense (offers, defaults, code) tables: pairs with
// defaults <= offers enumerate triangularly, the code is the low bit.
inline size_t DenseSlot(uint32_t offers, uint32_t defaults, uint32_t code) {
  return (static_cast<size_t>(offers) * (offers + 1) / 2 + defaults) * 2 +
         code;
}

inline size_t DenseSlotOfKey(uint32_t key) {
  return DenseSlot(key >> kKeyOffersShift, (key >> 1) & kKeyDefaultsMask,
                   key & 1u);
}

// What one chunk of the scoring sweep yields: per-race offer counts and
// the approved users' training examples. Merged sequentially in chunk
// order, so the folded history is identical at every thread count. The
// examples travel in one of two forms: raw (adr, code) rows + labels in
// user-index order for the generic hashed fold, or — on the dense-fold
// fast path — counts per (key, label) slot plus the chunk's distinct
// keys in first-occurrence order. The counts are exact integers, so
// their order does not matter; the key order is what keeps group
// creation in user order.
struct ChunkYield {
  std::array<size_t, kNumRaces> race_offers = {0, 0, 0};
  std::vector<double> rows;      // (adr, income code) pairs, row-major.
  std::vector<double> labels;    // 1 repaid, 0 default.
  std::vector<uint32_t> counts;  // [2 * DenseSlot + label]; dense fold.
  std::vector<uint32_t> keys;    // Distinct keys; dense fold.

  // Resets the yield for a new year, clearing the count table sparsely
  // through its key list.
  void Clear() {
    race_offers = {0, 0, 0};
    rows.clear();
    labels.clear();
    for (const uint32_t key : keys) {
      const size_t slot = DenseSlotOfKey(key);
      counts[2 * slot] = 0;
      counts[2 * slot + 1] = 0;
    }
    keys.clear();
  }
};

// Per-chunk scratch of the kernel passes, index-aligned within the
// chunk. Owned by the chunk like its yield and kept across years, so
// steady-state years run the vector kernels over warm buffers without a
// single allocation.
struct ChunkScratch {
  std::vector<double> income_uniforms;  // 2 pre-drawn draws per user.
  std::vector<double> adr;              // Trailing ADR features.
  std::vector<double> code;             // Income codes.
  std::vector<unsigned char> approved;  // Score-test outcomes.
  std::vector<uint32_t> indices;        // Approved users' chunk offsets.
  std::vector<double> dense_income;     // Approved incomes, compacted.
  std::vector<double> shares;           // Surplus shares (CDF scratch).
  std::vector<double> probability;      // Repayment probabilities.
};

// Loop snapshot framing: magic ("EQCK"), format version, and a trailing
// FNV-1a checksum over every preceding byte. The options fingerprint
// binds a snapshot to the run configuration that can reproduce its bits;
// it covers exactly the output-affecting options — never num_threads,
// pool, dense_history_fold or the checkpoint knobs themselves, which are
// bitwise-neutral by the engine's determinism contract, so a trial
// checkpointed at one thread count may be resumed at any other.
// Version 2 stores per user a race id and the filter's two weights;
// version 1 also stored an int64 offer counter that nothing read.
constexpr uint32_t kLoopSnapshotMagic = 0x4b435145u;  // "EQCK"
constexpr uint32_t kLoopSnapshotVersion = 2;

uint64_t HashBytes(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t LoopOptionsFingerprint(const CreditLoopOptions& o) {
  base::Fnv1a f;
  f.Mix(o.num_users);
  f.Mix(static_cast<uint64_t>(static_cast<int64_t>(o.first_year)));
  f.Mix(static_cast<uint64_t>(static_cast<int64_t>(o.last_year)));
  f.Mix(o.warmup_steps);
  f.MixDouble(o.cutoff);
  f.MixDouble(o.income_code_threshold);
  f.MixDouble(o.forgetting_factor);
  f.Mix(o.accumulate_history ? 1 : 0);
  f.MixDouble(o.history_adr_bin_width);
  f.MixDouble(o.repayment.income_multiple);
  f.MixDouble(o.repayment.annual_rate);
  f.MixDouble(o.repayment.living_cost);
  f.MixDouble(o.repayment.sensitivity);
  f.Mix(o.logistic.fit_intercept ? 1 : 0);
  f.MixDouble(o.logistic.l2_penalty);
  f.Mix(static_cast<uint64_t>(static_cast<int64_t>(o.logistic.max_iterations)));
  f.MixDouble(o.logistic.tolerance);
  f.Mix(o.logistic.gradient_fallback ? 1 : 0);
  f.Mix(static_cast<uint64_t>(
      static_cast<int64_t>(o.logistic.gradient_iterations)));
  f.MixDouble(o.logistic.learning_rate);
  f.Mix(o.logistic.rows_per_chunk);
  f.Mix(o.seed);
  f.Mix(o.users_per_chunk);
  f.Mix(o.keep_user_adr ? 1 : 0);
  return f.hash();
}

}  // namespace

CreditScoringLoop::CreditScoringLoop(CreditLoopOptions options)
    : options_(options) {
  EQIMPACT_CHECK_GT(options_.num_users, 0u);
  EQIMPACT_CHECK_LE(options_.first_year, options_.last_year);
  EQIMPACT_CHECK_GE(options_.warmup_steps, 1u);
  EQIMPACT_CHECK_GT(options_.users_per_chunk, 0u);
}

CreditLoopResult CreditScoringLoop::Run() const { return Run(YearObserver()); }

CreditLoopResult CreditScoringLoop::Run(const YearObserver& observer) const {
  const size_t num_users = options_.num_users;
  const size_t num_years =
      static_cast<size_t>(options_.last_year - options_.first_year) + 1;
  const size_t chunk_size = options_.users_per_chunk;
  const size_t num_chunks = runtime::NumChunks(num_users, chunk_size);

  const runtime::SeedSequence seeds(options_.seed);
  const runtime::SeedSequence income_streams = seeds.Child(kIncomeStream);
  const runtime::SeedSequence repayment_streams =
      seeds.Child(kRepaymentStream);

  // Resume: validate the snapshot's framing up front (checksum over
  // every byte before the trailer, then magic / version / options
  // fingerprint), then read its fields in lockstep with the engine-state
  // construction below — the blob layout is exactly the construction
  // order.
  const uint64_t fingerprint = LoopOptionsFingerprint(options_);
  std::optional<base::BinaryReader> resume;
  size_t start_step = 0;
  if (options_.resume_state != nullptr) {
    const std::vector<uint8_t>& blob = *options_.resume_state;
    EQIMPACT_CHECK_GT(blob.size(), sizeof(uint64_t));
    const size_t body_size = blob.size() - sizeof(uint64_t);
    base::BinaryReader trailer(blob.data() + body_size, sizeof(uint64_t));
    EQIMPACT_CHECK_EQ(trailer.ReadU64(), HashBytes(blob.data(), body_size));
    resume.emplace(blob.data(), body_size);
    EQIMPACT_CHECK_EQ(resume->ReadU32(), kLoopSnapshotMagic);
    EQIMPACT_CHECK_EQ(resume->ReadU32(), kLoopSnapshotVersion);
    EQIMPACT_CHECK_EQ(resume->ReadU64(), fingerprint);
    start_step = resume->ReadSize();
    EQIMPACT_CHECK(resume->ok());
    EQIMPACT_CHECK_LE(start_step, num_years);
  }

  const IncomeModel income_model;
  std::optional<Population> population_storage;
  if (resume) {
    std::vector<uint8_t> race_ids = resume->ReadU8Vector();
    EQIMPACT_CHECK(resume->ok());
    EQIMPACT_CHECK_EQ(race_ids.size(), num_users);
    population_storage.emplace(std::move(race_ids));
  } else {
    rng::Random race_rng(seeds.Seed(kRaceStream));
    population_storage.emplace(num_users, &race_rng);
  }
  Population& population = *population_storage;
  const RepaymentModel repayment(options_.repayment);
  AdrFilter filter(population.races(), options_.forgetting_factor);
  if (resume) {
    std::vector<double> offer_weight = resume->ReadDoubleVector();
    std::vector<double> default_weight = resume->ReadDoubleVector();
    EQIMPACT_CHECK(resume->ok());
    filter.RestoreState(std::move(offer_weight), std::move(default_weight));
  }
  const std::vector<uint8_t>& race_ids = population.race_ids();

  // Within-trial dispatch: one persistent pool for the whole trial (the
  // per-year passes are far too fine-grained to spawn threads per call).
  // With one thread or one chunk everything runs inline on this thread.
  // A caller-owned pool (options().pool) replaces the engine's own, so
  // sequential multi-trial drivers amortize one pool across trials; the
  // worker count never affects the output.
  runtime::ParallelForOptions dispatch;
  std::unique_ptr<runtime::ThreadPool> pool;
  if (options_.pool != nullptr) {
    dispatch.pool = options_.pool;
  } else {
    dispatch.num_threads = options_.num_threads;
    const size_t workers =
        std::min(runtime::EffectiveNumThreads(dispatch), num_chunks);
    if (workers > 1) {
      pool = std::make_unique<runtime::ThreadPool>(workers);
      dispatch.pool = pool.get();
    } else {
      dispatch.num_threads = 1;
    }
  }
  const size_t num_workers = runtime::EffectiveNumThreads(dispatch);

  CreditLoopResult result;
  result.years.reserve(num_years);
  result.races = population.races();
  if (options_.keep_user_adr) {
    result.user_adr.assign(num_users, {});
    for (auto& series : result.user_adr) series.reserve(num_years);
  }
  result.race_adr.assign(kNumRaces, {});
  result.race_approval.assign(kNumRaces, {});
  for (size_t r = 0; r < kNumRaces; ++r) {
    result.race_adr[r].reserve(num_years);
    result.race_approval[r].reserve(num_years);
  }
  result.overall_adr.reserve(num_years);

  // Training examples accumulated by the loop's filter block: features
  // [ADR_i(k-1), income code at k] with label y_i(k), recorded only for
  // offered mortgages (repayment is unobservable otherwise). The history
  // is held as sufficient statistics — weighted unique (ADR, code)
  // groups — so its size is O(groups) (a few hundred under the paper's
  // accumulating filter), never O(num_users x num_years).
  ml::BinnedDatasetOptions history_options;
  double adr_bin_width = options_.history_adr_bin_width;
  if (adr_bin_width < 0.0) {
    adr_bin_width =
        options_.forgetting_factor == 1.0 ? 0.0 : 0x1.0p-16;
  }
  history_options.bin_widths = {adr_bin_width, 0.0};
  ml::BinnedDataset history(2, history_options);
  // Dense-fold fast path: under the paper's accumulating filter every
  // ADR is the exact ratio of two small integer counters, so pass 2
  // counts each chunk's examples per (counters, code, label) slot and the
  // fold becomes one AddCounts per distinct key, through a flat
  // per-trial table of history group ids. Only valid while the counters
  // are exact integers (forgetting factor 1, exact ADR grouping), group
  // ids are never invalidated (accumulated history — Clear would orphan
  // the cache) and the per-chunk count tables stay small (kMaxDenseYears)
  // and cannot overflow.
  const bool dense_fold =
      options_.dense_history_fold && options_.forgetting_factor == 1.0 &&
      adr_bin_width == 0.0 && options_.accumulate_history &&
      num_years <= kMaxDenseYears && chunk_size <= UINT32_MAX;
  const size_t dense_slots =
      dense_fold ? DenseSlot(static_cast<uint32_t>(num_years), 0, 0) : 0;
  std::vector<uint32_t> dense_groups(dense_slots, kNoDenseGroup);
  // Hashed-fold staging: with more than one worker the chunk indices
  // split into one contiguous range per worker; each range folds its
  // chunks' rows into its own dataset, cleared every year, and the
  // global history then absorbs the staged datasets in range order.
  // Range order is chunk order, so group creation order is preserved — a
  // group's global first occurrence lives in the first range containing
  // it, at that range's local first occurrence — and every folded weight
  // is an exact integer-valued double, so the merged history is bitwise
  // the direct fold. One worker (or one chunk) folds directly. The dense
  // fold needs no staging: its serial merge is O(distinct keys) and
  // already walks chunks in global order.
  const size_t range_chunks = (num_chunks + num_workers - 1) / num_workers;
  const size_t num_ranges = runtime::NumChunks(num_chunks, range_chunks);
  std::vector<ml::BinnedDataset> range_history;
  if (num_ranges > 1 && !dense_fold) {
    range_history.assign(num_ranges, ml::BinnedDataset(2, history_options));
  }
  if (resume) {
    EQIMPACT_CHECK(history.Deserialize(&*resume));
    // dense_groups deliberately stays cold: it is a pure cache (a slot
    // miss re-derives the group through AddRow, which finds the existing
    // group by key), so resumed bits never depend on it.
  }
  std::optional<ml::Scorecard> current_scorecard;
  const std::vector<ml::ScorecardFactor> factor_templates =
      TableOneTemplates();
  // One trainer for the whole trial: the yearly refit warm-starts from
  // last year's weights, which on the slowly growing history cuts the
  // Newton iterations to a couple per year, and its chunked
  // gradient/Hessian reduction follows the loop's thread budget on the
  // same persistent pool as the per-year passes.
  ml::LogisticRegressionOptions trainer_options = options_.logistic;
  trainer_options.warm_start = true;
  trainer_options.num_threads = num_workers;
  trainer_options.pool = dispatch.pool;
  ml::LogisticRegression trainer(trainer_options);
  if (resume) {
    const bool fitted = resume->ReadBool();
    std::vector<double> weights = resume->ReadDoubleVector();
    const double intercept = resume->ReadDouble();
    const bool has_scorecard = resume->ReadBool();
    EQIMPACT_CHECK(resume->ok());
    if (fitted) trainer.RestoreFit(linalg::Vector(std::move(weights)),
                                   intercept);
    // Every in-force scorecard equals FromModel of the trainer's latest
    // successful fit (a failed refit leaves both untouched), so the
    // snapshot stores only the flag and rebuilds the card here.
    if (has_scorecard) {
      current_scorecard = ml::Scorecard::FromModel(trainer, factor_templates,
                                                   options_.cutoff);
    }
  }

  // Hot-path scalars hoisted out of the sweep.
  const double code_threshold = options_.income_code_threshold;

  // Reused per-year buffers.
  std::vector<double> uniforms(num_users);
  std::vector<ChunkYield> yields(num_chunks);
  std::vector<ChunkScratch> scratches(num_chunks);
  // The year's ADR cross-section, written chunk by chunk at the end of
  // pass 2 (a chunk's users are final once its body has run).
  const bool want_snapshot = options_.keep_user_adr || observer;
  std::vector<double> adr_snapshot(want_snapshot ? num_users : 0);
  const std::vector<double>& incomes = population.incomes();

  if (resume) {
    for (size_t r = 0; r < kNumRaces; ++r) {
      result.race_adr[r] = resume->ReadDoubleVector();
      EQIMPACT_CHECK_EQ(result.race_adr[r].size(), start_step);
    }
    for (size_t r = 0; r < kNumRaces; ++r) {
      result.race_approval[r] = resume->ReadDoubleVector();
      EQIMPACT_CHECK_EQ(result.race_approval[r].size(), start_step);
    }
    result.overall_adr = resume->ReadDoubleVector();
    EQIMPACT_CHECK_EQ(result.overall_adr.size(), start_step);
    const size_t num_scorecards = resume->ReadSize();
    EQIMPACT_CHECK(resume->ok());
    result.scorecards.reserve(num_scorecards);
    for (size_t i = 0; i < num_scorecards; ++i) {
      ScorecardSnapshot snapshot;
      snapshot.year = static_cast<int>(resume->ReadI64());
      snapshot.history_weight = resume->ReadDouble();
      snapshot.income_weight = resume->ReadDouble();
      snapshot.intercept = resume->ReadDouble();
      result.scorecards.push_back(snapshot);
    }
    if (options_.keep_user_adr) {
      std::vector<double> flat = resume->ReadDoubleVector();
      EQIMPACT_CHECK_EQ(flat.size(), num_users * start_step);
      for (size_t i = 0; i < num_users; ++i) {
        result.user_adr[i].assign(flat.begin() + i * start_step,
                                  flat.begin() + (i + 1) * start_step);
        result.user_adr[i].reserve(num_years);
      }
    }
    EQIMPACT_CHECK(resume->AtEnd());
    for (size_t k = 0; k < start_step; ++k) {
      result.years.push_back(options_.first_year + static_cast<int>(k));
    }
  }

  // Serializes the complete loop state after `years_completed` years, in
  // the exact field order the resume path consumes above, framed by
  // magic/version/fingerprint and sealed with a byte checksum.
  const auto write_checkpoint = [&](size_t years_completed) {
    base::BinaryWriter writer;
    writer.WriteU32(kLoopSnapshotMagic);
    writer.WriteU32(kLoopSnapshotVersion);
    writer.WriteU64(fingerprint);
    writer.WriteSize(years_completed);
    writer.WriteU8Vector(race_ids);
    writer.WriteDoubleVector(filter.offer_weights());
    writer.WriteDoubleVector(filter.default_weights());
    history.Serialize(&writer);
    writer.WriteBool(trainer.fitted());
    writer.WriteDoubleVector(trainer.weights().data());
    writer.WriteDouble(trainer.intercept());
    writer.WriteBool(current_scorecard.has_value());
    for (size_t r = 0; r < kNumRaces; ++r) {
      writer.WriteDoubleVector(result.race_adr[r]);
    }
    for (size_t r = 0; r < kNumRaces; ++r) {
      writer.WriteDoubleVector(result.race_approval[r]);
    }
    writer.WriteDoubleVector(result.overall_adr);
    writer.WriteSize(result.scorecards.size());
    for (const ScorecardSnapshot& snapshot : result.scorecards) {
      writer.WriteI64(snapshot.year);
      writer.WriteDouble(snapshot.history_weight);
      writer.WriteDouble(snapshot.income_weight);
      writer.WriteDouble(snapshot.intercept);
    }
    if (options_.keep_user_adr) {
      std::vector<double> flat;
      flat.reserve(num_users * years_completed);
      for (size_t i = 0; i < num_users; ++i) {
        flat.insert(flat.end(), result.user_adr[i].begin(),
                    result.user_adr[i].end());
      }
      writer.WriteDoubleVector(flat);
    }
    writer.WriteU64(HashBytes(writer.buffer().data(), writer.size()));
    options_.checkpoint_sink(years_completed, writer.buffer());
  };

  for (size_t k = start_step; k < num_years; ++k) {
    const int year = options_.first_year + static_cast<int>(k);
    result.years.push_back(year);

    // Pass 1 — pre-draw: resample every income for this year and draw one
    // repayment uniform per user, chunk by chunk. Each chunk owns RNG
    // streams derived from (stream root, year, chunk index), so the
    // filled arrays depend only on (seed, users_per_chunk), never on
    // which worker ran the chunk. Drawing the uniform unconditionally
    // (the legacy path drew only for approved users with positive
    // repayment probability) is what decouples the draws from the
    // decisions and makes the scoring sweep embarrassingly parallel.
    // Every draw goes through the generator's multi-stream batch fill
    // (bit-for-bit the sequential stream): one FillUniformDouble for the
    // chunk's 2-per-user income draws, transformed by the year sampler,
    // and one for its repayment uniforms.
    const YearIncomeSampler sampler(income_model, year);
    const runtime::SeedSequence income_year = income_streams.Child(k);
    const runtime::SeedSequence repayment_year = repayment_streams.Child(k);
    const auto draw_chunk = [&](size_t c, size_t begin, size_t end) {
      rng::Random income_rng(income_year.Seed(c));
      rng::Random repayment_rng(repayment_year.Seed(c));
      ChunkScratch& scratch = scratches[c];
      const size_t count = end - begin;
      scratch.income_uniforms.resize(2 * count);
      income_rng.FillUniformDouble(scratch.income_uniforms.data(),
                                   2 * count);
      population.ResampleIncomesFromUniforms(
          sampler, begin, end, scratch.income_uniforms.data());
      repayment_rng.FillUniformDouble(&uniforms[begin], count);
    };
    runtime::ParallelForChunks(num_users, chunk_size, draw_chunk, dispatch);

    // Retrain the AI system once the warm-up has produced data. If the
    // fit is impossible (single-class history) or fails, the previous
    // scorecard — or the warm-up policy if none exists — stays in force.
    if (k >= options_.warmup_steps && history.HasBothClasses()) {
      ml::FitResult fit = trainer.Fit(history);
      if (fit.success) {
        current_scorecard = ml::Scorecard::FromModel(trainer, factor_templates,
                                                     options_.cutoff);
        result.scorecards.push_back(ScorecardSnapshot{
            year, trainer.weights()[0], trainer.weights()[1],
            trainer.intercept()});
      }
    }

    // The year's policy, reduced to scalars: during warm-up (or before
    // the first successful fit) everyone is approved; afterwards the
    // scorecard test s(x) > cutoff runs inline. Both policies size the
    // mortgage at income_multiple x income, and neither consults
    // has_defaulted, so the sweep needs no default-history array.
    const bool use_scorecard =
        k >= options_.warmup_steps && current_scorecard.has_value();
    runtime::kernels::ScoreParams score_params;
    score_params.code_threshold = code_threshold;
    score_params.base_points =
        use_scorecard ? current_scorecard->base_points() : 0.0;
    score_params.adr_weight =
        use_scorecard ? current_scorecard->factor(0).score : 0.0;
    score_params.code_weight =
        use_scorecard ? current_scorecard->factor(1).score : 0.0;
    score_params.cutoff = options_.cutoff;

    // Pass 2 — scoring sweep: decide, act, filter. Each user touches only
    // their own filter slots and each chunk only its own yield and
    // scratch, so chunks run concurrently; the pre-drawn uniform makes
    // the repayment action a pure function of (income, uniform). The
    // per-user work is staged through the vector kernels: trailing ADRs
    // and the code/score/cut-off test sweep branch-free over the SoA
    // arrays (ScoreSweep replicates Scorecard::Score's evaluation order,
    // pinned to ScorecardPolicy::Decide by
    // CreditLoopTest.InlineApprovalRuleMatchesScorecardPolicy; NaN
    // scores decline, like the legacy !(score > cutoff) test), approved
    // incomes are compacted so the expensive normal CDF runs only for
    // them, and a final scalar loop applies the repayment action and
    // filter update in user order.
    const auto score_chunk = [&](size_t c, size_t begin, size_t end) {
      ChunkYield& yield = yields[c];
      ChunkScratch& scratch = scratches[c];
      yield.Clear();
      if (dense_fold && yield.counts.empty()) {
        yield.counts.assign(2 * dense_slots, 0);
      }
      const size_t count = end - begin;
      scratch.adr.resize(count);
      scratch.code.resize(count);
      scratch.indices.resize(count);
      scratch.dense_income.resize(count);
      filter.AdrInto(begin, end, scratch.adr.data());
      size_t approved_count = 0;
      if (use_scorecard) {
        scratch.approved.resize(count);
        runtime::kernels::ScoreSweep(
            incomes.data() + begin, scratch.adr.data(), count,
            score_params, scratch.code.data(), scratch.approved.data());
        for (size_t j = 0; j < count; ++j) {
          if (scratch.approved[j]) {  // Declined users' ADRs freeze.
            scratch.indices[approved_count] = static_cast<uint32_t>(j);
            scratch.dense_income[approved_count] = incomes[begin + j];
            ++approved_count;
          }
        }
      } else {
        runtime::kernels::IncomeCode(incomes.data() + begin, count,
                                     code_threshold,
                                     scratch.code.data());
        for (size_t j = 0; j < count; ++j) {
          scratch.indices[j] = static_cast<uint32_t>(j);
          scratch.dense_income[j] = incomes[begin + j];
        }
        approved_count = count;
      }
      scratch.shares.resize(count);
      scratch.probability.resize(count);
      repayment.ProbabilityBatch(scratch.dense_income.data(),
                                 approved_count, scratch.shares.data(),
                                 scratch.probability.data());
      for (size_t t = 0; t < approved_count; ++t) {
        const size_t j = scratch.indices[t];
        const size_t i = begin + j;
        const double p = scratch.probability[t];
        const bool repaid = p > 0.0 && uniforms[i] < p;
        if (dense_fold) {
          // Count the example under the pre-update integer counters
          // whose guarded ratio is exactly scratch.adr[j]; the merge
          // rebuilds the row from them on a first occurrence.
          const uint32_t offers =
              static_cast<uint32_t>(filter.UserOfferWeight(i));
          const uint32_t defaults =
              static_cast<uint32_t>(filter.UserDefaultWeight(i));
          const uint32_t code_bit = scratch.code[j] != 0.0 ? 1u : 0u;
          uint32_t* cell =
              &yield.counts[2 * DenseSlot(offers, defaults, code_bit)];
          if (cell[0] == 0 && cell[1] == 0) {
            yield.keys.push_back((offers << kKeyOffersShift) |
                                 (defaults << 1) | code_bit);
          }
          ++cell[repaid ? 1 : 0];
        } else {
          yield.rows.push_back(scratch.adr[j]);
          yield.rows.push_back(scratch.code[j]);
          yield.labels.push_back(repaid ? 1.0 : 0.0);
        }
        filter.Update(i, true, repaid);
        ++yield.race_offers[race_ids[i]];
      }
      if (want_snapshot) filter.AdrInto(begin, end, &adr_snapshot[begin]);
    };
    runtime::ParallelForChunks(num_users, chunk_size, score_chunk, dispatch);

    // Merge the chunk yields in chunk (= user) order, weight-folding this
    // year's observations into the grouped history. The fold order is the
    // trial order (chunk 0, 1, ...), so group indices — and with them the
    // fit's accumulation order — are identical at every thread count.
    // Multi-worker hashed runs fold per chunk range in parallel first and
    // merge the staged datasets in range order, which traverses the same
    // chunk sequence (see range_history above).
    std::array<size_t, kNumRaces> race_offers = {0, 0, 0};
    for (const ChunkYield& yield : yields) {
      for (size_t r = 0; r < kNumRaces; ++r) {
        race_offers[r] += yield.race_offers[r];
      }
    }
    if (!options_.accumulate_history) history.Clear();
    if (dense_fold) {
      // Zero-hash dense fold: one AddCounts per distinct key of each
      // chunk. A key's first sight in the trial rebuilds the (adr, code)
      // row from the counters — the division is the same IEEE operation
      // AdrInto's guarded ratio performed, so the row bits match the
      // hashed fold's — and goes through AddRow, which groups by bit
      // pattern; value-aliasing counter pairs (1/2 and 2/4) therefore
      // cache the same group id, and group creation order stays the
      // user order. Weights are exact integers, so folding a chunk's
      // counts at once is bitwise the per-example fold.
      for (const ChunkYield& yield : yields) {
        for (const uint32_t key : yield.keys) {
          const size_t slot = DenseSlotOfKey(key);
          uint64_t negatives = yield.counts[2 * slot];
          uint64_t positives = yield.counts[2 * slot + 1];
          uint32_t& group = dense_groups[slot];
          if (group == kNoDenseGroup) {
            const uint32_t offers = key >> kKeyOffersShift;
            const uint32_t defaults = (key >> 1) & kKeyDefaultsMask;
            const double row[2] = {
                offers == 0 ? 0.0
                            : static_cast<double>(defaults) /
                                  static_cast<double>(offers),
                (key & 1u) ? 1.0 : 0.0};
            // AddRow folds one of the slot's examples; AddCounts the rest.
            const bool positive = positives > 0;
            const double label = positive ? 1.0 : 0.0;
            group = static_cast<uint32_t>(history.AddRow(row, label));
            (positive ? positives : negatives) -= 1;
          }
          history.AddCounts(group, negatives, positives);
        }
      }
    } else if (num_ranges > 1) {
      runtime::ParallelForChunks(
          num_chunks, range_chunks,
          [&](size_t r, size_t chunk_begin, size_t chunk_end) {
            ml::BinnedDataset& staged = range_history[r];
            staged.Clear();
            for (size_t c = chunk_begin; c < chunk_end; ++c) {
              staged.AddBatch(yields[c].rows.data(), yields[c].labels.data(),
                              yields[c].labels.size());
            }
          },
          dispatch);
      for (const ml::BinnedDataset& staged : range_history) {
        history.Merge(staged);
      }
    } else {
      for (const ChunkYield& yield : yields) {
        history.AddBatch(yield.rows.data(), yield.labels.data(),
                         yield.labels.size());
      }
    }

    // The year's aggregates come from one fused serial pass over the
    // filter. With an observer and a pool, that pass runs as one task on
    // the pool while the observer runs (the observer may dispatch its own
    // reduction there too); the summary is joined on every way out of
    // the observer, because the task writes this stack local. The pass
    // is the same code in the same user order either way, so the bits
    // do not depend on which thread ran it.
    AdrFilter::Summary summary;
    const YearSnapshot snapshot{k, year, adr_snapshot, result.races, race_ids,
                                dispatch.pool};
    if (observer && dispatch.pool != nullptr) {
      dispatch.pool->Submit(
          [&summary, &filter] { summary = filter.Summarize(); });
      try {
        observer(snapshot);
      } catch (...) {
        dispatch.pool->Wait();
        throw;
      }
      dispatch.pool->Wait();
    } else {
      summary = filter.Summarize();
      if (observer) observer(snapshot);
    }
    for (size_t r = 0; r < kNumRaces; ++r) {
      result.race_adr[r].push_back(summary.race_adr[r]);
      const size_t members = population.CountRace(static_cast<Race>(r));
      result.race_approval[r].push_back(
          members == 0 ? 0.0
                       : static_cast<double>(race_offers[r]) /
                             static_cast<double>(members));
    }
    result.overall_adr.push_back(summary.overall_adr);

    if (options_.keep_user_adr) {
      for (size_t i = 0; i < num_users; ++i) {
        result.user_adr[i].push_back(adr_snapshot[i]);
      }
    }

    if (options_.checkpoint_sink) write_checkpoint(k + 1);
  }
  return result;
}

}  // namespace credit
}  // namespace eqimpact
