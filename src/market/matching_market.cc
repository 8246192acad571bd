#include "market/matching_market.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "base/check.h"
#include "rng/random.h"
#include "runtime/seed_sequence.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace market {
namespace {

/// Draws `slots` workers from the unmatched pool without replacement,
/// uniformly when `weights` is empty, else with probability proportional
/// to each worker's weight (iterative roulette on the shrinking pool —
/// O(slots * pool), deterministic in the rng stream). `pool_buffer` is
/// caller-owned scratch, overwritten.
void FillExploreSlots(size_t slots, const std::vector<double>& weights,
                      rng::Random* match_rng, std::vector<uint8_t>* matched,
                      std::vector<size_t>* pool_buffer) {
  const size_t n = matched->size();
  std::vector<size_t>& pool = *pool_buffer;
  pool.clear();
  for (size_t i = 0; i < n; ++i) {
    if (!(*matched)[i]) pool.push_back(i);
  }
  if (weights.empty()) {
    match_rng->Shuffle(&pool);
    for (size_t s = 0; s < slots && s < pool.size(); ++s) {
      (*matched)[pool[s]] = 1;
    }
    return;
  }
  double total = 0.0;
  for (size_t i : pool) total += weights[i];
  for (size_t s = 0; s < slots && !pool.empty(); ++s) {
    if (total <= 0.0) {
      // All remaining weight is zero: the rest of the lottery is uniform.
      match_rng->Shuffle(&pool);
      for (size_t t = 0; t + s < slots && t < pool.size(); ++t) {
        (*matched)[pool[t]] = 1;
      }
      return;
    }
    double u = match_rng->UniformDouble() * total;
    // If rounding leaves u beyond the accumulated sum, fall back to the
    // last *positive-weight* entry, so a zero-weight worker is never
    // drawn while weighted mass remains.
    size_t pick = pool.size();
    size_t last_positive = pool.size();
    double cumulative = 0.0;
    for (size_t j = 0; j < pool.size(); ++j) {
      if (weights[pool[j]] <= 0.0) continue;
      cumulative += weights[pool[j]];
      last_positive = j;
      if (u < cumulative) {
        pick = j;
        break;
      }
    }
    if (pick == pool.size()) pick = last_positive;
    if (pick == pool.size()) {
      // No positive-weight entry left even though subtraction residue
      // kept total > 0: the weighted mass is exhausted, so the rest of
      // the lottery is uniform, exactly like the total <= 0 branch.
      match_rng->Shuffle(&pool);
      for (size_t t = 0; t + s < slots && t < pool.size(); ++t) {
        (*matched)[pool[t]] = 1;
      }
      return;
    }
    const size_t worker = pool[pick];
    (*matched)[worker] = 1;
    total -= weights[worker];
    pool[pick] = pool.back();
    pool.pop_back();
  }
}

/// A worker's rank key for one round: its reputation and its position in
/// the round's shuffled order.
struct RankKey {
  double reputation;
  size_t position;
};

/// The round's ranking as a strict total order: higher reputation first,
/// ties to the earlier shuffled position. A stable sort of the shuffled
/// order by reputation puts workers exactly in this order.
bool RanksBefore(const RankKey& a, const RankKey& b) {
  if (a.reputation != b.reputation) return a.reputation > b.reputation;
  return a.position < b.position;
}

}  // namespace

MatchingMarketResult RunMatchingMarket(MatchingRule rule,
                                       const MatchingMarketOptions& options) {
  return RunMatchingMarket(rule, options, RoundObserver());
}

MatchingMarketResult RunMatchingMarket(MatchingRule rule,
                                       const MatchingMarketOptions& options,
                                       const RoundObserver& observer) {
  EQIMPACT_CHECK_GT(options.num_workers, 0u);
  EQIMPACT_CHECK(options.capacity_fraction > 0.0 &&
                 options.capacity_fraction <= 1.0);
  EQIMPACT_CHECK(options.exploration >= 0.0 && options.exploration <= 1.0);
  EQIMPACT_CHECK_GT(options.rounds, 0u);
  EQIMPACT_CHECK(options.base_skill > 0.0 && options.base_skill < 1.0);
  // A zero, infinite or NaN prior makes an unrated worker's reputation
  // NaN, which has no place in the round's ranking order.
  EQIMPACT_CHECK(options.prior_weight > 0.0 &&
                 std::isfinite(options.prior_weight));
  EQIMPACT_CHECK(std::isfinite(options.prior_mean));

  const size_t n = options.num_workers;
  const size_t capacity = std::max<size_t>(
      1, static_cast<size_t>(options.capacity_fraction *
                             static_cast<double>(n)));

  // Library-wide seed-derivation convention: stream 0 = skills, and one
  // child namespace per round (matching stream 0, outcome stream 1), so
  // each round's randomness is a pure function of (seed, round).
  const runtime::SeedSequence seeds(options.seed);
  rng::Random skill_rng(seeds.Seed(0));
  const runtime::SeedSequence round_seeds = seeds.Child(1);

  MatchingMarketResult result;
  result.skill.resize(n);
  for (size_t i = 0; i < n; ++i) {
    result.skill[i] = options.heterogeneous_skill
                          ? skill_rng.UniformDouble(kHeterogeneousSkillLo,
                                                    kHeterogeneousSkillHi)
                          : options.base_skill;
  }

  // Rating filter state: Bayesian running average with a prior.
  std::vector<double> rating_count(n, options.prior_weight);
  std::vector<double> rating_sum(n, options.prior_weight * options.prior_mean);
  std::vector<int64_t> matches(n, 0);
  // The filter's output, refreshed for each worker a round rates.
  std::vector<double> reputation(n);
  for (size_t i = 0; i < n; ++i) {
    reputation[i] = rating_sum[i] / rating_count[i];
  }

  // Observer-steerable controls, persistent across rounds.
  RoundControls controls;
  controls.exploration = options.exploration;
  std::vector<double> running_rate(n, 0.0);

  // Per-round buffers, allocated once.
  std::vector<size_t> order(n);
  std::vector<RankKey> ranked(n);
  std::vector<size_t> pool;
  pool.reserve(n);
  std::vector<uint8_t> matched(n);
  for (size_t round = 0; round < options.rounds; ++round) {
    std::fill(matched.begin(), matched.end(), 0);
    const runtime::SeedSequence round_streams = round_seeds.Child(round);
    rng::Random match_rng(round_streams.Seed(0));
    rng::Random outcome_rng(round_streams.Seed(1));

    // How much of the capacity is allocated by reputation vs lottery.
    const double exploration = std::clamp(controls.exploration, 0.0, 1.0);
    size_t explore_slots = 0;
    switch (rule) {
      case MatchingRule::kTopScore:
        explore_slots = 0;
        break;
      case MatchingRule::kEpsilonGreedy:
        explore_slots = static_cast<size_t>(exploration *
                                            static_cast<double>(capacity));
        break;
      case MatchingRule::kUniformRandom:
        explore_slots = capacity;
        break;
    }
    const size_t exploit_slots = capacity - explore_slots;

    // Exploitation: the exploit_slots highest-reputation workers, ties
    // broken by a random shuffle. Only the set matters, not its order, so
    // a linear-time selection under RanksBefore picks exactly the workers
    // a stable sort of the shuffled order would put first.
    std::iota(order.begin(), order.end(), 0u);
    match_rng.Shuffle(&order);
    for (size_t p = 0; p < n; ++p) ranked[p] = {reputation[order[p]], p};
    std::nth_element(ranked.begin(), ranked.begin() + exploit_slots,
                     ranked.end(), RanksBefore);
    for (size_t rank = 0; rank < exploit_slots; ++rank) {
      matched[order[ranked[rank].position]] = 1;
    }
    // Exploration: lottery over the not-yet-matched workers, uniform or
    // weighted per the observer's controls.
    if (explore_slots > 0) {
      if (!controls.explore_weights.empty()) {
        EQIMPACT_CHECK_EQ(controls.explore_weights.size(), n);
        for (double w : controls.explore_weights) EQIMPACT_CHECK_GE(w, 0.0);
      }
      FillExploreSlots(explore_slots, controls.explore_weights, &match_rng,
                       &matched, &pool);
    }

    // Outcomes and the rating filter update (only matched workers are
    // rated — the loop's self-selection).
    for (size_t i = 0; i < n; ++i) {
      if (!matched[i]) continue;
      ++matches[i];
      bool success = outcome_rng.Bernoulli(result.skill[i]);
      rating_count[i] += 1.0;
      rating_sum[i] += success ? 1.0 : 0.0;
      reputation[i] = rating_sum[i] / rating_count[i];
    }

    if (observer) {
      const double denominator = static_cast<double>(round + 1);
      for (size_t i = 0; i < n; ++i) {
        running_rate[i] = static_cast<double>(matches[i]) / denominator;
      }
      RoundSnapshot snapshot{round, running_rate, result.skill, matched};
      observer(snapshot, &controls);
    }
  }

  result.match_rate.resize(n);
  double total_rate = 0.0;
  for (size_t i = 0; i < n; ++i) {
    result.match_rate[i] = static_cast<double>(matches[i]) /
                           static_cast<double>(options.rounds);
    total_rate += result.match_rate[i];
  }
  result.reputation = std::move(reputation);
  result.mean_match_rate = total_rate / static_cast<double>(n);
  result.match_rate_gini = stats::GiniCoefficient(result.match_rate);
  result.final_exploration = std::clamp(controls.exploration, 0.0, 1.0);
  return result;
}

}  // namespace market
}  // namespace eqimpact
