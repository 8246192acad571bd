#include "stats/adr_accumulator.h"

#include <algorithm>

#include "base/check.h"

namespace eqimpact {
namespace stats {

void BinCounts::Assign(size_t size) {
  wide_.clear();
  wide_.shrink_to_fit();
  narrow_.assign(size, 0);
}

void BinCounts::Widen() {
  wide_.assign(narrow_.begin(), narrow_.end());
  narrow_.clear();
  narrow_.shrink_to_fit();
}

std::vector<int64_t> BinCounts::ToVector() const {
  if (!wide_.empty()) return wide_;
  return std::vector<int64_t>(narrow_.begin(), narrow_.end());
}

bool BinCounts::FromVector(const std::vector<int64_t>& values) {
  Assign(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] < 0) return false;
    Add(i, values[i]);
  }
  return true;
}

AdrAccumulator::AdrAccumulator(size_t num_groups, size_t num_steps,
                               size_t num_bins, double lo, double hi)
    : num_groups_(num_groups),
      num_steps_(num_steps),
      num_bins_(num_bins),
      lo_(lo),
      hi_(hi) {
  EQIMPACT_CHECK_GT(num_groups, 0u);
  EQIMPACT_CHECK_GT(num_steps, 0u);
  EQIMPACT_CHECK_GT(num_bins, 0u);
  EQIMPACT_CHECK_LT(lo, hi);
  bin_width_ = (hi - lo) / static_cast<double>(num_bins);
  stats_.assign(num_steps * num_groups, RunningStats());
  bin_counts_.Assign(num_steps * num_groups * num_bins);
}

size_t AdrAccumulator::CellIndex(size_t k, size_t g) const {
  EQIMPACT_CHECK_LT(k, num_steps_);
  EQIMPACT_CHECK_LT(g, num_groups_);
  return k * num_groups_ + g;
}

size_t AdrAccumulator::BinIndex(double value) const {
  // Clamp-then-bin, matching stats::Histogram::Add.
  double clamped = std::clamp(value, lo_, hi_);
  size_t bin = static_cast<size_t>((clamped - lo_) / bin_width_);
  return std::min(bin, num_bins_ - 1);
}

void AdrAccumulator::Add(size_t k, size_t g, double value) {
  size_t cell = CellIndex(k, g);
  stats_[cell].Add(value);
  bin_counts_.Add(cell * num_bins_ + BinIndex(value), 1);
}

void AdrAccumulator::AddCrossSection(size_t k,
                                     const std::vector<double>& values,
                                     const std::vector<uint8_t>& groups) {
  EQIMPACT_CHECK_EQ(values.size(), groups.size());
  EQIMPACT_CHECK_LT(k, num_steps_);
  constexpr size_t kSpan = kCrossSectionSpanBlocks * kCrossSectionBlockSize;
  for (size_t begin = 0; begin < values.size(); begin += kSpan) {
    const size_t count = std::min(kSpan, values.size() - begin);
    ReduceCrossSectionBlocks(&values[begin], &groups[begin], count,
                             scratch_blocks_);
    const size_t num_blocks = (count + kCrossSectionBlockSize - 1) /
                              kCrossSectionBlockSize;
    for (size_t j = 0; j < num_blocks; ++j) MergeBlock(k, scratch_blocks_[j]);
  }
}

void AdrAccumulator::ReduceCrossSectionBlocks(const double* values,
                                              const uint8_t* groups,
                                              size_t count,
                                              CrossSectionBlock* blocks) const {
  constexpr size_t kBlock = kCrossSectionBlockSize;
  constexpr size_t kWidth = kCrossSectionSpanBlocks;
  EQIMPACT_CHECK_LE(count, kWidth * kBlock);
  const size_t num_blocks = (count + kBlock - 1) / kBlock;
  RunningStats* stats[kWidth] = {};
  int64_t* bins[kWidth] = {};
  for (size_t j = 0; j < num_blocks; ++j) {
    blocks[j].stats.assign(num_groups_, RunningStats());
    blocks[j].bins.assign(num_groups_ * num_bins_, 0);
    stats[j] = blocks[j].stats.data();
    bins[j] = blocks[j].bins.data();
  }
  const auto add = [&](size_t j, size_t i) {
    const size_t g = groups[i];
    EQIMPACT_CHECK_LT(g, num_groups_);
    stats[j][g].Add(values[i]);
    ++bins[j][g * num_bins_ + BinIndex(values[i])];
  };
  if (count == kWidth * kBlock) {
    // One value of each block per step: the blocks' Welford chains are
    // independent, so their divisions overlap, and each chain still sees
    // its own values in order.
    for (size_t i = 0; i < kBlock; ++i) {
      for (size_t j = 0; j < kWidth; ++j) add(j, j * kBlock + i);
    }
    return;
  }
  for (size_t j = 0; j < num_blocks; ++j) {
    const size_t end = std::min(count, (j + 1) * kBlock);
    for (size_t i = j * kBlock; i < end; ++i) add(j, i);
  }
}

void AdrAccumulator::AddCrossSectionBlocks(
    size_t k, const std::vector<CrossSectionBlock>& blocks) {
  EQIMPACT_CHECK_LT(k, num_steps_);
  for (const CrossSectionBlock& block : blocks) MergeBlock(k, block);
}

void AdrAccumulator::MergeBlock(size_t k, const CrossSectionBlock& block) {
  EQIMPACT_CHECK_EQ(block.stats.size(), num_groups_);
  EQIMPACT_CHECK_EQ(block.bins.size(), num_groups_ * num_bins_);
  RunningStats* step_stats = &stats_[k * num_groups_];
  const size_t step_bins = k * num_groups_ * num_bins_;
  for (size_t g = 0; g < num_groups_; ++g) {
    step_stats[g].Merge(block.stats[g]);
  }
  for (size_t b = 0; b < block.bins.size(); ++b) {
    bin_counts_.Add(step_bins + b, block.bins[b]);
  }
}

void AdrAccumulator::Merge(const AdrAccumulator& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  EQIMPACT_CHECK_EQ(num_groups_, other.num_groups_);
  EQIMPACT_CHECK_EQ(num_steps_, other.num_steps_);
  EQIMPACT_CHECK_EQ(num_bins_, other.num_bins_);
  EQIMPACT_CHECK_EQ(lo_, other.lo_);
  EQIMPACT_CHECK_EQ(hi_, other.hi_);
  for (size_t c = 0; c < stats_.size(); ++c) stats_[c].Merge(other.stats_[c]);
  for (size_t b = 0; b < bin_counts_.size(); ++b) {
    bin_counts_.Add(b, other.bin_counts_[b]);
  }
}

const RunningStats& AdrAccumulator::stats(size_t k, size_t g) const {
  return stats_[CellIndex(k, g)];
}

int64_t AdrAccumulator::StepCount(size_t k) const {
  int64_t total = 0;
  for (size_t g = 0; g < num_groups_; ++g) total += count(k, g);
  return total;
}

int64_t AdrAccumulator::bin_count(size_t k, size_t g, size_t b) const {
  EQIMPACT_CHECK_LT(b, num_bins_);
  return bin_counts_[CellIndex(k, g) * num_bins_ + b];
}

int64_t AdrAccumulator::StepBinCount(size_t k, size_t b) const {
  int64_t total = 0;
  for (size_t g = 0; g < num_groups_; ++g) total += bin_count(k, g, b);
  return total;
}

double AdrAccumulator::StepBinFraction(size_t k, size_t b) const {
  int64_t total = StepCount(k);
  if (total == 0) return 0.0;
  return static_cast<double>(StepBinCount(k, b)) /
         static_cast<double>(total);
}

double AdrAccumulator::QuantileFromBins(double p,
                                        const std::vector<int64_t>& bins,
                                        int64_t total, double min_value,
                                        double max_value) const {
  if (total == 0) return 0.0;
  if (p <= 0.0) return min_value;
  if (p >= 1.0) return max_value;
  double target = p * static_cast<double>(total);
  int64_t seen = 0;
  for (size_t b = 0; b < num_bins_; ++b) {
    if (bins[b] == 0) continue;
    double within = target - static_cast<double>(seen);
    seen += bins[b];
    if (static_cast<double>(seen) >= target) {
      double fraction = within / static_cast<double>(bins[b]);
      double estimate =
          lo_ + (static_cast<double>(b) + fraction) * bin_width_;
      return std::clamp(estimate, min_value, max_value);
    }
  }
  return max_value;
}

double AdrAccumulator::ApproxQuantile(size_t k, size_t g, double p) const {
  size_t cell = CellIndex(k, g);
  const RunningStats& cell_stats = stats_[cell];
  if (cell_stats.count() == 0) return 0.0;
  std::vector<int64_t> bins(num_bins_);
  for (size_t b = 0; b < num_bins_; ++b) {
    bins[b] = bin_counts_[cell * num_bins_ + b];
  }
  return QuantileFromBins(p, bins, cell_stats.count(), cell_stats.Min(),
                          cell_stats.Max());
}

double AdrAccumulator::StepApproxQuantile(size_t k, double p) const {
  int64_t total = StepCount(k);
  if (total == 0) return 0.0;
  std::vector<int64_t> bins(num_bins_);
  double min_value = hi_;
  double max_value = lo_;
  for (size_t g = 0; g < num_groups_; ++g) {
    const RunningStats& cell_stats = stats(k, g);
    if (cell_stats.count() > 0) {
      min_value = std::min(min_value, cell_stats.Min());
      max_value = std::max(max_value, cell_stats.Max());
    }
    for (size_t b = 0; b < num_bins_; ++b) {
      bins[b] += bin_count(k, g, b);
    }
  }
  return QuantileFromBins(p, bins, total, min_value, max_value);
}

void AdrAccumulator::Serialize(base::BinaryWriter* writer) const {
  writer->WriteSize(num_groups_);
  writer->WriteSize(num_steps_);
  writer->WriteSize(num_bins_);
  writer->WriteDouble(lo_);
  writer->WriteDouble(hi_);
  writer->WriteDouble(bin_width_);
  writer->WriteSize(stats_.size());
  for (const RunningStats& cell : stats_) cell.Serialize(writer);
  writer->WriteI64Vector(bin_counts_.ToVector());
}

bool AdrAccumulator::Deserialize(base::BinaryReader* reader) {
  num_groups_ = reader->ReadSize();
  num_steps_ = reader->ReadSize();
  num_bins_ = reader->ReadSize();
  lo_ = reader->ReadDouble();
  hi_ = reader->ReadDouble();
  bin_width_ = reader->ReadDouble();
  size_t num_cells = reader->ReadSize();
  if (!reader->ok() || num_cells != num_steps_ * num_groups_) return false;
  stats_.assign(num_cells, RunningStats());
  for (RunningStats& cell : stats_) {
    if (!cell.Deserialize(reader)) return false;
  }
  return bin_counts_.FromVector(reader->ReadI64Vector()) && reader->ok() &&
         bin_counts_.size() == num_cells * num_bins_;
}

SeriesEnvelope AdrAccumulator::GroupEnvelope(size_t g) const {
  SeriesEnvelope envelope;
  envelope.mean.reserve(num_steps_);
  envelope.std_dev.reserve(num_steps_);
  for (size_t k = 0; k < num_steps_; ++k) {
    const RunningStats& cell_stats = stats(k, g);
    envelope.mean.push_back(cell_stats.Mean());
    envelope.std_dev.push_back(cell_stats.StdDev());
  }
  return envelope;
}

}  // namespace stats
}  // namespace eqimpact
