#include "neat/coverage.h"

#include <cstdio>

#include "neat/fnv.h"
#include "neat/trace_scan.h"

namespace neat {

size_t CoverageMap::Add(const std::vector<std::string>& features) {
  size_t unseen = 0;
  for (const std::string& feature : features) {
    uint64_t& count = counters_[feature];
    if (count == 0) {
      ++unseen;
    }
    ++count;
    ++total_hits_;
  }
  return unseen;
}

void CoverageMap::MergeFrom(const CoverageMap& other) {
  for (const auto& [feature, count] : other.counters_) {
    counters_[feature] += count;
  }
  total_hits_ += other.total_hits_;
}

bool CoverageMap::Covers(const std::string& feature) const {
  return counters_.find(feature) != counters_.end();
}

std::string CoverageMap::Digest() const {
  Fnv1a fnv;
  for (const auto& [feature, count] : counters_) {
    fnv.Mix(feature);
    fnv.Mix("=");
    fnv.Mix(std::to_string(count));
    fnv.Mix("\n");
  }
  return fnv.Hex();
}

std::vector<std::string> TraceCoverage(const sim::TraceLog& trace) {
  // One-shot form of the incremental fold (neat/trace_scan.h): the "bi:"
  // event bigrams plus the "ph:" partition-phase edges — 'b' before the
  // first injected partition, 'p' while one is installed, 'h' after a heal,
  // keyed off the "neat" phase markers PartitionScript appends.
  TraceScan scan;
  scan.Advance(trace);
  return scan.Features();
}

std::string StateTransitionFeature(uint64_t before, uint64_t after) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "sd:%016llx>%016llx",
                static_cast<unsigned long long>(before),
                static_cast<unsigned long long>(after));
  return buffer;
}

}  // namespace neat
