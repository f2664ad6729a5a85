#include "neat/trace_scan.h"

#include <algorithm>

namespace neat {
namespace {

// The first whitespace-separated token of a net "drop" detail — the
// directed link ("3->1"). A detail with no separator is used whole, so
// per-link totals always sum to the drop count.
std::string_view DroppedLink(const std::string& detail) {
  const size_t space = detail.find(' ');
  return std::string_view(detail).substr(0, space == std::string::npos ? detail.size() : space);
}

// The second whitespace-separated token of a net "drop" detail
// ("3->1 pbkv.Replicate (partitioned at send)") — the message type.
std::string_view DroppedMessageType(const std::string& detail) {
  const size_t first_space = detail.find(' ');
  if (first_space == std::string::npos) {
    return detail;
  }
  const size_t start = first_space + 1;
  const size_t end = detail.find(' ', start);
  return std::string_view(detail).substr(
      start, end == std::string::npos ? std::string::npos : end - start);
}

// The events that describe leadership movement across the model systems.
// Names are compared as views: size first, so most probes touch no bytes.
bool IsLeadershipEvent(std::string_view event) {
  return event == "election-start" || event == "elected" || event == "step-down" ||
         event == "election-timeout" || event == "vote" || event == "master" ||
         event == "resign" || event == "demoted";
}

}  // namespace

void TraceScan::Advance(const sim::TraceLog& trace) {
  if (trace.causal()) {
    causal_.Advance(trace);
  }
  const std::vector<sim::TraceRecord>& records = trace.records();
  // Traces are bursty — runs of the same event name — so a cached counter
  // iterator and last-bigram check skip most of the per-record lookups.
  auto counted = event_counts_.end();
  std::pair<std::string_view, std::string_view> last_bigram{};
  bool have_last = false;
  for (size_t i = pos_; i < records.size(); ++i) {
    const sim::TraceRecord& record = records[i];
    const std::string_view component = record.component;
    const std::string_view event = record.event;

    if (i > 0) {
      const std::pair<std::string_view, std::string_view> bigram{records[i - 1].event,
                                                                 record.event};
      if (!have_last || bigram != last_bigram) {
        last_bigram = bigram;
        have_last = true;
        if (bigrams_.find(bigram) == bigrams_.end()) {
          bigrams_.emplace(bigram.first, bigram.second);
        }
      }
    }

    if (counted == event_counts_.end() || counted->first != record.event) {
      counted = event_counts_.try_emplace(record.event, 0).first;
    }
    ++counted->second;
    if (IsLeadershipEvent(event)) {
      leadership_records_.push_back(i);
    }

    if (component == "neat") {
      if (event == "partition") {
        phase_ = 'p';
      } else if (event == "heal") {
        phase_ = 'h';
      }
      continue;
    }
    std::string_view name;
    if (component == "net") {
      if (event != "drop") {
        continue;
      }
      const std::string_view link = DroppedLink(record.detail);
      const auto it = drops_per_link_.find(link);
      if (it == drops_per_link_.end()) {
        drops_per_link_.emplace(std::string(link), 1);
      } else {
        ++it->second;
      }
      name = DroppedMessageType(record.detail);
    } else {
      // System-level records (elections, step-downs, session expiries):
      // the event name by phase.
      name = event;
    }
    const std::pair<char, std::string_view> sighting{phase_, name};
    if (phase_features_.find(sighting) == phase_features_.end()) {
      phase_features_.emplace(phase_, std::string(name));
    }
  }
  pos_ = records.size();
}

std::vector<std::string> TraceScan::Features() const {
  std::vector<std::string> features;
  features.reserve(bigrams_.size() + phase_features_.size());
  // Atoms are escaped before joining so that an event named "a>b" cannot
  // fabricate the bigram ("a", "b"), nor one named "p:x" a phase sighting.
  // Escaping is the identity on every name the model systems emit today,
  // so existing coverage digests are unchanged (pinned by neat_test).
  for (const auto& [a, b] : bigrams_) {
    features.push_back("bi:" + check::EscapeLabelAtom(a) + ">" + check::EscapeLabelAtom(b));
  }
  for (const auto& [phase, name] : phase_features_) {
    features.push_back(std::string("ph:") + phase + ":" + check::EscapeLabelAtom(name));
  }
  for (const check::Cascade& cascade : causal_.Cascades()) {
    features.push_back("cy:" + cascade.signature);
  }
  std::sort(features.begin(), features.end());
  features.erase(std::unique(features.begin(), features.end()), features.end());
  return features;
}

TraceReport TraceScan::Report(const sim::TraceLog& trace) const {
  TraceReport report;
  report.total_records = pos_;
  report.event_counts = event_counts_;
  report.drops_per_link = drops_per_link_;
  report.leadership_events.reserve(leadership_records_.size());
  for (const size_t index : leadership_records_) {
    report.leadership_events.push_back(trace.records()[index]);
  }
  return report;
}

}  // namespace neat
