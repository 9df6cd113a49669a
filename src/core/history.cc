#include "core/history.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "common/failpoint.h"
#include "common/strings.h"

namespace predict {

HistoryStore::HistoryStore(const HistoryStore& other) {
  std::lock_guard<std::mutex> lock(other.mutex_);
  profiles_ = other.profiles_;
}

HistoryStore& HistoryStore::operator=(const HistoryStore& other) {
  if (this == &other) return *this;
  std::vector<RunProfile> copy = other.profiles();
  std::lock_guard<std::mutex> lock(mutex_);
  profiles_ = std::move(copy);
  return *this;
}

HistoryStore::HistoryStore(HistoryStore&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mutex_);
  profiles_ = std::move(other.profiles_);
}

HistoryStore& HistoryStore::operator=(HistoryStore&& other) noexcept {
  if (this == &other) return *this;
  std::vector<RunProfile> stolen;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    stolen = std::move(other.profiles_);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  profiles_ = std::move(stolen);
  return *this;
}

void HistoryStore::Add(RunProfile profile) {
  std::lock_guard<std::mutex> lock(mutex_);
  profiles_.push_back(std::move(profile));
}

size_t HistoryStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return profiles_.size();
}

std::vector<RunProfile> HistoryStore::profiles() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return profiles_;
}

std::vector<TrainingRow> HistoryStore::TrainingRowsFor(
    const std::string& algorithm) const {
  return TrainingRowsExcluding(algorithm, "");
}

std::vector<TrainingRow> HistoryStore::TrainingRowsExcluding(
    const std::string& algorithm, const std::string& exclude_dataset) const {
  std::vector<TrainingRow> rows;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const RunProfile& profile : profiles_) {
    if (profile.algorithm != algorithm) continue;
    if (!exclude_dataset.empty() && profile.dataset == exclude_dataset) {
      continue;
    }
    for (const IterationProfile& it : profile.iterations) {
      rows.push_back({it.critical_features, it.runtime_seconds});
    }
  }
  return rows;
}

Status HistoryStore::SaveToFile(const std::string& path) const {
  // Crash-safe: write the full file next to the target, then rename into
  // place. rename(2) within one directory is atomic, so readers see
  // either the old complete file or the new complete file — never a
  // truncated one — and a crash mid-write leaves the target untouched.
  const std::string temp_path = path + ".tmp";
  std::ofstream out(temp_path, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + temp_path + "' for writing: " +
                           std::strerror(errno));
  }
  out << "algorithm,dataset,num_vertices,num_edges,num_workers,iteration";
  for (int i = 0; i < kNumFeatures; ++i) {
    out << ',' << FeatureName(static_cast<Feature>(i));
  }
  out << ",runtime_seconds\n";
  out.precision(17);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const RunProfile& profile : profiles_) {
      for (const IterationProfile& it : profile.iterations) {
        out << profile.algorithm << ',' << profile.dataset << ','
            << profile.num_vertices << ',' << profile.num_edges << ','
            << profile.num_workers << ',' << it.iteration;
        for (int i = 0; i < kNumFeatures; ++i) {
          out << ',' << it.critical_features[i];
        }
        out << ',' << it.runtime_seconds << '\n';
      }
    }
  }
  out.close();
  if (!out) {
    std::remove(temp_path.c_str());
    return Status::IOError("write failed for '" + temp_path + "': " +
                           std::strerror(errno));
  }
  const Status injected = [&]() -> Status {
    PREDICT_FAIL_POINT("history.save");
    return Status::OK();
  }();
  if (!injected.ok() || std::rename(temp_path.c_str(), path.c_str()) != 0) {
    const Status cause = injected.ok()
                             ? Status::IOError("cannot rename '" + temp_path +
                                               "' to '" + path +
                                               "': " + std::strerror(errno))
                             : injected;
    std::remove(temp_path.c_str());
    return cause;
  }
  return Status::OK();
}

Result<HistoryStore> HistoryStore::LoadFromFile(const std::string& path,
                                                std::string* quarantine_note) {
  if (quarantine_note != nullptr) quarantine_note->clear();
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "': " + std::strerror(errno));
  }
  PREDICT_FAIL_POINT("history.load");
  HistoryStore store;
  std::string line;
  if (!std::getline(in, line)) {
    return store;  // empty file = empty store
  }

  // Profiles are keyed by (algorithm, dataset); rows must be contiguous
  // per profile, which SaveToFile guarantees.
  RunProfile current;
  uint64_t line_no = 1;
  uint64_t quarantined = 0;
  uint64_t first_bad_line = 0;
  std::string first_bad_text;
  while (std::getline(in, line)) {
    ++line_no;
    if (TrimWhitespace(line).empty()) continue;
    const std::vector<std::string> fields = SplitString(line, ',');
    // Current format has a num_workers column after num_edges; files
    // written before it existed lack the column and load as
    // num_workers = 0 (unknown configuration).
    const size_t with_workers = static_cast<size_t>(6 + kNumFeatures + 1);
    const size_t legacy = static_cast<size_t>(5 + kNumFeatures + 1);
    if (fields.size() != with_workers && fields.size() != legacy) {
      // Quarantine: a corrupted row (partial write, manual edit) must
      // not take down the rest of the history with it.
      ++quarantined;
      if (first_bad_line == 0) {
        first_bad_line = line_no;
        first_bad_text = line;
      }
      continue;
    }
    const bool has_workers = fields.size() == with_workers;
    const size_t iter_at = has_workers ? 5 : 4;
    const std::string& algorithm = fields[0];
    const std::string& dataset = fields[1];
    if (algorithm != current.algorithm || dataset != current.dataset) {
      if (!current.iterations.empty()) store.Add(current);
      current = RunProfile{};
      current.algorithm = algorithm;
      current.dataset = dataset;
      current.num_vertices = std::strtoull(fields[2].c_str(), nullptr, 10);
      current.num_edges = std::strtoull(fields[3].c_str(), nullptr, 10);
      if (has_workers) {
        current.num_workers = static_cast<uint32_t>(
            std::strtoull(fields[4].c_str(), nullptr, 10));
      }
    }
    IterationProfile iteration;
    iteration.iteration = std::atoi(fields[iter_at].c_str());
    for (int i = 0; i < kNumFeatures; ++i) {
      iteration.critical_features[i] =
          std::strtod(fields[iter_at + 1 + i].c_str(), nullptr);
    }
    iteration.runtime_seconds =
        std::strtod(fields[iter_at + 1 + kNumFeatures].c_str(), nullptr);
    current.iterations.push_back(iteration);
  }
  if (!current.iterations.empty()) store.Add(current);
  if (quarantined > 0 && quarantine_note != nullptr) {
    *quarantine_note = "quarantined " + std::to_string(quarantined) +
                       " malformed history row" + (quarantined == 1 ? "" : "s") +
                       " in '" + path + "'; first at line " +
                       std::to_string(first_bad_line) + ": '" + first_bad_text +
                       "'";
  }
  return store;
}

}  // namespace predict
