#include "trace.h"

#include <cstdio>

namespace perfbench {

int Tracer::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  spans_[index].start = NowSeconds();
  return index;
}

void Tracer::End(int index) {
  Span& span = spans_[index];
  span.end = NowSeconds();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  if (span.parent >= 0) spans_[span.parent].children_seconds += span.seconds();
}

std::map<std::string, std::vector<double>> Tracer::SelfSecondsByName() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& span : spans_) out[span.name].push_back(span.self_seconds());
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"request\": %llu, "
                 "\"self_s\": %.9f}\n",
                 i, s.name, s.start - origin, s.end - origin, s.parent,
                 static_cast<unsigned long long>(s.request), s.self_seconds());
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
