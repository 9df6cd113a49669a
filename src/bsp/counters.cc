#include "bsp/counters.h"

#include <algorithm>

namespace predict::bsp {

WorkerCounters& WorkerCounters::operator+=(const WorkerCounters& other) {
  active_vertices += other.active_vertices;
  total_vertices += other.total_vertices;
  local_messages += other.local_messages;
  remote_messages += other.remote_messages;
  local_message_bytes += other.local_message_bytes;
  remote_message_bytes += other.remote_message_bytes;
  return *this;
}

BarrierWork& BarrierWork::operator+=(const BarrierWork& other) {
  entries_sorted += other.entries_sorted;
  slots_swept += other.slots_swept;
  worklist_entries += other.worklist_entries;
  payload_slots += other.payload_slots;
  messages_staged += other.messages_staged;
  return *this;
}

WorkerCounters SuperstepStats::Totals() const {
  WorkerCounters totals;
  for (const WorkerCounters& w : per_worker) totals += w;
  return totals;
}

const char* HaltReasonName(HaltReason reason) {
  switch (reason) {
    case HaltReason::kConverged:
      return "converged";
    case HaltReason::kMasterHalt:
      return "master_halt";
    case HaltReason::kMaxSupersteps:
      return "max_supersteps";
  }
  return "unknown";
}

WorkerId ArgMaxWorker(const std::vector<uint64_t>& values) {
  if (values.empty()) return 0;
  return static_cast<WorkerId>(
      std::max_element(values.begin(), values.end()) - values.begin());
}

}  // namespace predict::bsp
