// Tests for core/history.h persistence and concurrency: the num_workers
// column round-trips, pre-column legacy files still load (num_workers =
// 0, an unknown configuration), and Add may race the training-row
// readers (the PredictionService shares one store across in-flight
// predictions).

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/features.h"
#include "core/history.h"

namespace predict {
namespace {

RunProfile WorkerProfile(const std::string& dataset, uint32_t num_workers,
                         int iterations) {
  RunProfile profile;
  profile.algorithm = "pagerank";
  profile.dataset = dataset;
  profile.num_vertices = 1000;
  profile.num_edges = 5000;
  profile.num_workers = num_workers;
  for (int i = 0; i < iterations; ++i) {
    IterationProfile it;
    it.iteration = i;
    it.critical_features[static_cast<int>(Feature::kRemMsg)] = 50.0 * (i + 1);
    it.runtime_seconds = 0.5 * (i + 1) * 8.0 / num_workers;
    profile.iterations.push_back(it);
  }
  return profile;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(HistoryPersistenceTest, NumWorkersRoundTrips) {
  HistoryStore store;
  store.Add(WorkerProfile("lj", 8, 3));
  store.Add(WorkerProfile("uk", 29, 2));
  const std::string path = TempPath("predict_history_workers.csv");
  ASSERT_TRUE(store.SaveToFile(path).ok());

  auto loaded = HistoryStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<RunProfile> profiles = loaded->profiles();
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].num_workers, 8u);
  EXPECT_EQ(profiles[1].num_workers, 29u);

  EXPECT_EQ(loaded->TrainingRowsFor("pagerank").size(), 5u);

  // Save -> load -> save is byte-stable (no drift across generations).
  const std::string path2 = TempPath("predict_history_workers2.csv");
  ASSERT_TRUE(loaded->SaveToFile(path2).ok());
  std::ifstream a(path), b(path2);
  std::string text_a((std::istreambuf_iterator<char>(a)),
                     std::istreambuf_iterator<char>());
  std::string text_b((std::istreambuf_iterator<char>(b)),
                     std::istreambuf_iterator<char>());
  EXPECT_EQ(text_a, text_b);
  std::filesystem::remove(path);
  std::filesystem::remove(path2);
}

TEST(HistoryPersistenceTest, LegacyFileWithoutWorkersColumnLoads) {
  // A file written before the num_workers column existed: 5 leading
  // fields instead of 6. It must load with num_workers = 0 ("unknown").
  const std::string path = TempPath("predict_history_legacy.csv");
  {
    std::ofstream out(path);
    out << "algorithm,dataset,num_vertices,num_edges,iteration,ActVert,"
           "TotVert,LocMsg,RemMsg,LocMsgSize,RemMsgSize,AvgMsgSize,"
           "runtime_seconds\n";
    out << "pagerank,lj,1000,5000,0,10,100,5,50,40,400,8,0.5\n";
    out << "pagerank,lj,1000,5000,1,20,100,10,100,80,800,8,1\n";
  }
  auto loaded = HistoryStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->profiles()[0].num_workers, 0u);

  const std::vector<TrainingRow> rows = loaded->TrainingRowsFor("pagerank");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[1].runtime_seconds, 1.0);
  EXPECT_DOUBLE_EQ(rows[1].features[static_cast<int>(Feature::kRemMsg)], 100.0);
  std::filesystem::remove(path);
}

TEST(HistoryPersistenceTest, MalformedRowsAreQuarantinedNotFatal) {
  // A corrupted row (partial write, manual edit) must not take down the
  // rest of the history: well-formed rows load, the bad ones are counted
  // in the quarantine note.
  HistoryStore store;
  store.Add(WorkerProfile("lj", 8, 2));
  const std::string path = TempPath("predict_history_malformed.csv");
  ASSERT_TRUE(store.SaveToFile(path).ok());
  {
    std::ofstream out(path, std::ios::app);
    out << "pagerank,lj,1000,5000,0,1,2\n";  // too few fields
    out << "garbage row\n";
  }

  std::string note;
  auto loaded = HistoryStore::LoadFromFile(path, &note);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 1u);  // the intact profile survived
  EXPECT_EQ(loaded->TrainingRowsFor("pagerank").size(), 2u);
  EXPECT_NE(note.find("quarantined 2 malformed history rows"),
            std::string::npos)
      << note;
  EXPECT_NE(note.find("pagerank,lj,1000,5000,0,1,2"), std::string::npos);

  // A clean file leaves the note empty.
  ASSERT_TRUE(store.SaveToFile(path).ok());
  note = "stale";
  ASSERT_TRUE(HistoryStore::LoadFromFile(path, &note).ok());
  EXPECT_TRUE(note.empty());
  std::filesystem::remove(path);
}

TEST(HistoryPersistenceTest, FailedSaveLeavesThePreviousFileIntact) {
  // Crash-safety contract: SaveToFile writes a temp file and renames it
  // into place, so a failure mid-save (injected at the history.save fail
  // point, just before the rename) must leave the previous generation
  // readable and no half-written temp file behind.
  fail::DisableAll();
  HistoryStore first;
  first.Add(WorkerProfile("lj", 8, 2));
  const std::string path = TempPath("predict_history_crashsafe.csv");
  ASSERT_TRUE(first.SaveToFile(path).ok());

  HistoryStore second;
  second.Add(WorkerProfile("uk", 16, 3));
  second.Add(WorkerProfile("tw", 32, 3));
  ASSERT_TRUE(fail::Configure("history.save", "once:code=io").ok());
  const Status failed = second.SaveToFile(path);
  fail::DisableAll();
  EXPECT_TRUE(failed.IsIOError());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  auto loaded = HistoryStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 1u);  // still the first generation
  EXPECT_EQ(loaded->profiles()[0].dataset, "lj");

  // Without the fault the same save goes through.
  ASSERT_TRUE(second.SaveToFile(path).ok());
  auto reloaded = HistoryStore::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->size(), 2u);
  std::filesystem::remove(path);
}

TEST(HistoryPersistenceTest, LoadFailPointSurfacesAsTheLoadError) {
  fail::DisableAll();
  HistoryStore store;
  store.Add(WorkerProfile("lj", 8, 1));
  const std::string path = TempPath("predict_history_loadfault.csv");
  ASSERT_TRUE(store.SaveToFile(path).ok());
  ASSERT_TRUE(fail::Configure("history.load", "once:code=io").ok());
  const auto loaded = HistoryStore::LoadFromFile(path);
  fail::DisableAll();
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
  EXPECT_NE(loaded.status().message().find("history.load"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(HistoryConcurrencyTest, AddRacesTrainingRowReaders) {
  // One writer appends profiles while readers snapshot training rows and
  // save to disk; under TSan/ASan this is the proof the store's locking
  // holds. Readers must always observe complete profiles (row counts are
  // multiples of the per-profile iteration count).
  constexpr int kProfiles = 64;
  constexpr int kIterations = 4;
  HistoryStore store;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int i = 0; i < kProfiles; ++i) {
      store.Add(WorkerProfile("d" + std::to_string(i % 8),
                              8 + 4 * (i % 6), kIterations));
    }
    done.store(true);
  });

  size_t max_rows = 0;
  bool sizes_consistent = true;
  while (!done.load()) {
    const std::vector<TrainingRow> rows = store.TrainingRowsFor("pagerank");
    if (rows.size() % kIterations != 0) sizes_consistent = false;
    if (rows.size() > max_rows) max_rows = rows.size();
  }
  writer.join();

  EXPECT_TRUE(sizes_consistent);
  EXPECT_EQ(store.TrainingRowsFor("pagerank").size(),
            static_cast<size_t>(kProfiles * kIterations));
  EXPECT_EQ(store.size(), static_cast<size_t>(kProfiles));
}

TEST(HistoryConcurrencyTest, ConcurrentSaveAndAddProduceLoadableFiles) {
  HistoryStore store;
  store.Add(WorkerProfile("seed", 8, 2));
  const std::string path = TempPath("predict_history_concurrent.csv");
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int i = 0; i < 32; ++i) {
      store.Add(WorkerProfile("d" + std::to_string(i), 8 + i, 2));
    }
    done.store(true);
  });
  while (!done.load()) {
    ASSERT_TRUE(store.SaveToFile(path).ok());
  }
  writer.join();
  ASSERT_TRUE(store.SaveToFile(path).ok());

  auto loaded = HistoryStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 33u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace predict
