// Tests for the durable sweep journal (exp/journal.hpp) and the resume path
// in exp::run_sweep: canonical config hashing, append/recover round trips,
// the corruption matrix (torn tail, bit-flipped CRC, truncated header, wrong
// magic, version skew, stale hashes), crash-safe resume via the killsup
// fault, and incremental re-runs when one point's parameters change.
//
// The resume tests configure run_sweep through SweepEnv fields; only the
// DSSOC_SWEEP_RESUME parse test touches the environment.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/emulation.hpp"
#include "exp/journal.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_env.hpp"
#include "platform/platform.hpp"

namespace dssoc::exp {
namespace {

namespace fs = std::filesystem;

/// Sets an environment variable for the test's scope, unsetting on
/// destruction (the DSSOC_SWEEP_RESUME parse test).
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    EXPECT_EQ(setenv(name, value.c_str(), 1), 0);
  }
  ~EnvGuard() { unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

/// A unique journal path per test, removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("dssoc_journal_test_" + std::to_string(::getpid()) + "_" +
               name)) {
    fs::remove(path_);
  }
  ~TempFile() { fs::remove(path_); }
  std::string path() const { return path_.string(); }
  std::uintmax_t size() const { return fs::file_size(path_); }
  void truncate(std::uintmax_t size) const { fs::resize_file(path_, size); }
  void flip_byte(std::uintmax_t offset) const {
    std::fstream io(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(io.is_open());
    io.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    io.get(byte);
    io.seekp(static_cast<std::streamoff>(offset));
    io.put(static_cast<char>(byte ^ 0xFF));
  }
  void overwrite(const std::string& contents) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }

 private:
  fs::path path_;
};

bool warnings_mention(const SweepJournal::Recovery& recovery,
                      const std::string& needle) {
  for (const std::string& warning : recovery.warnings) {
    if (warning.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

struct Fixture {
  Fixture() {
    platform = platform::zcu102();
    apps::register_all_kernels(registry);
    library = apps::default_application_library();
  }

  SweepPoint point(const std::string& config, const std::string& scheduler,
                   const core::Workload& workload) const {
    SweepPoint p;
    p.label = config + "/" + scheduler;
    p.setup.platform = &platform;
    p.setup.soc = platform::parse_config_label(config);
    p.setup.apps = &library;
    p.setup.registry = &registry;
    p.setup.cost_model = platform::default_cost_model();
    p.setup.options.scheduler = scheduler;
    p.workload = workload;
    return p;
  }

  std::vector<SweepPoint> small_sweep(int count) const {
    const core::Workload workload = core::make_validation_workload(
        {{"wifi_tx", 1}, {"range_detection", 1}});
    const char* schedulers[] = {"FRFS", "MET", "EFT"};
    std::vector<SweepPoint> points;
    for (int i = 0; i < count; ++i) {
      SweepPoint p = point("2C+1F", schedulers[i % 3], workload);
      p.label += "/pt" + std::to_string(i);
      points.push_back(std::move(p));
    }
    return points;
  }

  platform::Platform platform;
  core::SharedObjectRegistry registry;
  core::ApplicationLibrary library;
};

/// One genuinely emulated ok result (real stats, real digest) to journal.
SweepResult emulated_result(const Fixture& fx, const std::string& scheduler) {
  const core::Workload workload =
      core::make_validation_workload({{"wifi_tx", 1}});
  std::vector<SweepResult> results =
      SweepRunner(1).run({fx.point("1C+0F", scheduler, workload)});
  return std::move(results[0]);
}

// --- config hashing over sweep points ---------------------------------------

TEST(PointConfigHash, StableForIdenticalPoints) {
  Fixture fx;
  const std::vector<SweepPoint> points = fx.small_sweep(2);
  EXPECT_EQ(point_config_hash(points[0]), point_config_hash(points[0]));
  EXPECT_NE(point_config_hash(points[0]), point_config_hash(points[1]));
}

TEST(PointConfigHash, EveryResultDeterminingKnobFlipsTheHash) {
  Fixture fx;
  const std::vector<SweepPoint> points = fx.small_sweep(1);
  const std::uint64_t base = point_config_hash(points[0]);

  SweepPoint reseeded = points[0];
  reseeded.setup.options.seed = 12345;
  EXPECT_NE(point_config_hash(reseeded), base);

  SweepPoint rescheduled = points[0];
  rescheduled.setup.options.scheduler = "MET";
  EXPECT_NE(point_config_hash(rescheduled), base);

  SweepPoint relabelled = points[0];
  relabelled.label = "something-else";
  EXPECT_NE(point_config_hash(relabelled), base);

  SweepPoint rearrived = points[0];
  ASSERT_FALSE(rearrived.workload.entries.empty());
  rearrived.workload.entries[0].arrival += 1;
  EXPECT_NE(point_config_hash(rearrived), base);

  SweepPoint reconfigured = points[0];
  reconfigured.setup.soc = platform::parse_config_label("3C+0F");
  EXPECT_NE(point_config_hash(reconfigured), base);
}

// --- journal round trip -----------------------------------------------------

TEST(Journal, AppendRecoverRoundTripKeepsOkRecordsFindable) {
  Fixture fx;
  TempFile file("roundtrip");
  const SweepResult ok = emulated_result(fx, "FRFS");
  SweepResult failed;
  failed.label = "cfg/bad";
  failed.status = PointStatus::kFailed;
  failed.error = "worker crashed (exit code 42)";

  {
    SweepJournal journal(file.path());
    EXPECT_FALSE(journal.recovery().existed);
    EXPECT_EQ(journal.size(), 0u);
    journal.append(111, ok);
    journal.append(222, failed);
    EXPECT_EQ(journal.size(), 2u);
  }

  SweepJournal journal(file.path());
  EXPECT_TRUE(journal.recovery().existed);
  EXPECT_EQ(journal.recovery().records, 2u);
  EXPECT_EQ(journal.recovery().dropped_bytes, 0u);
  EXPECT_TRUE(journal.recovery().warnings.empty());

  const SweepResult* hit = journal.find_ok(111);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->label, ok.label);
  EXPECT_EQ(hit->status, PointStatus::kOk);
  EXPECT_EQ(hit->source, ResultSource::kJournal);
  EXPECT_EQ(hit->wall_ms, ok.wall_ms);
  // The whole point of the journal: the persisted stats are bit-identical.
  EXPECT_EQ(hit->stats.digest(), ok.stats.digest());

  // Failed records are recovered but never replayed.
  EXPECT_EQ(journal.find_ok(222), nullptr);
  EXPECT_EQ(journal.find_ok(999), nullptr);
}

// --- corruption matrix ------------------------------------------------------

TEST(Journal, TornRecordHeaderDropsOnlyTheTail) {
  Fixture fx;
  TempFile file("torn_header");
  std::uintmax_t first_record_end = 0;
  {
    SweepJournal journal(file.path());
    journal.append(1, emulated_result(fx, "FRFS"));
    first_record_end = file.size();
    journal.append(2, emulated_result(fx, "MET"));
  }
  // Crash mid-write of the second record's 12-byte frame header.
  file.truncate(first_record_end + 5);

  SweepJournal journal(file.path());
  EXPECT_EQ(journal.recovery().records, 1u);
  EXPECT_EQ(journal.recovery().dropped_bytes, 5u);
  EXPECT_TRUE(warnings_mention(journal.recovery(), "torn record header"))
      << "warnings: " << journal.recovery().warnings.size();
  EXPECT_NE(journal.find_ok(1), nullptr);
  EXPECT_EQ(journal.find_ok(2), nullptr);
}

TEST(Journal, TornRecordPayloadDropsOnlyTheTail) {
  Fixture fx;
  TempFile file("torn_payload");
  std::uintmax_t first_record_end = 0;
  {
    SweepJournal journal(file.path());
    journal.append(1, emulated_result(fx, "FRFS"));
    first_record_end = file.size();
    journal.append(2, emulated_result(fx, "MET"));
  }
  // Frame header intact, payload cut short: declared length exceeds EOF.
  file.truncate(first_record_end + 20);

  SweepJournal journal(file.path());
  EXPECT_EQ(journal.recovery().records, 1u);
  EXPECT_EQ(journal.recovery().dropped_bytes, 20u);
  EXPECT_TRUE(warnings_mention(journal.recovery(), "torn record"));
  EXPECT_NE(journal.find_ok(1), nullptr);
}

TEST(Journal, BitFlippedPayloadFailsCrcAndDropsTheTail) {
  Fixture fx;
  TempFile file("bitflip");
  std::uintmax_t first_record_end = 0;
  {
    SweepJournal journal(file.path());
    journal.append(1, emulated_result(fx, "FRFS"));
    first_record_end = file.size();
    journal.append(2, emulated_result(fx, "MET"));
  }
  ASSERT_GT(file.size(), first_record_end + 40);
  // Flip one byte inside the second record's state_io payload; the CRC-32
  // trailer (or the stream structure) must catch it.
  file.flip_byte(first_record_end + 30);

  SweepJournal journal(file.path());
  EXPECT_EQ(journal.recovery().records, 1u);
  EXPECT_GT(journal.recovery().dropped_bytes, 0u);
  EXPECT_TRUE(warnings_mention(journal.recovery(), "corrupt record"));
  EXPECT_NE(journal.find_ok(1), nullptr);
  EXPECT_EQ(journal.find_ok(2), nullptr);
}

TEST(Journal, RecoveryTruncatesSoAppendsLandCleanlyAfterTheValidPrefix) {
  Fixture fx;
  TempFile file("truncate_then_append");
  const SweepResult ok = emulated_result(fx, "FRFS");
  std::uintmax_t first_record_end = 0;
  {
    SweepJournal journal(file.path());
    journal.append(1, ok);
    first_record_end = file.size();
    journal.append(2, emulated_result(fx, "MET"));
  }
  file.truncate(first_record_end + 7);  // torn tail on disk

  {
    SweepJournal journal(file.path());
    EXPECT_EQ(journal.recovery().records, 1u);
    journal.append(3, emulated_result(fx, "EFT"));
  }
  // The torn bytes were truncated away before the append, so a third open
  // sees two pristine records and zero warnings.
  SweepJournal journal(file.path());
  EXPECT_EQ(journal.recovery().records, 2u);
  EXPECT_EQ(journal.recovery().dropped_bytes, 0u);
  EXPECT_TRUE(journal.recovery().warnings.empty());
  EXPECT_NE(journal.find_ok(1), nullptr);
  EXPECT_NE(journal.find_ok(3), nullptr);
}

TEST(Journal, TruncatedFileHeaderStartsTheJournalOver) {
  Fixture fx;
  TempFile file("short_header");
  { SweepJournal journal(file.path()); }
  file.truncate(4);  // half the 8-byte magic+version header

  SweepJournal journal(file.path());
  EXPECT_TRUE(journal.recovery().existed);
  EXPECT_EQ(journal.recovery().records, 0u);
  EXPECT_TRUE(warnings_mention(journal.recovery(), "truncated header"));
  journal.append(1, emulated_result(fx, "FRFS"));
  EXPECT_NE(journal.find_ok(1), nullptr);
}

TEST(Journal, NonJournalFileIsRefusedNotClobbered) {
  TempFile file("not_a_journal");
  const std::string contents = "definitely not a sweep journal\n";
  file.overwrite(contents);
  EXPECT_THROW(SweepJournal journal(file.path()), DssocError);
  // The refusal must leave the innocent bystander byte-identical.
  std::ifstream in(file.path(), std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, contents);
}

TEST(Journal, FormatVersionSkewStartsTheJournalOver) {
  TempFile file("version_skew");
  // Valid magic 'DSSJ', bogus format version 99.
  file.overwrite(std::string("DSSJ") +
                 std::string({'\x63', '\x00', '\x00', '\x00'}));
  SweepJournal journal(file.path());
  EXPECT_TRUE(journal.recovery().existed);
  EXPECT_EQ(journal.recovery().records, 0u);
  EXPECT_TRUE(warnings_mention(journal.recovery(), "version"));
}

// --- run_sweep resume -------------------------------------------------------

/// A two-thread in-process sweep, journaled to `journal_path` when non-empty.
SweepEnv sweep_env(const std::string& journal_path = "", bool resume = false) {
  SweepEnv env;
  env.threads = 2;
  env.journal_path = journal_path;
  env.resume = resume;
  return env;
}

TEST(SweepResume, ResumeWithoutJournalThrows) {
  Fixture fx;
  std::vector<SweepPoint> points = fx.small_sweep(1);
  EXPECT_THROW(run_sweep(points, sweep_env("", /*resume=*/true)),
               ConfigError);
}

TEST(SweepResume, MalformedResumeValueThrows) {
  const EnvGuard resume("DSSOC_SWEEP_RESUME", "yes");
  EXPECT_THROW(SweepEnv::from_env(), ConfigError);
}

TEST(SweepResume, FullResumeReplaysEveryPointBitIdentically) {
  Fixture fx;
  std::vector<SweepPoint> points = fx.small_sweep(5);
  const SweepExecution clean = run_sweep(points, sweep_env()).execution;

  TempFile file("full_resume");
  const SweepExecution first =
      run_sweep(points, sweep_env(file.path())).execution;
  EXPECT_FALSE(first.resumed);
  EXPECT_EQ(first.journal_points_reused, 0u);
  EXPECT_TRUE(resume_summary(first).empty());

  const SweepExecution second =
      run_sweep(points, sweep_env(file.path(), /*resume=*/true)).execution;
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.journal_points_reused, points.size());
  ASSERT_EQ(second.results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(points[i].label);
    EXPECT_EQ(second.results[i].status, PointStatus::kOk);
    EXPECT_EQ(second.results[i].source, ResultSource::kJournal);
    EXPECT_NE(second.results[i].config_hash, 0u);
    EXPECT_EQ(second.results[i].stats.digest(), clean.results[i].stats.digest());
  }
  const std::string summary = resume_summary(second);
  EXPECT_NE(summary.find("5 of 5"), std::string::npos) << summary;
}

TEST(SweepResume, ChangingOnePointReRunsOnlyThatPoint) {
  Fixture fx;
  std::vector<SweepPoint> points = fx.small_sweep(5);
  TempFile file("incremental");
  run_sweep(points, sweep_env(file.path()));

  // Change one point's parameters: its config hash misses, everything else
  // replays. This is the incremental-sweep contract.
  points[2].setup.options.seed = 777;
  // Reference digests for the *changed* sweep, without journal effects.
  const SweepExecution clean_changed = run_sweep(points, sweep_env()).execution;

  const SweepExecution resumed =
      run_sweep(points, sweep_env(file.path(), /*resume=*/true)).execution;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.journal_points_reused, points.size() - 1);
  ASSERT_EQ(resumed.results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(points[i].label);
    EXPECT_EQ(resumed.results[i].source,
              i == 2 ? ResultSource::kRun : ResultSource::kJournal);
    EXPECT_EQ(resumed.results[i].stats.digest(),
              clean_changed.results[i].stats.digest());
  }
}

TEST(SweepResume, FailedJournalRecordsAlwaysReExecute) {
  Fixture fx;
  std::vector<SweepPoint> points = fx.small_sweep(3);
  TempFile file("failed_records");
  {
    // Seed the journal with a *failed* record for point 1: a resume must
    // re-execute it rather than replay the failure.
    SweepJournal journal(file.path());
    SweepResult failed;
    failed.label = points[1].label;
    failed.status = PointStatus::kFailed;
    failed.error = "worker crashed (exit code 42)";
    journal.append(point_config_hash(points[1]), failed);
  }
  const SweepExecution execution =
      run_sweep(points, sweep_env(file.path(), /*resume=*/true)).execution;
  EXPECT_TRUE(execution.resumed);
  EXPECT_EQ(execution.journal_points_reused, 0u);
  for (const SweepResult& result : execution.results) {
    EXPECT_EQ(result.status, PointStatus::kOk);
    EXPECT_EQ(result.source, ResultSource::kRun);
  }
}

TEST(SweepResume, StaleConfigHashRecordsAreIgnored) {
  Fixture fx;
  TempFile file("stale_hashes");
  std::vector<SweepPoint> points = fx.small_sweep(3);
  run_sweep(points, sweep_env(file.path()));

  // A *different* sweep against the same journal: every hash misses, every
  // point executes, and the old records just sit there harmlessly.
  std::vector<SweepPoint> other = fx.small_sweep(3);
  for (SweepPoint& point : other) {
    point.setup.options.seed = 4242;
  }
  const SweepExecution execution =
      run_sweep(other, sweep_env(file.path(), /*resume=*/true)).execution;
  EXPECT_TRUE(execution.resumed);
  EXPECT_EQ(execution.journal_points_reused, 0u);
  for (const SweepResult& result : execution.results) {
    EXPECT_EQ(result.status, PointStatus::kOk);
    EXPECT_EQ(result.source, ResultSource::kRun);
  }
}

// --- crash-safe resume via killsup ------------------------------------------

TEST(SweepResume, KillsupMidSweepThenResumeIsBitIdenticalToUninterrupted) {
  Fixture fx;
  std::vector<SweepPoint> points = fx.small_sweep(6);
  const SweepExecution clean = run_sweep(points, sweep_env()).execution;

  TempFile file("killsup");
  {
    // The supervisor _exit(43)s after 3 results have been journaled —
    // the deterministic stand-in for an OOM-kill or CI timeout.
    SweepEnv env = sweep_env(file.path());
    env.pool.fault = FaultPlan::parse("killsup@3");
    EXPECT_EXIT(run_sweep(points, env), ::testing::ExitedWithCode(43), "");
  }
  {
    // Exactly 3 records survived the crash (append + fsync precede the
    // kill), and the torn-free file recovers without warnings.
    SweepJournal journal(file.path());
    EXPECT_EQ(journal.recovery().records, 3u);
    EXPECT_TRUE(journal.recovery().warnings.empty());
  }

  const SweepExecution resumed =
      run_sweep(points, sweep_env(file.path(), /*resume=*/true)).execution;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.journal_points_reused, 3u);
  ASSERT_EQ(resumed.results.size(), points.size());
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(points[i].label);
    EXPECT_EQ(resumed.results[i].status, PointStatus::kOk);
    replayed += resumed.results[i].source == ResultSource::kJournal ? 1u : 0u;
    // The acceptance bar: the merged table is indistinguishable from the
    // uninterrupted run's, point by point.
    EXPECT_EQ(resumed.results[i].stats.digest(),
              clean.results[i].stats.digest());
  }
  EXPECT_EQ(replayed, 3u);
}

}  // namespace
}  // namespace dssoc::exp
