// The serve daemon drill: wire format, journal durability/replay,
// admission control, cancellation, deadline eviction, drain-requeue-resume
// bit-identity, and the fault matrix over every serve injection site at
// per-job threads 1 and 3. Everything runs in-process (the daemon on a
// std::thread, clients through serve::request or raw SocketStream) so the
// suite drills the same code paths as `salign serve` without fork/exec;
// the kill -9 variant lives in cmake/serve_smoke.cmake.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/socket.hpp"
#include "serve/wire.hpp"
#include "util/fault_injection.hpp"
#include "util/io.hpp"

namespace salign::serve {
namespace {

namespace fs = std::filesystem;

// ---- Json wire format -------------------------------------------------------

TEST(WireJsonTest, DumpIsSortedAndDeterministic) {
  Json::Object o;
  o.emplace("zeta", 1);
  o.emplace("alpha", "x");
  o.emplace("mid", true);
  EXPECT_EQ(Json(std::move(o)).dump(), R"({"alpha":"x","mid":true,"zeta":1})");
}

TEST(WireJsonTest, RoundTripsEveryType) {
  const std::string text =
      R"({"a":[1,2.5,-3],"b":null,"c":"q\"\\\n\u0041","d":false,"e":{}})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.get_string("c"), "q\"\\\nA");
  EXPECT_EQ(j.find("a")->as_array().size(), 3u);
  EXPECT_TRUE(j.find("b")->is_null());
  // dump(parse(x)) is a fixed point on the canonical form.
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

TEST(WireJsonTest, IntegersExactTo2to53) {
  const double big = 9007199254740991.0;  // 2^53 - 1
  Json::Object o;
  o.emplace("n", big);
  const std::string text = Json(std::move(o)).dump();
  EXPECT_NE(text.find("9007199254740991"), std::string::npos) << text;
  EXPECT_EQ(Json::parse(text).get_number("n"), big);
}

TEST(WireJsonTest, MalformedInputsThrowWireError) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
                          "1 2", "{\"a\":1,}", "nul", "\"\\q\""}) {
    EXPECT_THROW((void)Json::parse(bad), WireError) << bad;
  }
}

TEST(WireJsonTest, DepthGuardStopsRecursion) {
  std::string deep(128, '[');
  deep += std::string(128, ']');
  EXPECT_THROW((void)Json::parse(deep), WireError);
}

TEST(WireJsonTest, JobSpecJsonRoundTrip) {
  JobSpec spec;
  spec.input = "/data/in.fasta";
  spec.output = "/data/out.afa";
  spec.format = "clustal";
  spec.aligner = "muscle";
  spec.procs = 8;
  spec.threads = 3;
  spec.deadline_seconds = 2.5;
  const JobSpec back = JobSpec::from_json(spec.to_json());
  EXPECT_EQ(back.to_json().dump(), spec.to_json().dump());
  // The required keys are enforced, not defaulted away.
  EXPECT_THROW((void)JobSpec::from_json(Json::parse("{}")), WireError);
}

TEST(WireJsonTest, JobRecordJsonRoundTrip) {
  JobRecord rec;
  rec.id = "j000042";
  rec.seq = 42;
  rec.state = JobState::kFailed;
  rec.spec.input = "/data/in.fasta";
  rec.spec.output = "/data/out.afa";
  rec.attempts = 2;
  rec.exit_code = 1;
  rec.error = "injected";
  rec.submitted_ms = 1234567890123ULL;
  rec.updated_ms = 1234567890456ULL;
  const JobRecord back = JobRecord::from_json(rec.to_json());
  EXPECT_EQ(back.to_json().dump(), rec.to_json().dump());
  // Malformed records throw WireError (the replay path quarantines them).
  EXPECT_THROW((void)JobRecord::from_json(Json::parse("{}")), WireError);
  EXPECT_THROW((void)JobRecord::from_json(Json::parse(R"({"id":7})")),
               WireError);
}

TEST(WireJsonTest, JobRecordRejectsOutOfRangeIntegers) {
  // Journal files are outside input too: a number beyond its field's range
  // must be rejected while it is a double, since casting it first is
  // undefined behaviour (the ubsan lane traps it). The socket side is
  // ServeTest.OutOfRangeNumbersAreBadRequests.
  const std::string spec = R"("spec":{"in":"/a.fa","out":"/b.afa"})";
  for (const char* field :
       {"seq", "attempts", "exit_code", "submitted_ms", "updated_ms"}) {
    for (const char* value : {"1e300", "-1e300", "-1"}) {
      SCOPED_TRACE(std::string(field) + "=" + value);
      const Json rec = Json::parse(R"({"id":"j000001","state":"done",)" +
                                   spec + ",\"" + field + "\":" + value + "}");
      EXPECT_THROW((void)JobRecord::from_json(rec), WireError);
    }
  }
}

TEST(WireJsonTest, TypedAccessorsNameTheKey) {
  const Json j = Json::parse(R"({"n":"not a number"})");
  try {
    (void)j.get_number("n");
    FAIL();
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("n"), std::string::npos);
  }
}

// ---- fixture ----------------------------------------------------------------

std::vector<std::string> argv(std::initializer_list<std::string> list) {
  return {list};
}

/// Runs the daemon on a thread; surfaces run() exceptions to the test.
class DaemonRunner {
 public:
  explicit DaemonRunner(DaemonOptions opts) : daemon_(std::move(opts)) {
    thread_ = std::thread([this] {
      try {
        daemon_.run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~DaemonRunner() { stop(); }

  [[nodiscard]] bool ready() { return daemon_.wait_until_ready(10.0); }
  void stop() {
    daemon_.request_stop();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] Daemon& daemon() { return daemon_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  Daemon daemon_;
  std::thread thread_;
  std::string error_;
};

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FaultInjector::instance().disarm();
    // The socket lives under this directory, and sun_path caps the whole
    // socket path at 107 bytes — keep the name short, unique, and free of
    // the '/' that parameterized suite names contain.
    std::string name = std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->test_suite_name()) +
                       "_" + ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    for (char& c : name)
      if (c == '/') c = '_';
    std::size_t tag = 1469598103934665603ULL;
    for (const char c : name) tag = (tag ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    dir_ = fs::temp_directory_path() /
           ("salign_serve_" + name.substr(0, 40) + "_" +
            std::to_string(tag % 100000));
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    util::FaultInjector::instance().disarm();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] DaemonOptions options() const {
    DaemonOptions o;
    o.socket_path = path("d.sock");
    o.journal_dir = path("journal");
    o.drain_deadline_seconds = 0.05;  // tests drain fast by default
    return o;
  }

  void write_fasta(const std::string& p, int n, int length = 60) {
    std::ostringstream out;
    std::ostringstream err;
    const int status = cli::dispatch(
        argv({"generate", "--kind", "rose", "--n", std::to_string(n),
              "--length", std::to_string(length), "--out", p}),
        out, err);
    ASSERT_EQ(status, 0) << err.str();
  }

  [[nodiscard]] static Json submit_request(const std::string& in,
                                           const std::string& out,
                                           int threads = 1) {
    Json::Object o;
    o.emplace("v", kWireVersion);
    o.emplace("op", "submit");
    o.emplace("in", in);
    o.emplace("out", out);
    o.emplace("procs", 2);
    o.emplace("threads", threads);
    return Json(std::move(o));
  }

  [[nodiscard]] static Json op(const std::string& name,
                               const std::string& id = "") {
    Json::Object o;
    o.emplace("v", kWireVersion);
    o.emplace("op", name);
    if (!id.empty()) o.emplace("id", id);
    return Json(std::move(o));
  }

  template <typename Cond>
  [[nodiscard]] static bool poll_until(Cond&& cond, int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (cond()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return cond();
  }

  /// Polls status until the job is terminal (or 120 s pass — sanitizer
  /// presets are slow, but a hang must still fail rather than wedge CI).
  [[nodiscard]] Json wait_terminal(const std::string& socket,
                                   const std::string& id) {
    Json terminal;
    (void)poll_until(
        [&] {
          const Json st = request(socket, op("status", id));
          if (!st.get_bool("ok")) {
            terminal = st;
            return true;
          }
          const Json* job = st.find("job");
          if (job != nullptr &&
              is_terminal(job_state_from_string(job->get_string("state")))) {
            terminal = *job;
            return true;
          }
          return false;
        },
        120000);
    return terminal;
  }

  [[nodiscard]] static std::string slurp(const std::string& p) {
    std::ifstream f(p, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  [[nodiscard]] std::string journal_file(const std::string& id) const {
    return (fs::path(path("journal")) / "jobs" / (id + ".json")).string();
  }

  fs::path dir_;
};

// ---- journal ----------------------------------------------------------------

TEST_F(ServeTest, JournalRecordSurvivesReplayBitExact) {
  Journal j(path("journal"));
  JobRecord rec;
  rec.id = "j000007";
  rec.seq = 7;
  rec.state = JobState::kQueued;
  rec.spec.input = "/a/in.fasta";
  rec.spec.output = "/a/out.afa";
  rec.spec.deadline_seconds = 2.5;
  rec.submitted_ms = 1234567890123ULL;
  j.record(rec);

  std::vector<std::string> quarantined;
  const std::vector<JobRecord> back = j.replay(&quarantined);
  EXPECT_TRUE(quarantined.empty());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].to_json().dump(), rec.to_json().dump());
}

TEST_F(ServeTest, JournalReplayQuarantinesCorruptFiles) {
  Journal j(path("journal"));
  JobRecord rec;
  rec.id = "j000001";
  rec.seq = 1;
  rec.spec.input = "/a/in.fasta";
  rec.spec.output = "/a/out.afa";
  j.record(rec);
  {
    std::ofstream f(fs::path(path("journal")) / "jobs" / "j000002.json");
    f << "{torn write, not json";
  }
  std::vector<std::string> quarantined;
  const std::vector<JobRecord> back = j.replay(&quarantined);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].id, "j000001");
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_TRUE(
      fs::exists(fs::path(path("journal")) / "jobs" / "j000002.json.corrupt"));
}

TEST_F(ServeTest, OlderFormatJournalRecordReplaysToTheSameSpec) {
  // A record as earlier daemons journaled it, with the retired max_memory
  // field: replay must keep the job and ignore the field, so a journal
  // written before the field was dropped still resumes after an upgrade.
  const std::string older =
      R"({"attempts":1,"error":"","exit_code":0,"id":"j000003","seq":3,)"
      R"("spec":{"aligner":"muscle","deadline":2.5,"format":"clustal",)"
      R"("in":"/a/in.fasta","max_memory":2147483648,"out":"/a/out.afa",)"
      R"("procs":8,"threads":3},"state":"running",)"
      R"("submitted_ms":1234567890123,"updated_ms":1234567890456,"v":1})";
  Journal j(path("journal"));
  std::ofstream(journal_file("j000003")) << older << "\n";

  std::vector<std::string> quarantined;
  const std::vector<JobRecord> back = j.replay(&quarantined);
  EXPECT_TRUE(quarantined.empty());
  ASSERT_EQ(back.size(), 1u);
  const JobSpec& spec = back[0].spec;
  EXPECT_EQ(spec.input, "/a/in.fasta");
  EXPECT_EQ(spec.output, "/a/out.afa");
  EXPECT_EQ(spec.format, "clustal");
  EXPECT_EQ(spec.aligner, "muscle");
  EXPECT_EQ(spec.procs, 8);
  EXPECT_EQ(spec.threads, 3);
  EXPECT_EQ(spec.deadline_seconds, 2.5);
  EXPECT_EQ(back[0].state, JobState::kRunning);
  EXPECT_EQ(back[0].attempts, 1);
  // Re-journaling writes the same record without the retired field.
  std::string expected = older;
  const std::string retired = R"("max_memory":2147483648,)";
  expected.erase(expected.find(retired), retired.size());
  EXPECT_EQ(back[0].to_json().dump(), Json::parse(expected).dump());
}

TEST_F(ServeTest, JournalUnusableDirIsResourceError) {
  const std::string blocked = path("blocked");
  std::ofstream(blocked) << "a file, not a dir\n";
  EXPECT_THROW(Journal(blocked + "/journal"), ResourceError);
}

// ---- daemon core ------------------------------------------------------------

TEST_F(ServeTest, JournalProbeFaultFailsStartupAsResourceError) {
  // The writability probe at journal construction is a drillable site:
  // a hard fault there must surface as the startup ResourceError (exit 5)
  // instead of a daemon that accepts jobs it can never journal.
  auto& fi = util::FaultInjector::instance();
  fi.arm("serve.journal.probe:0:*!");
  EXPECT_THROW(Journal(path("journal_probe")), ResourceError);
  fi.disarm();
  // The probe deliberately does not retry (boot is not a retry loop); with
  // the injector disarmed, construction must come up clean.
  EXPECT_NO_THROW(Journal(path("journal_probe")));
}

TEST_F(ServeTest, SubmitRunsJobByteIdenticalToDirectRun) {
  const std::string in = path("in.fasta");
  write_fasta(in, 10);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();

  const Json ack =
      request(path("d.sock"), submit_request(in, path("served.afa")));
  ASSERT_TRUE(ack.get_bool("ok")) << ack.dump();
  EXPECT_EQ(ack.get_string("state"), "queued");
  const std::string id = ack.get_string("id");

  const Json job = wait_terminal(path("d.sock"), id);
  EXPECT_EQ(job.get_string("state"), "done") << job.dump();
  EXPECT_EQ(job.get_number("exit_code", -1), 0);

  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(cli::dispatch(argv({"align", "--in", in, "--out",
                                path("direct.afa"), "--procs", "2"}),
                          out, err),
            0)
      << err.str();
  EXPECT_EQ(slurp(path("served.afa")), slurp(path("direct.afa")));
  EXPECT_NE(slurp(path("served.afa")), "");
}

TEST_F(ServeTest, InvalidInputJobFailsWithExit3) {
  // The job's FASTA parses but repeats a record id: invalid content, so the
  // job fails with the CLI's invalid-input exit code, not a runtime 1.
  const std::string in = path("dup.fasta");
  {
    std::ofstream f(in);
    f << ">a\nACDEFGHIKL\n>b\nACDEFGHIKM\n>a\nACDEFGHIKN\n";
  }
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();
  const Json ack = request(path("d.sock"), submit_request(in, path("o.afa")));
  ASSERT_TRUE(ack.get_bool("ok")) << ack.dump();
  const Json job = wait_terminal(path("d.sock"), ack.get_string("id"));
  EXPECT_EQ(job.get_string("state"), "failed") << job.dump();
  EXPECT_EQ(job.get_number("exit_code", -1), cli::kExitInvalidInput);
  EXPECT_NE(job.get_string("error").find("duplicate"), std::string::npos)
      << job.dump();
  EXPECT_FALSE(fs::exists(path("o.afa")));
}

TEST_F(ServeTest, SubmitWithRetiredMaxMemoryIsAcceptedAndIgnored) {
  // Older clients still send max_memory; the daemon accepts the job, runs
  // it like any other and journals no trace of the field.
  const std::string in = path("in.fasta");
  write_fasta(in, 6);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();
  Json::Object o = submit_request(in, path("served.afa")).as_object();
  o.insert_or_assign("max_memory", Json(std::uint64_t{2147483648ULL}));
  const Json ack = request(path("d.sock"), Json(std::move(o)));
  ASSERT_TRUE(ack.get_bool("ok")) << ack.dump();
  const std::string id = ack.get_string("id");
  const Json job = wait_terminal(path("d.sock"), id);
  EXPECT_EQ(job.get_string("state"), "done") << job.dump();
  EXPECT_EQ(slurp(journal_file(id)).find("max_memory"), std::string::npos);
  EXPECT_NE(slurp(path("served.afa")), "");
}

TEST_F(ServeTest, AdmissionControlShedsWithRetryAfter) {
  DaemonOptions opts = options();
  opts.queue_limit = 0;  // every submit sheds: the bound is explicit
  DaemonRunner runner(std::move(opts));
  ASSERT_TRUE(runner.ready()) << runner.error();
  const std::string in = path("in.fasta");
  write_fasta(in, 4);

  const Json resp = request(path("d.sock"), submit_request(in, path("o.afa")));
  EXPECT_FALSE(resp.get_bool("ok"));
  EXPECT_EQ(resp.get_string("code"), "overloaded");
  EXPECT_GT(resp.get_number("retry_after_ms"), 0.0);
  EXPECT_EQ(runner.daemon().counters().shed, 1u);
  EXPECT_EQ(runner.daemon().counters().accepted, 0u);
  // Nothing was journaled for the shed job.
  EXPECT_FALSE(fs::exists(journal_file("j000001")));
}

TEST_F(ServeTest, BadRequestsAreAnsweredNotFatal) {
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();
  const std::string sock = path("d.sock");

  // Malformed JSON over a raw stream.
  {
    SocketStream s = SocketStream::connect(sock);
    s.write_line("{definitely not json");
    const auto resp = s.read_line();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(Json::parse(*resp).get_string("code"), "bad_request");
  }
  // Unknown op, bad version, unknown id, relative/missing paths, bad
  // aligner, bad format — all answered with a code, daemon intact.
  EXPECT_EQ(request(sock, op("frobnicate")).get_string("code"), "bad_request");
  {
    Json::Object o;
    o.emplace("v", 99);
    o.emplace("op", "ping");
    EXPECT_EQ(request(sock, Json(std::move(o))).get_string("code"),
              "bad_request");
  }
  EXPECT_EQ(request(sock, op("status", "j999999")).get_string("code"),
            "not_found");
  EXPECT_EQ(request(sock, op("cancel", "j999999")).get_string("code"),
            "not_found");
  EXPECT_EQ(request(sock, submit_request("relative/path.fasta", path("o.afa")))
                .get_string("code"),
            "bad_request");
  EXPECT_EQ(request(sock, submit_request(path("missing.fasta"), path("o.afa")))
                .get_string("code"),
            "bad_request");
  const std::string in = path("in.fasta");
  write_fasta(in, 4);
  {
    Json::Object o = submit_request(in, path("o.afa")).as_object();
    o.insert_or_assign("aligner", Json("nope"));
    EXPECT_EQ(request(sock, Json(std::move(o))).get_string("code"),
              "bad_request");
  }
  {
    Json::Object o = submit_request(in, path("o.afa")).as_object();
    o.insert_or_assign("format", Json("msf"));
    EXPECT_EQ(request(sock, Json(std::move(o))).get_string("code"),
              "bad_request");
  }
  // The daemon took all of it in stride.
  const Json ping = request(sock, op("ping"));
  EXPECT_TRUE(ping.get_bool("ok"));
  EXPECT_EQ(ping.get_string("state"), "serving");
  EXPECT_GE(runner.daemon().counters().bad_requests, 6u);
}

TEST_F(ServeTest, OutOfRangeNumbersAreBadRequests) {
  // Numbers far outside int's range reach the daemon as doubles. It must
  // answer bad_request without casting them (undefined behaviour) and keep
  // serving.
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();
  const std::string sock = path("d.sock");
  const std::string in = path("in.fasta");
  write_fasta(in, 4);
  for (const char* field : {"procs", "threads"}) {
    for (const double value : {1e300, -1e300}) {
      SCOPED_TRACE(std::string(field) + "=" + std::to_string(value));
      Json::Object o = submit_request(in, path("o.afa")).as_object();
      o.insert_or_assign(field, Json(value));
      EXPECT_EQ(request(sock, Json(std::move(o))).get_string("code"),
                "bad_request");
    }
  }
  {
    Json::Object o = op("ping").as_object();
    o.insert_or_assign("v", Json(1e300));
    EXPECT_EQ(request(sock, Json(std::move(o))).get_string("code"),
              "bad_request");
  }
  EXPECT_TRUE(request(sock, op("ping")).get_bool("ok"));
  EXPECT_EQ(runner.daemon().counters().accepted, 0u);
}

TEST_F(ServeTest, CancelQueuedJobIsTerminalWithExit4) {
  const std::string big = path("big.fasta");
  const std::string small = path("small.fasta");
  write_fasta(big, 120, 200);  // holds the executor while we cancel B
  write_fasta(small, 4);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();
  const std::string sock = path("d.sock");

  const Json a = request(sock, submit_request(big, path("a.afa")));
  ASSERT_TRUE(a.get_bool("ok")) << a.dump();
  const Json b = request(sock, submit_request(small, path("b.afa")));
  ASSERT_TRUE(b.get_bool("ok")) << b.dump();

  const Json cancel = request(sock, op("cancel", b.get_string("id")));
  ASSERT_TRUE(cancel.get_bool("ok")) << cancel.dump();
  EXPECT_EQ(cancel.get_string("state"), "cancelled");

  const Json job = wait_terminal(sock, b.get_string("id"));
  EXPECT_EQ(job.get_string("state"), "cancelled");
  EXPECT_EQ(job.get_number("exit_code", -1), cli::kExitDeadline);
  // Cancelling a terminal job is its own error, not a crash.
  EXPECT_EQ(request(sock, op("cancel", b.get_string("id"))).get_string("code"),
            "already_terminal");
  // Cancel the running job too so the teardown drain is immediate.
  (void)request(sock, op("cancel", a.get_string("id")));
}

TEST_F(ServeTest, DeadlineEvictionLeavesResumableCheckpoint) {
  const std::string in = path("in.fasta");
  write_fasta(in, 60, 150);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();
  const std::string sock = path("d.sock");

  Json::Object o = submit_request(in, path("out.afa")).as_object();
  o.insert_or_assign("deadline", Json(1e-6));  // blows at the first boundary
  const Json ack = request(sock, Json(std::move(o)));
  ASSERT_TRUE(ack.get_bool("ok")) << ack.dump();
  const std::string id = ack.get_string("id");

  const Json job = wait_terminal(sock, id);
  EXPECT_EQ(job.get_string("state"), "evicted") << job.dump();
  EXPECT_EQ(job.get_number("exit_code", -1), cli::kExitDeadline);
  EXPECT_EQ(runner.daemon().counters().evicted, 1u);

  // Whatever checkpoint the evicted job left must verify clean.
  const std::string ckpt = (fs::path(path("journal")) / "ckpt" / id).string();
  if (fs::exists(fs::path(ckpt) / "manifest.tsv")) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(
        cli::dispatch(argv({"stages", "--dir", ckpt, "--verify"}), out, err),
        0)
        << out.str() << err.str();
  }
}

TEST_F(ServeTest, DrainRequeuesRunningJobAndReplayResumesBitIdentically) {
  const std::string in = path("in.fasta");
  write_fasta(in, 120, 200);
  const std::string sock = path("d.sock");
  std::string id;
  {
    DaemonRunner runner(options());  // drain deadline 0.05 s
    ASSERT_TRUE(runner.ready()) << runner.error();
    const Json ack = request(sock, submit_request(in, path("served.afa"), 3));
    ASSERT_TRUE(ack.get_bool("ok")) << ack.dump();
    id = ack.get_string("id");
    // Wait for it to actually start, then stop the daemon under it.
    (void)poll_until([&] {
      const Json st = request(sock, op("status", id));
      const Json* job = st.find("job");
      return job != nullptr && job->get_string("state") == "running";
    });
    runner.stop();
    EXPECT_TRUE(runner.error().empty()) << runner.error();
  }
  // The journal must show it queued (requeued by the drain) or — if the
  // tiny drain window happened to let it finish — done; never running.
  {
    Journal j(path("journal"));
    const std::vector<JobRecord> back = j.replay(nullptr);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_NE(back[0].state, JobState::kRunning);
  }
  {
    DaemonRunner runner(options());
    ASSERT_TRUE(runner.ready()) << runner.error();
    const Json job = wait_terminal(sock, id);
    EXPECT_EQ(job.get_string("state"), "done") << job.dump();
    EXPECT_GE(job.get_number("attempts", 0), 1.0);
  }
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(cli::dispatch(argv({"align", "--in", in, "--out",
                                path("direct.afa"), "--procs", "2"}),
                          out, err),
            0)
      << err.str();
  EXPECT_EQ(slurp(path("served.afa")), slurp(path("direct.afa")));
}

TEST_F(ServeTest, SecondDaemonOnLiveSocketIsResourceError) {
  DaemonRunner first(options());
  ASSERT_TRUE(first.ready()) << first.error();
  DaemonOptions second = options();
  second.journal_dir = path("journal2");
  Daemon d(std::move(second));
  EXPECT_THROW(d.run(), ResourceError);
}

TEST_F(ServeTest, StaleSocketFileIsReclaimed) {
  // Simulate the kill -9 residue: a bound socket file whose owner died
  // without unlinking it. Binding again must probe, reclaim, and serve.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string p = path("d.sock");
    ASSERT_LT(p.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
    ASSERT_EQ(
        ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    ::close(fd);  // the file stays on disk; nothing listens behind it
  }
  ASSERT_TRUE(fs::exists(path("d.sock")));
  SocketListener fresh(path("d.sock"));
  EXPECT_TRUE(fs::exists(path("d.sock")));
  EXPECT_FALSE(fresh.accept(10).has_value());  // serving, nobody calling
}

// ---- fault matrix -----------------------------------------------------------
// Every serve injection site — serve.journal.write, serve.journal.read,
// serve.accept, serve.read, serve.write, serve.result.write — drilled at
// per-job threads 1 and 3: armed faults must produce the documented
// response/exit codes, never a crash, hang, or torn journal state.

class ServeFaultMatrixTest : public ServeTest,
                             public ::testing::WithParamInterface<int> {
 protected:
  /// A connection the daemon dropped surfaces at the client as either a
  /// clean EOF (nullopt) or an IoError (EPIPE/mid-line close), depending
  /// on who loses the race — both are the documented "connection dropped".
  [[nodiscard]] static bool ping_dropped(const std::string& sock) {
    try {
      SocketStream s = SocketStream::connect(sock);
      s.write_line(R"({"op":"ping","v":1})");
      return !s.read_line(5000).has_value();
    } catch (const util::IoError&) {
      return true;
    }
  }

  void expect_dropped_connections(Daemon& daemon, std::uint64_t n) {
    // The counter is incremented after the peer can observe the close;
    // give the daemon loop a beat to get there.
    EXPECT_TRUE(poll_until(
        [&] { return daemon.counters().dropped_connections == n; }))
        << daemon.counters().dropped_connections;
  }

  void expect_runs_clean(const std::string& sock, const std::string& in,
                         const std::string& out, int threads) {
    const Json ack = request(sock, submit_request(in, out, threads));
    ASSERT_TRUE(ack.get_bool("ok")) << ack.dump();
    const Json job = wait_terminal(sock, ack.get_string("id"));
    EXPECT_EQ(job.get_string("state"), "done") << job.dump();
  }
};

TEST_P(ServeFaultMatrixTest, JournalWriteHardFaultRejectsSubmit) {
  const int threads = GetParam();
  const std::string in = path("in.fasta");
  write_fasta(in, 4);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();

  util::FaultInjector::instance().arm("serve.journal.write:0:*!");
  const Json resp =
      request(path("d.sock"), submit_request(in, path("out.afa"), threads));
  EXPECT_FALSE(resp.get_bool("ok"));
  EXPECT_EQ(resp.get_string("code"), "journal_error");
  util::FaultInjector::instance().disarm();

  // The rejected job left nothing behind and the daemon still serves.
  EXPECT_EQ(runner.daemon().counters().journal_errors, 1u);
  EXPECT_EQ(runner.daemon().counters().accepted, 0u);
  expect_runs_clean(path("d.sock"), in, path("out.afa"), threads);
}

TEST_P(ServeFaultMatrixTest, JournalWriteTransientFaultIsRetried) {
  const int threads = GetParam();
  const std::string in = path("in.fasta");
  write_fasta(in, 4);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();

  util::FaultInjector::instance().arm("serve.journal.write:0");
  expect_runs_clean(path("d.sock"), in, path("out.afa"), threads);
  EXPECT_EQ(runner.daemon().counters().journal_errors, 0u);
  EXPECT_GE(
      util::FaultInjector::instance().stats("serve.journal.write").failures,
      1u);
}

TEST_P(ServeFaultMatrixTest, JournalReadFaultQuarantinesOnReplay) {
  (void)GetParam();  // replay happens before any job (or thread) exists
  Journal j(path("journal"));
  JobRecord rec;
  rec.id = "j000001";
  rec.seq = 1;
  rec.spec.input = "/a/in.fasta";
  rec.spec.output = "/a/out.afa";
  j.record(rec);

  util::FaultInjector::instance().arm("serve.journal.read:0:*!");
  std::vector<std::string> quarantined;
  const std::vector<JobRecord> back = j.replay(&quarantined);
  util::FaultInjector::instance().disarm();
  EXPECT_TRUE(back.empty());
  ASSERT_EQ(quarantined.size(), 1u);

  // The unreadable record was set aside, not destroyed, and a daemon
  // starts cleanly on the damaged journal.
  EXPECT_TRUE(
      fs::exists(fs::path(path("journal")) / "jobs" / "j000001.json.corrupt"));
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();
  EXPECT_TRUE(request(path("d.sock"), op("ping")).get_bool("ok"));
}

TEST_P(ServeFaultMatrixTest, AcceptFaultDropsOneConnectionOnly) {
  const int threads = GetParam();
  const std::string in = path("in.fasta");
  write_fasta(in, 4);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();

  util::FaultInjector::instance().arm("serve.accept:0");
  EXPECT_TRUE(ping_dropped(path("d.sock")));
  util::FaultInjector::instance().disarm();
  expect_dropped_connections(runner.daemon(), 1);

  expect_runs_clean(path("d.sock"), in, path("out.afa"), threads);
}

TEST_P(ServeFaultMatrixTest, SocketReadFaultDropsConnectionDaemonSurvives) {
  const int threads = GetParam();
  const std::string in = path("in.fasta");
  write_fasta(in, 4);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();

  // Hit 0 of serve.read is causally the daemon's first read_line: the
  // client's read happens only after the daemon wrote a response, which
  // the faulted read prevents.
  util::FaultInjector::instance().arm("serve.read:0");
  EXPECT_TRUE(ping_dropped(path("d.sock")));
  util::FaultInjector::instance().disarm();
  expect_dropped_connections(runner.daemon(), 1);

  expect_runs_clean(path("d.sock"), in, path("out.afa"), threads);
}

TEST_P(ServeFaultMatrixTest, SocketWriteFaultDropsConnectionDaemonSurvives) {
  const int threads = GetParam();
  const std::string in = path("in.fasta");
  write_fasta(in, 4);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();

  // Hit 0 of serve.write is the client's request write; hit 1 is causally
  // the daemon's response write.
  util::FaultInjector::instance().arm("serve.write:1");
  EXPECT_TRUE(ping_dropped(path("d.sock")));
  util::FaultInjector::instance().disarm();
  expect_dropped_connections(runner.daemon(), 1);

  expect_runs_clean(path("d.sock"), in, path("out.afa"), threads);
}

TEST_P(ServeFaultMatrixTest, ResultWriteHardFaultFailsJobCleanly) {
  const int threads = GetParam();
  const std::string in = path("in.fasta");
  write_fasta(in, 4);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();

  util::FaultInjector::instance().arm("serve.result.write:0:*!");
  const Json ack =
      request(path("d.sock"), submit_request(in, path("out.afa"), threads));
  ASSERT_TRUE(ack.get_bool("ok")) << ack.dump();
  const Json job = wait_terminal(path("d.sock"), ack.get_string("id"));
  util::FaultInjector::instance().disarm();
  EXPECT_EQ(job.get_string("state"), "failed") << job.dump();
  EXPECT_EQ(job.get_number("exit_code", -1), cli::kExitRuntime);
  EXPECT_NE(job.get_string("error").find("serve.result.write"),
            std::string::npos)
      << job.dump();
  // The durable-write discipline means a failed result write leaves either
  // nothing or a previous complete file — never a torn one.
  EXPECT_FALSE(fs::exists(path("out.afa")));

  expect_runs_clean(path("d.sock"), in, path("out.afa"), threads);
  EXPECT_NE(slurp(path("out.afa")), "");
}

TEST_P(ServeFaultMatrixTest, ResultWriteTransientFaultIsRetried) {
  const int threads = GetParam();
  const std::string in = path("in.fasta");
  write_fasta(in, 4);
  DaemonRunner runner(options());
  ASSERT_TRUE(runner.ready()) << runner.error();

  util::FaultInjector::instance().arm("serve.result.write:0");
  expect_runs_clean(path("d.sock"), in, path("out.afa"), threads);
  EXPECT_NE(slurp(path("out.afa")), "");
  EXPECT_GE(
      util::FaultInjector::instance().stats("serve.result.write").failures,
      1u);
}

TEST_P(ServeFaultMatrixTest, MixedFaultEpisodeLeavesCleanJournal) {
  // A daemon lifetime mixing success, a journal-rejected submit, and a
  // result-write failure must end with a journal that replays with zero
  // quarantined files: atomic per-record rewrites cannot tear.
  const int threads = GetParam();
  const std::string in = path("in.fasta");
  write_fasta(in, 4);
  {
    DaemonRunner runner(options());
    ASSERT_TRUE(runner.ready()) << runner.error();
    const std::string sock = path("d.sock");

    const Json a = request(sock, submit_request(in, path("a.afa"), threads));
    ASSERT_TRUE(a.get_bool("ok")) << a.dump();
    (void)wait_terminal(sock, a.get_string("id"));
    // The in-memory state goes terminal before the record lands; wait for
    // the disk to catch up before arming journal faults at job A's file.
    ASSERT_TRUE(poll_until([&] {
      return slurp(journal_file(a.get_string("id")))
                 .find("\"state\":\"done\"") != std::string::npos;
    }));

    util::FaultInjector::instance().arm("serve.journal.write:0:*!");
    const Json b = request(sock, submit_request(in, path("b.afa"), threads));
    EXPECT_EQ(b.get_string("code"), "journal_error");
    util::FaultInjector::instance().disarm();

    util::FaultInjector::instance().arm("serve.result.write:0:*!");
    const Json c = request(sock, submit_request(in, path("c.afa"), threads));
    ASSERT_TRUE(c.get_bool("ok")) << c.dump();
    EXPECT_EQ(wait_terminal(sock, c.get_string("id")).get_string("state"),
              "failed");
    util::FaultInjector::instance().disarm();
  }  // ~DaemonRunner joins the executor: every record is on disk
  Journal j(path("journal"));
  std::vector<std::string> quarantined;
  const std::vector<JobRecord> back = j.replay(&quarantined);
  EXPECT_TRUE(quarantined.empty());
  // Job B consumed a seq but was never journaled; A and C are terminal.
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].state, JobState::kDone);
  EXPECT_EQ(back[1].state, JobState::kFailed);
  EXPECT_EQ(back[1].exit_code, cli::kExitRuntime);
}

INSTANTIATE_TEST_SUITE_P(Threads, ServeFaultMatrixTest,
                         ::testing::Values(1, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace salign::serve
