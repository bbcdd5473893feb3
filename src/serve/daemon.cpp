#include "serve/daemon.hpp"

#include <memory>
#include <mutex>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <span>
#include <sstream>
#include <thread>

#include "bio/fasta.hpp"
#include "cli/arg_parser.hpp"
#include "cli/commands.hpp"
#include "core/sample_align_d.hpp"
#include "msa/alignment.hpp"
#include "msa/clustal_format.hpp"
#include "util/io.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace salign::serve {

namespace fs = std::filesystem;

namespace {

[[nodiscard]] std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] Json error_response(const std::string& code,
                                  const std::string& what) {
  Json::Object o;
  o.emplace("v", kWireVersion);
  o.emplace("ok", false);
  o.emplace("code", code);
  o.emplace("error", what);
  return Json(std::move(o));
}

[[nodiscard]] std::string job_id_for(std::uint64_t seq) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "j%06llu",
                static_cast<unsigned long long>(seq));
  return buf;
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {}

Daemon::~Daemon() = default;

void Daemon::request_stop() {
  stop_.store(true);
  queue_cv_.notify_all();
}

bool Daemon::stop_requested() const {
  if (stop_.load()) return true;
  return options_.stop_flag != nullptr && *options_.stop_flag != 0;
}

bool Daemon::wait_until_ready(double timeout_seconds) {
  std::unique_lock lk(ready_mu_);
  return ready_cv_.wait_for(
      lk, std::chrono::duration<double>(timeout_seconds),
      [&] { return ready_; });
}

Daemon::Counters Daemon::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

void Daemon::log_line(const std::string& line) {
  if (options_.log == nullptr) return;
  std::lock_guard lk(log_mu_);
  *options_.log << "[serve] " << line << "\n" << std::flush;
}

void Daemon::record_best_effort(const JobRecord& rec) {
  try {
    journal_->record(rec);
  } catch (const std::exception& e) {
    // The in-memory record stays authoritative; a dead journal is an
    // operator problem the log surfaces, not a reason to lose the daemon.
    log_line("journal write failed for " + rec.id + ": " + e.what());
  }
}

void Daemon::replay_journal() {
  std::vector<std::string> quarantined;
  std::vector<JobRecord> records = journal_->replay(&quarantined);
  std::lock_guard lk(mu_);
  counters_.quarantined += quarantined.size();
  for (const auto& q : quarantined) log_line("journal: quarantined " + q);
  for (JobRecord& rec : records) {
    next_seq_ = std::max(next_seq_, rec.seq + 1);
    if (rec.state == JobState::kRunning) {
      // Interrupted mid-run (crash or kill -9). Its checkpoint directory
      // holds every stage that completed; re-queueing makes the rerun a
      // bit-identical resume, so this transition loses no work.
      rec.state = JobState::kQueued;
      rec.updated_ms = now_ms();
      record_best_effort(rec);
      log_line("replay: " + rec.id + " was running; re-queued for resume");
    }
    if (rec.state == JobState::kQueued) {
      queue_.push_back(rec.id);
      ++counters_.replayed;
    }
    jobs_.emplace(rec.id, std::move(rec));
  }
  if (!jobs_.empty())
    log_line("replayed " + std::to_string(jobs_.size()) + " job(s), " +
             std::to_string(queue_.size()) + " queued");
}

void Daemon::run() {
  if (options_.socket_path.empty() || options_.journal_dir.empty())
    throw ResourceError("serve: --socket and --journal-dir are required");
  journal_.emplace(options_.journal_dir);  // ResourceError when unusable
  replay_journal();
  SocketListener listener(options_.socket_path);  // ResourceError on bind
  {
    std::lock_guard lk(ready_mu_);
    ready_ = true;
  }
  ready_cv_.notify_all();
  log_line("serving on " + options_.socket_path + " (journal " +
           options_.journal_dir + ", queue limit " +
           std::to_string(options_.queue_limit) + ")");

  std::thread executor([this] { executor_loop(); });
  try {
    while (!stop_requested()) {
      std::optional<SocketStream> conn;
      try {
        conn = listener.accept(200);
      } catch (const util::IoError& e) {
        // Includes injected "serve.accept" faults: the connection is
        // dropped (peer sees EOF), the daemon keeps serving.
        {
          std::lock_guard lk(mu_);
          ++counters_.dropped_connections;
        }
        log_line("accept failed: " + std::string(e.what()));
        continue;
      }
      if (conn.has_value()) handle_connection(std::move(*conn));
    }
  } catch (...) {
    request_stop();
    executor.join();
    throw;
  }
  request_stop();
  drain();
  executor.join();
  const Counters c = counters();
  log_line("stopped: accepted " + std::to_string(c.accepted) + ", done " +
           std::to_string(c.done) + ", failed " + std::to_string(c.failed) +
           ", evicted " + std::to_string(c.evicted) + ", cancelled " +
           std::to_string(c.cancelled) + ", requeued " +
           std::to_string(c.requeued) + ", shed " + std::to_string(c.shed));
}

void Daemon::drain() {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.drain_deadline_seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard lk(mu_);
      if (running_id_.empty()) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::lock_guard lk(mu_);
  if (!running_id_.empty() && running_cancel_ != nullptr) {
    log_line("drain deadline passed; cancelling " + running_id_ +
             " (it will checkpoint and resume on next start)");
    draining_.store(true);
    running_cancel_->request();
  }
}

void Daemon::handle_connection(SocketStream stream) {
  try {
    while (std::optional<std::string> line = stream.read_line(5000)) {
      if (line->empty()) continue;
      Json response;
      try {
        response = dispatch(Json::parse(*line));
      } catch (const WireError& e) {
        {
          std::lock_guard lk(mu_);
          ++counters_.bad_requests;
        }
        response = error_response("bad_request", e.what());
      }
      stream.write_line(response.dump());
    }
  } catch (const util::IoError& e) {
    // Read/write faults (real or injected "serve.read"/"serve.write"):
    // the connection dies, the daemon does not.
    {
      std::lock_guard lk(mu_);
      ++counters_.dropped_connections;
    }
    log_line("connection dropped: " + std::string(e.what()));
  }
}

Json Daemon::dispatch(const Json& request) {
  const double v = request.get_number("v", kWireVersion);
  if (v != static_cast<double>(kWireVersion))
    return error_response("bad_request",
                          "unsupported protocol version " +
                              util::fmt("%g", v) +
                              " (this daemon speaks v" +
                              std::to_string(kWireVersion) + ")");
  const std::string op = request.get_string("op");
  if (op == "submit") return op_submit(request);
  if (op == "status") return op_status(request);
  if (op == "jobs") return op_jobs();
  if (op == "cancel") return op_cancel(request);
  if (op == "ping") return op_ping();
  if (op == "shutdown") {
    log_line("shutdown requested; draining");
    request_stop();
    Json::Object o;
    o.emplace("v", kWireVersion);
    o.emplace("ok", true);
    o.emplace("state", "draining");
    return Json(std::move(o));
  }
  {
    std::lock_guard lk(mu_);
    ++counters_.bad_requests;
  }
  return error_response("bad_request", "unknown op '" + op + "'");
}

Json Daemon::op_submit(const Json& request) {
  if (stop_requested())
    return error_response("shutting_down", "daemon is draining");
  JobSpec spec;
  try {
    spec = JobSpec::from_json(request);
    if (spec.output.empty()) throw WireError("job spec: 'out' is required");
    if (!fs::path(spec.input).is_absolute() ||
        !fs::path(spec.output).is_absolute())
      throw WireError("job spec: 'in' and 'out' must be absolute paths "
                      "(the daemon's cwd is not the client's)");
    if (!fs::exists(spec.input))
      throw WireError("job spec: input " + spec.input + " does not exist");
    if (spec.aligner != "muscle")
      (void)cli::make_aligner(spec.aligner, 1);  // UsageError on bad names
  } catch (const cli::UsageError& e) {
    std::lock_guard lk(mu_);
    ++counters_.bad_requests;
    return error_response("bad_request", e.what());
  } catch (const WireError& e) {
    std::lock_guard lk(mu_);
    ++counters_.bad_requests;
    return error_response("bad_request", e.what());
  }

  JobRecord rec;
  {
    std::lock_guard lk(mu_);
    if (queue_.size() >= static_cast<std::size_t>(options_.queue_limit)) {
      ++counters_.shed;
      // Load shedding, not silent queueing: the client gets an explicit
      // back-off hint that grows with the backlog.
      const std::uint64_t retry_ms = std::min<std::uint64_t>(
          5000, 100 * (queue_.size() + 1));
      Json resp = error_response("overloaded",
                                 "queue full (" +
                                     std::to_string(queue_.size()) + "/" +
                                     std::to_string(options_.queue_limit) +
                                     " jobs queued)");
      Json::Object o = resp.as_object();
      o.emplace("retry_after_ms", retry_ms);
      return Json(std::move(o));
    }
    rec.seq = next_seq_++;
    rec.id = job_id_for(rec.seq);
    rec.state = JobState::kQueued;
    rec.spec = std::move(spec);
    rec.submitted_ms = now_ms();
    rec.updated_ms = rec.submitted_ms;
  }
  // Durability before acknowledgment: the record must be on disk before
  // the client hears "queued" — an acknowledged job survives kill -9.
  try {
    journal_->record(rec);
  } catch (const std::exception& e) {
    std::lock_guard lk(mu_);
    ++counters_.journal_errors;
    return error_response("journal_error",
                          std::string("job not accepted: ") + e.what());
  }
  std::size_t depth = 0;
  {
    std::lock_guard lk(mu_);
    jobs_.emplace(rec.id, rec);
    queue_.push_back(rec.id);
    depth = queue_.size();
    ++counters_.accepted;
  }
  queue_cv_.notify_one();
  log_line("accepted " + rec.id + " (" + rec.spec.input + ", queue depth " +
           std::to_string(depth) + ")");
  Json::Object o;
  o.emplace("v", kWireVersion);
  o.emplace("ok", true);
  o.emplace("id", rec.id);
  o.emplace("state", to_string(rec.state));
  o.emplace("queue_depth", static_cast<std::uint64_t>(depth));
  return Json(std::move(o));
}

Json Daemon::op_status(const Json& request) {
  const std::string id = request.get_string("id");
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    return error_response("not_found", "no job '" + id + "'");
  Json::Object o;
  o.emplace("v", kWireVersion);
  o.emplace("ok", true);
  o.emplace("job", it->second.to_json());
  return Json(std::move(o));
}

Json Daemon::op_jobs() const {
  std::lock_guard lk(mu_);
  std::vector<const JobRecord*> ordered;
  ordered.reserve(jobs_.size());
  for (const auto& [_, rec] : jobs_) ordered.push_back(&rec);
  std::sort(ordered.begin(), ordered.end(),
            [](const JobRecord* a, const JobRecord* b) {
              return a->seq < b->seq;
            });
  Json::Array arr;
  for (const JobRecord* rec : ordered) arr.push_back(rec->to_json());
  Json::Object o;
  o.emplace("v", kWireVersion);
  o.emplace("ok", true);
  o.emplace("jobs", Json(std::move(arr)));
  return Json(std::move(o));
}

Json Daemon::op_cancel(const Json& request) {
  const std::string id = request.get_string("id");
  JobRecord terminal_copy;
  bool journal_it = false;
  Json response;
  {
    std::lock_guard lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
      return error_response("not_found", "no job '" + id + "'");
    JobRecord& rec = it->second;
    if (is_terminal(rec.state))
      return error_response("already_terminal",
                            "job " + id + " is already " +
                                to_string(rec.state));
    Json::Object o;
    o.emplace("v", kWireVersion);
    o.emplace("ok", true);
    o.emplace("id", id);
    if (rec.state == JobState::kQueued) {
      queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                   queue_.end());
      rec.state = JobState::kCancelled;
      rec.exit_code = cli::kExitDeadline;
      rec.error = "cancelled while queued";
      rec.updated_ms = now_ms();
      ++counters_.cancelled;
      terminal_copy = rec;
      journal_it = true;
      o.emplace("state", to_string(rec.state));
    } else {  // running: cooperative — the pipeline stops at a boundary
      if (running_cancel_ != nullptr) running_cancel_->request();
      o.emplace("state", "cancelling");
    }
    response = Json(std::move(o));
  }
  if (journal_it) record_best_effort(terminal_copy);
  return response;
}

Json Daemon::op_ping() const {
  std::lock_guard lk(mu_);
  Json::Object counts;
  counts.emplace("accepted", counters_.accepted);
  counts.emplace("shed", counters_.shed);
  counts.emplace("bad_requests", counters_.bad_requests);
  counts.emplace("journal_errors", counters_.journal_errors);
  counts.emplace("dropped_connections", counters_.dropped_connections);
  counts.emplace("done", counters_.done);
  counts.emplace("failed", counters_.failed);
  counts.emplace("evicted", counters_.evicted);
  counts.emplace("cancelled", counters_.cancelled);
  counts.emplace("requeued", counters_.requeued);
  counts.emplace("replayed", counters_.replayed);
  counts.emplace("quarantined", counters_.quarantined);
  Json::Object o;
  o.emplace("v", kWireVersion);
  o.emplace("ok", true);
  o.emplace("state", stop_.load() ? "draining" : "serving");
  o.emplace("pid", static_cast<std::int64_t>(::getpid()));
  o.emplace("queued", static_cast<std::uint64_t>(queue_.size()));
  o.emplace("running", running_id_);
  o.emplace("counters", Json(std::move(counts)));
  return Json(std::move(o));
}

void Daemon::executor_loop() {
  for (;;) {
    JobRecord rec;
    std::shared_ptr<util::CancelToken> tok;
    {
      std::unique_lock lk(mu_);
      queue_cv_.wait(lk, [&] { return stop_.load() || !queue_.empty(); });
      // Stop wins even with work queued: queued jobs are journaled and
      // re-enter the queue on the next start.
      if (stop_.load()) return;
      const std::string id = queue_.front();
      queue_.pop_front();
      const auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second.state != JobState::kQueued)
        continue;  // cancelled between enqueue and dequeue
      it->second.state = JobState::kRunning;
      it->second.attempts += 1;
      it->second.updated_ms = now_ms();
      rec = it->second;
      tok = std::make_shared<util::CancelToken>();
      running_id_ = id;
      running_cancel_ = tok;
    }
    record_best_effort(rec);
    log_line("running " + rec.id + " (attempt " +
             std::to_string(rec.attempts) + ")");
    const Outcome out = run_job(rec, tok);
    {
      std::lock_guard lk(mu_);
      const auto it = jobs_.find(rec.id);
      if (it != jobs_.end()) {
        it->second.state = out.state;
        it->second.exit_code = out.exit_code;
        it->second.error = out.error;
        it->second.updated_ms = now_ms();
        rec = it->second;
      }
      switch (out.state) {
        case JobState::kDone: ++counters_.done; break;
        case JobState::kFailed: ++counters_.failed; break;
        case JobState::kEvicted: ++counters_.evicted; break;
        case JobState::kCancelled: ++counters_.cancelled; break;
        case JobState::kQueued:
          // Drain interrupted it: back on the queue (front — it resumes
          // first next start) with its checkpoint intact.
          queue_.push_front(rec.id);
          ++counters_.requeued;
          break;
        case JobState::kRunning: break;  // unreachable
      }
      running_id_.clear();
      running_cancel_.reset();
    }
    record_best_effort(rec);
    log_line(rec.id + " -> " + to_string(rec.state) +
             (rec.error.empty() ? "" : (": " + rec.error)));
  }
}

Daemon::Outcome Daemon::run_job(
    const JobRecord& rec, const std::shared_ptr<util::CancelToken>& tok) {
  const JobSpec& spec = rec.spec;
  try {
    const std::vector<bio::Sequence> seqs =
        bio::read_fasta_file(spec.input);
    core::SampleAlignDConfig cfg;
    cfg.num_procs = spec.procs;
    cfg.threads = spec.threads == 0 ? util::default_threads()
                                    : static_cast<unsigned>(spec.threads);
    if (spec.aligner != "muscle")
      cfg.local_aligner = cli::make_aligner(spec.aligner, cfg.threads);
    // Every job checkpoints into its own directory and always resumes:
    // on a fresh job the directory is empty and resume is a no-op; after
    // any interruption (deadline, cancel, drain, crash) the rerun loads
    // the completed stages back and is bit-identical to an uninterrupted
    // run — the recovery contract inherited from core/stage.
    cfg.checkpoint.dir = journal_->checkpoint_dir(rec.id);
    cfg.checkpoint.resume = true;
    cfg.deadline_seconds = spec.deadline_seconds > 0.0
                               ? spec.deadline_seconds
                               : options_.default_deadline_seconds;
    cfg.cancel = tok;
    const msa::Alignment aln = core::SampleAlignD(cfg).align(seqs);
    std::ostringstream os;
    if (spec.format == "clustal") {
      msa::write_clustal(os, aln);
    } else {
      msa::write_aligned_fasta(os, aln);
    }
    const std::string text = os.str();
    util::retry_io("serve.result.write", [&] {
      util::write_file_durable(
          spec.output,
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(text.data()),
              text.size()),
          "serve.result.write");
    });
    return {JobState::kDone, cli::kExitOk, ""};
  } catch (const util::DeadlineExceeded& e) {
    // Deadline eviction: the stage machinery guarantees the checkpoint
    // left behind is verify-clean, so an operator (or a resubmit with a
    // bigger budget) resumes instead of restarting.
    return {JobState::kEvicted, cli::kExitDeadline, e.what()};
  } catch (const util::CancelledError& e) {
    if (draining_.load()) return {JobState::kQueued, cli::kExitOk, ""};
    return {JobState::kCancelled, cli::kExitDeadline, e.what()};
  } catch (...) {
    cli::ErrorClass c = cli::classify_exception();
    return {JobState::kFailed, c.exit_code, std::move(c.what)};
  }
}

}  // namespace salign::serve
