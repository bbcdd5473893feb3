#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

namespace salign::util {

/// An I/O failure. `transient()` failures (interrupted writes, injected
/// faults configured as transient) are worth retrying; permanent ones
/// (missing file, permission denied) are not — retry_io() below implements
/// exactly that policy, so every disk touch in the checkpoint layer
/// distinguishes the two by construction.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what, bool transient)
      : std::runtime_error(what), transient_(transient) {}

  [[nodiscard]] bool transient() const { return transient_; }

 private:
  bool transient_;
};

/// Retry policy of retry_io(): bounded attempts with capped exponential
/// backoff. The defaults ride out a single transient failure in ~1 ms and
/// give up after 4 attempts (1 + 3 retries, ~7 ms of backoff total) — long
/// enough for injected/EINTR-class blips, short enough that a genuinely
/// broken disk fails the stage instead of hanging it.
struct RetryOptions {
  int attempts = 4;
  std::chrono::milliseconds initial_backoff{1};
  std::chrono::milliseconds max_backoff{16};
};

/// Runs `fn`, retrying when it throws a *transient* IoError, with
/// exponential backoff between attempts. Non-transient IoErrors and every
/// other exception type propagate immediately; when the attempt budget is
/// exhausted the last transient error propagates. `what` names the
/// operation in give-up diagnostics ("checkpoint.write: ...").
template <typename Fn>
auto retry_io(std::string_view what, Fn&& fn, RetryOptions opts = {})
    -> decltype(fn()) {
  std::chrono::milliseconds backoff = opts.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const IoError& e) {
      if (!e.transient() || attempt >= opts.attempts)
        throw IoError(std::string(what) + ": " + e.what() +
                          (e.transient() ? " (retries exhausted)" : ""),
                      e.transient());
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, opts.max_backoff);
    }
  }
}

/// Atomically and durably replaces `target` with `bytes`: writes a
/// temporary sibling, fsyncs it, renames it over `target`, and fsyncs the
/// containing directory. A crash at any point leaves either the old file or
/// the new one — never a torn mixture — and once this returns the bytes
/// survive power loss, which is the durability unit the checkpoint resume
/// contract is built on. Throws IoError (transient for write/sync
/// failures, so retry_io can ride out blips; non-transient when the
/// directory is unusable). Fault-injection site: "file.write" (keyed via
/// `site` when provided).
void write_file_durable(const std::filesystem::path& target,
                        std::span<const std::uint8_t> bytes,
                        std::string_view site = "file.write");

/// write_file_durable for text payloads — the CLI output path (`salign
/// align --out`, `tree --out`, `generate` reference alignments). Same
/// atomic tmp→fsync→rename→dir-fsync contract; exists so callers never
/// reach for a naked std::ofstream (salign-lint's durable-io rule bans
/// those in src/).
void write_text_file_durable(const std::filesystem::path& target,
                             std::string_view text,
                             std::string_view site = "file.write");

/// Reads a whole file. Throws IoError: non-transient when the file cannot
/// be opened, transient on short/failed reads. Fault-injection site `site`
/// (default "file.read") fires before the read.
[[nodiscard]] std::string read_file(const std::filesystem::path& path,
                                    std::string_view site = "file.read");

}  // namespace salign::util
