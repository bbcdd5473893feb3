#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/io.hpp"

namespace salign::util {

/// Thrown at an armed injection site. Derives from IoError so the
/// checkpoint retry policy treats injected faults exactly like real
/// ones: transient injections are ridden out by retry_io, non-transient
/// (or persistent-window) injections kill the operation like a dead disk.
class InjectedFault : public IoError {
 public:
  InjectedFault(const std::string& site, std::uint64_t hit, bool transient)
      : IoError("injected fault at " + site + " (hit " + std::to_string(hit) +
                    ")",
                transient),
        site_(site) {}

  [[nodiscard]] const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// Deterministic, site-keyed fault injector.
///
/// Every hardened I/O boundary in the library calls
/// `FaultInjector::instance().maybe_fail("<site>")`; the fault-matrix tests
/// arm a site to fail the k-th hit (or a seeded random subset of hits) and
/// prove the pipeline survives: transient faults are absorbed by the retry
/// layer, hard faults kill the run at a stage boundary from which --resume
/// continues bit-identically.
///
/// Sites wired in: checkpoint.write, checkpoint.read, manifest.store,
/// manifest.load, fasta.read, fasta.write, the durable-IO defaults
/// file.write and file.read (util::io, the CLI --out path), and the
/// serve daemon's serve.accept, serve.read,
/// serve.write, serve.journal.write, serve.journal.read,
/// serve.journal.probe (boot-time writability check), serve.result.write
/// (tests/serve_test.cpp drills each at 1 and 3 worker threads).
///
/// tools/salign_lint keeps this list honest: every site literal compiled
/// into src/ must appear here, in README.md, and in a tests/ or cmake/
/// drill, or the lint_salign ctest fails.
///
/// Zero-cost when disarmed: maybe_fail() is one relaxed atomic load and a
/// predicted-not-taken branch — no locks, no string hashing — so leaving
/// the sites compiled into production code costs nothing measurable
/// (BENCH_pr7.json pins this).
///
/// Activation: programmatic (arm()/arm_site(), used by tests) or the
/// SALIGN_FAULTS environment variable (read by the CLI at startup), with
/// SALIGN_FAULT_SEED seeding the probabilistic mode. Spec grammar, comma
/// separated:
///
///   site:k        fail hit k (0-based), once, transient (retried)
///   site:k:n      fail hits [k, k+n)
///   site:k:*      fail every hit from k on (outlasts retries => hard)
///   ...!          '!' suffix: non-transient (never retried)
///   site:~p       fail each hit with probability p (seeded, per-site)
///
/// e.g. SALIGN_FAULTS="checkpoint.write:2:*!,checkpoint.read:~0.25"
class FaultInjector {
 public:
  static constexpr std::uint64_t kAllHits = ~std::uint64_t{0};

  /// What an armed site does. Window mode (probability == 0): hits
  /// [first, first+count) throw. Probabilistic mode (probability > 0): each
  /// hit throws with `probability`, decided by a hash of (seed, site, hit
  /// index) — deterministic for a given seed and hit order.
  struct SitePlan {
    std::uint64_t first = 0;
    std::uint64_t count = 1;
    double probability = 0.0;
    bool transient = true;
  };

  struct SiteStats {
    std::uint64_t hits = 0;
    std::uint64_t failures = 0;
  };

  /// The process-wide injector every site consults.
  static FaultInjector& instance();

  /// Arms sites from a spec string (grammar above). Throws
  /// std::invalid_argument on malformed specs. Additive: call disarm()
  /// first for a clean slate.
  void arm(const std::string& spec);

  /// Arms one site programmatically.
  void arm_site(const std::string& site, SitePlan plan);

  /// Reads SALIGN_FAULTS (and SALIGN_FAULT_SEED); no-op when unset.
  void arm_from_env();

  /// Clears every plan and all counters; maybe_fail() returns to the
  /// zero-cost disabled path.
  void disarm();

  /// Seed of the probabilistic mode (default 0x5a11a11a).
  void seed(std::uint64_t s);

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// The injection-site entry point: no-op unless armed, else counts the
  /// hit and throws InjectedFault when the site's plan says this hit fails.
  void maybe_fail(std::string_view site) {
    if (!enabled()) [[likely]]
      return;
    maybe_fail_slow(site);
  }

  /// Hit/failure counters of one site since the last disarm().
  [[nodiscard]] SiteStats stats(const std::string& site) const;

  /// All sites seen since the last disarm(), in name order.
  [[nodiscard]] std::vector<std::pair<std::string, SiteStats>> all_stats()
      const;

 private:
  FaultInjector() = default;
  void maybe_fail_slow(std::string_view site);

  struct SiteState {
    SitePlan plan;
    bool armed = false;
    SiteStats stats;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, SiteState, std::less<>> sites_;
  std::uint64_t seed_ = 0x5a11a11a;
};

}  // namespace salign::util
