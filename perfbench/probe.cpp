// perfbench_probe: the in-process half of the benchmark (see README.md).
//
//   probe setup  --in two.fasta
//       one library alignment of a 2-sequence input (run.py times the
//       process from spawn to exit: the library's set-up time).
//   probe sp     --msa aligned.fasta
//       SP score exactly as `salign align --sp` computes it.
//   probe refs   --list cases.tsv --seconds S [--corrupt]
//       closed loop over the reference cases with the CLI defaults; per-case
//       latency, Q/TC against the references, output checks.
//   probe expect --list cases.tsv --outdir DIR
//       the in-process result of every case, written as aligned FASTA, so
//       run.py can byte-compare what the daemon served.
//   probe replay --in FILE | --list cases.tsv --procs P --threads T
//                [--out replay.afa] [--lib-out library.afa] [--t1]
//                [--chrome trace.json] [--corrupt]
//       the traced per-layer replay; prints per-layer metrics as JSON.
//       --lib-out writes the library's own result for the (first) input.
//       The library's sequential-aligner calls must match the replay's
//       (--corrupt alters one replayed bucket alignment, so they do not).
//
// Every command prints one JSON object on stdout and exits non-zero when an
// output check fails.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bio/fasta.hpp"
#include "core/sample_align_d.hpp"
#include "msa/alignment.hpp"
#include "msa/muscle_like.hpp"
#include "msa/scoring.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workload/balibase.hpp"

namespace {

using namespace perfbench;
using salign::bio::Sequence;
using salign::msa::Alignment;

struct Args {
  std::map<std::string, std::string> kv;
  [[nodiscard]] std::string get(const std::string& k,
                                const std::string& def = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  [[nodiscard]] bool has(const std::string& k) const { return kv.count(k); }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::invalid_argument("bad arg " + k);
    k = k.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
      a.kv[k] = argv[++i];
    else
      a.kv[k] = "1";
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string aligned_text(const Alignment& aln) {
  std::ostringstream os;
  salign::msa::write_aligned_fasta(os, aln);
  return os.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

Alignment read_msa(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  return salign::msa::read_aligned_fasta(in);
}

double sp_of(const Alignment& aln) {
  const auto& m = salign::bio::SubstitutionMatrix::blosum62();
  return salign::msa::sp_score(aln, m, m.default_gaps(),
                               aln.num_rows() > 256 ? 4096 : 0);
}

/// Rows must degap to the inputs, in input order.
std::string degap_error(const Alignment& aln, std::span<const Sequence> in) {
  if (aln.num_rows() != in.size())
    return "row count " + std::to_string(aln.num_rows()) + " != " +
           std::to_string(in.size());
  for (std::size_t r = 0; r < in.size(); ++r) {
    const Sequence d = aln.degapped(r);
    if (d.id() != in[r].id() ||
        !std::equal(d.codes().begin(), d.codes().end(), in[r].codes().begin(),
                    in[r].codes().end()))
      return "row " + std::to_string(r) + " (" + in[r].id() +
             ") does not degap to its input";
  }
  return "";
}

/// Seeded corruption (the benchmark's self-test): swaps the first residue
/// of the first row for another letter, so any check of the output fails.
void corrupt_first_residue(Alignment& aln) {
  auto rows = std::vector<salign::msa::AlignedRow>(aln.rows().begin(),
                                                   aln.rows().end());
  for (auto& cell : rows[0].cells)
    if (cell != Alignment::kGap) {
      cell = static_cast<std::uint8_t>((cell + 1) % 20);
      break;
    }
  aln = Alignment(std::move(rows), aln.alphabet_kind());
}

/// One reference case: `<suite> <fasta> <reference>` per line.
struct Case {
  std::string fasta;
  std::vector<Sequence> seqs;
  Alignment reference;
  std::vector<bool> core;  ///< BAliBASE core-column mask (else empty)
};

std::vector<Case> read_cases(const std::string& list, Tracer* tracer) {
  std::ifstream in(list);
  if (!in) throw std::runtime_error("cannot read " + list);
  std::vector<Case> cases;
  std::string suite;
  std::string fasta;
  std::string ref;
  while (in >> suite >> fasta >> ref) {
    Case c;
    const int run = static_cast<int>(cases.size());
    std::optional<Tracer::Scope> s;
    if (tracer) s.emplace(*tracer, "bio.io", -1, run, 0, 1, false);
    c.fasta = fasta;
    c.seqs = salign::bio::read_fasta_file(fasta);
    c.reference = read_msa(ref);
    if (suite == "balibase")
      c.core = salign::workload::core_block_mask(c.reference, 5);
    cases.push_back(std::move(c));
  }
  if (cases.empty()) throw std::runtime_error("no cases in " + list);
  return cases;
}

/// Accuracy of a case set: Q and TC against the references (BAliBASE on
/// core columns) and the SP score, summed over cases.
struct Quality {
  double q = 0.0;
  double tc = 0.0;
  double sp = 0.0;
  void add(const Alignment& aln, const Case& c) {
    q += salign::msa::q_score(aln, c.reference, c.core);
    tc += salign::msa::tc_score(aln, c.reference, c.core);
    sp += sp_of(aln);
  }
};

/// The CLI's default pipeline: Sample-Align-D, p = 4, MiniMuscle, one
/// thread per rank, artifact cache off — also what a daemon job runs.
salign::core::SampleAlignDConfig default_config() {
  salign::core::SampleAlignDConfig cfg;
  cfg.num_procs = 4;
  cfg.threads = 1;
  return cfg;
}

void print_json(const std::map<std::string, double>& nums,
                const std::vector<std::string>& errors) {
  std::printf("{");
  for (const auto& [k, v] : nums) std::printf("\"%s\": %.9g, ", k.c_str(), v);
  std::printf("\"errors\": [");
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::string e;
    for (char c : errors[i]) e += (c == '"' || c == '\\') ? '\'' : c;
    std::printf("%s\"%s\"", i ? ", " : "", e.c_str());
  }
  std::printf("]}\n");
}

int cmd_setup(const Args& a) {
  const auto seqs = salign::bio::read_fasta_file(a.get("in"));
  const Alignment aln = salign::core::SampleAlignD(default_config()).align(seqs);
  const std::string err = degap_error(aln, seqs);
  print_json({}, err.empty() ? std::vector<std::string>{}
                             : std::vector<std::string>{err});
  return err.empty() ? 0 : 1;
}

int cmd_sp(const Args& a) {
  print_json({{"sp_score", sp_of(read_msa(a.get("msa")))}}, {});
  return 0;
}

int cmd_refs(const Args& a) {
  const std::vector<Case> cases = read_cases(a.get("list"), nullptr);
  const double seconds = std::stod(a.get("seconds", "1"));
  const salign::core::SampleAlignD aligner(default_config());
  std::vector<std::string> errors;
  std::vector<std::uint64_t> digest(cases.size(), 0);
  std::vector<double> lat_ms;
  std::vector<double> best_ms(cases.size(), 1e300);
  Quality quality;
  double busy = 0.0;
  int passes = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const double t0 = now_s();
  // Closed loop, one case at a time; whole passes (at least three, so every
  // case has a best-of-three) until the time is spent.
  for (; passes < 3 || now_s() - t0 < seconds; ++passes) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      ++attempted;
      Alignment aln;
      const double s = now_s();
      try {
        aln = aligner.align(c.seqs);
      } catch (const std::exception& e) {
        ++failed;
        errors.push_back(c.fasta + ": " + e.what());
        continue;
      }
      const double dt = now_s() - s;
      busy += dt;
      lat_ms.push_back(dt * 1e3);
      best_ms[i] = std::min(best_ms[i], dt * 1e3);
      if (passes == 0 && i == 0 && a.has("corrupt")) corrupt_first_residue(aln);
      const std::string err = degap_error(aln, c.seqs);
      const std::uint64_t h = fnv1a(aligned_text(aln));
      if (!err.empty()) {
        ++failed;
        errors.push_back(c.fasta + ": " + err);
      } else if (passes == 0) {
        digest[i] = h;
        quality.add(aln, c);
      } else if (digest[i] != h) {
        ++failed;
        errors.push_back(c.fasta + ": MSA digest differs between passes");
      }
    }
  }
  const auto n = static_cast<double>(cases.size());
  print_json({{"attempted", static_cast<double>(attempted)},
              {"passes", static_cast<double>(passes)},
              {"best_p50_ms", median(best_ms)},
              {"failed", static_cast<double>(failed)},
              {"cases", n},
              {"cases_per_s", static_cast<double>(lat_ms.size()) / busy},
              {"case_p50_ms", median(lat_ms)},
              {"case_p95_ms", percentile(lat_ms, 0.95)},
              {"samples", static_cast<double>(lat_ms.size())},
              {"q_mean", quality.q / n},
              {"tc_mean", quality.tc / n},
              {"sp_score", quality.sp / n}},
             errors);
  return errors.empty() ? 0 : 1;
}

int cmd_expect(const Args& a) {
  const std::vector<Case> cases = read_cases(a.get("list"), nullptr);
  const salign::core::SampleAlignD aligner(default_config());
  const std::string dir = a.get("outdir");
  std::vector<std::string> errors;
  std::vector<double> ms;
  Quality quality;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const double s = now_s();
    const Alignment aln = aligner.align(cases[i].seqs);
    ms.push_back((now_s() - s) * 1e3);
    const std::string err = degap_error(aln, cases[i].seqs);
    if (!err.empty()) errors.push_back(cases[i].fasta + ": " + err);
    quality.add(aln, cases[i]);
    std::ofstream out(dir + "/" + std::to_string(i) + ".afa",
                      std::ios::binary);
    out << aligned_text(aln);
    if (!out) errors.push_back("cannot write expected output " +
                               std::to_string(i));
  }
  const auto n = static_cast<double>(cases.size());
  print_json({{"align_p50_ms", median(ms)},
              {"q_mean", quality.q / n},
              {"tc_mean", quality.tc / n},
              {"sp_score", quality.sp / n}},
             errors);
  return errors.empty() ? 0 : 1;
}

// ---- traced replay ----------------------------------------------------------

/// Untraced replay passes around the traced one: one before (it doubles as
/// warm-up) and two after, so drift does not land on one side of
/// trace_overhead.s.
constexpr int kUntracedPasses = 3;

/// The pipeline's sequential aligner (MiniMuscle, as SampleAlignD builds it
/// by default), recording every call so the replay can be held to what the
/// library actually does.
class RecordingAligner final : public salign::msa::MsaAlgorithm {
 public:
  explicit RecordingAligner(unsigned threads)
      : inner_([threads] {
          salign::msa::MuscleOptions o;
          o.threads = threads;
          return o;
        }()) {}

  [[nodiscard]] Alignment align(
      std::span<const Sequence> seqs) const override {
    Alignment out = inner_.align(seqs);
    const std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back({std::vector<Sequence>(seqs.begin(), seqs.end()), out});
    return out;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void hash_config(salign::util::StableHash& h) const override {
    inner_.hash_config(h);
  }

  /// The calls since the last take(), in completion order.
  std::vector<AlignerCall> take() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(calls_, {});
  }

 private:
  salign::msa::MuscleAligner inner_;
  mutable std::mutex mu_;
  mutable std::vector<AlignerCall> calls_;
};

/// Compares the aligner calls the replay expects with the library's, as
/// multisets (ranks call the aligner concurrently). Empty when they agree.
std::string compare_calls(const std::vector<AlignerCall>& want,
                          const std::vector<AlignerCall>& got) {
  const auto keyed = [](const std::vector<AlignerCall>& calls) {
    std::multimap<std::string, std::string> m;
    for (const AlignerCall& c : calls) {
      std::string key;
      for (const Sequence& s : c.in)
        key += s.id() + '\t' +
               std::string(s.codes().begin(), s.codes().end()) + '\n';
      m.emplace(std::move(key), aligned_text(c.out));
    }
    return m;
  };
  const auto w = keyed(want);
  const auto g = keyed(got);
  if (w.size() != g.size())
    return "the library made " + std::to_string(g.size()) +
           " aligner calls, the replay expects " + std::to_string(w.size());
  for (auto wi = w.begin(), gi = g.begin(); wi != w.end(); ++wi, ++gi) {
    if (wi->first != gi->first)
      return "a replayed bucket or ancestor set differs from the library's";
    if (wi->second != gi->second)
      return "a replayed bucket or ancestor alignment differs from the "
             "library's";
  }
  return "";
}

struct ReplayResult {
  double wall = 0.0;
  std::vector<Span> spans;
  std::vector<PartitionReport> runs;  ///< one per input
  std::vector<std::string> errors;
};

/// One pass of the replay over every input, traced or not. For p = 1 the
/// input goes through replay_muscle and is written out (the family path);
/// otherwise through replay_sample_align_d. Either way each run's report
/// holds the aligner calls the library must make.
ReplayResult replay_pass(const std::vector<std::vector<Sequence>>& inputs,
                         int procs, unsigned threads, bool traced,
                         const std::string& out_path) {
  Tracer tracer(traced);
  ReplayResult res;
  const double t0 = now_s();
  for (std::size_t run = 0; run < inputs.size(); ++run) {
    const auto& seqs = inputs[run];
    const int r = static_cast<int>(run);
    if (procs == 1) {
      Alignment aln;
      {
        Tracer::Scope s(tracer, "msa.bucket_align", -1, r, 0, threads, false);
        aln = replay_muscle(seqs, threads, {tracer, r, 0, s.id(), false});
      }
      if (!out_path.empty()) {
        Tracer::Scope s(tracer, "bio.io", -1, r, 0, 1, false);
        std::ofstream out(out_path, std::ios::binary);
        out << aligned_text(aln);
        if (!out) res.errors.push_back("cannot write " + out_path);
      }
      const std::string err = degap_error(aln, seqs);
      if (!err.empty()) res.errors.push_back("replay: " + err);
      PartitionReport rep;
      rep.aligner_calls.push_back({seqs, std::move(aln)});
      res.runs.push_back(std::move(rep));
    } else {
      res.runs.push_back(
          replay_sample_align_d(seqs, procs, threads, tracer, r));
      if (!res.runs.back().error.empty())
        res.errors.push_back("partition: " + res.runs.back().error);
    }
  }
  res.wall = now_s() - t0;
  res.spans = tracer.spans();
  return res;
}

int cmd_replay(const Args& a) {
  const int procs = std::stoi(a.get("procs", "1"));
  const auto threads = static_cast<unsigned>(std::stoi(a.get("threads", "1")));

  // Inputs are read once, traced as bio I/O (run 0 carries single inputs).
  Tracer io(true);
  std::vector<std::vector<Sequence>> inputs;
  const double io_t0 = now_s();
  if (a.has("list")) {
    for (Case& c : read_cases(a.get("list"), &io))
      inputs.push_back(std::move(c.seqs));
  } else {
    Tracer::Scope s(io, "bio.io", -1, 0, 0, 1, false);
    inputs.push_back(salign::bio::read_fasta_file(a.get("in")));
  }
  const double io_wall = now_s() - io_t0;

  std::vector<double> untraced;
  untraced.push_back(replay_pass(inputs, procs, threads, false, "").wall);
  ReplayResult traced =
      replay_pass(inputs, procs, threads, true, a.get("out"));
  for (int i = 1; i < kUntracedPasses; ++i)
    untraced.push_back(replay_pass(inputs, procs, threads, false, "").wall);
  if (a.has("corrupt"))
    corrupt_first_residue(traced.runs[0].aligner_calls[0].out);

  // Per-run library wall for the same inputs: what the product's own entry
  // point costs beyond the replayed layer calls. Its aligner records each
  // call, which must match the replay's buckets and bucket alignments.
  const auto recorder = std::make_shared<RecordingAligner>(threads);
  salign::core::SampleAlignDConfig cfg = default_config();
  cfg.num_procs = procs;
  cfg.threads = threads;
  cfg.local_aligner = recorder;
  const salign::core::SampleAlignD lib(cfg);
  // Layer calls on the blocking path of each run: top-level spans except
  // I/O (the library call does none), with a rank-parallel stage counted as
  // its slowest rank's layer calls (so the replay's own thread fork/join is
  // not charged to the layers).
  std::map<int, std::map<int, double>> child_s;  // stage id -> rank -> s
  for (const Span& s : traced.spans)
    if (s.parent >= 0) child_s[s.parent][s.rank] += s.end - s.start;
  std::map<int, double> layer_s_by_run;
  for (const Span& s : traced.spans) {
    if (s.parent >= 0 || s.name == "bio.io") continue;
    double secs = s.end - s.start;
    if (s.name.rfind("stage.", 0) == 0) {
      secs = 0.0;
      for (const auto& [rank, v] : child_s[s.id]) secs = std::max(secs, v);
    }
    layer_s_by_run[s.run] += secs;
  }
  std::vector<double> case_overhead_ms;
  double library_s = 0.0;
  for (std::size_t run = 0; run < inputs.size(); ++run) {
    const double s = now_s();
    const Alignment aln = lib.align(inputs[run]);
    const double wall = now_s() - s;
    case_overhead_ms.push_back(
        (wall - layer_s_by_run[static_cast<int>(run)]) * 1e3);
    const std::string err = degap_error(aln, inputs[run]);
    if (!err.empty()) traced.errors.push_back("library: " + err);
    const std::string diff =
        compare_calls(traced.runs[run].aligner_calls, recorder->take());
    if (!diff.empty())
      traced.errors.push_back("input " + std::to_string(run) + ": " + diff);
    if (run == 0) library_s = wall;
    if (run == 0 && a.has("lib-out")) {
      std::ofstream out(a.get("lib-out"), std::ios::binary);
      out << aligned_text(aln);
      if (!out) traced.errors.push_back("cannot write " + a.get("lib-out"));
    }
  }

  std::vector<Span> all = io.spans();
  const int id_base = static_cast<int>(all.size());
  for (Span s : traced.spans) {
    s.id += id_base;
    if (s.parent >= 0) s.parent += id_base;
    all.push_back(std::move(s));
  }
  const double wall = io_wall + traced.wall;
  const double blocking = top_level_seconds(all);
  const auto layers = layer_totals(all);
  const auto L = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTotal{} : it->second;
  };

  std::map<std::string, double> m;
  m["kmer.distance_matrix.s"] = L("kmer.distance_matrix").blocking_s;
  m["kmer.distance_matrix.pairs_per_s"] =
      L("kmer.distance_matrix").work_per_s();
  m["kmer.distance_matrix.cpu_util"] = L("kmer.distance_matrix").cpu_util();
  m["kmer.local_rank.s"] = L("kmer.local_rank").blocking_s;
  m["kmer.local_rank.pairs_per_s"] = L("kmer.local_rank").work_per_s();
  m["kmer.global_rank.s"] = L("kmer.global_rank").blocking_s;
  for (const char* ph : {"progressive1", "progressive2", "kimura"}) {
    const std::string k = std::string("msa.") + ph;
    m[k + ".s"] = L(k).blocking_s;
    m[k + ".cpu_util"] = L(k).cpu_util();
  }
  m["msa.merges"] = L("msa.progressive1").work + L("msa.progressive2").work;
  m["msa.upgma.s"] = L("msa.upgma").blocking_s;
  m["msa.ancestor.s"] = L("msa.ancestor").blocking_s;
  m["msa.tweak.s"] = L("msa.tweak").blocking_s;
  m["core.partition.s"] = L("core.partition").blocking_s;
  m["bio.io.s"] = L("bio.io").blocking_s;

  // Bucket balance: slowest bucket per run (the blocking path), and the
  // mean over runs of max/mean bucket time.
  std::map<int, std::vector<double>> bucket_s;
  for (const Span& s : all)
    if (s.name == "msa.bucket_align") bucket_s[s.run].push_back(s.end - s.start);
  double imbalance = 0.0;
  for (const auto& [run, v] : bucket_s) {
    double sum = 0.0;
    for (double x : v) sum += x;
    imbalance += *std::max_element(v.begin(), v.end()) /
                 (sum / static_cast<double>(v.size()));
  }
  m["msa.bucket_align.max_s"] = L("msa.bucket_align").blocking_s;
  m["msa.bucket_align.imbalance"] =
      bucket_s.empty() ? 0.0 : imbalance / static_cast<double>(bucket_s.size());
  if (procs > 1) {
    m["core.load_factor"] = traced.runs.back().load_factor;
    m["core.moved_seqs"] = static_cast<double>(traced.runs.back().moved);
  } else {
    m["core.load_factor"] = 1.0;
    m["core.moved_seqs"] = 0.0;
  }
  m["core.case_overhead_ms"] = median(case_overhead_ms);
  m["traced_wall.s"] = wall;
  m["library_wall.s"] = library_s;
  m["unattributed.s"] = wall - blocking;
  m["trace_overhead.s"] = traced.wall - median(untraced);

  for (const char* k : {"kmer.distance_matrix", "msa.kimura",
                        "msa.progressive1", "msa.progressive2"})
    m[std::string(k) + ".speedup_t4"] = 0.0;  // 0: no t = 1 baseline run
  if (a.has("t1")) {
    // The single-thread baseline of the same replay: per-layer speedup of
    // the requested thread count over t = 1.
    const ReplayResult t1 = replay_pass(inputs, procs, 1, true, "");
    const auto layers1 = layer_totals(t1.spans);
    for (const char* k : {"kmer.distance_matrix", "msa.kimura",
                          "msa.progressive1", "msa.progressive2"}) {
      const auto it = layers1.find(k);
      const double tn = L(k).blocking_s;
      m[std::string(k) + ".speedup_t4"] =
          it == layers1.end() || tn <= 0 ? 0.0 : it->second.blocking_s / tn;
    }
  }
  if (a.has("chrome")) write_chrome_trace(a.get("chrome"), all);
  std::fprintf(stderr,
               "reconciliation: traced wall %.4f s = blocking-path spans "
               "%.4f s + unattributed %.4f s (%zu spans; untraced median "
               "%.4f s)\n",
               wall, blocking, wall - blocking, all.size(), median(untraced));
  print_json(m, traced.errors);
  return traced.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_probe <command> [--key value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args a = parse_args(argc, argv);
    if (cmd == "setup") return cmd_setup(a);
    if (cmd == "sp") return cmd_sp(a);
    if (cmd == "refs") return cmd_refs(a);
    if (cmd == "expect") return cmd_expect(a);
    if (cmd == "replay") return cmd_replay(a);
    std::fprintf(stderr, "perfbench_probe: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
