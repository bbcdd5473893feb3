#include "replay.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>

#include "align/distance.hpp"
#include "bio/substitution_matrix.hpp"
#include "core/partition.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/consensus.hpp"
#include "msa/guide_tree.hpp"
#include "msa/muscle_like.hpp"
#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "msa/progressive.hpp"

namespace perfbench {

namespace {

using salign::bio::Sequence;
using salign::msa::Alignment;

const salign::bio::SubstitutionMatrix& matrix() {
  return salign::bio::SubstitutionMatrix::blosum62();
}

Alignment reorder_to_input(const Alignment& aln,
                           std::span<const Sequence> seqs) {
  std::unordered_map<std::string, std::size_t> row_by_id;
  for (std::size_t r = 0; r < aln.num_rows(); ++r)
    row_by_id.emplace(aln.row(r).id, r);
  std::vector<std::size_t> order;
  order.reserve(seqs.size());
  for (const auto& s : seqs) order.push_back(row_by_id.at(s.id()));
  return aln.subset(order);
}

/// Runs fn(rank) on one thread per rank and rethrows the first failure
/// after every thread has joined.
void for_each_rank(int procs, const std::function<void(int)>& fn) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(procs));
  {
    std::vector<std::jthread> workers;  // joined on scope exit, throw or not
    workers.reserve(static_cast<std::size_t>(procs));
    for (int r = 0; r < procs; ++r)
      workers.emplace_back([&, r] {
        try {
          fn(r);
        } catch (...) {
          errors[static_cast<std::size_t>(r)] = std::current_exception();
        }
      });
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

struct Ranked {
  std::size_t index;
  double rank;
};

void sort_ranked(std::vector<Ranked>& v) {
  std::sort(v.begin(), v.end(), [](const Ranked& a, const Ranked& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.index < b.index;
  });
}

}  // namespace

Alignment replay_muscle(std::span<const Sequence> seqs, unsigned threads,
                        const TraceSite& site) {
  if (seqs.size() == 1) return Alignment::from_sequence(seqs[0]);
  const auto span = [&](const char* name) {
    return std::make_unique<Tracer::Scope>(site.tracer, name, site.parent,
                                           site.run, site.rank, threads,
                                           site.thread_cpu);
  };
  const std::size_t n = seqs.size();
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2;

  salign::util::SymmetricMatrix<double> d;
  {
    auto s = span("kmer.distance_matrix");
    d = salign::kmer::distance_matrix(seqs, salign::kmer::KmerParams{});
    s->add_work(pairs);
  }
  salign::msa::ProgressiveOptions po;
  po.gaps = matrix().default_gaps();
  po.threads = threads;
  auto tree = [&] {
    auto s = span("msa.upgma");
    auto t = salign::msa::GuideTree::upgma(d);
    po.weights = t.leaf_weights();
    return t;
  }();
  Alignment aln;
  {
    auto s = span("msa.progressive1");
    aln = salign::msa::progressive_align(seqs, tree, matrix(), po);
    s->add_work(static_cast<double>(n - 1));
  }
  aln = reorder_to_input(aln, seqs);
  {
    auto s = span("msa.kimura");
    d = salign::align::pairwise_distance_matrix(
        n, threads, [&](std::size_t i, std::size_t j) {
          const auto& a = aln.row(i).cells;
          const auto& b = aln.row(j).cells;
          std::size_t cols = 0;
          std::size_t matches = 0;
          for (std::size_t c = 0; c < a.size(); ++c) {
            if (a[c] == Alignment::kGap || b[c] == Alignment::kGap) continue;
            ++cols;
            if (a[c] == b[c]) ++matches;
          }
          const double identity =
              cols == 0 ? 0.0
                        : static_cast<double>(matches) /
                              static_cast<double>(cols);
          return salign::align::kimura_distance(identity);
        });
    s->add_work(pairs);
  }
  tree = [&] {
    auto s = span("msa.upgma");
    auto t = salign::msa::GuideTree::upgma(d);
    po.weights = t.leaf_weights();
    return t;
  }();
  {
    auto s = span("msa.progressive2");
    aln = salign::msa::progressive_align(seqs, tree, matrix(), po);
    s->add_work(static_cast<double>(n - 1));
  }
  aln = reorder_to_input(aln, seqs);
  aln.validate();
  return aln;
}

PartitionReport replay_sample_align_d(std::span<const Sequence> seqs,
                                      int procs, unsigned threads,
                                      Tracer& tracer, int run) {
  const auto up = static_cast<std::size_t>(procs);
  const std::size_t n = seqs.size();
  const salign::kmer::KmerParams kp{};
  const auto top = [&](const char* name) {
    return std::make_unique<Tracer::Scope>(tracer, name, -1, run, 0, threads,
                                           false);
  };
  const auto seqs_of = [&](const std::vector<Ranked>& part) {
    std::vector<Sequence> out;
    out.reserve(part.size());
    for (const Ranked& r : part) out.push_back(seqs[r.index]);
    return out;
  };

  // Contiguous blocks of w = ceil(N/p), as the pipeline deals them.
  std::vector<std::vector<Ranked>> cur(up);
  const std::size_t chunk = (n + up - 1) / up;
  for (std::size_t r = 0; r < up; ++r)
    for (std::size_t i = std::min(n, r * chunk); i < std::min(n, (r + 1) * chunk);
         ++i)
      cur[r].push_back({i, 0.0});

  {
    auto stage = top("stage.local_rank");
    for_each_rank(procs, [&](int r) {
      auto& part = cur[static_cast<std::size_t>(r)];
      Tracer::Scope s(tracer, "kmer.local_rank", stage->id(), run, r, 1, true);
      const auto ranks = salign::kmer::centralized_ranks(seqs_of(part), kp);
      for (std::size_t i = 0; i < part.size(); ++i) part[i].rank = ranks[i];
      s.add_work(static_cast<double>(part.size() * part.size()));
    });
  }

  std::vector<Sequence> samples;
  {
    auto s = top("core.partition");
    const std::size_t k = up - 1;  // the paper's default k = p - 1
    for (auto& part : cur) {
      sort_ranked(part);
      const std::size_t take = std::min(k, part.size());
      for (std::size_t i = 0; i < take; ++i)
        samples.push_back(
            seqs[part[std::min(part.size() - 1,
                               (i + 1) * part.size() / (take + 1))]
                     .index]);
    }
  }

  {
    auto stage = top("stage.global_rank");
    for_each_rank(procs, [&](int r) {
      auto& part = cur[static_cast<std::size_t>(r)];
      Tracer::Scope s(tracer, "kmer.global_rank", stage->id(), run, r, 1,
                      true);
      const auto refs = salign::kmer::build_profiles(samples, kp);
      const auto profs = salign::kmer::build_profiles(seqs_of(part), kp);
      const auto ranks = salign::kmer::ranks_against(profs, refs);
      for (std::size_t i = 0; i < part.size(); ++i) part[i].rank = ranks[i];
      s.add_work(static_cast<double>(part.size() * refs.size()));
    });
  }

  PartitionReport report;
  std::vector<std::vector<Ranked>> buckets(up);
  {
    auto s = top("core.partition");
    std::vector<double> cands;
    for (auto& part : cur) {
      sort_ranked(part);
      std::vector<double> keys;
      for (const Ranked& r : part) keys.push_back(r.rank);
      const auto regular = salign::core::regular_samples(keys, up - 1);
      cands.insert(cands.end(), regular.begin(), regular.end());
    }
    const auto pivots = salign::core::choose_pivots(std::move(cands), procs);
    for (std::size_t src = 0; src < up; ++src)
      for (const Ranked& r : cur[src]) {
        const std::size_t dst = salign::core::bucket_of(r.rank, pivots);
        buckets[dst].push_back(r);
        if (dst != src) ++report.moved;
      }
    for (auto& b : buckets) sort_ranked(b);
  }

  // Partition checks: exact cover, and the regular-sampling bound for
  // distinct keys once every block can contribute p-1 samples.
  std::set<std::size_t> seen;
  std::set<double> keys;
  std::size_t largest = 0;
  for (const auto& b : buckets) {
    report.bucket_sizes.push_back(b.size());
    largest = std::max(largest, b.size());
    for (const Ranked& r : b) {
      if (!seen.insert(r.index).second)
        report.error = "sequence " + std::to_string(r.index) +
                       " lands in two buckets";
      keys.insert(r.rank);
    }
  }
  if (seen.size() != n && report.error.empty())
    report.error = "buckets cover " + std::to_string(seen.size()) + " of " +
                   std::to_string(n) + " sequences";
  const double share = static_cast<double>(n) / procs;
  report.load_factor = static_cast<double>(largest) / share;
  if (report.error.empty() && n >= up * up && keys.size() == n &&
      static_cast<double>(largest) > 2.0 * share + 1.0)
    report.error = "bucket of " + std::to_string(largest) +
                   " exceeds the 2N/p bound " + std::to_string(2.0 * share);

  std::vector<Alignment> locals(up);
  {
    auto stage = top("stage.bucket_align");
    for_each_rank(procs, [&](int r) {
      const auto ur = static_cast<std::size_t>(r);
      if (buckets[ur].empty()) return;
      Tracer::Scope s(tracer, "msa.bucket_align", stage->id(), run, r,
                      threads, true);
      locals[ur] = replay_muscle(seqs_of(buckets[ur]), threads,
                                 {tracer, run, r, s.id(), true});
    });
  }
  for (std::size_t r = 0; r < up; ++r)
    if (!buckets[r].empty())
      report.aligner_calls.push_back({seqs_of(buckets[r]), locals[r]});

  Sequence ga;
  {
    auto stage = top("stage.ancestor");
    std::vector<Sequence> ancestors(up);
    for_each_rank(procs, [&](int r) {
      const auto ur = static_cast<std::size_t>(r);
      if (locals[ur].empty()) return;
      Tracer::Scope s(tracer, "msa.ancestor", stage->id(), run, r, 1, true);
      ancestors[ur] = salign::msa::consensus_sequence(
          locals[ur], "ancestor_" + std::to_string(r));
    });
    Tracer::Scope s(tracer, "msa.ancestor", stage->id(), run, 0, threads,
                    false);
    std::vector<Sequence> present;
    for (const Sequence& a : ancestors)
      if (!a.empty()) present.push_back(a);
    if (present.size() == 1) {
      ga = present[0];
    } else if (!present.empty()) {
      salign::msa::MuscleOptions mo;
      mo.threads = threads;
      const Alignment anc = salign::msa::MuscleAligner(mo).align(present);
      ga = salign::msa::consensus_sequence(anc, "global_ancestor");
      report.aligner_calls.push_back({present, anc});
    }
  }

  {
    auto stage = top("stage.tweak");
    for_each_rank(procs, [&](int r) {
      const auto ur = static_cast<std::size_t>(r);
      if (locals[ur].empty() || ga.empty()) return;
      Tracer::Scope s(tracer, "msa.tweak", stage->id(), run, r, 1, true);
      const salign::msa::Profile local(locals[ur], matrix());
      const salign::msa::Profile global(Alignment::from_sequence(ga),
                                        matrix());
      salign::msa::ProfileAlignOptions po;
      po.gaps = matrix().default_gaps();
      s.add_work(static_cast<double>(
          salign::msa::align_profiles(local, global, po).ops.size()));
    });
  }
  return report;
}

}  // namespace perfbench
