#pragma once

// Layer-by-layer replays of the product's alignment paths, built only from
// the library's public per-layer entry points (kmer, core partition, msa
// phases, bio I/O). Every call into a layer is wrapped in a span.

#include <span>
#include <string>
#include <vector>

#include "bio/sequence.hpp"
#include "msa/alignment.hpp"
#include "trace.hpp"

namespace perfbench {

/// Where the spans of one replay go.
struct TraceSite {
  Tracer& tracer;
  int run = 0;
  int rank = 0;
  int parent = -1;
  bool thread_cpu = false;  ///< rank workers charge their own thread's CPU
};

/// MiniMuscle with its default options, phase by phase: k-mer distance
/// matrix -> UPGMA -> progressive, then induced-Kimura distances -> UPGMA
/// -> progressive, rows restored to input order. Must reproduce
/// msa::MuscleAligner (and so `salign align --procs 1`) byte for byte.
salign::msa::Alignment replay_muscle(
    std::span<const salign::bio::Sequence> seqs, unsigned threads,
    const TraceSite& site);

/// One call of the sequential aligner inside the pipeline: its input and
/// the alignment it returned.
struct AlignerCall {
  std::vector<salign::bio::Sequence> in;
  salign::msa::Alignment out;
};

/// What the Sample-Align-D replay observed about the domain decomposition.
struct PartitionReport {
  std::vector<std::size_t> bucket_sizes;
  std::size_t moved = 0;       ///< sequences whose bucket != home rank
  double load_factor = 0.0;    ///< largest bucket / (N / p)
  std::string error;           ///< non-empty when a partition check failed
  /// The sequential-aligner calls the library must make on this input: one
  /// per non-empty bucket, then the local ancestors when there are two or
  /// more. The probe compares them with the library's own calls.
  std::vector<AlignerCall> aligner_calls;
};

/// The Sample-Align-D pipeline (default configuration, `procs` ranks with
/// `threads` threads each) up to and including the ancestor tweak: local
/// k-mer rank, sample selection, globalized rank, regular-sampling pivots,
/// bucket partition, per-bucket MiniMuscle, local/global ancestors and the
/// profile tweak. Ranks run on their own threads. Checks that the buckets
/// cover the input exactly once and respect the 2N/p regular-sampling
/// bound.
PartitionReport replay_sample_align_d(
    std::span<const salign::bio::Sequence> seqs, int procs, unsigned threads,
    Tracer& tracer, int run);

}  // namespace perfbench
