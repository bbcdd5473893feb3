#pragma once

#include <span>

#include "bio/sequence.hpp"
#include "bio/substitution_matrix.hpp"
#include "util/stable_hash.hpp"

namespace salign::bio {

/// Folds one sequence (alphabet kind, id, residue codes) into `h`.
void hash_sequence(util::StableHash& h, const Sequence& s);

/// Deterministic content hash of a sequence set — the input key of
/// checkpoint manifests. Order-sensitive by design: aligner output depends
/// on input order, so two orderings of the same set must not collide onto
/// one checkpoint.
[[nodiscard]] util::Digest128 sequence_set_hash(
    std::span<const Sequence> seqs);

/// Folds a scoring matrix (name, alphabet, every cell, default gap
/// penalties, expected score) into `h`, so checkpoint keys derived from a
/// config cannot alias across matrices that share a name but not contents.
void hash_matrix(util::StableHash& h, const SubstitutionMatrix& m);

void hash_gaps(util::StableHash& h, const GapPenalties& g);

}  // namespace salign::bio
