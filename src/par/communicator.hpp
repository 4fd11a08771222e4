#pragma once
/// \file communicator.hpp
/// \brief Simulated MPI communicator (the in-process substitute for MPI;
/// ARCHITECTURE.md, "The distributed layer").
///
/// The paper benchmarks on up to 512 MPI cores. This container has no MPI;
/// we reproduce the *semantics* the AMR algorithms rely on — rank counts,
/// contiguous rank ranges over the global quadrant sequence — with
/// deterministic in-process execution. The substrate is a real sharded
/// runtime (message_queue.hpp): run_ranks spawns one worker thread per
/// rank, wired to per-rank MPSC mailboxes, and ranks talk through tagged
/// messages (RankCtx's isend and recv).
/// The Communicator itself stays a cheap copyable value (Forest stores one
/// by value); mailboxes live only for the duration of a run_ranks call.

#include <cstdint>
#include <utility>
#include <vector>

#include "par/message_queue.hpp"

namespace qforest::par {

/// A communicator of \p size simulated ranks.
class Communicator {
 public:
  explicit Communicator(int size = 1);

  [[nodiscard]] int size() const { return size_; }

  /// Run \p fn(RankCtx&) once per rank, each rank on its own worker
  /// thread with a mailbox in a fresh RankGroup (size 1 runs inline).
  /// The ctx offers isend and a matching recv; see message_queue.hpp for
  /// the threading contract.
  template <class Fn>
  void run_ranks(Fn&& fn) const {
    RankGroup group(size_);
    group.run(std::forward<Fn>(fn));
  }

  /// Split \p n items into size() contiguous chunks as evenly as possible
  /// (the classical block distribution). Returns size()+1 offsets.
  [[nodiscard]] std::vector<std::int64_t> block_distribution(
      std::int64_t n) const;

  /// Rank owning global index \p g under offsets from block_distribution /
  /// weighted partitioning: the unique r with offsets[r] <= g < offsets[r+1].
  static int owner_of(const std::vector<std::int64_t>& offsets,
                      std::int64_t g);

 private:
  int size_;
};

}  // namespace qforest::par
