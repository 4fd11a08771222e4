#include "par/communicator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace qforest::par {

Communicator::Communicator(int size) : size_(size) {
  if (size < 1) {
    throw std::invalid_argument("Communicator size must be positive");
  }
}

std::vector<std::int64_t> Communicator::block_distribution(
    std::int64_t n) const {
  std::vector<std::int64_t> offsets(size_ + 1);
  for (int r = 0; r <= size_; ++r) {
    offsets[r] = n * r / size_;
  }
  return offsets;
}

int Communicator::owner_of(const std::vector<std::int64_t>& offsets,
                           std::int64_t g) {
  assert(!offsets.empty());
  assert(g >= offsets.front() && g < offsets.back());
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), g);
  return static_cast<int>(it - offsets.begin()) - 1;
}

}  // namespace qforest::par
