// Duplicate-answer bookkeeping (§3).
//
// "The algorithm may generate trees that are isomorphic modulo direction...
// They represent the same result, except with different information nodes.
// We retain only the one with the highest relevance and discard the rest.
// We maintain a list of all the results generated so far to allow duplicate
// detection."
#ifndef BANKS_CORE_DEDUP_H_
#define BANKS_CORE_DEDUP_H_

#include <string>
#include <unordered_set>

namespace banks {

/// Tracks which undirected tree signatures have already been *output* and
/// which have merely been *generated*.
class DedupTable {
 public:
  /// Marks a signature as generated; returns false if seen before.
  bool MarkGenerated(const std::string& signature) {
    return generated_.insert(signature).second;
  }

  /// Marks a signature as having been emitted to the user.
  void MarkOutput(const std::string& signature) {
    output_.insert(signature);
  }
  bool WasOutput(const std::string& signature) const {
    return output_.count(signature) > 0;
  }

  size_t num_output() const { return output_.size(); }

 private:
  std::unordered_set<std::string> generated_;
  std::unordered_set<std::string> output_;
};

}  // namespace banks

#endif  // BANKS_CORE_DEDUP_H_
