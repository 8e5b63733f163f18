#include "schedule/task_recovery.h"

namespace presto {

std::vector<std::pair<int, int>> ComputeRestartSet(
    const std::vector<std::vector<int>>& placement,
    const std::vector<std::vector<bool>>& finished,
    const std::vector<std::vector<int>>& inputs_of, int root_fragment,
    bool root_needed, int dead_worker) {
  size_t num_fragments = placement.size();
  std::vector<std::vector<bool>> restart(num_fragments);
  for (size_t f = 0; f < num_fragments; ++f) {
    restart[f].assign(placement[f].size(), false);
  }
  // Producer -> consumer edges (inverse of inputs_of).
  std::vector<std::vector<int>> consumers_of(num_fragments);
  for (size_t f = 0; f < num_fragments; ++f) {
    for (int input : inputs_of[f]) {
      consumers_of[static_cast<size_t>(input)].push_back(
          static_cast<int>(f));
    }
  }
  auto output_needed = [&](size_t f) {
    if (static_cast<int>(f) == root_fragment) return root_needed;
    for (int c : consumers_of[f]) {
      const auto& slots = finished[static_cast<size_t>(c)];
      for (size_t t = 0; t < slots.size(); ++t) {
        if (!slots[t] || restart[static_cast<size_t>(c)][t]) return true;
      }
    }
    return false;
  };
  auto any_input_restarting = [&](size_t f) {
    for (int input : inputs_of[f]) {
      for (bool r : restart[static_cast<size_t>(input)]) {
        if (r) return true;
      }
    }
    return false;
  };
  // Both rules are monotone in the restart set, so iterating to fixpoint
  // terminates (each pass either adds a slot or stops).
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t f = 0; f < num_fragments; ++f) {
      for (size_t t = 0; t < placement[f].size(); ++t) {
        if (restart[f][t]) continue;
        if (placement[f][t] == dead_worker) {
          if (output_needed(f)) {
            restart[f][t] = true;
            changed = true;
          }
        } else if (!finished[f][t] && any_input_restarting(f)) {
          restart[f][t] = true;
          changed = true;
        }
      }
    }
  }
  std::vector<std::pair<int, int>> result;
  for (size_t f = 0; f < num_fragments; ++f) {
    for (size_t t = 0; t < restart[f].size(); ++t) {
      if (restart[f][t]) {
        result.emplace_back(static_cast<int>(f), static_cast<int>(t));
      }
    }
  }
  return result;
}

}  // namespace presto
