#ifndef PRESTOCPP_SCHEDULE_TASK_RECOVERY_H_
#define PRESTOCPP_SCHEDULE_TASK_RECOVERY_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace presto {

/// Computes the set of task slots that must be re-created after
/// `dead_worker` died, as the fixpoint of three rules over the fragment
/// dataflow graph (`inputs_of[f]` = producer fragments feeding f):
///
///   (a) a slot hosted on the dead worker restarts if its output is still
///       needed — some consumer slot is unfinished or itself restarting
///       (for the root fragment: the coordinator has not finished the
///       result stream). This covers both unfinished victims and finished
///       ones whose retained replay buffers died with the process.
///   (b) an unfinished slot on a live worker restarts when any producer
///       fragment feeding it has a restarting slot: the replacement
///       producer re-runs with intra-task parallelism, so its frame
///       sequence is not reproducible and a partially-consumed stream
///       cannot be resumed exactly.
///
/// Victims whose output nobody needs anymore (every consumer finished,
/// e.g. producers cut off by LIMIT) are deliberately pruned: restarting
/// them would stall the replacement on a full output buffer that no one
/// ever drains.
///
/// Returned pairs are (fragment, task), in fragment-major order.
std::vector<std::pair<int, int>> ComputeRestartSet(
    const std::vector<std::vector<int>>& placement,
    const std::vector<std::vector<bool>>& finished,
    const std::vector<std::vector<int>>& inputs_of, int root_fragment,
    bool root_needed, int dead_worker);

}  // namespace presto

#endif  // PRESTOCPP_SCHEDULE_TASK_RECOVERY_H_
