#include "monitor/modules/bandwidth_module.h"

#include <algorithm>

namespace netqos::mon {

void BandwidthModule::produce(ModuleCore& core, SimTime round_start) {
  ++rounds_;
  const std::vector<WatchedPath>& watched = core.watched_paths();

  // Per-connection usage first: each connection on any watched path gets
  // one point per round (paths may share connections), in index order.
  touched_.clear();
  for (const WatchedPath& path : watched) {
    touched_.insert(touched_.end(), path.path->begin(), path.path->end());
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (std::size_t ci : touched_) {
    const ConnectionUsage usage =
        core.calculator().connection_usage(ci, core.samples());
    if (usage.measured) {
      core.emit_connection_sample(ci, round_start, usage.used);
    }
  }

  for (std::size_t i = 0; i < watched.size(); ++i) {
    const PathUsage usage = core.evaluate_path(i, round_start);
    core.observe_path_age(usage.max_sample_age);
    if (!usage.complete) {  // first round has no rates yet
      ++paths_incomplete_;
      continue;
    }
    ++paths_emitted_;
    core.emit_path_sample(i, round_start, usage);
  }
}

std::vector<ModuleNote> BandwidthModule::notes() const {
  return {{"rounds", std::to_string(rounds_)},
          {"paths_emitted", std::to_string(paths_emitted_)},
          {"paths_incomplete", std::to_string(paths_incomplete_)}};
}

}  // namespace netqos::mon
