#include "monitor/modules/bandwidth_module.h"

#include <set>

#include "history/store.h"

namespace netqos::mon {

void BandwidthModule::produce(ModuleCore& core, SimTime round_start) {
  ++rounds_;

  // Per-connection usage first: each connection on any watched path gets
  // one point per round (paths may share connections).
  std::set<std::size_t> touched;
  for (const WatchedPath& watched : core.watched_paths()) {
    touched.insert(watched.path->begin(), watched.path->end());
  }
  for (std::size_t ci : touched) {
    const ConnectionUsage usage =
        core.calculator().connection_usage(ci, core.samples());
    if (usage.measured) {
      core.emit_connection_sample(ci, round_start, usage.used);
    }
  }

  for (const WatchedPath& watched : core.watched_paths()) {
    const PathUsage usage = core.evaluate_path(*watched.path, round_start);
    core.observe_path_age(usage.max_sample_age);
    if (!usage.complete) {  // first round has no rates yet
      ++paths_incomplete_;
      continue;
    }
    ++paths_emitted_;
    core.emit_path_sample(watched.key, round_start, usage);
  }
}

std::vector<ModuleNote> BandwidthModule::notes() const {
  return {{"rounds", std::to_string(rounds_)},
          {"paths_emitted", std::to_string(paths_emitted_)},
          {"paths_incomplete", std::to_string(paths_incomplete_)}};
}

}  // namespace netqos::mon
