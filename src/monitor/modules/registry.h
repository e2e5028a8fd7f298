// Factory registry of the optional observer modules — the set
// `netqosmon --modules LIST` can enable per run. Built-in pipeline
// modules (bandwidth) and externally owned ones (the detectors, latency
// aggregation) are not constructed here; this names only the modules a
// run opts into by name.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "monitor/module.h"

namespace netqos::mon {

struct ModuleSpec {
  std::string name;
  std::string description;
};

/// Modules constructible by name, in a stable listing order.
const std::vector<ModuleSpec>& available_modules();

/// Constructs a module by registry name; nullptr for an unknown name.
std::unique_ptr<Module> make_module(const std::string& name);

/// Comma-separated `--modules` list -> constructed modules; "all" is
/// every module in listing order. Throws std::invalid_argument naming
/// the offending entry (and the known names) on an unknown module.
std::vector<std::unique_ptr<Module>> make_modules(const std::string& list);

}  // namespace netqos::mon
