#include "monitor/modules/registry.h"

#include <stdexcept>

#include "monitor/modules/ewma_anomaly.h"
#include "monitor/modules/top_talkers.h"

namespace netqos::mon {

const std::vector<ModuleSpec>& available_modules() {
  static const std::vector<ModuleSpec> specs = {
      {"ewma-anomaly",
       "EWMA forecast anomaly scoring of each watched path's used "
       "bandwidth"},
      {"top-talkers",
       "byte-volume ranking of every polled interface and watched path"},
  };
  return specs;
}

std::unique_ptr<Module> make_module(const std::string& name) {
  if (name == "ewma-anomaly") return std::make_unique<EwmaAnomalyModule>();
  if (name == "top-talkers") return std::make_unique<TopTalkersModule>();
  return nullptr;
}

std::vector<std::unique_ptr<Module>> make_modules(const std::string& list) {
  std::vector<std::unique_ptr<Module>> modules;
  if (list == "all") {
    for (const ModuleSpec& spec : available_modules()) {
      modules.push_back(make_module(spec.name));
    }
    return modules;
  }
  std::size_t begin = 0;
  while (begin <= list.size()) {
    std::size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string name = list.substr(begin, end - begin);
    begin = end + 1;
    if (name.empty()) continue;
    auto module = make_module(name);
    if (module == nullptr) {
      std::string known;
      for (const ModuleSpec& spec : available_modules()) {
        if (!known.empty()) known += ", ";
        known += spec.name;
      }
      throw std::invalid_argument("unknown module '" + name +
                                  "' (available: " + known + ")");
    }
    modules.push_back(std::move(module));
  }
  return modules;
}

}  // namespace netqos::mon
