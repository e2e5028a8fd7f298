#include "probe/registry.h"

#include <algorithm>
#include <stdexcept>

#include "probe/packet_pair.h"
#include "probe/packet_train.h"
#include "probe/periodic.h"

namespace netqos::probe {

const std::vector<std::string>& available_estimators() {
  static const std::vector<std::string> kNames = {"pair", "train",
                                                  "periodic"};
  return kNames;
}

bool is_estimator_name(const std::string& name) {
  const auto& names = available_estimators();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::vector<std::string> estimator_names(const std::string& list) {
  if (list == "all") return available_estimators();
  std::vector<std::string> names;
  std::string item;
  for (const char c : list + ",") {
    if (c == ',') {
      if (!item.empty()) names.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  return names;
}

std::unique_ptr<Estimator> make_estimator(const std::string& name,
                                          sim::Host& source,
                                          sim::Ipv4Address target,
                                          ProbedPath path) {
  if (name == "pair") {
    return std::make_unique<PacketPairEstimator>(source, target,
                                                 std::move(path));
  }
  if (name == "train") {
    return std::make_unique<PacketTrainEstimator>(source, target,
                                                  std::move(path));
  }
  if (name == "periodic") {
    return std::make_unique<PeriodicStreamEstimator>(source, target,
                                                     std::move(path));
  }
  throw std::invalid_argument("unknown estimator: " + name);
}

}  // namespace netqos::probe
