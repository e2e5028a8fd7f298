// Estimator factory: the one list of active-probing methods, shared by
// the CLIs' --probe lists, the shootout experiment, and tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "probe/estimator.h"

namespace netqos::probe {

/// Estimator names make_estimator accepts, in canonical order.
const std::vector<std::string>& available_estimators();

/// True when `name` is a known estimator name.
bool is_estimator_name(const std::string& name);

/// A --probe list as names: "all" is every estimator in canonical
/// order, anything else splits at commas, empty items dropped. Names are
/// not checked here; make_estimator rejects an unknown one.
std::vector<std::string> estimator_names(const std::string& list);

/// Builds the named estimator with its default configuration. Throws
/// std::invalid_argument for an unknown name.
std::unique_ptr<Estimator> make_estimator(const std::string& name,
                                          sim::Host& source,
                                          sim::Ipv4Address target,
                                          ProbedPath path);

}  // namespace netqos::probe
