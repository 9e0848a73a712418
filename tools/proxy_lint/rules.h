// proxy_lint pass 2: the rule engine.
//
// RunRules lexes one file, scans its function extents, and evaluates
// every rule (L1..L9, L11) against the cross-TU SymbolIndex built in
// pass 1.
// The Linter facade in lint.h is a thin wrapper over this entry point;
// it exists so main.cpp and the tests share one call shape.
#pragma once

#include <string>
#include <vector>

#include "proxy_lint/index.h"
#include "proxy_lint/lint.h"

namespace proxy_lint {

std::vector<Finding> RunRules(const std::string& file,
                              const std::string& content,
                              const SymbolIndex& index);

}  // namespace proxy_lint
