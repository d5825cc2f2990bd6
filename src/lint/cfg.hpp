// Intra-procedural control-flow graph for keylint2.
//
// One node per statement (compound statements contribute their head —
// condition/loop header — as a node; their bodies contribute their own
// nodes). Edges model the shapes the secret-lifetime checks care about:
// if/else branching, early returns (edge to the exit node), loops as join
// points (back edge to the header, exit edge past it), break/continue, and
// switch sections. The KL101 dataflow pass (checks.cpp) runs a forward
// fixpoint over this graph, so a scrub that covers only the happy path
// does not satisfy the check.
#pragma once

#include <cstddef>
#include <vector>

#include "lint/parse.hpp"

namespace keyguard::lint {

struct CfgNode {
  const Stmt* stmt = nullptr;  // null for the synthetic entry/exit nodes
  bool is_return = false;      // node is a `return` statement
  std::vector<int> succs;
  std::vector<int> preds;
};

struct Cfg {
  std::vector<CfgNode> nodes;
  int entry = -1;
  int exit = -1;  // all returns and the fall-off end lead here
};

/// Builds the CFG of `fn`. Always produces a connected entry->exit graph;
/// unreachable statements after a return are kept as nodes without preds.
Cfg build_cfg(const Function& fn);

}  // namespace keyguard::lint
