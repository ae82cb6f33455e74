// Text rendering of routing trees, with optional per-node annotations —
// used by the examples and by the figure-reproduction benches to show
// spontaneous rates, TLB assignments and fold membership the way the
// paper's figures do.
#pragma once

#include <functional>
#include <string>

#include "tree/routing_tree.h"

namespace webwave {

// Renders the tree as indented ASCII art.  `annotate` (if provided) returns
// extra text appended to each node's line, e.g. "E=30 L=25 fold=2".
std::string RenderTree(
    const RoutingTree& tree,
    const std::function<std::string(NodeId)>& annotate = nullptr);

}  // namespace webwave
