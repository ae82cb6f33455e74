#include "tree/render.h"

#include <sstream>

namespace webwave {

namespace {

void RenderNode(const RoutingTree& tree, NodeId v, const std::string& prefix,
                bool last, const std::function<std::string(NodeId)>& annotate,
                std::ostringstream& os) {
  os << prefix;
  if (!tree.is_root(v)) os << (last ? "`-- " : "|-- ");
  os << v;
  if (annotate) {
    const std::string extra = annotate(v);
    if (!extra.empty()) os << "  [" << extra << "]";
  }
  os << '\n';
  const auto& kids = tree.children(v);
  const std::string child_prefix =
      tree.is_root(v) ? prefix : prefix + (last ? "    " : "|   ");
  for (std::size_t i = 0; i < kids.size(); ++i)
    RenderNode(tree, kids[i], child_prefix, i + 1 == kids.size(), annotate, os);
}

}  // namespace

std::string RenderTree(const RoutingTree& tree,
                       const std::function<std::string(NodeId)>& annotate) {
  std::ostringstream os;
  RenderNode(tree, tree.root(), "", true, annotate, os);
  return os.str();
}

}  // namespace webwave
