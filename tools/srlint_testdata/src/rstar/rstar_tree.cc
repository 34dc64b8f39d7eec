// R12 fixture: the one rect page codec lives in the R*-tree's own file and
// raises no finding.
struct Node {};

class RStarTree {
  void SerializeNode(const Node& node, char* buf) const;
  Node DeserializeNode(const char* buf, int id) const;
};

void RStarTree::SerializeNode(const Node& node, char* buf) const {}

Node RStarTree::DeserializeNode(const char* buf, int id) const {
  return Node{};
}
