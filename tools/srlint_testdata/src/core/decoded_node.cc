// R11 fixture: the SR writer keeps a decoded heap node beside its pages.
// Entry structs, calls and names that only start with Node are compliant
// counter-examples that must never match.
#include <vector>

struct Node {                                              // srlint-expect(R11)
  std::vector<int> entries;
};
class Node;                                                // srlint-expect(R11)

struct NodeEntry {  // compliant: an entry, not a decoded node
  int child;
};

class SRTree {
  void DecodeNode(const char* page, Node& node) const;     // srlint-expect(R11)
  Node DeserializeNode(const char* page) const;  // srlint-expect(R11) srlint-expect(R12)
  bool PeekNode(int id, Node* out) const;                  // srlint-expect(R11)
  int NodeBytes(int level) const;  // compliant
};

bool SRTree::PeekNode(int id, Node* out) const {           // srlint-expect(R11)
  DecodeNode(nullptr, *out);  // compliant: a call, not a definition
  return PeekNode(id - 1, out);  // compliant: a returned call
}

void Probe(const SRTree& tree, Node* node) {
  tree.PeekNode(0, node);  // compliant: member call
  struct Node legacy;  // srlint: allow(R11) waived for the fixture
}
