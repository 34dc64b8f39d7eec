// R12 fixture: a rect tree with its own copy of the R*-tree's page codec.
// Calls into the shared codec and names that only contain the codec's
// names are compliant counter-examples that must never match.
struct Node {};

class KdbTree {
  void SerializeNode(const Node& node, char* buf) const;     // srlint-expect(R12)
  Node DeserializeNode(const char* buf, int id) const;       // srlint-expect(R12)
  void SerializeNodes(int n) const;  // compliant: another name
};

void KdbTree::SerializeNode(const Node& node, char* buf) const {}  // srlint-expect(R12)

Node KdbTree::DeserializeNode(const char* buf, int id) const {  // srlint-expect(R12)
  return DeserializeNode(buf, id - 1);  // compliant: a returned call
}

void Probe(const KdbTree& tree, char* buf) {
  tree.SerializeNode(Node{}, buf);  // compliant: member call
  Node legacy = tree.DeserializeNode(buf, 0);  // compliant: member call
  void SerializeNode(int);  // srlint: allow(R12) waived for the fixture
}
