// R9 fixture: a tree carrying its own copy of a search loop. Every tree
// searches through src/index/traversal.h; the calls and the member named
// like a search are compliant counter-examples that must never match.
#include <queue>

class RStarTree {
  void SearchKnn(int id, int level) const;                 // srlint-expect(R9)
  int SearchRangeAll(double radius) const;                 // srlint-expect(R9)
};

void RStarTree::SearchKnn(int id, int level) const {       // srlint-expect(R9)
  std::priority_queue<int> frontier;                       // srlint-expect(R9)
  frontier.push(id);
  SearchKnn(id, level - 1);  // compliant: a call, not a definition
}

int RStarTree::SearchRangeAll(double radius) const {      // srlint-expect(R9)
  return SearchRangeAll(radius / 2);  // compliant: a returned call
}

int Probe(const RStarTree& tree) {
  const int hits = tree.SearchRangeAll(1.0);  // compliant: member call
  std::priority_queue<int> legacy;  // srlint: allow(R9) waived for the fixture
  return hits + static_cast<int>(legacy.size());
}
