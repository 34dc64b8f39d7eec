// R9 counter-example: the one traversal may own the frontier queue and
// name its helpers freely.
#ifndef SRTREE_TOOLS_SRLINT_TESTDATA_SRC_INDEX_TRAVERSAL_H_
#define SRTREE_TOOLS_SRLINT_TESTDATA_SRC_INDEX_TRAVERSAL_H_

#include <queue>

template <typename Policy>
void SearchKnnVisit(const Policy& policy) {
  std::priority_queue<double> frontier;
  frontier.push(policy.bound());
}

#endif  // SRTREE_TOOLS_SRLINT_TESTDATA_SRC_INDEX_TRAVERSAL_H_
