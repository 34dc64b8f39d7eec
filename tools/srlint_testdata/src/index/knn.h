// R9 counter-example: the k-NN candidate set is a heap.
#ifndef SRTREE_TOOLS_SRLINT_TESTDATA_SRC_INDEX_KNN_H_
#define SRTREE_TOOLS_SRLINT_TESTDATA_SRC_INDEX_KNN_H_

#include <queue>

class KnnCandidates {
  std::priority_queue<double> heap_;
};

#endif  // SRTREE_TOOLS_SRLINT_TESTDATA_SRC_INDEX_KNN_H_
