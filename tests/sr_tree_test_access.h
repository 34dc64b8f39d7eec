// Test-only backdoor into the SR-tree's private page machinery (declared a
// friend in sr_tree.h). Shared by every test that needs it, so the friend
// has exactly one definition.

#ifndef SRTREE_TESTS_SR_TREE_TEST_ACCESS_H_
#define SRTREE_TESTS_SR_TREE_TEST_ACCESS_H_

#include <vector>

#include "src/core/sr_tree.h"

namespace srtree {

struct SRTreeTestAccess {
  using Node = SRTree::Node;
  using LeafEntry = SRTree::LeafEntry;
  using NodeEntry = SRTree::NodeEntry;

  // Reads a node by path, lets the test mutate it, and writes it back
  // without refreshing the parent entries — exactly the kind of
  // inconsistency the structural auditor exists to catch. Each helper takes
  // the tree's writer lock: the page accessors require it, and the
  // corruption is a writer-side mutation. Staged writes are visible to the
  // auditor, which walks the live pages under the same lock.
  static Node ReadByPath(const SRTree& tree, const std::vector<int>& path) {
    MutexLock lock(tree.writer_mu_);
    Node node = tree.PeekNode(tree.root_id_);
    for (const int i : path) {
      node = tree.PeekNode(node.children[static_cast<size_t>(i)].child);
    }
    return node;
  }

  static void Write(SRTree& tree, const Node& node) {
    MutexLock lock(tree.writer_mu_);
    tree.WriteNode(node);
  }

  // The working page of the node at `path`, for byte-level corruption that
  // the Node codec cannot express (a NaN written into the page itself).
  static char* MutablePageByPath(SRTree& tree, const std::vector<int>& path) {
    const PageId id = ReadByPath(tree, path).id;
    MutexLock lock(tree.writer_mu_);
    return tree.file_.MutablePageForTest(id);
  }

  static int RootLevel(const SRTree& tree) {
    MutexLock lock(tree.writer_mu_);
    return tree.root_level_;
  }

  // The page codec on its own: encodes `node` into a page-sized buffer.
  static std::vector<char> Serialize(const SRTree& tree, const Node& node) {
    std::vector<char> page(tree.options_.page_size, 'x');
    tree.SerializeNode(node, page.data());
    return page;
  }

  static Node Deserialize(const SRTree& tree, const std::vector<char>& page,
                          PageId id) {
    return tree.DeserializeNode(page.data(), id);
  }
};

}  // namespace srtree

#endif  // SRTREE_TESTS_SR_TREE_TEST_ACCESS_H_
