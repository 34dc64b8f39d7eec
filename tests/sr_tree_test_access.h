// Test-only backdoor into the SR-tree's private page machinery (declared a
// friend in sr_tree.h). Shared by every test that needs it, so the friend
// has exactly one definition.

#ifndef SRTREE_TESTS_SR_TREE_TEST_ACCESS_H_
#define SRTREE_TESTS_SR_TREE_TEST_ACCESS_H_

#include <cstdint>
#include <vector>

#include "src/core/sr_tree.h"
#include "src/index/soa_page.h"

namespace srtree {

struct SRTreeTestAccess {
  using LeafEntry = SRTree::LeafEntry;
  using NodeEntry = SRTree::NodeEntry;

  static int RootLevel(const SRTree& tree) {
    MutexLock lock(tree.writer_mu_);
    return tree.root_level_;
  }

  // The id of the working page reached from the root through the entries
  // `path`.
  static PageId PageIdByPath(const SRTree& tree, const std::vector<int>& path) {
    MutexLock lock(tree.writer_mu_);
    PageId id = tree.root_id_;
    for (const int i : path) {
      const SoaInnerView inner = ParseSoaInner(
          tree.file_.PeekPage(id), tree.options_.dim, tree.has_rects());
      id = inner.tail[static_cast<size_t>(i)];
    }
    return id;
  }

  // The working page of the node at `path`; valid until the tree's next
  // mutation.
  static const char* PageByPath(const SRTree& tree,
                                const std::vector<int>& path) {
    const PageId id = PageIdByPath(tree, path);
    MutexLock lock(tree.writer_mu_);
    return tree.file_.PeekPage(id);
  }

  // The same page, for corruption written into its own columns, without
  // refreshing the parent entries — exactly the kind of inconsistency the
  // structural auditor exists to catch. The auditor walks the live pages,
  // so it sees the edit.
  static char* MutablePageByPath(SRTree& tree, const std::vector<int>& path) {
    const PageId id = PageIdByPath(tree, path);
    MutexLock lock(tree.writer_mu_);
    return tree.file_.MutablePageForTest(id);
  }

  // The stored extent of the working page of the node at `path`.
  static size_t ExtentByPath(const SRTree& tree, const std::vector<int>& path) {
    const PageId id = PageIdByPath(tree, path);
    MutexLock lock(tree.writer_mu_);
    return tree.file_.extent(id);
  }

  // Entry `slot` of the inner page at `path`, read and rewritten in place
  // through the tree's slot reader and writer.
  static NodeEntry GetInnerByPath(SRTree& tree, const std::vector<int>& path,
                                  size_t slot) {
    const char* page = MutablePageByPath(tree, path);
    SRTree::Pending e;
    tree.ReadSlot(page, Count(tree, page), SoaPageLevel(page), slot, e);
    return e.node;
  }
  static void PutInnerByPath(SRTree& tree, const std::vector<int>& path,
                             size_t slot, const NodeEntry& e) {
    char* page = MutablePageByPath(tree, path);
    tree.PutInnerEntry(page, Count(tree, page), slot, e);
  }

  // Restages the page at `path` with only its entries `slots`, through the
  // tree's slot relay.
  static void KeepSlots(SRTree& tree, const std::vector<int>& path,
                        const std::vector<uint32_t>& slots) {
    const PageId id = PageIdByPath(tree, path);
    MutexLock lock(tree.writer_mu_);
    const char* page = tree.file_.PeekPage(id);
    const int level = SoaPageLevel(page);
    const std::vector<char> old(page, page + tree.file_.extent(id));
    tree.RelaySlots(old.data(), Count(tree, old.data()), level, slots,
                    tree.file_.StageWrite(id, tree.NodeBytes(level, slots.size())),
                    slots.size());
  }

  // The slot codec on its own: a page-sized buffer filled with 'x', with a
  // header for `entries.size()` entries at `level` and each entry written
  // into its slot. Nothing past NodeBytes() is written.
  static std::vector<char> LeafPage(const SRTree& tree,
                                    const std::vector<LeafEntry>& entries) {
    std::vector<char> page(tree.options_.page_size, 'x');
    PutSoaHeader(page.data(), 0, entries.size(), 0);
    for (size_t i = 0; i < entries.size(); ++i) {
      tree.PutLeafEntry(page.data(), entries.size(), i, entries[i]);
    }
    return page;
  }
  static std::vector<char> InnerPage(const SRTree& tree, int level,
                                     const std::vector<NodeEntry>& entries) {
    std::vector<char> page(tree.options_.page_size, 'x');
    PutSoaHeader(page.data(), level, entries.size(), 0);
    for (size_t i = 0; i < entries.size(); ++i) {
      tree.PutInnerEntry(page.data(), entries.size(), i, entries[i]);
    }
    return page;
  }
  static LeafEntry GetLeaf(const SRTree& tree, const std::vector<char>& page,
                           size_t slot) {
    return ReadSlot(tree, page, slot).leaf;
  }
  static NodeEntry GetInner(const SRTree& tree, const std::vector<char>& page,
                            size_t slot) {
    return ReadSlot(tree, page, slot).node;
  }
  static SRTree::Pending ReadSlot(const SRTree& tree,
                                  const std::vector<char>& page, size_t slot) {
    SRTree::Pending e;
    tree.ReadSlot(page.data(), Count(tree, page.data()),
                  SoaPageLevel(page.data()), slot, e);
    return e;
  }

  // The bytes a page of `count` entries at `level` stages.
  static size_t NodeBytes(const SRTree& tree, int level, size_t count) {
    return tree.NodeBytes(level, count);
  }

  // The entry count in a page's header.
  static size_t Count(const SRTree& tree, const char* page) {
    return tree.PageCount(page, SoaPageLevel(page));
  }
};

}  // namespace srtree

#endif  // SRTREE_TESTS_SR_TREE_TEST_ACCESS_H_
