#include "hbn/core/extended_nibble.h"

#include <stdexcept>
#include <vector>

#include "hbn/core/parallel.h"

namespace hbn::core {

ExtendedNibbleResult extendedNibble(const net::Tree& tree,
                                    const workload::Workload& load,
                                    const ExtendedNibbleOptions& options) {
  load.validateProcessorOnly(tree);
  ExtendedNibbleResult result;
  result.report.maxWriteContention = load.maxWriteContention();

  const net::NodeId root = options.mappingRoot == net::kInvalidNode
                               ? tree.defaultRoot()
                               : options.mappingRoot;
  const net::RootedTree rooted(tree, root);

  // --- Step 1: nibble. Objects are independent; split them over the
  // configured pool workers (bit-identical to the sequential loop).
  // Each worker owns one NibbleScratch, so the O(|V|) BFS / subtree-weight
  // vectors are allocated once per thread, not once per object.
  const int workers = resolveWorkerCount(options.threads, load.numObjects());
  result.gravityCenters.resize(static_cast<std::size_t>(load.numObjects()));
  result.nibble.objects.resize(static_cast<std::size_t>(load.numObjects()));
  {
    std::vector<NibbleScratch> scratch(static_cast<std::size_t>(workers));
    std::vector<NibbleObjectResult> one(static_cast<std::size_t>(workers));
    parallelForObjects(load.numObjects(), workers, [&](ObjectId x, int w) {
      NibbleObjectResult& out = one[static_cast<std::size_t>(w)];
      nibbleObjectInto(tree, load, x, scratch[static_cast<std::size_t>(w)],
                       out);
      result.gravityCenters[static_cast<std::size_t>(x)] = out.gravityCenter;
      result.nibble.objects[static_cast<std::size_t>(x)] =
          std::move(out.placement);
    });
  }
  result.report.congestionNibble = evaluateCongestion(rooted, result.nibble);

  // --- Step 2: deletion (only for objects that still use inner nodes;
  // leaf-only objects are frozen from here on). Per-object deletion stats
  // are accumulated per worker and merged to keep the report exact.
  result.modified.objects.resize(result.nibble.objects.size());
  std::vector<Count> kappa(static_cast<std::size_t>(load.numObjects()));
  std::vector<DeletionStats> perObjectStats(
      static_cast<std::size_t>(load.numObjects()));
  parallelForObjects(load.numObjects(), workers, [&](ObjectId x, int) {
    kappa[static_cast<std::size_t>(x)] = load.objectWrites(x);
    const ObjectPlacement& nib =
        result.nibble.objects[static_cast<std::size_t>(x)];
    if (!options.runDeletion || nib.isLeafOnly(tree)) {
      result.modified.objects[static_cast<std::size_t>(x)] = nib;
      return;
    }
    result.modified.objects[static_cast<std::size_t>(x)] =
        deleteRarelyUsedCopies(
            tree, nib, kappa[static_cast<std::size_t>(x)],
            result.gravityCenters[static_cast<std::size_t>(x)],
            &perObjectStats[static_cast<std::size_t>(x)]);
  });
  for (const DeletionStats& stats : perObjectStats) {
    result.report.deletion.copiesDeleted += stats.copiesDeleted;
    result.report.deletion.copiesCreatedBySplit += stats.copiesCreatedBySplit;
  }
  result.report.congestionModified =
      evaluateCongestion(rooted, result.modified);

  // --- Step 3: mapping. Objects still holding inner-node copies
  // participate; everything else is frozen.
  std::vector<char> participates(static_cast<std::size_t>(load.numObjects()),
                                 0);
  for (ObjectId x = 0; x < load.numObjects(); ++x) {
    const bool leafOnly =
        result.modified.objects[static_cast<std::size_t>(x)].isLeafOnly(tree);
    participates[static_cast<std::size_t>(x)] = leafOnly ? 0 : 1;
    if (leafOnly) {
      ++result.report.frozenObjects;
    } else {
      ++result.report.participatingObjects;
    }
  }
  MappingOptions mapOptions;
  mapOptions.accFactor = options.accFactor;
  mapOptions.forceWhenStuck = true;  // records violations instead of aborting
  result.final =
      mapCopiesToLeaves(rooted, result.modified.objects, kappa, participates,
                        &result.report.mapping, mapOptions);
  result.report.congestionFinal = evaluateCongestion(rooted, result.final);

  if (!result.final.isLeafOnly(tree)) {
    throw std::logic_error("extendedNibble: final placement not leaf-only");
  }
  return result;
}

Placement computeExtendedNibblePlacement(const net::Tree& tree,
                                         const workload::Workload& load,
                                         const ExtendedNibbleOptions& options) {
  return extendedNibble(tree, load, options).final;
}

}  // namespace hbn::core
