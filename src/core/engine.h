// The phase templates shared by every ECL-CC variant (serial, OpenMP, and —
// through gpusim's SimParentOps — the virtual-GPU kernels). Keeping the
// algorithm in one place means the correctness tests on one backend cover
// the algorithmic logic of all of them.
#pragma once

#include "core/ecl_cc.h"
#include "dsu/hook.h"
#include "dsu/parent_ops.h"
#include "graph/graph.h"

namespace ecl::detail {

/// Initial parent value for vertex v under `policy` (paper Fig. 7).
/// Templated over the graph representation: any type with a
/// `neighbors(vertex_t)` range (plain CSR Graph or CompressedGraph) works.
template <typename GraphT>
vertex_t initial_parent(const GraphT& g, InitPolicy policy, vertex_t v) {
  switch (policy) {
    case InitPolicy::kSelf:
      return v;
    case InitPolicy::kMinNeighbor: {
      vertex_t best = v;
      for (const vertex_t u : g.neighbors(v)) {
        if (u < best) best = u;
      }
      return best;
    }
    case InitPolicy::kFirstSmallerNeighbor:
      break;
  }
  for (const vertex_t u : g.neighbors(v)) {
    if (u < v) return u;  // stop at the first smaller neighbor (Init3)
  }
  return v;
}

/// Computation phase for one vertex: process each of v's edges exactly once
/// (only the v > u direction), hooking u's representative with v's running
/// representative.
template <typename GraphT, ParentOps Ops, typename Rec = PathLengthRecorder>
void compute_vertex(const GraphT& g, JumpPolicy jump, vertex_t v, Ops ops,
                    Rec* rec = nullptr) {
  vertex_t v_rep = find_repres(jump, v, ops, rec);
  for (const vertex_t u : g.neighbors(v)) {
    if (v > u) {
      v_rep = process_edge(jump, v_rep, u, ops, rec);
    }
  }
}

/// Finalization for one vertex: make parent[v] point directly at the
/// representative (paper Fig. 9 variants).
///
/// Fini1 halves the path like find_intermediate, but each halving store is
/// a CAS against the parent just read. Finalization makes no hooks, so
/// parent values only decrease; the CAS keeps a slower thread's stale,
/// non-root ancestor from overwriting a label that another thread has
/// already finished as `parent[x] = root`. (The compute phase keeps plain
/// stores: there a lost update only costs repeated work.)
template <ParentOps Ops>
void finalize_vertex(FinalizePolicy policy, vertex_t v, Ops ops) {
  switch (policy) {
    case FinalizePolicy::kIntermediate: {
      vertex_t par = ops.load(v);
      vertex_t prev = v;
      vertex_t next;
      while (par > (next = ops.load(par))) {
        ops.cas(prev, par, next);
        prev = par;
        par = next;
      }
      ops.store(v, par);
      return;
    }
    case FinalizePolicy::kMultiple:
      ops.store(v, find_multiple(v, ops));
      return;
    case FinalizePolicy::kSingle:
      break;
  }
  // Fini3: plain walk to the representative, then one write.
  vertex_t root = ops.load(v);
  vertex_t next;
  while (root > (next = ops.load(root))) root = next;
  ops.store(v, root);
}

}  // namespace ecl::detail
