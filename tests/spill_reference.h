// Test-only oracle for the spill projection (store/spill_projector): the
// per-document algorithm the projectors ran before their node-major
// sweep.  Each document's column is projected on its own — excised copies
// climb to the nearest surviving ancestor copy in node-ascending order,
// then the kept copies are emitted with their spill — and the columns are
// assembled into a CSR whose total sums the rates in cell order.  The
// node-major sweep must match it bit for bit: cells, fractions,
// total_rate, spilled rate and evicted count.  The columns are read out of
// the base rows here, so the oracle depends on no per-document index in
// src/.  ClimbProject, below, is the second oracle: the node-major sweep
// itself, frozen with its row-searching ancestor climb.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "serve/quota_snapshot.h"
#include "tree/builders.h"
#include "tree/routing_tree.h"
#include "util/rng.h"

namespace webwave {
namespace spill_reference {

struct Projection {
  QuotaSnapshot clamped;
  std::vector<double> doc_spill;          // per document
  std::vector<std::int64_t> doc_evicted;  // per document

  // The projector's reductions: per-document stats summed in doc order.
  double spilled_rate() const {
    double total = 0;
    for (const double s : doc_spill) total += s;
    return total;
  }
  std::int64_t evicted_cells() const {
    std::int64_t total = 0;
    for (const std::int64_t e : doc_evicted) total += e;
    return total;
  }
};

// Projects `base` with the survivor predicate keeps(v, d), which must hold
// at the root.
template <typename Keeps>
Projection Project(const RoutingTree& tree, const QuotaSnapshot& base,
                   const Keeps& keeps) {
  struct Cell {
    NodeId node;
    std::int32_t doc;
    double rate;
    double frac;
  };
  const int docs = base.doc_count();
  const NodeId home = tree.root();
  const double* rates = base.cell_rates();
  const double* fracs = base.cell_fractions();
  Projection out;
  out.doc_spill.assign(static_cast<std::size_t>(docs), 0.0);
  out.doc_evicted.assign(static_cast<std::size_t>(docs), 0);
  std::vector<Cell> cells;
  std::vector<double> spill(static_cast<std::size_t>(tree.size()), 0.0);
  std::vector<NodeId> touched;
  // Each document's (node, cell) column, node ascending: one scan of the
  // rows in node order.
  std::vector<std::vector<NodeId>> column_nodes(static_cast<std::size_t>(docs));
  std::vector<std::vector<std::int64_t>> column_cells(
      static_cast<std::size_t>(docs));
  for (NodeId v = 0; v < base.node_count(); ++v)
    for (std::int64_t c = base.row_begin(v); c < base.row_end(v); ++c) {
      const std::size_t d = static_cast<std::size_t>(base.cell_docs()[c]);
      column_nodes[d].push_back(v);
      column_cells[d].push_back(c);
    }
  for (std::int32_t d = 0; d < docs; ++d) {
    const std::vector<NodeId>& nodes =
        column_nodes[static_cast<std::size_t>(d)];
    const std::vector<std::int64_t>& col =
        column_cells[static_cast<std::size_t>(d)];
    // Pass 1: excised copies spill onto the nearest surviving ancestor
    // copy, the home at worst.
    double spilled = 0;
    std::int64_t evicted = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      if (keeps(v, d)) continue;
      const double q = rates[col[i]];
      NodeId u = tree.parent(v);
      while (!tree.is_root(u) && !(keeps(u, d) && base.CellOf(u, d) >= 0))
        u = tree.parent(u);
      if (spill[static_cast<std::size_t>(u)] == 0.0) touched.push_back(u);
      spill[static_cast<std::size_t>(u)] += q;
      spilled += q;
      ++evicted;
    }
    // Pass 2: emit the survivors, spill targets grown to (q+S)/(A+S).
    bool home_has_cell = false;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      if (!keeps(v, d)) continue;
      const double q = rates[col[i]];
      const double f = fracs[col[i]];
      const double s = spill[static_cast<std::size_t>(v)];
      if (v == home) home_has_cell = true;
      if (s == 0.0) {
        cells.push_back({v, d, q, f});
      } else {
        const double arrive = f >= 1.0 ? q : q / f;
        cells.push_back({v, d, q + s, std::min(1.0, (q + s) / (arrive + s))});
      }
    }
    const double home_spill = spill[static_cast<std::size_t>(home)];
    if (!home_has_cell && home_spill > 0.0)
      cells.push_back({home, d, home_spill, 1.0});
    for (const NodeId u : touched) spill[static_cast<std::size_t>(u)] = 0.0;
    touched.clear();
    out.doc_spill[static_cast<std::size_t>(d)] = spilled;
    out.doc_evicted[static_cast<std::size_t>(d)] = evicted;
  }
  // Assembly: CSR order, total summed cell by cell.
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    return a.node != b.node ? a.node < b.node : a.doc < b.doc;
  });
  QuotaSnapshot::Builder b(base.node_count(), docs);
  for (const Cell& c : cells) b.Add(c.node, c.doc, c.rate, c.frac);
  out.clamped = std::move(b).Build();
  return out;
}

// A frozen copy of the node-major sweep as it stood before its ancestor
// climb tested per-node document bitmaps: sweep 1 decides every cell,
// sweep 2 climbs each excised cell by binary-searching every ancestor's
// row (QuotaSnapshot::CellOf), sweep 3 emits the kept cells with their
// spill and synthesizes the home cells.  The projectors must match it bit
// for bit.  keeps(v, d) is the survivor predicate; the home keeps all.
template <typename Keeps>
Projection ClimbProject(const RoutingTree& tree, const QuotaSnapshot& base,
                        const Keeps& keeps) {
  enum KeepState : std::uint8_t { kExcised = 0, kKept = 1, kSpillTarget = 2 };
  const int nodes = base.node_count();
  const int docs = base.doc_count();
  const std::size_t cells = static_cast<std::size_t>(base.cell_count());
  const std::int32_t* doc = base.cell_docs();
  const double* rates = base.cell_rates();
  const double* fracs = base.cell_fractions();
  const NodeId home = tree.root();
  std::vector<std::uint8_t> keep(cells);
  std::vector<double> cell_spill(cells, 0.0);
  std::vector<double> home_spill(static_cast<std::size_t>(docs), 0.0);
  Projection out;
  out.doc_spill.assign(static_cast<std::size_t>(docs), 0.0);
  out.doc_evicted.assign(static_cast<std::size_t>(docs), 0);

  for (NodeId v = 0; v < nodes; ++v)
    for (std::int64_t c = base.row_begin(v); c < base.row_end(v); ++c)
      keep[static_cast<std::size_t>(c)] =
          v == home || keeps(v, doc[c]) ? kKept : kExcised;

  const auto spill_target = [&](NodeId v, std::int32_t d) {
    NodeId u = tree.parent(v);
    for (; !tree.is_root(u); u = tree.parent(u)) {
      const std::int64_t t = base.CellOf(u, d);
      if (t >= 0 && keep[static_cast<std::size_t>(t)] != kExcised) return t;
    }
    return base.CellOf(u, d);
  };
  for (NodeId v = 0; v < nodes; ++v)
    for (std::int64_t c = base.row_begin(v); c < base.row_end(v); ++c) {
      if (keep[static_cast<std::size_t>(c)] != kExcised) continue;
      const std::int32_t d = doc[c];
      const double q = rates[c];
      const std::int64_t target = spill_target(v, d);
      if (target >= 0) {
        keep[static_cast<std::size_t>(target)] = kSpillTarget;
        cell_spill[static_cast<std::size_t>(target)] += q;
      } else {
        home_spill[static_cast<std::size_t>(d)] += q;
      }
      out.doc_spill[static_cast<std::size_t>(d)] += q;
      ++out.doc_evicted[static_cast<std::size_t>(d)];
    }

  QuotaSnapshot::Builder b(nodes, docs);
  const auto emit_cell = [&](NodeId v, std::int64_t c) {
    const std::size_t i = static_cast<std::size_t>(c);
    if (keep[i] == kKept) {
      b.Add(v, doc[c], rates[c], fracs[c]);
    } else if (keep[i] == kSpillTarget) {
      const double q = rates[c];
      const double s = cell_spill[i];
      const double arrive = fracs[c] >= 1.0 ? q : q / fracs[c];
      b.Add(v, doc[c], q + s, std::min(1.0, (q + s) / (arrive + s)));
    }
  };
  for (NodeId v = 0; v < nodes; ++v) {
    if (v != home) {
      for (std::int64_t c = base.row_begin(v); c < base.row_end(v); ++c)
        emit_cell(v, c);
      continue;
    }
    std::int32_t synth = 0;
    const auto emit_synthesized_below = [&](std::int32_t limit) {
      for (; synth < limit; ++synth) {
        const double s = home_spill[static_cast<std::size_t>(synth)];
        if (s > 0.0) b.Add(v, synth, s, 1.0);
      }
    };
    for (std::int64_t c = base.row_begin(v); c < base.row_end(v); ++c) {
      emit_synthesized_below(doc[c]);
      emit_cell(v, c);
    }
    emit_synthesized_below(docs);
  }
  out.clamped = std::move(b).Build();
  return out;
}

// Every field bitwise, total_rate included.
inline void ExpectBitIdentical(const QuotaSnapshot& got,
                               const QuotaSnapshot& want, const char* where) {
  ASSERT_EQ(got.node_count(), want.node_count()) << where;
  ASSERT_EQ(got.doc_count(), want.doc_count()) << where;
  ASSERT_EQ(got.cell_count(), want.cell_count()) << where;
  for (NodeId v = 0; v < want.node_count(); ++v)
    ASSERT_EQ(got.row_end(v), want.row_end(v)) << where << " node " << v;
  for (std::int64_t c = 0; c < want.cell_count(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    ASSERT_EQ(got.cell_docs()[i], want.cell_docs()[i]) << where << " cell "
                                                       << c;
    ASSERT_EQ(got.cell_rates()[i], want.cell_rates()[i])
        << where << " cell " << c;
    ASSERT_EQ(got.cell_fractions()[i], want.cell_fractions()[i])
        << where << " cell " << c;
  }
  EXPECT_EQ(got.total_rate(), want.total_rate()) << where;
}

// The documents whose cells differ between two snapshots over the same
// tree and catalog — a copy present in one only, or a rate or fraction
// that moved — ascending.
inline std::vector<std::int32_t> MovedDocs(const QuotaSnapshot& a,
                                           const QuotaSnapshot& b) {
  std::vector<std::int32_t> moved;
  for (std::int32_t d = 0; d < a.doc_count(); ++d)
    for (NodeId v = 0; v < a.node_count(); ++v)
      if ((a.CellOf(v, d) >= 0) != (b.CellOf(v, d) >= 0) ||
          a.RateAt(v, d) != b.RateAt(v, d) ||
          a.FractionAt(v, d) != b.FractionAt(v, d)) {
        moved.push_back(d);
        break;
      }
  return moved;
}

// A projector's output and stats against the oracle's, bitwise.
template <typename Projector>
void ExpectMatches(const Projector& projector, const Projection& want,
                   const char* where) {
  ExpectBitIdentical(projector.clamped(), want.clamped, where);
  EXPECT_EQ(projector.spilled_rate(), want.spilled_rate()) << where;
  EXPECT_EQ(projector.evicted_cells(), want.evicted_cells()) << where;
}

// A random tree relabeled by a random permutation, so ancestors do not
// always carry lower ids than their descendants and the home is not 0.
inline RoutingTree ShuffledRandomTree(int n, Rng& rng) {
  const RoutingTree tree = MakeRandomTree(n, rng);
  std::vector<NodeId> label(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) label[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = label.size(); i > 1; --i)
    std::swap(label[i - 1], label[rng.NextBelow(i)]);
  std::vector<NodeId> parents(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    parents[static_cast<std::size_t>(label[static_cast<std::size_t>(v)])] =
        tree.is_root(v)
            ? kNoNode
            : label[static_cast<std::size_t>(tree.parent(v))];
  return RoutingTree::FromParents(std::move(parents));
}

// A random base snapshot: each document's column is a pure function of
// (seed, column_seed[d]), so redrawing one column_seed entry moves that
// column alone.  Roughly half the documents hold no home cell, so
// excisions exercise home-cell synthesis; fractions mix 1 with (0, 1).
inline QuotaSnapshot RandomBase(const RoutingTree& tree,
                                const std::vector<std::uint64_t>& column_seed,
                                std::uint64_t seed) {
  const int docs = static_cast<int>(column_seed.size());
  const std::size_t n = static_cast<std::size_t>(tree.size());
  std::vector<double> rate(n * column_seed.size(), 0.0);
  std::vector<double> frac(n * column_seed.size(), 1.0);
  for (std::int32_t d = 0; d < docs; ++d) {
    Rng rng(seed * 1000003u + column_seed[static_cast<std::size_t>(d)]);
    const double density = rng.NextDouble(0.1, 0.7);
    const bool home_copy = rng.NextBernoulli(0.5);
    for (NodeId v = 0; v < tree.size(); ++v) {
      const bool held = tree.is_root(v) ? home_copy
                                        : rng.NextBernoulli(density);
      const double r = rng.NextDouble(0.01, 10.0);
      const double f = rng.NextBernoulli(0.3) ? 1.0 : rng.NextDouble(0.05, 1);
      if (!held) continue;
      const std::size_t at = static_cast<std::size_t>(v) * column_seed.size() +
                             static_cast<std::size_t>(d);
      rate[at] = r;
      frac[at] = f;
    }
  }
  QuotaSnapshot::Builder b(tree.size(), docs);
  for (NodeId v = 0; v < tree.size(); ++v)
    for (std::int32_t d = 0; d < docs; ++d) {
      const std::size_t at = static_cast<std::size_t>(v) * column_seed.size() +
                             static_cast<std::size_t>(d);
      if (rate[at] > 0) b.Add(v, d, rate[at], frac[at]);
    }
  return std::move(b).Build();
}

}  // namespace spill_reference
}  // namespace webwave
