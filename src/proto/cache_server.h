// Per-node cache-server state for the packet-level simulation.
//
// A cache server sits next to its router, owns the router's packet filter,
// and keeps the measurements WebWave needs — all of them local:
//   * EWMA arrival rate per document (everything the filter sees),
//   * EWMA arrival rate per (child, document) — the observed A_j^d,
//   * EWMA served rate (its load L_i),
//   * gossiped neighbor load estimates L_ij.
// Control-plane decisions (delegate/relinquish/tunnel) are the shared
// quota exchange (doc/quota_exchange.h), which the simulation's diffusion
// tick runs over these estimates.
#pragma once

#include <unordered_map>
#include <vector>

#include "doc/catalog.h"
#include "proto/packet_filter.h"
#include "tree/routing_tree.h"

namespace webwave {

class CacheServer {
 public:
  CacheServer(NodeId id, int doc_count, bool is_home);

  NodeId id() const { return id_; }
  bool is_home() const { return is_home_; }

  // --- data plane -------------------------------------------------------
  // Records an arriving request for d (from_child = kNoNode when the
  // request originated locally) and decides whether to serve it.
  bool AcceptRequest(DocId d, NodeId from_child, double u01);

  bool IsCached(DocId d) const {
    return cached_[static_cast<std::size_t>(d)] != 0;
  }
  const PacketFilter& filter() const { return filter_; }

  // --- cache management -------------------------------------------------
  void StoreCopy(DocId d);
  void DropCopy(DocId d);
  double quota(DocId d) const { return quota_[static_cast<std::size_t>(d)]; }
  void SetQuota(DocId d, double rate);
  int copy_count() const;

  // --- measurement ------------------------------------------------------
  // Folds the window counters into EWMA rates; window_seconds > 0.
  void RollWindow(double window_seconds, double ewma_alpha);

  double arrival_rate(DocId d) const;
  double child_arrival_rate(NodeId child, DocId d) const;
  double load() const { return load_rate_; }
  double served_rate(DocId d) const;

  // --- gossip -----------------------------------------------------------
  void RecordNeighborLoad(NodeId neighbor, double load);
  double NeighborLoad(NodeId neighbor) const;  // 0 when never heard from

  // Re-derives every filter fraction from quota / arrival EWMA.
  void RefreshFilter();

 private:
  NodeId id_;
  bool is_home_;
  PacketFilter filter_;
  std::vector<std::uint8_t> cached_;
  std::vector<double> quota_;

  // Current-window counters.
  std::vector<double> window_arrivals_;
  std::vector<double> window_served_;
  std::unordered_map<NodeId, std::vector<double>> window_child_arrivals_;

  // EWMA rates.
  std::vector<double> arrival_rate_;
  std::vector<double> served_rate_;
  std::unordered_map<NodeId, std::vector<double>> child_arrival_rate_;
  double load_rate_ = 0;

  std::unordered_map<NodeId, double> neighbor_load_;
};

}  // namespace webwave
