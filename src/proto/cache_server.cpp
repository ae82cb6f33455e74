#include "proto/cache_server.h"

#include <algorithm>

#include "util/check.h"

namespace webwave {

CacheServer::CacheServer(NodeId id, int doc_count, bool is_home)
    : id_(id),
      is_home_(is_home),
      filter_(doc_count),
      cached_(static_cast<std::size_t>(doc_count), 0),
      quota_(static_cast<std::size_t>(doc_count), 0.0),
      window_arrivals_(static_cast<std::size_t>(doc_count), 0.0),
      window_served_(static_cast<std::size_t>(doc_count), 0.0),
      arrival_rate_(static_cast<std::size_t>(doc_count), 0.0),
      served_rate_(static_cast<std::size_t>(doc_count), 0.0) {
  if (is_home_) {
    // The home server holds authoritative copies and absorbs everything
    // that reaches it: full-intercept filter rules.
    for (DocId d = 0; d < doc_count; ++d) {
      cached_[static_cast<std::size_t>(d)] = 1;
      filter_.Install(d, 1.0);
    }
  }
}

bool CacheServer::AcceptRequest(DocId d, NodeId from_child, double u01) {
  window_arrivals_[static_cast<std::size_t>(d)] += 1;
  if (from_child != kNoNode) {
    auto [it, inserted] = window_child_arrivals_.try_emplace(
        from_child, std::vector<double>(cached_.size(), 0.0));
    it->second[static_cast<std::size_t>(d)] += 1;
  }
  const bool serve =
      cached_[static_cast<std::size_t>(d)] != 0 &&
      (is_home_ || filter_.Intercept(d, u01));
  if (serve) window_served_[static_cast<std::size_t>(d)] += 1;
  return serve;
}

void CacheServer::StoreCopy(DocId d) {
  cached_[static_cast<std::size_t>(d)] = 1;
}

void CacheServer::DropCopy(DocId d) {
  WEBWAVE_REQUIRE(!is_home_, "the home server never drops its copies");
  cached_[static_cast<std::size_t>(d)] = 0;
  quota_[static_cast<std::size_t>(d)] = 0;
  filter_.Remove(d);
}

void CacheServer::SetQuota(DocId d, double rate) {
  WEBWAVE_REQUIRE(rate >= 0, "quota must be non-negative");
  quota_[static_cast<std::size_t>(d)] = rate;
}

int CacheServer::copy_count() const {
  int count = 0;
  for (const auto c : cached_) count += c != 0;
  return count;
}

void CacheServer::RollWindow(double window_seconds, double ewma_alpha) {
  WEBWAVE_REQUIRE(window_seconds > 0, "window must be positive");
  WEBWAVE_REQUIRE(ewma_alpha > 0 && ewma_alpha <= 1, "ewma alpha in (0,1]");
  double total_served = 0;
  for (std::size_t d = 0; d < cached_.size(); ++d) {
    const double arr = window_arrivals_[d] / window_seconds;
    const double srv = window_served_[d] / window_seconds;
    arrival_rate_[d] += ewma_alpha * (arr - arrival_rate_[d]);
    served_rate_[d] += ewma_alpha * (srv - served_rate_[d]);
    total_served += served_rate_[d];
    window_arrivals_[d] = 0;
    window_served_[d] = 0;
  }
  load_rate_ = total_served;
  for (auto& [child, counters] : window_child_arrivals_) {
    auto [it, inserted] = child_arrival_rate_.try_emplace(
        child, std::vector<double>(cached_.size(), 0.0));
    for (std::size_t d = 0; d < counters.size(); ++d) {
      const double rate = counters[d] / window_seconds;
      it->second[d] += ewma_alpha * (rate - it->second[d]);
      counters[d] = 0;
    }
  }
}

double CacheServer::arrival_rate(DocId d) const {
  return arrival_rate_[static_cast<std::size_t>(d)];
}

double CacheServer::child_arrival_rate(NodeId child, DocId d) const {
  const auto it = child_arrival_rate_.find(child);
  if (it == child_arrival_rate_.end()) return 0;
  return it->second[static_cast<std::size_t>(d)];
}

double CacheServer::served_rate(DocId d) const {
  return served_rate_[static_cast<std::size_t>(d)];
}

void CacheServer::RecordNeighborLoad(NodeId neighbor, double load) {
  neighbor_load_[neighbor] = load;
}

double CacheServer::NeighborLoad(NodeId neighbor) const {
  const auto it = neighbor_load_.find(neighbor);
  return it == neighbor_load_.end() ? 0.0 : it->second;
}

void CacheServer::RefreshFilter() {
  if (is_home_) return;  // home always intercepts everything
  for (DocId d = 0; d < static_cast<DocId>(cached_.size()); ++d) {
    if (cached_[static_cast<std::size_t>(d)] == 0) {
      filter_.Remove(d);
      continue;
    }
    const double arr = arrival_rate_[static_cast<std::size_t>(d)];
    const double q = quota_[static_cast<std::size_t>(d)];
    // Serve the fraction of the passing flow the quota covers; with no
    // measured flow yet, optimistically intercept everything (the EWMA
    // will correct within a window).
    filter_.Install(d, arr <= 1e-12 ? 1.0 : std::min(1.0, q / arr));
  }
}

}  // namespace webwave
