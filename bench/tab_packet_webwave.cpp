// E10 — the packet-level protocol under §5.1's relaxed assumptions:
// messages with latency, stale gossip, measured (EWMA) rates, Poisson
// arrivals.  Compares WebWave against the no-cache, en-route-LRU and
// ICP-like policies on balance, locality (hit depth), response time and
// control-message overhead — the §1 argument that discovery protocols pay
// per-request costs while WebWave pays only periodic gossip.
//
// Settings (bench_util.h): WEBWAVE_THREADS workers for the batch-engine
// reference (default 1).  The shape is already small, so WEBWAVE_SMOKE
// changes nothing.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/load_model.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "doc/catalog.h"
#include "proto/packet_sim.h"
#include "stats/summary.h"
#include "tree/builders.h"
#include "util/ascii.h"

namespace webwave {
namespace {

// The rate-level reference the packet-level protocol is judged against:
// every document lane stepped to convergence on the batch engine (the
// same per-document diffusion the packet protocol approximates with
// messages), summed across the catalog.  This is the sum of the
// *per-document* TLB optima — a different (and fairer) target than one
// aggregate WebFold over the node totals, because the packet protocol
// balances each document separately.
struct RateLevelReference {
  std::vector<double> load;      // converged across-document node loads
  double residual = 0;           // worst per-lane distance to its own TLB
};

RateLevelReference BatchReference(const RoutingTree& tree,
                                  const DemandMatrix& demand, int threads) {
  WebWaveOptions opt;
  opt.threads = threads;
  BatchWebWaveSimulator batch = MakeCatalogBatch(tree, demand, opt);
  for (int s = 0; s < 20000; ++s) batch.Step();
  RateLevelReference ref;
  ref.load = batch.NodeLoads();
  for (DocId d = 0; d < demand.doc_count(); ++d) {
    const WebFoldResult tlb = WebFold(tree, demand.DocColumn(d));
    ref.residual =
        std::max(ref.residual, batch.DistanceTo(d, tlb.load));
  }
  return ref;
}

}  // namespace
}  // namespace webwave

int main() {
  using namespace webwave;
  std::printf(
      "E10 / Section 5.1 — packet-level simulation, binary tree depth 3\n"
      "Zipf(1.0) demand, 12 documents, 150 req/s per leaf, 5 ms links,\n"
      "gossip 100 ms, diffusion 200 ms, 60 s simulated\n\n");

  Rng rng(101);
  const RoutingTree tree = MakeKaryTree(2, 3);
  const DemandMatrix demand = LeafZipfDemand(tree, 12, 150.0, 1.0, rng);
  // Rate-level target from the batch engine: per-document lanes stepped to
  // convergence, summed over the catalog.
  const RateLevelReference target =
      BatchReference(tree, demand, bench::ReadConfig(1).threads);
  std::printf(
      "rate-level reference: batch engine, %d lanes to convergence "
      "(worst per-lane residual to its TLB: %.2e)\n\n",
      demand.doc_count(), target.residual);

  AsciiTable table({"policy", "max load", "CoV", "hit depth", "resp ms",
                    "msgs/req", "transfers", "dist to TLB"});
  for (const CachePolicy policy :
       {CachePolicy::kNoCaching, CachePolicy::kEnRouteLru,
        CachePolicy::kIcpLike, CachePolicy::kWebWave}) {
    PacketSimOptions opt;
    opt.policy = policy;
    opt.duration = 60 * kMicrosPerSecond;
    opt.warmup = 10 * kMicrosPerSecond;
    opt.lru_capacity = 3;
    opt.seed = 17;
    const PacketSimReport report =
        PacketSim(tree, demand, opt, target.load).Run();
    double max_load = 0;
    for (const double l : report.measured_loads)
      max_load = std::max(max_load, l);
    table.AddRow(
        {PolicyName(policy), AsciiTable::Num(max_load, 1),
         AsciiTable::Num(CoefficientOfVariation(report.measured_loads), 3),
         AsciiTable::Num(report.mean_hit_depth, 2),
         AsciiTable::Num(report.mean_response_ms, 1),
         AsciiTable::Num(report.control_messages_per_request, 3),
         std::to_string(report.doc_transfers),
         AsciiTable::Num(
             EuclideanDistance(report.measured_loads, target.load), 1)});
  }
  std::printf("%s\n", table.Render().c_str());

  // WebWave's adaptation over time: the EWMA-load distance to TLB per
  // diffusion period.
  PacketSimOptions opt;
  opt.policy = CachePolicy::kWebWave;
  opt.duration = 60 * kMicrosPerSecond;
  opt.warmup = 10 * kMicrosPerSecond;
  opt.seed = 17;
  const PacketSimReport wave =
      PacketSim(tree, demand, opt, target.load).Run();
  std::printf("WebWave distance-to-TLB trajectory (EWMA loads, one sample "
              "per 200 ms):\n\n");
  std::vector<std::pair<std::string, double>> plot;
  for (std::size_t i = 0; i < wave.distance_trajectory.size();
       i += std::max<std::size_t>(1, wave.distance_trajectory.size() / 24))
    plot.push_back({"t=" + AsciiTable::Num(0.2 * static_cast<double>(i), 1) + "s",
                    wave.distance_trajectory[i]});
  std::printf("%s\n", AsciiBarChart(plot, 46).c_str());
  std::printf("tunnel events: %llu\n\n",
              static_cast<unsigned long long>(wave.tunnel_events));

  // §7's network-traffic question: where do the bytes flow?  Aggregate
  // per-edge traffic by the depth of the edge's child — no-caching funnels
  // everything through the root links, WebWave keeps traffic at the edge.
  {
    PacketSimOptions none_opt = opt;
    none_opt.policy = CachePolicy::kNoCaching;
    const PacketSimReport none =
        PacketSim(tree, demand, none_opt, target.load).Run();
    AsciiTable traffic({"edge depth", "no-caching KB", "webwave KB",
                        "reduction"});
    for (int depth = 1; depth <= tree.height(); ++depth) {
      double none_kb = 0, wave_kb = 0;
      for (NodeId v = 0; v < tree.size(); ++v) {
        if (tree.is_root(v) || tree.depth(v) != depth) continue;
        none_kb += none.edge_traffic_kb[static_cast<std::size_t>(v)];
        wave_kb += wave.edge_traffic_kb[static_cast<std::size_t>(v)];
      }
      traffic.AddRow({std::to_string(depth), AsciiTable::Num(none_kb, 0),
                      AsciiTable::Num(wave_kb, 0),
                      wave_kb > 0 ? AsciiTable::Num(none_kb / wave_kb, 1) + "x"
                                  : "-"});
    }
    std::printf("link traffic by depth (child-side of each edge):\n%s\n",
                traffic.Render().c_str());
  }
  std::printf(
      "Reading: WebWave reaches the most balanced distribution (lowest CoV,\n"
      "closest to TLB), serves requests nearest to their origin after\n"
      "adaptation, and its control overhead per request is far below the\n"
      "ICP-like discovery cost at realistic request volumes.\n");
  return 0;
}
