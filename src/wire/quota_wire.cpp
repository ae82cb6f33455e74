#include "wire/quota_wire.h"


#include "wire/codec.h"

namespace webwave {

namespace {

constexpr std::size_t kFixedHeader = 32;

std::size_t BodySize(std::int64_t nodes, std::int64_t cells) {
  return kFixedHeader + static_cast<std::size_t>(nodes + 1) * 8 +
         static_cast<std::size_t>(cells) * (4 + 8 + 8);
}

}  // namespace

std::size_t QuotaWireTable::Serialize(const QuotaSnapshot& snapshot,
                                      std::vector<std::uint8_t>* out) {
  const int nodes = snapshot.node_count();
  const std::int64_t cells = snapshot.cell_count();
  const std::size_t total = BodySize(nodes, cells);
  const std::size_t base = out->size();
  out->resize(base + total);
  std::uint8_t* p = out->data() + base;
  PutU32(p, kMagic);
  PutU32(p + 4, kVersion);
  PutU32(p + 8, static_cast<std::uint32_t>(nodes));
  PutU32(p + 12, static_cast<std::uint32_t>(snapshot.doc_count()));
  PutU64(p + 16, static_cast<std::uint64_t>(cells));
  PutF64(p + 24, snapshot.total_rate());
  p += kFixedHeader;
  for (int v = 0; v <= nodes; ++v, p += 8)
    PutU64(p, static_cast<std::uint64_t>(
                  v == 0 ? 0 : snapshot.row_end(static_cast<NodeId>(v - 1))));
  const std::int32_t* doc = snapshot.cell_docs();
  const double* rate = snapshot.cell_rates();
  const double* frac = snapshot.cell_fractions();
  for (std::int64_t c = 0; c < cells; ++c, p += 4)
    PutU32(p, static_cast<std::uint32_t>(doc[c]));
  for (std::int64_t c = 0; c < cells; ++c, p += 8) PutF64(p, rate[c]);
  for (std::int64_t c = 0; c < cells; ++c, p += 8) PutF64(p, frac[c]);
  return total;
}

bool QuotaWireTable::Deserialize(const std::uint8_t* data, std::size_t len,
                                 QuotaSnapshot* out) {
  if (len < kFixedHeader) return false;
  if (GetU32(data) != kMagic || GetU32(data + 4) != kVersion) return false;
  const std::int32_t nodes = static_cast<std::int32_t>(GetU32(data + 8));
  const std::int32_t docs = static_cast<std::int32_t>(GetU32(data + 12));
  const std::int64_t cells = static_cast<std::int64_t>(GetU64(data + 16));
  if (nodes < 0 || docs < 0 || cells < 0) return false;
  if (len != BodySize(nodes, cells)) return false;
  const double total = GetF64(data + 24);

  const std::uint8_t* p = data + kFixedHeader;
  std::vector<std::int64_t> row_off(static_cast<std::size_t>(nodes) + 1);
  for (std::int32_t v = 0; v <= nodes; ++v, p += 8)
    row_off[static_cast<std::size_t>(v)] =
        static_cast<std::int64_t>(GetU64(p));
  if (row_off[0] != 0 || row_off[static_cast<std::size_t>(nodes)] != cells)
    return false;
  for (std::int32_t v = 0; v < nodes; ++v)
    if (row_off[static_cast<std::size_t>(v)] >
        row_off[static_cast<std::size_t>(v) + 1])
      return false;

  std::vector<std::int32_t> doc(static_cast<std::size_t>(cells));
  for (std::int64_t c = 0; c < cells; ++c, p += 4) {
    doc[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(GetU32(p));
    if (doc[static_cast<std::size_t>(c)] < 0 ||
        doc[static_cast<std::size_t>(c)] >= docs)
      return false;
  }
  // Within a row, documents must be strictly ascending (the CellOf binary
  // search depends on it).
  for (std::int32_t v = 0; v < nodes; ++v)
    for (std::int64_t c = row_off[static_cast<std::size_t>(v)] + 1;
         c < row_off[static_cast<std::size_t>(v) + 1]; ++c)
      if (doc[static_cast<std::size_t>(c)] <=
          doc[static_cast<std::size_t>(c) - 1])
        return false;

  std::vector<double> rate(static_cast<std::size_t>(cells));
  for (std::int64_t c = 0; c < cells; ++c, p += 8)
    rate[static_cast<std::size_t>(c)] = GetF64(p);
  std::vector<double> frac(static_cast<std::size_t>(cells));
  for (std::int64_t c = 0; c < cells; ++c, p += 8)
    frac[static_cast<std::size_t>(c)] = GetF64(p);

  QuotaSnapshot s;
  s.nodes_ = nodes;
  s.docs_ = docs;
  s.total_ = total;
  s.row_off_ = std::move(row_off);
  s.doc_ = std::move(doc);
  s.rate_ = std::move(rate);
  s.frac_ = std::move(frac);
  *out = std::move(s);
  return true;
}

bool QuotaWireTable::DiffSnapshots(const QuotaSnapshot& from,
                                   const QuotaSnapshot& to, QuotaDelta* out) {
  if (from.node_count() != to.node_count() ||
      from.doc_count() != to.doc_count())
    return false;
  out->rows.clear();
  out->total_rate = to.total_rate();
  const int nodes = to.node_count();
  for (int v = 0; v < nodes; ++v) {
    const NodeId node = static_cast<NodeId>(v);
    const std::int64_t fb = v == 0 ? 0 : from.row_end(node - 1);
    const std::int64_t fe = from.row_end(node);
    const std::int64_t tb = v == 0 ? 0 : to.row_end(node - 1);
    const std::int64_t te = to.row_end(node);
    bool same = (fe - fb) == (te - tb);
    if (same) {
      // Bit-pattern comparison: memcmp over the raw arrays, so NaNs and
      // signed zeros compare the way the wire round-trip preserves them.
      const std::size_t n = static_cast<std::size_t>(fe - fb);
      same = std::memcmp(from.cell_docs() + fb, to.cell_docs() + tb,
                         n * sizeof(std::int32_t)) == 0 &&
             std::memcmp(from.cell_rates() + fb, to.cell_rates() + tb,
                         n * sizeof(double)) == 0 &&
             std::memcmp(from.cell_fractions() + fb, to.cell_fractions() + tb,
                         n * sizeof(double)) == 0;
    }
    if (same) continue;
    QuotaDeltaRow row;
    row.node = node;
    row.cells.reserve(static_cast<std::size_t>(te - tb));
    for (std::int64_t c = tb; c < te; ++c) {
      QuotaDeltaCell cell;
      cell.doc = to.cell_docs()[c];
      cell.rate = to.cell_rates()[c];
      cell.frac = to.cell_fractions()[c];
      row.cells.push_back(cell);
    }
    out->rows.push_back(std::move(row));
  }
  return true;
}

bool QuotaWireTable::ApplyDelta(const QuotaDelta& delta,
                                QuotaSnapshot* snapshot) {
  const int nodes = snapshot->nodes_;
  const int docs = snapshot->docs_;
  for (const QuotaDeltaRow& row : delta.rows) {
    if (row.node < 0 || row.node >= nodes) return false;
    for (const QuotaDeltaCell& cell : row.cells)
      if (cell.doc < 0 || cell.doc >= docs) return false;
  }

  // Rebuild the CSR arrays splicing the replaced rows in.  Delta rows
  // arrive strictly ascending by node (the codec enforces it), so one
  // merge pass suffices.
  std::vector<std::int64_t> row_off(static_cast<std::size_t>(nodes) + 1, 0);
  std::vector<std::int32_t> doc;
  std::vector<double> rate;
  std::vector<double> frac;
  doc.reserve(snapshot->doc_.size());
  rate.reserve(snapshot->rate_.size());
  frac.reserve(snapshot->frac_.size());
  std::size_t next_row = 0;
  for (int v = 0; v < nodes; ++v) {
    const NodeId node = static_cast<NodeId>(v);
    if (next_row < delta.rows.size() && delta.rows[next_row].node == node) {
      for (const QuotaDeltaCell& cell : delta.rows[next_row].cells) {
        doc.push_back(cell.doc);
        rate.push_back(cell.rate);
        frac.push_back(cell.frac);
      }
      ++next_row;
    } else {
      const std::int64_t b = snapshot->row_off_[static_cast<std::size_t>(v)];
      const std::int64_t e =
          snapshot->row_off_[static_cast<std::size_t>(v) + 1];
      doc.insert(doc.end(), snapshot->doc_.begin() + b,
                 snapshot->doc_.begin() + e);
      rate.insert(rate.end(), snapshot->rate_.begin() + b,
                  snapshot->rate_.begin() + e);
      frac.insert(frac.end(), snapshot->frac_.begin() + b,
                  snapshot->frac_.begin() + e);
    }
    row_off[static_cast<std::size_t>(v) + 1] =
        static_cast<std::int64_t>(doc.size());
  }
  if (next_row != delta.rows.size()) return false;  // row beyond the table

  snapshot->row_off_ = std::move(row_off);
  snapshot->doc_ = std::move(doc);
  snapshot->rate_ = std::move(rate);
  snapshot->frac_ = std::move(frac);
  snapshot->total_ = delta.total_rate;
  return true;
}

}  // namespace webwave
