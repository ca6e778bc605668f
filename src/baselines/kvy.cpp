#include "baselines/kvy.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "baselines/run_state.hpp"
#include "congest/engine.hpp"
#include "core/params.hpp"
#include "util/math.hpp"

namespace hypercover::baselines {

namespace {

// Residuals are reals; we transmit them as doubles and account their size
// as integer-part width plus a 20-bit fixed-point fraction — the message
// discipline [15] would need under the paper's poly(n) weight assumption.
std::uint32_t real_bits(double value) {
  const auto ipart = static_cast<std::uint64_t>(std::max(value, 0.0));
  return util::bit_width_or_one(ipart) + 20;
}

enum class VTag : std::uint8_t { kCovered, kResid };

struct VMsg {
  double resid = 0;
  std::uint32_t degree = 0;
  VTag tag{VTag::kResid};
  [[nodiscard]] std::uint32_t bit_size() const {
    if (tag == VTag::kResid) {
      return 2 + real_bits(resid) + util::bit_width_or_one(degree);
    }
    return 2;
  }
};
static_assert(sizeof(VMsg) == 16);

enum class ETag : std::uint8_t { kCovered, kBid };

struct EMsg {
  double min_resid = 0;
  std::uint32_t min_degree = 1;
  ETag tag{ETag::kBid};
  [[nodiscard]] std::uint32_t bit_size() const {
    if (tag == ETag::kBid) {
      return 2 + real_bits(min_resid) + util::bit_width_or_one(min_degree);
    }
    return 2;
  }
};
static_assert(sizeof(EMsg) == 16);

struct Shared {
  const hg::Hypergraph* graph = nullptr;
  double beta = 0;
};

/// `active` is the vertex's still-uncovered links as local indices in
/// ascending order: a span over a run-owned array laid out over the vertex
/// CSR, compacted in place as links get covered, so the sum_delta fold and
/// the sends keep edges_of(v) order.
struct KvyVertexAgent {
  const Shared* cfg = nullptr;
  double weight = 0;
  std::span<std::uint32_t> active;
  double sum_delta = 0;
  bool in_cover_flag = false;
  bool halted_flag = false;

  /// `links` holds one element per incident edge and must outlive the
  /// agent.
  void configure(const Shared* shared, hg::VertexId v,
                 std::span<std::uint32_t> links) {
    cfg = shared;
    weight = static_cast<double>(cfg->graph->weight(v));
    active = links;
    for (std::uint32_t k = 0; k < active.size(); ++k) active[k] = k;
  }

  template <class Ctx>
  void step(Ctx& ctx) {
    if (ctx.round() == 0) {
      if (active.empty()) {
        halted_flag = true;
        return;
      }
      send_resid(ctx);
      return;
    }
    // Fold edge bids / coverage; drop covered links in place.
    const auto in = ctx.inbox();
    std::size_t out = 0;
    for (const std::uint32_t k : active) {
      if (const EMsg* m = in.get(k); m != nullptr) {
        if (m->tag == ETag::kCovered) continue;
        sum_delta += m->min_resid / static_cast<double>(m->min_degree);
      }
      active[out++] = k;
    }
    active = active.first(out);
    if (active.empty()) {
      halted_flag = true;
      return;
    }
    if (sum_delta >= (1.0 - cfg->beta) * weight) {
      in_cover_flag = true;
      halted_flag = true;
      VMsg m;
      m.tag = VTag::kCovered;
      for (const std::uint32_t k : active) ctx.send(k, m);
      return;
    }
    send_resid(ctx);
  }

  template <class Ctx>
  void send_resid(Ctx& ctx) {
    VMsg m;
    m.tag = VTag::kResid;
    m.resid = weight - sum_delta;
    m.degree = static_cast<std::uint32_t>(active.size());
    for (const std::uint32_t k : active) ctx.send(k, m);
  }

  [[nodiscard]] bool halted() const noexcept { return halted_flag; }
  [[nodiscard]] bool in_cover() const noexcept { return in_cover_flag; }
};

struct KvyEdgeAgent {
  const Shared* cfg = nullptr;
  std::uint32_t size = 0;
  double delta = 0;
  bool halted_flag = false;

  void configure(const Shared* shared, hg::EdgeId e) {
    cfg = shared;
    size = cfg->graph->edge_size(e);
  }

  template <class Ctx>
  void step(Ctx& ctx) {
    bool covered_now = false;
    double best = 0;
    std::uint32_t best_d = 1;
    bool first = true;
    const auto in = ctx.inbox();
    for (std::uint32_t j = 0; j < size; ++j) {
      const VMsg* m = in.get(j);
      if (m->tag == VTag::kCovered) {
        covered_now = true;
        continue;
      }
      const bool better = first || m->resid * best_d <
                                       best * static_cast<double>(m->degree);
      if (better) {
        best = m->resid;
        best_d = m->degree;
        first = false;
      }
    }
    EMsg m;
    if (covered_now) {
      halted_flag = true;
      m.tag = ETag::kCovered;
    } else {
      m.tag = ETag::kBid;
      m.min_resid = best;
      m.min_degree = best_d;
      delta += best / static_cast<double>(best_d);
    }
    ctx.broadcast(m);
  }

  [[nodiscard]] bool halted() const noexcept { return halted_flag; }
};

struct Protocol {
  using VertexMsg = VMsg;
  using EdgeMsg = EMsg;
  using VertexAgent = KvyVertexAgent;
  using EdgeAgent = KvyEdgeAgent;
};

}  // namespace

struct KvyRun::Impl
    : detail::BaselineRunState<Protocol, KvyOptions, Shared> {
  // The vertex agents' active links over the vertex CSR.
  std::unique_ptr<std::uint32_t[]> links;
};

KvyRun::KvyRun(const hg::Hypergraph& g, const KvyOptions& opts) {
  if (!(opts.eps > 0.0) || opts.eps > 1.0) {
    throw std::invalid_argument("solve_kvy: eps must be in (0, 1]");
  }
  const std::uint32_t rank = std::max<std::uint32_t>(g.rank(), 1);
  const std::uint32_t f =
      opts.f_override != 0 ? std::max(opts.f_override, rank) : rank;

  impl_ = std::make_unique<Impl>();
  if (!impl_->init(g, opts)) return;  // edge-free: complete immediately

  Shared& shared = impl_->shared;
  shared.graph = &g;
  shared.beta = core::beta_for(f, opts.eps);

  congest::Engine<Protocol>& eng = *impl_->eng;
  impl_->links =
      std::make_unique_for_overwrite<std::uint32_t[]>(g.num_incidences());
  std::uint32_t* links = impl_->links.get();
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    eng.vertex_agents()[v].configure(&shared, v, {links, g.degree(v)});
    links += g.degree(v);
  }
  for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
    eng.edge_agents()[e].configure(&shared, e);
  }
}

KvyRun::~KvyRun() = default;
KvyRun::KvyRun(KvyRun&&) noexcept = default;
KvyRun& KvyRun::operator=(KvyRun&&) noexcept = default;

void KvyRun::step_round() { impl_->step_round(); }

bool KvyRun::done() const { return impl_->done(); }

std::uint32_t KvyRun::rounds() const { return impl_->round; }

std::size_t KvyRun::live_agents() const { return impl_->live_agents(); }

const congest::RunStats& KvyRun::stats() const { return impl_->stats(); }

std::uint32_t KvyRun::max_rounds() const {
  return impl_->opts.engine.max_rounds;
}

const KvyOptions& KvyRun::options() const { return impl_->opts; }

BaselineResult KvyRun::finish_result() {
  // 1 init round, then 2 rounds per iteration.
  return impl_->finish(
      [](std::uint32_t rounds) { return rounds > 1 ? rounds / 2 : 0; });
}

api::Solution KvyRun::finish() {
  api::Solution sol;
  static_cast<api::SolutionCore&>(sol) = finish_result();
  sol.algorithm = "kvy";
  sol.outcome = finish_outcome(sol.net.completed);
  return sol;
}

BaselineResult solve_kvy(const hg::Hypergraph& g, const KvyOptions& opts) {
  KvyRun run(g, opts);
  api::drive(run);
  return run.finish_result();
}

}  // namespace hypercover::baselines
