#include "baselines/kmw.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "baselines/run_state.hpp"
#include "congest/engine.hpp"
#include "core/params.hpp"
#include "util/math.hpp"

namespace hypercover::baselines {

namespace {

// ---------------------------------------------------------------------------
// Protocol. Duals start at the globally uniform value
//   δ0 = w_min / (2 Delta)
// (feasible: a degree-d vertex accumulates d * δ0 <= w_min/2 <= w(v)/2) and
// all uncovered edges scale by (1 + beta) each iteration. The uniform —
// *not* per-edge-normalized — start is what makes the mechanism pay the
// log W term: a heavy vertex must wait for its duals to climb the whole
// weight range. We assume w_min and Delta are globally known, the standard
// assumption of the [13, 18]-era algorithms this baseline renders (the
// paper's algorithm needs neither).
//
// Each iteration is one vertex round and one edge round; no init rounds.
// ---------------------------------------------------------------------------

enum class VTag : std::uint8_t { kCovered, kContinue };

struct VMsg {
  VTag tag{VTag::kContinue};
  [[nodiscard]] std::uint32_t bit_size() const { return 1; }
};

enum class ETag : std::uint8_t { kCovered, kScaled };

struct EMsg {
  ETag tag{ETag::kScaled};
  [[nodiscard]] std::uint32_t bit_size() const { return 1; }
};

struct Shared {
  const hg::Hypergraph* graph = nullptr;
  double beta = 0;
  double delta0 = 0;
};

struct KmwVertexAgent {
  const Shared* cfg = nullptr;
  double weight = 0;
  std::uint32_t degree = 0;
  std::vector<double> delta;         // replica of δ(e), by local index
  std::vector<std::uint8_t> active;  // e in E'(v)?
  std::uint32_t active_count = 0;
  double sum_delta = 0;
  bool in_cover_flag = false;
  bool halted_flag = false;

  void configure(const Shared* shared, hg::VertexId v) {
    cfg = shared;
    weight = static_cast<double>(cfg->graph->weight(v));
    degree = cfg->graph->degree(v);
    delta.assign(degree, cfg->delta0);
    active.assign(degree, 1);
    active_count = degree;
    sum_delta = cfg->delta0 * degree;
  }

  template <class Ctx>
  void step(Ctx& ctx) {
    const std::uint32_t r = ctx.round();
    if (r == 0 && degree == 0) {
      halted_flag = true;
      return;
    }
    if (r > 0) {
      // Fold the edge round's outcome.
      const auto in = ctx.inbox();
      for (std::uint32_t k = 0; k < degree; ++k) {
        if (!active[k]) continue;
        const EMsg* m = in.get(k);
        if (m == nullptr) continue;
        if (m->tag == ETag::kCovered) {
          active[k] = 0;  // δ stays frozen inside sum_delta
          --active_count;
        } else {
          sum_delta += cfg->beta * delta[k];
          delta[k] *= 1.0 + cfg->beta;
        }
      }
      if (active_count == 0) {
        halted_flag = true;
        return;
      }
    }
    VMsg m;
    if (sum_delta >= (1.0 - cfg->beta) * weight) {
      in_cover_flag = true;
      halted_flag = true;
      m.tag = VTag::kCovered;
    } else {
      m.tag = VTag::kContinue;
    }
    for (std::uint32_t k = 0; k < degree; ++k) {
      if (active[k]) ctx.send(k, m);
    }
  }

  [[nodiscard]] bool halted() const noexcept { return halted_flag; }
  [[nodiscard]] bool in_cover() const noexcept { return in_cover_flag; }
};

struct KmwEdgeAgent {
  const Shared* cfg = nullptr;
  std::uint32_t size = 0;
  double delta = 0;
  bool halted_flag = false;

  void configure(const Shared* shared, hg::EdgeId e) {
    cfg = shared;
    size = cfg->graph->edge_size(e);
    delta = cfg->delta0;
  }

  template <class Ctx>
  void step(Ctx& ctx) {
    bool covered_now = false;
    const auto in = ctx.inbox();
    for (std::uint32_t j = 0; j < size; ++j) {
      const VMsg* m = in.get(j);
      if (m->tag == VTag::kCovered) covered_now = true;
    }
    EMsg m;
    if (covered_now) {
      halted_flag = true;
      m.tag = ETag::kCovered;
    } else {
      delta *= 1.0 + cfg->beta;
      m.tag = ETag::kScaled;
    }
    ctx.broadcast(m);
  }

  [[nodiscard]] bool halted() const noexcept { return halted_flag; }
};

struct Protocol {
  using VertexMsg = VMsg;
  using EdgeMsg = EMsg;
  using VertexAgent = KmwVertexAgent;
  using EdgeAgent = KmwEdgeAgent;
};

}  // namespace

struct KmwRun::Impl
    : detail::BaselineRunState<Protocol, KmwOptions, Shared> {};

KmwRun::KmwRun(const hg::Hypergraph& g, const KmwOptions& opts) {
  if (!(opts.eps > 0.0) || opts.eps > 1.0) {
    throw std::invalid_argument("solve_kmw: eps must be in (0, 1]");
  }
  const std::uint32_t rank = std::max<std::uint32_t>(g.rank(), 1);
  const std::uint32_t f =
      opts.f_override != 0 ? std::max(opts.f_override, rank) : rank;

  impl_ = std::make_unique<Impl>();
  if (!impl_->init(g, opts)) return;  // edge-free: complete immediately

  hg::Weight w_min = std::numeric_limits<hg::Weight>::max();
  for (const hg::Weight w : g.weights()) w_min = std::min(w_min, w);

  Shared& shared = impl_->shared;
  shared.graph = &g;
  shared.beta = core::beta_for(f, opts.eps);
  shared.delta0 =
      static_cast<double>(w_min) / (2.0 * std::max(g.max_degree(), 1u));

  congest::Engine<Protocol>& eng = *impl_->eng;
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    eng.vertex_agents()[v].configure(&shared, v);
  }
  for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
    eng.edge_agents()[e].configure(&shared, e);
  }
}

KmwRun::~KmwRun() = default;
KmwRun::KmwRun(KmwRun&&) noexcept = default;
KmwRun& KmwRun::operator=(KmwRun&&) noexcept = default;

void KmwRun::step_round() { impl_->step_round(); }

bool KmwRun::done() const { return impl_->done(); }

std::uint32_t KmwRun::rounds() const { return impl_->round; }

std::size_t KmwRun::live_agents() const { return impl_->live_agents(); }

const congest::RunStats& KmwRun::stats() const { return impl_->stats(); }

std::uint32_t KmwRun::max_rounds() const {
  return impl_->opts.engine.max_rounds;
}

const KmwOptions& KmwRun::options() const { return impl_->opts; }

BaselineResult KmwRun::finish_result() {
  // 2 rounds per iteration, no init rounds.
  return impl_->finish([](std::uint32_t rounds) { return (rounds + 1) / 2; });
}

api::Solution KmwRun::finish() {
  api::Solution sol;
  static_cast<api::SolutionCore&>(sol) = finish_result();
  sol.algorithm = "kmw";
  sol.outcome = finish_outcome(sol.net.completed);
  return sol;
}

BaselineResult solve_kmw(const hg::Hypergraph& g, const KmwOptions& opts) {
  KmwRun run(g, opts);
  api::drive(run);
  return run.finish_result();
}

}  // namespace hypercover::baselines
