#include "flow/graph.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "exec/pinned.hpp"
#include "obs/metrics.hpp"
#include "obs/shards.hpp"
#include "obs/trace.hpp"

namespace tinysdr::flow {

namespace {

// 16 buckets of 1/16 occupancy plus one catching exactly-full rings.
const obs::HistogramSpec kOccupancySpec =
    obs::HistogramSpec::linear(0.0, 1.0625, 17);

}  // namespace

const char* to_string(RunState state) {
  switch (state) {
    case RunState::kDrained:
      return "drained";
    case RunState::kStalled:
      return "stalled";
    case RunState::kBudgetExhausted:
      return "budget-exhausted";
  }
  return "unknown";
}

int FlowGraph::index_of(Block* block) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].block.get() == block) return static_cast<int>(i);
  throw std::invalid_argument("FlowGraph: block not owned by this graph");
}

int FlowGraph::add_edge(Block* from, Block* to, std::size_t capacity) {
  int f = index_of(from);
  int t = index_of(to);
  if (f == t) throw std::invalid_argument("FlowGraph: self-loop");
  if (nodes_[static_cast<std::size_t>(t)].in_edge >= 0)
    throw std::invalid_argument("FlowGraph: block '" + to->name() +
                                "' already has an input edge");
  edges_.push_back(Edge{std::make_unique<SpscRing>(capacity), f, t});
  int edge = static_cast<int>(edges_.size()) - 1;
  nodes_[static_cast<std::size_t>(t)].in_edge = edge;
  return edge;
}

void FlowGraph::connect(Block* from, Block* to, std::size_t capacity) {
  if (nodes_[static_cast<std::size_t>(index_of(from))].out_edge >= 0)
    throw std::invalid_argument("FlowGraph: block '" + from->name() +
                                "' already has a primary output edge");
  int edge = add_edge(from, to, capacity);
  nodes_[static_cast<std::size_t>(edges_[edge].from)].out_edge = edge;
}

void FlowGraph::connect_tap(Block* from, Block* tap, std::size_t capacity) {
  int edge = add_edge(from, tap, capacity);
  nodes_[static_cast<std::size_t>(edges_[edge].from)].tap_edges.push_back(
      edge);
}

std::vector<std::size_t> FlowGraph::topo_order() const {
  std::vector<std::size_t> indegree(nodes_.size(), 0);
  for (const Edge& e : edges_) ++indegree[static_cast<std::size_t>(e.to)];
  std::vector<std::size_t> order;
  order.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (indegree[i] == 0) order.push_back(i);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Node& node = nodes_[order[k]];
    auto relax = [&](int edge) {
      std::size_t to = static_cast<std::size_t>(edges_[edge].to);
      if (--indegree[to] == 0) order.push_back(to);
    };
    if (node.out_edge >= 0) relax(node.out_edge);
    for (int t : node.tap_edges) relax(t);
  }
  if (order.size() != nodes_.size())
    throw std::invalid_argument("FlowGraph: cycle detected");
  for (const Node& node : nodes_)
    if (!node.tap_edges.empty() && node.out_edge < 0)
      throw std::invalid_argument("FlowGraph: block '" + node.block->name() +
                                  "' has taps but no primary output");
  return order;
}

std::size_t FlowGraph::output_space(const Node& node) {
  if (node.out_edge < 0) return 0;
  std::size_t space =
      edges_[static_cast<std::size_t>(node.out_edge)].ring->writable();
  for (int t : node.tap_edges)
    space = std::min(space,
                     edges_[static_cast<std::size_t>(t)].ring->writable());
  return space;
}

void FlowGraph::close_outputs(std::size_t i) {
  const Node& node = nodes_[i];
  if (node.out_edge >= 0)
    edges_[static_cast<std::size_t>(node.out_edge)].ring->close();
  for (int t : node.tap_edges)
    edges_[static_cast<std::size_t>(t)].ring->close();
}

WorkResult FlowGraph::activate(std::size_t i, bool* exhausted_input) {
  Node& node = nodes_[i];
  *exhausted_input = false;

  SpscRing* in_ring =
      node.in_edge >= 0
          ? edges_[static_cast<std::size_t>(node.in_edge)].ring.get()
          : nullptr;
  SpscRing* out_ring =
      node.out_edge >= 0
          ? edges_[static_cast<std::size_t>(node.out_edge)].ring.get()
          : nullptr;

  obs::Registry* m = obs::metrics();

  ReadView in;
  if (in_ring != nullptr) {
    in = in_ring->acquire_read();
    if (m != nullptr)
      m->histogram("flow.ring.occupancy", kOccupancySpec)
          .observe(static_cast<double>(in.size()) /
                   static_cast<double>(in_ring->capacity()));
  }

  WriteView out;
  if (out_ring != nullptr) {
    std::size_t space = output_space(node);
    if (space == 0 && m != nullptr)
      m->counter("flow.backpressure_stalls").add();
    out = out_ring->acquire_write(space);
  }

  WorkResult r = node.block->work(in, out);
  if (r.consumed > in.size() || r.produced > out.size())
    throw std::logic_error("FlowGraph: block '" + node.block->name() +
                           "' overran its views");

  if (out_ring != nullptr) {
    // Taps get their copy before the primary commit publishes the region.
    for (int t : node.tap_edges) {
      SpscRing* tap = edges_[static_cast<std::size_t>(t)].ring.get();
      WriteView mirror = tap->acquire_write(r.produced);
      std::size_t off = 0;
      while (off < r.produced) {
        auto src = out.chunk(off, r.produced - off);
        mirror.write(off, src);
        off += src.size();
      }
      tap->commit_write(r.produced);
    }
    out_ring->commit_write(r.produced);
  } else if (r.produced > 0) {
    throw std::logic_error("FlowGraph: block '" + node.block->name() +
                           "' produced without an output edge");
  }

  if (in_ring != nullptr) {
    in_ring->commit_read(r.consumed);
    *exhausted_input = in.done() && in.empty() && !r.progressed();
  }
  return r;
}

RunReport FlowGraph::run(std::size_t max_iterations) {
  RunReport report;
  if (nodes_.empty()) return report;
  auto order = topo_order();

  obs::TraceSpan span{"flow", "graph-run"};
  span.arg("blocks", static_cast<double>(nodes_.size()));

  const bool traced = obs::tracer() != nullptr;
  std::vector<char> retired(nodes_.size(), 0);
  std::size_t live = nodes_.size();
  bool budget_hit = true;

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    ++report.iterations;
    bool progress = false;
    for (std::size_t idx : order) {
      if (retired[idx] != 0) continue;
      Node& node = nodes_[idx];
      bool exhausted = false;
      WorkResult r;
      if (traced) {
        obs::TraceSpan act{"flow", node.block->name()};
        r = activate(idx, &exhausted);
        act.arg("consumed", static_cast<double>(r.consumed));
        act.arg("produced", static_cast<double>(r.produced));
      } else {
        r = activate(idx, &exhausted);
      }
      progress |= r.progressed();
      bool done = node.in_edge < 0 ? node.block->finished() : exhausted;
      if (done) {
        close_outputs(idx);
        retired[idx] = 1;
        --live;
      }
    }
    if (live == 0) {
      report.state = RunState::kDrained;
      budget_hit = false;
      break;
    }
    if (!progress) {
      report.state = RunState::kStalled;
      budget_hit = false;
      // Name the first block (topo order) that had work available yet
      // made none: readable input (or an unfinished source) plus writable
      // space — or no output edge at all, the classic missing-sink stall.
      for (std::size_t idx : order) {
        if (retired[idx] != 0) continue;
        Node& node = nodes_[idx];
        bool has_input =
            node.in_edge >= 0 &&
            edges_[static_cast<std::size_t>(node.in_edge)].ring->readable() >
                0;
        bool source_ready = node.in_edge < 0 && !node.block->finished();
        bool space_ok = node.out_edge < 0 || output_space(node) > 0;
        if ((has_input || source_ready) && space_ok) {
          report.stalled_block = node.block->name();
          break;
        }
      }
      if (report.stalled_block.empty()) {
        for (std::size_t idx : order)
          if (retired[idx] == 0) {
            report.stalled_block = nodes_[idx].block->name();
            break;
          }
      }
      break;
    }
  }
  if (budget_hit) report.state = RunState::kBudgetExhausted;

  for (const Edge& e : edges_)
    report.samples_streamed += e.ring->total_produced();

  span.arg("iterations", static_cast<double>(report.iterations));
  span.arg("state", std::string(to_string(report.state)));
  if (!report.stalled_block.empty())
    span.arg("stalled_block", report.stalled_block);
  if (auto* m = obs::metrics()) {
    m->counter("flow.graph_runs").add();
    m->counter("flow.samples_streamed")
        .add(static_cast<double>(report.samples_streamed));
  }
  return report;
}

RunReport FlowGraph::run_threaded() {
  RunReport report;
  if (nodes_.empty()) return report;
  (void)topo_order();  // validates the topology (cycles, tap wiring)

  obs::TraceSpan span{"flow", "graph-run-threaded"};
  span.arg("blocks", static_cast<double>(nodes_.size()));

  for (Edge& e : edges_) e.ring->set_blocking(true);

  std::atomic<bool> abort{false};
  std::atomic<int> stalled{-1};
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto poison = [this] {
    for (Edge& e : edges_) e.ring->close();
  };

  obs::ItemShards shards{nodes_.size()};

  auto node_loop = [&](std::size_t i) {
    Node& node = nodes_[i];
    SpscRing* in_ring =
        node.in_edge >= 0
            ? edges_[static_cast<std::size_t>(node.in_edge)].ring.get()
            : nullptr;
    SpscRing* out_ring =
        node.out_edge >= 0
            ? edges_[static_cast<std::size_t>(node.out_edge)].ring.get()
            : nullptr;
    const bool traced = obs::tracer() != nullptr;
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (in_ring != nullptr) (void)in_ring->wait_readable();
      if (out_ring != nullptr) {
        (void)out_ring->wait_writable();
        for (int t : node.tap_edges)
          (void)edges_[static_cast<std::size_t>(t)].ring->wait_writable();
      }
      if (abort.load(std::memory_order_relaxed)) return;
      bool exhausted = false;
      WorkResult r;
      if (traced) {
        obs::TraceSpan act{"flow", node.block->name()};
        r = activate(i, &exhausted);
        act.arg("consumed", static_cast<double>(r.consumed));
        act.arg("produced", static_cast<double>(r.produced));
      } else {
        r = activate(i, &exhausted);
      }
      if (node.in_edge < 0 && node.block->finished()) {
        close_outputs(i);
        return;
      }
      if (exhausted) {
        close_outputs(i);
        return;
      }
      if (!r.progressed()) {
        bool has_input = in_ring != nullptr && in_ring->readable() > 0;
        bool source_ready = in_ring == nullptr;  // unfinished, see above
        bool space_ok = out_ring == nullptr || output_space(node) > 0;
        if ((has_input || source_ready) && space_ok) {
          int expected = -1;
          stalled.compare_exchange_strong(expected, static_cast<int>(i));
          abort.store(true, std::memory_order_relaxed);
          poison();
          return;
        }
        // Transient: input empty but upstream still open, or output
        // full — loop back to the waits.
      }
    }
  };

  exec::run_pinned(nodes_.size(), [&](std::size_t i) {
    auto scope = shards.enter(i);
    try {
      node_loop(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true, std::memory_order_relaxed);
      poison();
    }
  });

  for (Edge& e : edges_) e.ring->set_blocking(false);

  // Shards merge in node-index order, so telemetry is deterministic given
  // a deterministic per-node event sequence.
  shards.fold_all();

  if (first_error) std::rethrow_exception(first_error);

  int stalled_idx = stalled.load(std::memory_order_relaxed);
  if (stalled_idx >= 0) {
    report.state = RunState::kStalled;
    report.stalled_block =
        nodes_[static_cast<std::size_t>(stalled_idx)].block->name();
  } else if (abort.load(std::memory_order_relaxed)) {
    report.state = RunState::kStalled;
  }

  std::uint64_t backpressure = 0;
  std::uint64_t credits = 0;
  for (const Edge& e : edges_) {
    report.samples_streamed += e.ring->total_produced();
    backpressure += e.ring->producer_waits();
    credits += e.ring->consumer_waits();
  }

  span.arg("state", std::string(to_string(report.state)));
  if (!report.stalled_block.empty())
    span.arg("stalled_block", report.stalled_block);
  if (auto* m = obs::metrics()) {
    m->counter("flow.graph_runs").add();
    m->counter("flow.samples_streamed")
        .add(static_cast<double>(report.samples_streamed));
    m->counter("flow.backpressure_stalls")
        .add(static_cast<double>(backpressure));
    m->counter("flow.credits_waited").add(static_cast<double>(credits));
  }
  return report;
}

}  // namespace tinysdr::flow
