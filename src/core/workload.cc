// One driver for the four Sec V-B strategies, all sharing the same
// dedup-through-TupleDag front end and accumulator plumbing. In the
// tuple-DAG mode a node's own sweep states are packed into mixed-radix
// uint64 codes over its missing cells (its Δt codec) and kept only until
// the node completes. Sharing then decodes each such sample once and
// tests a descendant only on the cells it assigns beyond the node; every
// sample a node keeps, own or shared, is counted straight into its Δt,
// so no per-node sample list outlives the sharing step. Nodes activate
// when all their DAG parents complete; only the completed node's
// descendants are checked for cascading completion and only its children
// for promotion. Everything here runs on the calling thread: a batch
// that forms one DAG component is one sequential run (the engine only
// parallelizes across components). The independent-product mode never
// samples: it multiplies single-attribute ensemble CPDs cell by cell as
// the paper's baseline.

#include "core/workload.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/timer.h"

namespace mrsl {
namespace {

std::vector<uint32_t> SchemaCards(const Schema& schema) {
  std::vector<uint32_t> cards;
  cards.reserve(schema.num_attrs());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    cards.push_back(static_cast<uint32_t>(schema.attr(a).cardinality()));
  }
  return cards;
}

// Builds the accumulator distribution for one node's missing attributes.
JointDist MakeNodeDist(const Schema& schema, const Tuple& node) {
  std::vector<AttrId> missing = node.MissingAttrs();
  std::vector<uint32_t> cards;
  cards.reserve(missing.size());
  for (AttrId a : missing) {
    cards.push_back(static_cast<uint32_t>(schema.attr(a).cardinality()));
  }
  return JointDist(std::move(missing), std::move(cards));
}

// Accumulates a full-state sample into a node's distribution.
void AccumulateState(const std::vector<ValueId>& state, JointDist* dist) {
  dist->add_prob(dist->codec().EncodeAt(state.data(), dist->vars()), 1.0);
}

// True iff `state` agrees with every assigned cell of `node`.
bool StateMatches(const std::vector<ValueId>& state, const Tuple& node) {
  for (AttrId a = 0; a < node.num_attrs(); ++a) {
    ValueId v = node.value(a);
    if (v != kMissingValue && state[a] != v) return false;
  }
  return true;
}

void FinalizeDist(const GibbsOptions& opts, JointDist* dist) {
  if (opts.smoothing_epsilon > 0.0) {
    dist->SmoothAdditive(opts.smoothing_epsilon);
  } else {
    dist->Normalize();
  }
}

Status ValidateWorkload(const MrslModel& model,
                        const std::vector<Tuple>& workload) {
  for (const Tuple& t : workload) {
    if (t.num_attrs() != model.num_attrs()) {
      return Status::InvalidArgument("workload tuple arity mismatch");
    }
    if (t.IsComplete()) {
      return Status::InvalidArgument(
          "workload tuples must have at least one missing value");
    }
  }
  return Status::OK();
}

// Algorithm 3 driver state for one DAG node.
struct NodeState {
  std::vector<uint64_t> own_codes;  // samples drawn by this node's chain,
                                    // coded by its Δt codec, kept until
                                    // shared on completion
  size_t collected = 0;             // own + received samples, <= N
  bool completed = false;
  bool active = false;
  bool burned = false;
  GibbsSampler::Chain chain;
  bool has_chain = false;
};

}  // namespace

const char* SamplingModeName(SamplingMode mode) {
  switch (mode) {
    case SamplingMode::kTupleAtATime:
      return "tuple-at-a-time";
    case SamplingMode::kTupleDag:
      return "tuple-DAG";
    case SamplingMode::kAllAtATime:
      return "all-at-a-time";
    case SamplingMode::kIndependentProduct:
      return "independent-product";
  }
  return "?";
}

Result<std::vector<JointDist>> RunWorkload(const MrslModel& model,
                                           const std::vector<Tuple>& workload,
                                           SamplingMode mode,
                                           const WorkloadOptions& options,
                                           WorkloadStats* stats) {
  GibbsSampler sampler(&model, options.gibbs);
  return RunWorkloadOn(&sampler, workload, mode, options, stats);
}

Result<std::vector<JointDist>> RunWorkloadOn(
    GibbsSampler* sampler_ptr, const std::vector<Tuple>& workload,
    SamplingMode mode, const WorkloadOptions& options,
    WorkloadStats* stats) {
  GibbsSampler& sampler = *sampler_ptr;
  const MrslModel& model = *sampler.model();
  MRSL_RETURN_IF_ERROR(ValidateWorkload(model, workload));
  WallTimer timer;
  WorkloadStats local;
  // A persistent sampler carries statistics from earlier calls; report
  // only this call's increments.
  const GibbsStats stats_before = sampler.stats();
  const Schema& schema = model.schema();
  const size_t N = options.gibbs.samples;
  const size_t B = options.gibbs.burn_in;

  TupleDag dag(workload);
  local.distinct_tuples = dag.num_nodes();
  std::vector<JointDist> node_dists;
  node_dists.reserve(dag.num_nodes());
  for (size_t i = 0; i < dag.num_nodes(); ++i) {
    node_dists.push_back(MakeNodeDist(schema, dag.node(i)));
  }

  switch (mode) {
    case SamplingMode::kIndependentProduct: {
      // P(a1..ak | evidence) ~= Π P(ai | evidence): per-attribute single
      // inference with only the observed cells as evidence. Matching uses
      // the sampler context's scratch so concurrent runs stay race-free.
      std::vector<Mrsl::MatchScratch>& scratch =
          *sampler.lattice_scratch();
      for (size_t i = 0; i < dag.num_nodes(); ++i) {
        const Tuple& node = dag.node(i);
        JointDist& dist = node_dists[i];
        std::vector<Cpd> cpds;
        for (AttrId a : dist.vars()) {
          auto cpd = InferSingleAttribute(model, node, a,
                                          options.gibbs.voting,
                                          &scratch[a]);
          if (!cpd.ok()) return cpd.status();
          cpds.push_back(std::move(cpd).value());
        }
        std::vector<ValueId> combo(dist.vars().size());
        for (uint64_t code = 0; code < dist.size(); ++code) {
          dist.codec().DecodeInto(code, combo.data());
          double p = 1.0;
          for (size_t k = 0; k < combo.size(); ++k) {
            p *= cpds[k].prob(combo[k]);
          }
          dist.set_prob(code, p);
        }
        dist.Normalize();
      }
      break;
    }

    case SamplingMode::kTupleAtATime: {
      for (size_t i = 0; i < dag.num_nodes(); ++i) {
        auto chain_or = sampler.MakeChain(dag.node(i));
        if (!chain_or.ok()) return chain_or.status();
        GibbsSampler::Chain chain = std::move(chain_or).value();
        for (size_t b = 0; b < B; ++b) sampler.Step(&chain);
        local.burn_in_points += B;
        local.points_sampled += B;
        for (size_t s = 0; s < N; ++s) {
          sampler.Step(&chain);
          ++local.points_sampled;
          sampler.Record(chain, &node_dists[i]);
        }
        FinalizeDist(options.gibbs, &node_dists[i]);
      }
      break;
    }

    case SamplingMode::kTupleDag: {
      std::vector<NodeState> nodes(dag.num_nodes());
      std::vector<uint32_t> active = dag.Roots();
      for (uint32_t r : active) nodes[r].active = true;
      size_t completed_count = 0;
      // Nodes completed since the active list was last rebuilt.
      std::vector<uint32_t> just_completed;

      // Marks a node completed and shares its own samples with every
      // incomplete descendant. Each sample is decoded once, into a row of
      // `x`'s missing cells; a descendant is tested only on the cells it
      // assigns beyond `x`, since it agrees with `x` on the rest.
      std::vector<ValueId> rows;
      std::vector<uint32_t> slot(schema.num_attrs());  // attr -> row cell
      std::vector<std::pair<uint32_t, ValueId>> extra;  // (cell, value)
      std::vector<uint32_t> gather;  // a descendant's Δt vars -> row cells
      auto complete_node = [&](uint32_t x) {
        NodeState& nx = nodes[x];
        nx.completed = true;
        nx.active = false;
        ++completed_count;
        just_completed.push_back(x);
        const JointDist& dx = node_dists[x];
        const size_t M = dx.vars().size();
        const size_t own = nx.own_codes.size();
        rows.resize(own * M);
        for (size_t k = 0; k < own; ++k) {
          dx.codec().DecodeInto(nx.own_codes[k], &rows[k * M]);
        }
        for (size_t j = 0; j < M; ++j) slot[dx.vars()[j]] = j;
        for (uint32_t s : dag.descendants(x)) {
          NodeState& ns = nodes[s];
          if (ns.completed) continue;
          const Tuple& node = dag.node(s);
          JointDist& ds = node_dists[s];
          extra.clear();
          for (AttrMask m = dag.complete_mask(s) & ~dag.complete_mask(x);
               m != 0; m &= m - 1) {
            const AttrId a = static_cast<AttrId>(__builtin_ctzll(m));
            extra.emplace_back(slot[a], node.value(a));
          }
          gather.clear();
          for (AttrId a : ds.vars()) gather.push_back(slot[a]);
          for (size_t k = 0; k < own && ns.collected < N; ++k) {
            const ValueId* row = &rows[k * M];
            bool match = true;
            for (size_t i = 0; i < extra.size() && match; ++i) {
              match = row[extra[i].first] == extra[i].second;
            }
            if (!match) continue;
            ds.add_prob(ds.codec().EncodeAt(row, gather), 1.0);
            ++ns.collected;
            ++local.shared_samples;
          }
        }
        std::vector<uint64_t>().swap(nx.own_codes);
      };

      size_t cursor = 0;
      while (!active.empty()) {
        if (cursor >= active.size()) cursor = 0;
        uint32_t r = active[cursor];
        NodeState& nr = nodes[r];
        assert(nr.active && !nr.completed);
        if (!nr.has_chain) {
          auto chain_or = sampler.MakeChain(dag.node(r));
          if (!chain_or.ok()) return chain_or.status();
          nr.chain = std::move(chain_or).value();
          nr.has_chain = true;
        }
        if (!nr.burned) {
          for (size_t b = 0; b < B; ++b) sampler.Step(&nr.chain);
          local.burn_in_points += B;
          local.points_sampled += B;
          nr.burned = true;
        }
        sampler.Step(&nr.chain);
        ++local.points_sampled;
        JointDist& dr = node_dists[r];
        const uint64_t code =
            dr.codec().EncodeAt(nr.chain.state.data(), dr.vars());
        if (!dag.descendants(r).empty()) nr.own_codes.push_back(code);
        if (nr.collected < N) {
          dr.add_prob(code, 1.0);
          ++nr.collected;
        }

        if (nr.collected >= N) {
          complete_node(r);
          // A shared batch may have pushed descendants to N as well; no
          // other node received samples.
          bool changed = true;
          while (changed) {
            changed = false;
            for (uint32_t s : dag.descendants(r)) {
              if (!nodes[s].completed && nodes[s].collected >= N) {
                complete_node(s);
                changed = true;
              }
            }
          }
          // Drop completed nodes from the active list, then promote, in
          // id order, the newly rooted nodes: only children of a node
          // completed just now can have lost their last incomplete parent.
          std::vector<uint32_t> next_active;
          for (uint32_t a : active) {
            if (!nodes[a].completed) next_active.push_back(a);
          }
          std::vector<uint32_t> candidates;
          for (uint32_t x : just_completed) {
            for (uint32_t c : dag.children(x)) {
              if (!nodes[c].completed && !nodes[c].active) {
                candidates.push_back(c);
              }
            }
          }
          just_completed.clear();
          std::sort(candidates.begin(), candidates.end());
          candidates.erase(std::unique(candidates.begin(), candidates.end()),
                           candidates.end());
          for (uint32_t c : candidates) {
            bool ready = true;
            for (uint32_t p : dag.parents(c)) {
              if (!nodes[p].completed) {
                ready = false;
                break;
              }
            }
            if (ready) {
              nodes[c].active = true;
              next_active.push_back(c);
            }
          }
          active = std::move(next_active);
          cursor = 0;
        } else {
          ++cursor;
        }
      }
      assert(completed_count == dag.num_nodes());
      (void)completed_count;

      for (JointDist& dist : node_dists) FinalizeDist(options.gibbs, &dist);
      break;
    }

    case SamplingMode::kAllAtATime: {
      MixedRadix codec(SchemaCards(schema));
      if (codec.Saturated()) {
        return Status::FailedPrecondition(
            "schema domain exceeds 64-bit sample codes");
      }
      // One chain over t* = the all-missing tuple.
      Tuple t_star(schema.num_attrs());
      auto chain_or = sampler.MakeChain(t_star);
      if (!chain_or.ok()) return chain_or.status();
      GibbsSampler::Chain chain = std::move(chain_or).value();
      for (size_t b = 0; b < B; ++b) sampler.Step(&chain);
      local.burn_in_points += B;
      local.points_sampled += B;

      std::vector<size_t> counts(dag.num_nodes(), 0);
      size_t remaining = dag.num_nodes();
      while (remaining > 0 &&
             (options.max_total_cycles == 0 ||
              local.points_sampled < options.max_total_cycles)) {
        sampler.Step(&chain);
        ++local.points_sampled;
        for (size_t i = 0; i < dag.num_nodes(); ++i) {
          if (counts[i] >= N) continue;
          if (StateMatches(chain.state, dag.node(i))) {
            AccumulateState(chain.state, &node_dists[i]);
            if (++counts[i] == N) --remaining;
          }
        }
      }
      for (auto& dist : node_dists) FinalizeDist(options.gibbs, &dist);
      break;
    }
  }

  // Map node distributions back to workload positions.
  std::vector<JointDist> out;
  out.reserve(workload.size());
  for (size_t pos = 0; pos < workload.size(); ++pos) {
    out.push_back(node_dists[dag.workload_to_node()[pos]]);
  }

  local.cache_hits = sampler.stats().cache_hits - stats_before.cache_hits;
  local.cpd_evaluations =
      sampler.stats().cpd_evaluations - stats_before.cpd_evaluations;
  local.wall_seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace mrsl
