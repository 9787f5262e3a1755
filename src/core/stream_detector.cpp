#include "core/stream_detector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace lfbs::core {

namespace {

/// Allowance for clock drift between consecutive member edges, in ppm of
/// the gap, and the bound on a group's fitted slope. Must exceed the worst
/// tag crystal (paper decodes ±200 ppm).
constexpr double kDriftTolerancePpm = 400.0;

static_assert(kStepConsensus > 0.5 && kStepConsensus <= 1.0);

/// Incremental least-squares fit of position = intercept + slope * n.
struct LatticeFit {
  double sn = 0.0, sn2 = 0.0, sp = 0.0, snp = 0.0;
  std::size_t count = 0;

  void add(double n, double pos) {
    sn += n;
    sn2 += n * n;
    sp += pos;
    snp += n * pos;
    ++count;
  }

  /// Returns false while the fit is under-determined (fewer than 2 distinct
  /// abscissae).
  bool solve(double* intercept, double* slope) const {
    if (count < 2) return false;
    const double denom = static_cast<double>(count) * sn2 - sn * sn;
    if (std::abs(denom) < 1e-9) return false;
    *slope = (static_cast<double>(count) * snp - sn * sp) / denom;
    *intercept = (sp - *slope * sn) / static_cast<double>(count);
    return true;
  }
};

struct WorkingGroup {
  StreamGroup group;
  LatticeFit fit;
  double last_position = 0.0;
};

/// Members of a phase group split into residue classes of their lattice
/// indices modulo one step, as runs of one array placed by a counting sort:
/// the non-empty classes in ascending residue order, each class in member
/// order. build() reuses the buffers of the last build, so classing costs
/// no allocation per class.
class ResidueClasses {
 public:
  /// Classes `members` (positions into `indices`) by indices[m] mod step,
  /// in O(members + step). The count array holds one entry per residue:
  /// steps are bit-period ratios within the rate plan, and the paper's
  /// plan tops out at 200.
  void build(std::span<const std::int64_t> indices,
             std::span<const std::size_t> members, std::int64_t step) {
    const auto residues = static_cast<std::size_t>(step);
    residue_.resize(members.size());
    next_.assign(residues + 1, 0);
    for (std::size_t k = 0; k < members.size(); ++k) {
      std::int64_t residue = indices[members[k]] % step;
      if (residue < 0) residue += step;
      residue_[k] = static_cast<std::size_t>(residue);
      ++next_[residue_[k] + 1];
    }
    // next_[r] becomes the start of residue r's run.
    starts_.clear();
    for (std::size_t r = 0; r < residues; ++r) {
      if (next_[r + 1] > 0) starts_.push_back(next_[r]);
      next_[r + 1] += next_[r];
    }
    starts_.push_back(members.size());
    // Placing in member order keeps each class in member order.
    ids_.resize(members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
      ids_[next_[residue_[k]]++] = members[k];
    }
  }

  std::size_t count() const { return starts_.size() - 1; }
  std::span<const std::size_t> members(std::size_t c) const {
    return std::span<const std::size_t>(ids_).subspan(
        starts_[c], starts_[c + 1] - starts_[c]);
  }
  /// The largest class; of equal ones, the lowest residue. Needs a class.
  std::size_t dominant() const {
    std::size_t best = 0;
    for (std::size_t c = 1; c < count(); ++c) {
      if (members(c).size() > members(best).size()) best = c;
    }
    return best;
  }

 private:
  std::vector<std::size_t> residue_;  ///< residue of members[k]
  std::vector<std::size_t> next_;     ///< per residue: next free run slot
  std::vector<std::size_t> ids_;      ///< members, by (residue, k)
  std::vector<std::size_t> starts_;   ///< class c is [starts_[c], starts_[c+1])
};

}  // namespace

StreamDetector::StreamDetector(StreamDetectorConfig config)
    : config_(std::move(config)) {
  LFBS_CHECK(config_.lattice_period > 1.0);
  LFBS_CHECK(config_.base_tolerance > 0.0);
  LFBS_CHECK(config_.min_edges >= 1);
}

std::vector<StreamGroup> StreamDetector::detect(
    std::span<const signal::Edge> edges) const {
  std::vector<WorkingGroup> working;

  for (std::size_t i = 0; i < edges.size(); ++i) {
    const double pos = static_cast<double>(edges[i].position);

    // Find the group whose lattice best explains this edge.
    double best_residual = std::numeric_limits<double>::infinity();
    WorkingGroup* best = nullptr;
    std::int64_t best_n = 0;
    for (WorkingGroup& wg : working) {
      const double rel = (pos - wg.group.intercept) / wg.group.slope;
      const auto n = static_cast<std::int64_t>(std::llround(rel));
      if (n < 0) continue;
      const double predicted = wg.group.position_of(n);
      const double residual = std::abs(pos - predicted);
      const double gap = pos - wg.last_position;
      const double tol = config_.base_tolerance +
                         kDriftTolerancePpm * 1e-6 * std::max(gap, 0.0);
      if (residual <= tol && residual < best_residual) {
        best_residual = residual;
        best = &wg;
        best_n = n;
      }
    }

    if (best != nullptr) {
      best->group.edge_indices.push_back(i);
      best->group.lattice_indices.push_back(best_n);
      best->fit.add(static_cast<double>(best_n), pos);
      best->last_position = pos;
      double intercept = 0.0, slope = 0.0;
      if (best->fit.solve(&intercept, &slope)) {
        // Clamp the fitted slope to the drift budget so one outlier cannot
        // derail the lattice.
        const double lo =
            config_.lattice_period * (1.0 - kDriftTolerancePpm * 1e-6);
        const double hi =
            config_.lattice_period * (1.0 + kDriftTolerancePpm * 1e-6);
        best->group.slope = std::clamp(slope, lo, hi);
        best->group.intercept = intercept;
      }
    } else {
      WorkingGroup wg;
      wg.group.intercept = pos;
      wg.group.slope = config_.lattice_period;
      wg.group.edge_indices.push_back(i);
      wg.group.lattice_indices.push_back(0);
      wg.fit.add(0.0, pos);
      wg.last_position = pos;
      working.push_back(std::move(wg));
    }
  }

  // Merge pass: collapse groups whose lattice phases (mod the lattice
  // period) nearly coincide. Splinters and near-collisions become one
  // group; downstream stages treat multi-tag groups as collisions.
  const auto phase_distance = [&](const WorkingGroup& a,
                                  const WorkingGroup& b) {
    const double period = config_.lattice_period;
    double d = std::fmod(b.group.intercept - a.group.intercept, period);
    if (d < 0) d += period;
    return std::min(d, period - d);
  };
  bool merged = true;
  while (merged) {
    merged = false;
    for (std::size_t i = 0; i < working.size() && !merged; ++i) {
      for (std::size_t j = i + 1; j < working.size() && !merged; ++j) {
        if (phase_distance(working[i], working[j]) > config_.merge_radius) {
          continue;
        }
        // Rebuild group i from the union of both edge sets, re-deriving
        // lattice indices against the earlier group's phase.
        WorkingGroup& a = working[i];
        WorkingGroup& b = working[j];
        const double base = std::min(a.group.intercept, b.group.intercept);
        const double slope = a.group.slope;
        std::vector<std::size_t> union_edges = a.group.edge_indices;
        union_edges.insert(union_edges.end(), b.group.edge_indices.begin(),
                           b.group.edge_indices.end());
        std::sort(union_edges.begin(), union_edges.end());
        WorkingGroup fused;
        fused.group.intercept = base;
        fused.group.slope = slope;
        for (std::size_t ei : union_edges) {
          const double pos = static_cast<double>(edges[ei].position);
          const auto n = std::max<std::int64_t>(
              0, static_cast<std::int64_t>(std::llround((pos - base) / slope)));
          fused.group.edge_indices.push_back(ei);
          fused.group.lattice_indices.push_back(n);
          fused.fit.add(static_cast<double>(n), pos);
          fused.last_position = pos;
        }
        double intercept = 0.0, new_slope = 0.0;
        if (fused.fit.solve(&intercept, &new_slope)) {
          const double lo = config_.lattice_period *
                            (1.0 - kDriftTolerancePpm * 1e-6);
          const double hi = config_.lattice_period *
                            (1.0 + kDriftTolerancePpm * 1e-6);
          fused.group.slope = std::clamp(new_slope, lo, hi);
          fused.group.intercept = intercept;
        }
        a = std::move(fused);
        working.erase(working.begin() + static_cast<std::ptrdiff_t>(j));
        merged = true;
      }
    }
  }

  // Outlier prune: a spurious edge that *seeded* a group drags its lattice
  // phase off the true stream. With the full fit now dominated by the real
  // edges, members with large residuals are dropped and the group is
  // re-anchored at its first surviving edge.
  const double prune_tol =
      std::max(config_.base_tolerance, config_.merge_radius) + 1.0;
  for (WorkingGroup& wg : working) {
    if (wg.group.edge_indices.size() < 2 * config_.min_edges) continue;
    WorkingGroup pruned;
    pruned.group.intercept = wg.group.intercept;
    pruned.group.slope = wg.group.slope;
    bool dropped = false;
    for (std::size_t k = 0; k < wg.group.edge_indices.size(); ++k) {
      const double pos =
          static_cast<double>(edges[wg.group.edge_indices[k]].position);
      const std::int64_t n = wg.group.lattice_indices[k];
      if (std::abs(pos - wg.group.position_of(n)) > prune_tol) {
        dropped = true;
        continue;
      }
      pruned.group.edge_indices.push_back(wg.group.edge_indices[k]);
      pruned.group.lattice_indices.push_back(n);
      pruned.fit.add(static_cast<double>(n), pos);
      pruned.last_position = pos;
    }
    if (!dropped || pruned.group.edge_indices.size() < config_.min_edges) {
      continue;
    }
    // Re-anchor lattice indices at the first surviving edge.
    const std::int64_t base = pruned.group.lattice_indices.front();
    for (std::int64_t& n : pruned.group.lattice_indices) n -= base;
    pruned.fit = {};
    for (std::size_t k = 0; k < pruned.group.edge_indices.size(); ++k) {
      pruned.fit.add(
          static_cast<double>(pruned.group.lattice_indices[k]),
          static_cast<double>(edges[pruned.group.edge_indices[k]].position));
    }
    double intercept = 0.0, slope = 0.0;
    if (pruned.fit.solve(&intercept, &slope)) {
      const double lo =
          config_.lattice_period * (1.0 - kDriftTolerancePpm * 1e-6);
      const double hi =
          config_.lattice_period * (1.0 + kDriftTolerancePpm * 1e-6);
      pruned.group.slope = std::clamp(slope, lo, hi);
      pruned.group.intercept = intercept;
    }
    wg = std::move(pruned);
  }

  // Leading-edge strength trim: the first edge of a group is treated as
  // the stream's anchor downstream, so a weak spurious edge that happens to
  // land on the lattice a few slots early would shift and sign-flip the
  // whole decode. Real edges share the tag's reflection magnitude; noise
  // flukes sit just above the detection threshold.
  for (WorkingGroup& wg : working) {
    if (wg.group.edge_indices.size() < 2 * config_.min_edges) continue;
    std::vector<double> strengths;
    strengths.reserve(wg.group.edge_indices.size());
    for (std::size_t ei : wg.group.edge_indices) {
      strengths.push_back(edges[ei].strength);
    }
    std::nth_element(strengths.begin(),
                     strengths.begin() + strengths.size() / 2,
                     strengths.end());
    const double floor = 0.5 * strengths[strengths.size() / 2];
    std::size_t drop = 0;
    while (drop + config_.min_edges < wg.group.edge_indices.size() &&
           edges[wg.group.edge_indices[drop]].strength < floor) {
      ++drop;
    }
    if (drop == 0) continue;
    wg.group.edge_indices.erase(wg.group.edge_indices.begin(),
                                wg.group.edge_indices.begin() +
                                    static_cast<std::ptrdiff_t>(drop));
    const std::int64_t base = wg.group.lattice_indices[drop];
    wg.group.lattice_indices.erase(wg.group.lattice_indices.begin(),
                                   wg.group.lattice_indices.begin() +
                                       static_cast<std::ptrdiff_t>(drop));
    for (std::int64_t& n : wg.group.lattice_indices) n -= base;
    wg.group.intercept += wg.group.slope * static_cast<double>(base);
  }

  std::vector<StreamGroup> result;
  for (WorkingGroup& wg : working) {
    if (wg.group.edge_indices.size() < config_.min_edges) continue;
    const std::vector<SubStream> subs =
        split_streams(wg.group.lattice_indices);
    for (const SubStream& sub : subs) {
      if (sub.members.size() < config_.min_edges) continue;
      StreamGroup g;
      g.intercept = wg.group.intercept;
      g.slope = wg.group.slope;
      g.step = sub.step;
      g.start_index = sub.start;
      g.edge_indices.reserve(sub.members.size());
      g.lattice_indices.reserve(sub.members.size());
      for (std::size_t m : sub.members) {
        g.edge_indices.push_back(wg.group.edge_indices[m]);
        g.lattice_indices.push_back(wg.group.lattice_indices[m]);
      }
      result.push_back(std::move(g));
    }
  }
  std::sort(result.begin(), result.end(),
            [](const StreamGroup& a, const StreamGroup& b) {
              return a.intercept < b.intercept;
            });
  return result;
}

std::vector<StreamDetector::SubStream> StreamDetector::split_streams(
    std::span<const std::int64_t> indices) const {
  LFBS_CHECK(!indices.empty());
  struct Frame {
    std::vector<std::size_t> members;
    std::size_t depth;
  };
  std::vector<SubStream> out;
  std::vector<Frame> stack;
  {
    std::vector<std::size_t> all(indices.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    stack.push_back({std::move(all), 0});
  }

  std::vector<std::int64_t> steps = config_.valid_steps;
  if (steps.empty()) steps.push_back(1);
  std::sort(steps.begin(), steps.end(), std::greater<>());

  // A real NRZ stream toggles at roughly half of its bit boundaries, so its
  // edges should occupy a healthy fraction of its lattice slots. Hypotheses
  // that leave the lattice nearly empty are artifacts (e.g. two co-phased
  // slow tags whose residues happen to share a parity).
  constexpr double kMinOccupancy = 0.15;
  const auto occupancy = [&](std::span<const std::size_t> members,
                             std::int64_t step) {
    std::int64_t lo = indices[members.front()], hi = lo;
    for (std::size_t m : members) {
      lo = std::min(lo, indices[m]);
      hi = std::max(hi, indices[m]);
    }
    const double slots = static_cast<double>(hi - lo) /
                             static_cast<double>(step) + 1.0;
    return static_cast<double>(members.size()) / slots;
  };

  // One set of residue classes per step, rebuilt for every frame.
  // Hypothesis B runs only when hypothesis A found no strong step, that is
  // after A built the classes of every step, so B reads A's.
  std::vector<ResidueClasses> classes_by_step(steps.size());
  std::vector<std::size_t> big;  // hypothesis B's classes of one step

  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const auto& members = frame.members;

    // Hypothesis A: a single stream — the largest valid step whose dominant
    // residue class has consensus; "strong" when its lattice occupancy is
    // also plausible for an NRZ stream.
    std::int64_t single_step = 1;
    bool single_strong = false;
    std::vector<std::size_t> single_members = members;
    std::vector<std::size_t> single_leftover;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const std::int64_t step = steps[s];
      ResidueClasses& classes = classes_by_step[s];
      classes.build(indices, members, step);
      const std::size_t dominant = classes.dominant();
      const std::span<const std::size_t> dominant_members =
          classes.members(dominant);
      // Consensus over *structured* edges only: classes too small to be a
      // stream are background (spurious edges, or a faster tag drifting
      // through this phase group mid-epoch) and must not veto a clear
      // periodic stream.
      std::size_t structured_total = 0;
      for (std::size_t c = 0; c < classes.count(); ++c) {
        const std::size_t size = classes.members(c).size();
        if (size >= config_.min_edges) structured_total += size;
      }
      // The dominant class must be a meaningful fraction of the *whole*
      // group (not just of the structured subset): a fast stream's edges
      // spread over many residues, and a chance 3-edge alignment must not
      // hijack it. Thin unstructured background (spurious edges, a faster
      // tag drifting through this phase mid-epoch) is tolerated.
      const std::size_t dominant_floor = std::max<std::size_t>(
          config_.min_edges,
          static_cast<std::size_t>(0.15 * static_cast<double>(members.size())));
      if (dominant_members.size() < dominant_floor) continue;
      const double share = static_cast<double>(dominant_members.size()) /
                           static_cast<double>(std::max<std::size_t>(
                               structured_total, 1));
      if (share < kStepConsensus) continue;
      const bool strong = occupancy(dominant_members, step) >= kMinOccupancy;
      if (!single_strong || strong) {
        single_step = step;
        single_members.assign(dominant_members.begin(), dominant_members.end());
        single_leftover.clear();
        for (std::size_t c = 0; c < classes.count(); ++c) {
          if (c == dominant) continue;
          const std::span<const std::size_t> cls = classes.members(c);
          single_leftover.insert(single_leftover.end(), cls.begin(),
                                 cls.end());
        }
      }
      if (strong) {
        single_strong = true;
        break;  // largest strong step wins outright
      }
    }

    // Hypothesis B (only when no strong single stream exists): several
    // co-phased slower streams. Two tags can share a phase modulo the
    // max-rate period yet occupy different lattice slots — separate
    // streams, not a collision.
    if (!single_strong && frame.depth < 4) {
      std::int64_t split_step = 0;
      std::size_t split_class_count = SIZE_MAX;
      std::vector<std::vector<std::size_t>> split_classes;
      for (std::size_t s = 0; s < steps.size(); ++s) {
        const std::int64_t step = steps[s];
        if (step <= 1) break;
        const ResidueClasses& classes = classes_by_step[s];
        big.clear();
        std::size_t covered = 0;
        for (std::size_t c = 0; c < classes.count(); ++c) {
          const std::span<const std::size_t> cls = classes.members(c);
          if (cls.size() >= config_.min_edges &&
              occupancy(cls, step) >= kMinOccupancy) {
            covered += cls.size();
            big.push_back(c);
          }
        }
        const double coverage = static_cast<double>(covered) /
                                static_cast<double>(members.size());
        if (big.size() >= 2 && big.size() <= 4 && coverage >= 0.9 &&
            big.size() * 2 <= static_cast<std::size_t>(step) &&
            big.size() < split_class_count) {
          split_step = step;
          split_class_count = big.size();
          split_classes.clear();
          for (std::size_t c : big) {
            const std::span<const std::size_t> cls = classes.members(c);
            split_classes.emplace_back(cls.begin(), cls.end());
          }
        }
      }
      if (split_step > 0) {
        for (auto& cls : split_classes) {
          stack.push_back({std::move(cls), frame.depth + 1});
        }
        continue;
      }
    }

    // Accept the single-stream hypothesis; recurse on any leftover class
    // that might be a sparser co-phased stream. Step-1 emissions must look
    // like a stream (healthy slot occupancy): thin uniform residue is
    // crossing contamination or noise, not a tag.
    if (single_step == 1 &&
        (members.size() < 6 || occupancy(single_members, 1) < 0.1) &&
        frame.depth > 0) {
      continue;
    }
    SubStream sub;
    sub.step = single_step;
    sub.start = indices[single_members.front()];
    sub.members = std::move(single_members);
    out.push_back(std::move(sub));
    if (single_leftover.size() >= config_.min_edges && frame.depth < 4) {
      stack.push_back({std::move(single_leftover), frame.depth + 1});
    }
  }
  return out;
}

std::pair<std::int64_t, std::int64_t> StreamDetector::estimate_step(
    std::span<const std::int64_t> indices) const {
  LFBS_CHECK(!indices.empty());
  if (config_.valid_steps.empty()) {
    // Free-form: gcd of index differences.
    std::int64_t g = 0;
    for (std::size_t i = 1; i < indices.size(); ++i) {
      g = std::gcd(g, indices[i] - indices.front());
    }
    const std::int64_t step = std::max<std::int64_t>(g, 1);
    return {step, indices.front() % step};
  }
  return consensus_step(indices, config_.valid_steps, kStepConsensus);
}

std::pair<std::int64_t, std::int64_t> consensus_step(
    std::span<const std::int64_t> indices, std::vector<std::int64_t> steps,
    double consensus, std::int64_t max_step) {
  std::sort(steps.begin(), steps.end(), std::greater<>());
  std::vector<std::size_t> all(indices.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  ResidueClasses classes;
  for (std::int64_t step : steps) {
    if (step > max_step) continue;
    // Largest valid step with residue-class consensus wins: a slower lattice
    // explains the data with fewer free slots, so prefer it when consistent.
    classes.build(indices, all, step);
    const std::span<const std::size_t> dominant =
        classes.members(classes.dominant());
    const double share = static_cast<double>(dominant.size()) /
                         static_cast<double>(indices.size());
    // Anchor the lattice at the first index in the dominant class.
    if (share >= consensus) return {step, indices[dominant.front()]};
  }
  return {1, indices.front()};
}

}  // namespace lfbs::core
