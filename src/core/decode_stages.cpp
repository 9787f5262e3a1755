#include "core/decode_stages.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/bit_decoder.h"
#include "dsp/linalg.h"
#include "dsp/stats.h"
#include "obs/trace.h"

namespace lfbs::core {

namespace {

/// Extra guard between a boundary's measured edge span and its averaging
/// windows, in samples.
constexpr double kBoundaryGuard = 4.0;

signal::EdgeDetectorConfig scaled_edge_config(const DecoderConfig& cfg,
                                              double spb, double fs_scale) {
  signal::EdgeDetectorConfig ec = cfg.edge;
  if (cfg.auto_scale_edge) {
    // Short detection windows: long ones smear neighbouring tags' edges
    // together. extract_slots re-averages with windows stretched to just
    // short of the neighbouring edges, recovering SNR.
    ec.window = static_cast<std::size_t>(std::clamp(spb / 12.0, 2.0, 3.0));
    ec.guard = 1;
    // |dS| plateaus for about 2·guard + ramp samples around an edge; a
    // smaller separation would report one physical edge twice. Edges of
    // *different* tags closer than this merge into a single detection and
    // are handled as a collision — this is the system's collision radius,
    // and it should stay near the physical edge width (§2.4).
    ec.min_separation = std::max<std::size_t>(
        3, static_cast<std::size_t>(5.0 * fs_scale));
  }
  return ec;
}

StreamDetectorConfig stream_config(const DecoderConfig& cfg, double spb,
                                   double group_tolerance, double fs_scale) {
  StreamDetectorConfig sc;
  sc.lattice_period = spb;
  sc.base_tolerance = group_tolerance;
  sc.merge_radius = std::max(2.0, cfg.merge_radius * fs_scale);
  for (BitRate r : cfg.rate_plan.rates) {
    const double m = cfg.max_rate / r;
    if (std::abs(m - std::round(m)) < 1e-6) {
      sc.valid_steps.push_back(static_cast<std::int64_t>(std::llround(m)));
    }
  }
  return sc;
}

/// Decodes one boundary-slot set as a single stream: a 3-cluster fit, then
/// the 4-state Viterbi (§3.5) or hard decisions. `lattice_step` is the
/// owning group's bit-period step (sets the reported rate); `diffs` are the
/// slots' differentials, or cancel_interference's corrected copy. `fit` is
/// a k=3 fit of `diffs` already made (the collision assessment's); without
/// one, the fit draws from `rng`.
PendingStream decode_single(const PassContext& ctx, const BoundarySlots& slots,
                            std::size_t slots_ref, std::int64_t lattice_step,
                            std::span<const Complex> diffs, Rng& rng,
                            const dsp::KMeansResult* fit = nullptr) {
  const DecoderConfig& cfg = ctx.cfg;
  PendingStream ps;
  ps.slots_ref = slots_ref;
  ps.start_sample = slots.positions.front();
  ps.rate = cfg.max_rate / static_cast<double>(lattice_step);
  ps.edge_snr_db = slots.mean_snr(0, 1);
  ps.edge_confidence = slots.mean_confidence(0, 1);
  if (diffs.size() < 3) {
    ps.edge_vector = diffs.front();
    ps.bits = integrate_states(classify_simple(diffs));
    return ps;
  }
  std::optional<dsp::KMeansResult> own_fit;
  if (fit == nullptr) fit = &own_fit.emplace(dsp::kmeans(diffs, 3, rng));
  const ThreeClusterLabels labels = label_three_clusters(diffs, *fit);
  ps.edge_vector = 0.5 * (labels.rising - labels.falling);
  double residual2 = 0.0;
  for (std::size_t k = 0; k < diffs.size(); ++k) {
    const Complex expected = labels.states[k] == 1    ? labels.rising
                             : labels.states[k] == -1 ? labels.falling
                                                      : labels.constant;
    residual2 += std::norm(diffs[k] - expected);
  }
  residual2 /= static_cast<double>(diffs.size());
  ps.snr_db =
      linear_to_db(std::norm(ps.edge_vector) / std::max(residual2, 1e-18));
  // Cluster separation: the closest centroid pair over the intra-cluster
  // scatter — how unambiguous the rising/falling/constant decision was.
  double min_dist2 = 1e300;
  const std::vector<Complex>& centroids = fit->centroids;
  for (std::size_t a = 0; a < centroids.size(); ++a) {
    for (std::size_t b = a + 1; b < centroids.size(); ++b) {
      min_dist2 = std::min(min_dist2, std::norm(centroids[a] - centroids[b]));
    }
  }
  ps.cluster_separation = std::sqrt(min_dist2 / std::max(residual2, 1e-18));
  if (!cfg.error_correction) {
    ps.bits = integrate_states(labels.states);
    return ps;
  }
  const ErrorCorrector::SoftResult soft =
      ctx.corrector.correct_soft(diffs, labels, slots.confidences);
  ps.bits = soft.bits;
  ps.erasures = soft.erasures;
  ps.path_margin = dsp::mean(soft.bit_margins);
  return ps;
}

/// The separated components of a collision group, in separator order.
struct Components {
  std::vector<Complex> edge_vectors;
  std::vector<std::vector<EdgeState>> states;
};

/// Least-squares refinement of a two-tag separation: re-fits (e1, e2) and
/// the residual offset against the hard assignment. Returns the offset.
Complex refine_two_tag(std::span<const Complex> diffs, Components& c) {
  dsp::Matrix design(diffs.size(), 3);
  for (std::size_t k = 0; k < diffs.size(); ++k) {
    design.at(k, 0) = static_cast<double>(c.states[0][k]);
    design.at(k, 1) = static_cast<double>(c.states[1][k]);
    design.at(k, 2) = 1.0;
  }
  const std::vector<Complex> coef = dsp::least_squares(design, diffs, 1e-9);
  if (coef.size() != 3) return {};
  Complex& e1 = c.edge_vectors[0];
  Complex& e2 = c.edge_vectors[1];
  const double floor = 0.2 * std::min(std::abs(e1), std::abs(e2));
  if (std::abs(coef[0]) <= floor || std::abs(coef[1]) <= floor) return {};
  e1 = coef[0];
  e2 = coef[1];
  return coef[2];
}

/// The joint path shared by two- and three-tag collisions: anchor
/// normalisation (each tag's first toggle is its rising anchor), the
/// two-tag least-squares refinement, per-component bit lattices, the noise
/// estimate, then the K-tag joint Viterbi — or, without error correction
/// (two tags only), hard decisions. Returns false, appending nothing, when
/// a component never toggles.
bool decode_joint(const PassContext& ctx, const BoundarySlots& slots,
                  std::size_t slots_ref, std::int64_t group_step,
                  Components c, std::vector<PendingStream>& pending) {
  const DecoderConfig& cfg = ctx.cfg;
  const std::vector<Complex>& diffs = slots.diffs;
  const std::size_t n = diffs.size();
  const std::size_t tags = c.states.size();
  for (std::size_t t = 0; t < tags; ++t) {
    if (normalize_anchor(c.states[t])) c.edge_vectors[t] = -c.edge_vectors[t];
  }
  const Complex offset = tags == 2 ? refine_two_tag(diffs, c) : Complex{};

  // Candidate component sub-steps, in joint-boundary units.
  std::vector<std::int64_t> allowed;
  for (std::int64_t m : ctx.stream_detector.config().valid_steps) {
    if (m % group_step == 0) allowed.push_back(m / group_step);
  }
  std::vector<std::size_t> starts(tags), steps(tags);
  for (std::size_t t = 0; t < tags; ++t) {
    std::vector<std::int64_t> toggled;
    for (std::size_t k = 0; k < n; ++k) {
      if (c.states[t][k] != 0) toggled.push_back(static_cast<std::int64_t>(k));
    }
    if (toggled.empty()) return false;
    const auto [step, start] =
        consensus_step(toggled, allowed, kStepConsensus,
                       static_cast<std::int64_t>(n));
    steps[t] = static_cast<std::size_t>(step);
    starts[t] = static_cast<std::size_t>(start);
  }

  double sigma2 = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex expected = static_cast<double>(c.states[0][k]) * c.edge_vectors[0];
    for (std::size_t t = 1; t < tags; ++t) {
      expected += static_cast<double>(c.states[t][k]) * c.edge_vectors[t];
    }
    expected += offset;
    sigma2 += std::norm(diffs[k] - expected);
  }
  const double sigma =
      std::sqrt(sigma2 / (2.0 * static_cast<double>(n)) + 1e-18);

  std::vector<std::vector<bool>> bits(tags);
  double margin = 0.0;
  if (cfg.error_correction) {
    std::vector<std::vector<bool>> toggles(tags, std::vector<bool>(n, false));
    for (std::size_t t = 0; t < tags; ++t) {
      for (std::size_t k = starts[t]; k < n; k += steps[t]) {
        toggles[t][k] = true;
      }
    }
    std::vector<Complex> centered(diffs.begin(), diffs.end());
    for (Complex& z : centered) z -= offset;
    const ErrorCorrector::JointResult joint = ctx.corrector.correct_joint(
        centered, c.edge_vectors, toggles, sigma);
    for (std::size_t t = 0; t < tags; ++t) {
      for (std::size_t k = starts[t]; k < n; k += steps[t]) {
        bits[t].push_back(joint.levels[t][k]);
      }
    }
    margin = dsp::mean(joint.margins);
  } else {
    for (std::size_t t = 0; t < tags; ++t) {
      bits[t] = integrate_states(
          subsample_states(c.states[t], starts[t], steps[t]));
    }
  }

  for (std::size_t t = 0; t < tags; ++t) {
    PendingStream ps;
    ps.slots_ref = slots_ref;
    ps.collided = true;
    ps.start = starts[t];
    ps.step = steps[t];
    ps.start_sample = slots.positions[starts[t]];
    ps.rate = cfg.max_rate /
              static_cast<double>(group_step *
                                  static_cast<std::int64_t>(steps[t]));
    ps.bits = std::move(bits[t]);
    ps.edge_vector = c.edge_vectors[t];
    ps.snr_db = linear_to_db(std::norm(c.edge_vectors[t]) /
                             std::max(2.0 * sigma * sigma, 1e-18));
    ps.edge_snr_db = slots.mean_snr(starts[t], steps[t]);
    ps.edge_confidence = slots.mean_confidence(starts[t], steps[t]);
    ps.path_margin = margin;
    pending.push_back(std::move(ps));
  }
  return true;
}

/// Over-merge fallback: when a "collision" group resists separation, its
/// member edges may really belong to two distinct tags whose lattice
/// phases were close enough to fuse. If the positional residuals against
/// the joint fit are bimodal, split the group at the widest residual gap.
std::optional<std::pair<StreamGroup, StreamGroup>> residual_split(
    const PassContext& ctx, const Edges& edges, const StreamGroup& group) {
  const std::size_t min_edges = ctx.stream_detector.config().min_edges;
  if (group.edge_indices.size() < 2 * min_edges) return std::nullopt;
  struct Member {
    double residual;
    std::size_t k;
  };
  std::vector<Member> members;
  members.reserve(group.edge_indices.size());
  for (std::size_t k = 0; k < group.edge_indices.size(); ++k) {
    const double pos =
        static_cast<double>(edges[group.edge_indices[k]].position);
    members.push_back({pos - group.position_of(group.lattice_indices[k]), k});
  }
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) {
              return a.residual < b.residual;
            });
  // Widest gap with enough members on both sides.
  double best_gap = 0.0;
  std::size_t split_at = 0;
  for (std::size_t i = min_edges; i + min_edges <= members.size(); ++i) {
    const double gap = members[i].residual - members[i - 1].residual;
    if (gap > best_gap) {
      best_gap = gap;
      split_at = i;
    }
  }
  if (split_at == 0 || best_gap < 2.5) return std::nullopt;

  const auto build = [&](std::size_t lo, std::size_t hi) {
    StreamGroup g;
    g.slope = group.slope;
    double mean_res = 0.0;
    std::vector<std::size_t> ks;
    for (std::size_t i = lo; i < hi; ++i) {
      mean_res += members[i].residual;
      ks.push_back(members[i].k);
    }
    mean_res /= static_cast<double>(hi - lo);
    g.intercept = group.intercept + mean_res;
    std::sort(ks.begin(), ks.end());
    for (std::size_t k : ks) {
      g.edge_indices.push_back(group.edge_indices[k]);
      g.lattice_indices.push_back(group.lattice_indices[k]);
    }
    const auto [step, residue] =
        ctx.stream_detector.estimate_step(g.lattice_indices);
    g.step = step;
    g.start_index = residue;
    return g;
  };
  return std::make_pair(build(0, split_at), build(split_at, members.size()));
}

/// Decodes the two halves of a residual split as their own streams, into
/// `out` with their slots. Returns false, adding nothing, when there is no
/// split or a half has no boundary slots.
bool decode_split(const PassContext& ctx, const Edges& edges,
                  const StreamGroup& group, Rng& rng, GroupDecode& out) {
  const auto halves = residual_split(ctx, edges, group);
  if (!halves) return false;
  BoundarySlots a = extract_slots(ctx, edges, halves->first);
  BoundarySlots b = extract_slots(ctx, edges, halves->second);
  if (a.diffs.empty() || b.diffs.empty()) return false;
  // The halves' slots go with the streams, for cancel_interference.
  out.split_slots.push_back(std::move(a));
  out.split_slots.push_back(std::move(b));
  const std::int64_t steps[2] = {halves->first.step, halves->second.step};
  for (std::size_t h = 0; h < 2; ++h) {
    const BoundarySlots& slots = out.split_slots[h];
    out.streams.push_back(
        decode_single(ctx, slots, 1 + h, steps[h], slots.diffs, rng));
    out.streams.back().collided = true;
  }
  return true;
}

}  // namespace

double BoundarySlots::mean_snr(std::size_t start, std::size_t step) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = start; k < snrs.size(); k += step) {
    if (snrs[k] > kNoEdgeSnr) {
      sum += snrs[k];
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double BoundarySlots::mean_confidence(std::size_t start,
                                      std::size_t step) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = start; k < confidences.size(); k += step) {
    sum += confidences[k];
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 1.0;
}

PassContext::PassContext(const signal::SampleBuffer& buffer_,
                         const DecoderConfig& cfg_)
    : buffer(buffer_),
      cfg(cfg_),
      spb(samples_per_bit(buffer_.sample_rate(), cfg_.max_rate)),
      fs_scale(cfg_.auto_scale_edge
                   ? buffer_.sample_rate() / (25.0 * kMsps)
                   : 1.0),
      group_tolerance(std::max(1.2, cfg_.group_tolerance * fs_scale)),
      edge_detector(scaled_edge_config(cfg_, spb, fs_scale)),
      stream_detector(stream_config(cfg_, spb, group_tolerance, fs_scale)),
      collision_detector(cfg_.collision),
      corrector(cfg_.corrector) {}

Edges detect_edges(const PassContext& ctx) {
  return ctx.edge_detector.detect(ctx.buffer);
}

Groups group_streams(const PassContext& ctx, const Edges& edges) {
  LFBS_OBS_SPAN(span, "group_streams", "core");
  return ctx.stream_detector.detect(edges);
}

BoundarySlots extract_slots(const PassContext& ctx, const Edges& edges,
                            const StreamGroup& group) {
  LFBS_OBS_SPAN(span, "extract_slots", "core");
  std::vector<bool> member(edges.size(), false);
  for (std::size_t ei : group.edge_indices) member[ei] = true;

  // The group's measured edges, one per lattice slot, in slot order.
  struct MeasuredEdge {
    std::int64_t slot;
    double lead, trail;
    double confidence, snr_db;
  };
  std::vector<MeasuredEdge> measured;
  measured.reserve(group.edge_indices.size());
  for (std::size_t k = 0; k < group.edge_indices.size(); ++k) {
    const signal::Edge& e = edges[group.edge_indices[k]];
    const auto epos = static_cast<double>(e.position);
    measured.push_back(
        {group.lattice_indices[k], epos, epos, e.confidence, e.snr_db});
  }
  // Stable: detections sharing a slot fold in member order.
  std::stable_sort(measured.begin(), measured.end(),
                   [](const MeasuredEdge& a, const MeasuredEdge& b) {
                     return a.slot < b.slot;
                   });
  std::size_t folded = 0;
  for (const MeasuredEdge& m : measured) {
    if (folded > 0 && measured[folded - 1].slot == m.slot) {
      MeasuredEdge& merged = measured[folded - 1];
      merged.lead = std::min(merged.lead, m.lead);
      merged.trail = std::max(merged.trail, m.trail);
      // Merged (colliding) detections: keep the weakest link.
      merged.confidence = std::min(merged.confidence, m.confidence);
      merged.snr_db = std::min(merged.snr_db, m.snr_db);
    } else {
      measured[folded++] = m;
    }
  }
  measured.resize(folded);
  std::vector<double> foreign_positions;
  foreign_positions.reserve(edges.size());
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    if (!member[ei]) {
      foreign_positions.push_back(static_cast<double>(edges[ei].position));
    }
  }

  const signal::SampleBuffer& buffer = ctx.buffer;
  const double tol = ctx.group_tolerance;
  const double bit_period = group.slope * static_cast<double>(group.step);
  const auto wmax =
      static_cast<std::size_t>(std::clamp(bit_period / 3.0, 2.0, 40.0));
  const double tail_margin = static_cast<double>(wmax) + kBoundaryGuard + 1.0;

  BoundarySlots slots;
  // The walk visits slots in ascending order, and so does `next`. The
  // foreign-edge cursors move with it: `lo` is the first foreign edge at or
  // past lead - tol and `hi` the first past trail + tol (lower_bound and
  // upper_bound). Their keys rise with the walk, so each cursor steps
  // forward; a key that falls back past the edge just before its cursor (a
  // detection more than a bit period before its lattice position) searches
  // again from the start.
  auto next = measured.begin();
  const auto foreign_begin = foreign_positions.cbegin();
  const auto foreign_end = foreign_positions.cend();
  auto lo = foreign_begin;
  auto hi = foreign_begin;
  for (std::int64_t n = group.start_index;; n += group.step) {
    const double predicted = group.position_of(n);
    double lead = predicted, trail = predicted;
    double slot_conf = 1.0;
    double slot_snr = kNoEdgeSnr;
    while (next != measured.end() && next->slot < n) ++next;
    if (next != measured.end() && next->slot == n) {
      lead = next->lead;
      trail = next->trail;
      slot_conf = next->confidence;
      slot_snr = next->snr_db;
    }
    if (trail >= static_cast<double>(buffer.size()) - tail_margin) break;
    if (lead < tail_margin) continue;

    const double lo_key = lead - tol;
    if (lo != foreign_begin && !(*(lo - 1) < lo_key)) {
      lo = std::lower_bound(foreign_begin, lo, lo_key);
    }
    while (lo != foreign_end && *lo < lo_key) ++lo;
    const double hi_key = trail + tol;
    if (hi != foreign_begin && hi_key < *(hi - 1)) {
      hi = std::upper_bound(foreign_begin, hi, hi_key);
    }
    while (hi != foreign_end && !(hi_key < *hi)) ++hi;

    double before_gap = 1e9, after_gap = 1e9;
    if (lo != foreign_begin) before_gap = lead - *(lo - 1);
    if (hi != foreign_end) after_gap = *hi - trail;
    const double gb = std::clamp(before_gap / 3.0, 1.0, kBoundaryGuard);
    const double ga = std::clamp(after_gap / 3.0, 1.0, kBoundaryGuard);
    const auto wb = static_cast<std::size_t>(
        std::clamp(before_gap - gb - 1.0, 2.0, static_cast<double>(wmax)));
    const auto wa = static_cast<std::size_t>(
        std::clamp(after_gap - ga - 1.0, 2.0, static_cast<double>(wmax)));

    const Complex before = signal::windowed_mean_before(
        buffer.span(), static_cast<SampleIndex>(std::llround(lead - gb)), wb);
    const Complex after = signal::windowed_mean_after(
        buffer.span(), static_cast<SampleIndex>(std::llround(trail + ga)), wa);
    slots.positions.push_back(0.5 * (lead + trail));
    slots.diffs.push_back(after - before);
    slots.confidences.push_back(slot_conf);
    slots.snrs.push_back(slot_snr);
  }
  return slots;
}

GroupDecode decode_group(const PassContext& ctx, const Edges& edges,
                         const StreamGroup& group, const BoundarySlots& slots,
                         std::uint64_t seed) {
  const DecoderConfig& cfg = ctx.cfg;
  GroupDecode out;
  const std::span<const Complex> diffs = slots.diffs;
  if (diffs.empty()) return out;
  Rng rng(seed);

  CollisionAssessment assess;  // one collider unless assessed otherwise
  if (cfg.collision_recovery) {
    assess = ctx.collision_detector.assess(diffs, rng);
  }
  if (assess.colliders == 1) {
    // A single-collider assessment ends on its k=3 fit, the one
    // decode_single would make.
    out.streams.push_back(
        decode_single(ctx, slots, 0, group.step, diffs, rng,
                      cfg.collision_recovery ? &assess.fit : nullptr));
    return out;
  }
  dsp::KMeansResult fit = std::move(assess.fit);
  if (assess.colliders >= 3) {
    // Three-way collisions are rare (P ≈ 0.018 at the paper's 16-node /
    // 100 kbps point). The paper defers them to the next epoch's fresh
    // random offsets (§3.2); as an extension we first attempt a full
    // 3-tag separation against the 27-cluster grid, then fall back to a
    // two-tag separation of the strongest components, then to deferral.
    if (cfg.error_correction) {
      if (auto sep = ctx.separator.separate_three(diffs, fit)) {
        Components c{{sep->e1, sep->e2, sep->e3},
                     {sep->states1, sep->states2, sep->states3}};
        if (decode_joint(ctx, slots, 0, group.step, std::move(c),
                         out.streams)) {
          ++out.collision_groups;
          return out;
        }
      }
    }
    ++out.unresolved_groups;
    if (diffs.size() < 9) return out;
    fit = dsp::kmeans(diffs, 9, rng);
  }

  const auto sep = ctx.separator.separate(diffs, fit);
  if (!sep) {
    if (decode_split(ctx, edges, group, rng, out)) {
      ++out.collision_groups;
      return out;
    }
    ++out.unresolved_groups;
    out.streams.push_back(
        decode_single(ctx, slots, 0, group.step, diffs, rng));
    return out;
  }
  ++out.collision_groups;
  Components c{{sep->e1, sep->e2}, {sep->states1, sep->states2}};
  if (!decode_joint(ctx, slots, 0, group.step, std::move(c), out.streams)) {
    ++out.unresolved_groups;
    out.streams.push_back(
        decode_single(ctx, slots, 0, group.step, diffs, rng));
  }
  return out;
}

DecodedStream frame_stream(const DecoderConfig& cfg, const PendingStream& ps) {
  LFBS_OBS_SPAN(span, "frame_stream", "core");
  DecodedStream stream;
  stream.start_sample = ps.start_sample;
  stream.rate = ps.rate;
  stream.collided = ps.collided;
  stream.edge_vector = ps.edge_vector;
  stream.snr_db = ps.snr_db;
  stream.confidence.edge_snr_db = ps.edge_snr_db;
  stream.confidence.edge_confidence = ps.edge_confidence;
  stream.confidence.path_margin = ps.path_margin;
  stream.confidence.cluster_separation = ps.cluster_separation;
  stream.confidence.erasures = ps.erasures;
  stream.bits = ps.bits;
  trim_trailing_zeros(stream.bits, cfg.frame.frame_bits());
  stream.frames = protocol::parse_stream(stream.bits, cfg.frame);
  // A missed or spurious edge can slip the bit stream and poison every
  // later frame of the rigid parse; re-scan with CRC resynchronization
  // and keep whichever recovers more frames.
  const std::size_t ok = stream.valid_frames();
  if (ok < stream.frames.size()) {
    auto rescued = protocol::scan_frames(stream.bits, cfg.frame);
    if (rescued.size() > ok) stream.frames = std::move(rescued);
  }
  return stream;
}

void cancel_interference(const PassContext& ctx,
                         const std::vector<PendingStream>& pending,
                         const std::vector<BoundarySlots>& slot_store,
                         std::vector<DecodedStream>& streams) {
  LFBS_OBS_SPAN(span, "cancel_interference", "core");
  // Two streams whose offsets drift *through* each other mid-epoch corrupt a
  // burst of boundaries (the foreign edge sits inside the measurement span
  // for tens of bits). For CRC-failed frames, subtract the decoded edge
  // contributions of CRC-valid frames of other streams at nearby boundary
  // positions and re-decode. Two rounds: streams repaired in round one can
  // donate their contributions in round two.
  const DecoderConfig& cfg = ctx.cfg;
  if (!cfg.collision_recovery || !cfg.error_correction ||
      !cfg.interference_cancellation) {
    return;
  }
  const double zone = ctx.group_tolerance + 1.5;
  const std::size_t frame_bits = cfg.frame.frame_bits();
  struct Contribution {
    double position;
    Complex vector;
    std::size_t stream;
  };
  for (int round = 0; round < 2; ++round) {
    std::vector<Contribution> confident;
    for (std::size_t si = 0; si < streams.size(); ++si) {
      const PendingStream& ps = pending[si];
      const BoundarySlots& slots = slot_store[ps.slots_ref];
      // Contribute only boundaries inside CRC-valid frames: bits decoded
      // elsewhere are not trustworthy.
      for (std::size_t fi = 0; fi < streams[si].frames.size(); ++fi) {
        if (!streams[si].frames[fi].valid()) continue;
        const std::size_t bit_lo = fi * frame_bits;
        const std::size_t bit_hi =
            std::min(ps.bits.size(), (fi + 1) * frame_bits);
        bool prev = bit_lo == 0 ? false : ps.bits[bit_lo - 1];
        for (std::size_t j = bit_lo; j < bit_hi; ++j) {
          const std::size_t slot = ps.start + j * ps.step;
          if (slot >= slots.positions.size()) break;
          const int state =
              static_cast<int>(ps.bits[j]) - static_cast<int>(prev);
          prev = ps.bits[j];
          if (state != 0) {
            confident.push_back({slots.positions[slot],
                                 static_cast<double>(state) * ps.edge_vector,
                                 si});
          }
        }
      }
    }
    std::sort(confident.begin(), confident.end(),
              [](const Contribution& a, const Contribution& b) {
                return a.position < b.position;
              });

    bool any_repaired = false;
    for (std::size_t si = 0; si < streams.size(); ++si) {
      if (pending[si].collided) continue;  // jointly decoded already
      if (streams[si].frames.empty()) continue;
      if (streams[si].valid_frames() == streams[si].frames.size()) continue;
      const PendingStream& ps = pending[si];
      const BoundarySlots& slots = slot_store[ps.slots_ref];
      std::vector<Complex> corrected(slots.diffs.begin(), slots.diffs.end());
      bool touched = false;
      for (std::size_t k = 0; k < corrected.size(); ++k) {
        const double pos = slots.positions[k];
        auto it = std::lower_bound(
            confident.begin(), confident.end(), pos - zone,
            [](const Contribution& c, double v) { return c.position < v; });
        for (; it != confident.end() && it->position <= pos + zone; ++it) {
          if (it->stream == si) continue;
          corrected[k] -= it->vector;
          touched = true;
        }
      }
      if (!touched) continue;
      Rng rng(cfg.seed ^ (0x9e37ull + si + 131 * round));
      const auto step =
          static_cast<std::int64_t>(std::llround(cfg.max_rate / ps.rate));
      DecodedStream redone = frame_stream(
          cfg, decode_single(ctx, slots, ps.slots_ref, step, corrected, rng));
      if (redone.valid_frames() > streams[si].valid_frames()) {
        streams[si] = std::move(redone);
        any_repaired = true;
      }
    }
    if (!any_repaired) break;
  }
}

void trim_trailing_zeros(std::vector<bool>& bits, std::size_t frame_bits) {
  while (bits.size() >= frame_bits) {
    const bool all_zero =
        std::none_of(bits.end() - static_cast<std::ptrdiff_t>(frame_bits),
                     bits.end(), [](bool b) { return b; });
    if (!all_zero) break;
    bits.resize(bits.size() - frame_bits);
  }
}

}  // namespace lfbs::core
