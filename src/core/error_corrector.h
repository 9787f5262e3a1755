#pragma once

#include <span>
#include <vector>

#include "common/units.h"
#include "core/bit_decoder.h"

namespace lfbs::core {

/// Viterbi error correction (§3.5, Fig 6).
///
/// Certain edge sequences are physically impossible — a rising edge can
/// never follow a rising edge. The corrector runs a 4-state Viterbi decoder
/// over the boundary differentials:
///
///   ↑   rising edge            (level becomes 1)
///   ↓   falling edge           (level becomes 0)
///   −₊  no edge, level is 1    (last edge was rising)
///   −₋  no edge, level is 0    (last edge was falling)
///
/// with the transition constraints of a binary level signal — from ↑ or −₊
/// (level 1) only ↓ or −₊ can follow; from ↓ or −₋ (level 0) only ↑ or −₋ —
/// and 2-D Gaussian emissions fit to the observed IQ clusters. The most
/// likely state path directly yields the bit sequence, recovering missed
/// and spurious edges without any tag-side coding.
///
/// Both this machine and the 2^K-state machine of correct_joint run on the
/// one max-sum engine, dsp::viterbi.
class ErrorCorrector {
 public:
  struct Config {
    /// Prior probability that a boundary carries an edge (bits flip half
    /// the time for random payloads).
    double edge_probability = 0.5;
  };

  explicit ErrorCorrector(Config config);
  ErrorCorrector() : ErrorCorrector(Config{}) {}

  /// Corrects a labelled single stream: returns the maximum-likelihood bit
  /// sequence given the boundary differentials and the cluster geometry.
  std::vector<bool> correct(std::span<const Complex> points,
                            const ThreeClusterLabels& labels) const;

  /// Soft output of an erasure-aware correction pass.
  struct SoftResult {
    std::vector<bool> bits;
    /// Per-boundary Viterbi score margins (log-likelihood-ratio proxies):
    /// how decisively each step's state beat the runner-up.
    std::vector<double> bit_margins;
    std::size_t erasures = 0;  ///< boundaries demoted to erasures
  };

  /// Erasure-aware variant of correct(): boundaries whose confidence (from
  /// EdgeDetector, in [0,1]; boundaries with no detected edge pass 1.0 —
  /// "confidently no edge") is below the erasure threshold are decoded with
  /// wide Gaussians so the 4-state machine's transition structure fills
  /// them in. With an empty `confidences` span the bit sequence is
  /// identical to correct().
  SoftResult correct_soft(std::span<const Complex> points,
                          const ThreeClusterLabels& labels,
                          std::span<const double> confidences) const;

  /// Joint decode of a K-tag collision, K ∈ {2, 3}: a 2^K-state Viterbi
  /// over the tags' level tuple (bit t of a state is tag t's level) whose
  /// transition emits Σ_t (l_t' − l_t)·e_t at each shared boundary.
  /// Strictly better than decoding each component against the others'
  /// hard decisions.
  ///
  /// `toggles[t][k]` says whether tag t may change level at boundary k
  /// (false before its anchor slot and off its bit lattice, for mixed-rate
  /// collisions). `sigma` is the isotropic noise level of the
  /// differentials.
  struct JointResult {
    /// levels[t][k]: tag t's level after boundary k.
    std::vector<std::vector<bool>> levels;
    /// Per-boundary Viterbi score margins, as in SoftResult::bit_margins.
    std::vector<double> margins;
  };
  JointResult correct_joint(std::span<const Complex> points,
                            const std::vector<Complex>& edge_vectors,
                            const std::vector<std::vector<bool>>& toggles,
                            double sigma) const;

 private:
  Config config_;
};

}  // namespace lfbs::core
