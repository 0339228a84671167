/**
 * @file
 * Pre-sampled per-shot stochastic draws for the batched engine.
 *
 * The scalar trajectory loop interleaves RNG draws with state
 * evolution; the batched engine walks the tape once per batch, so
 * every draw must be taken *before* the walk — in exactly the order
 * the scalar loop would have taken it, shot by shot, so the RNG
 * stream position and every drawn double are unchanged (the
 * DESIGN.md §12 draw-order contract).
 *
 * Per shot, the draw sequence decomposes into:
 *  - Kraus sites (pre/post-gate and measurement-window relaxation):
 *    exactly one uniform each, recorded raw — the Born-rule *decision*
 *    depends on the evolved state and is deferred to the walk;
 *  - depolarizing sites: one bernoulli, plus a uniformInt(3|15) on a
 *    hit — both state-independent, resolved here to a Pauli index
 *    (-1 = no error) applied later as a lane-masked fixup;
 *  - measurement: one uniform, recorded raw (basis scan deferred);
 *  - readout flips: one uniform per *active* measure (both flip
 *    probabilities nonzero), recorded raw — which probability applies
 *    depends on the measured bit;
 *  - pair readout: one bernoulli each, state-independent, resolved.
 *
 * Whether a readout site draws at all is state-dependent when exactly
 * one of P(0->1)/P(1->0) is zero; batchEligible() rejects such tapes
 * and runTrajectories falls back to the scalar path.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "hw/device.hpp"
#include "sim/execution_tape.hpp"

namespace qedm::sim {

/**
 * May (tape, calibration) run on the batched engine with results
 * bit-identical to the scalar path? Requires per-shot stochasticity
 * (deterministic tapes already have a cheaper dedicated path) and a
 * state-independent draw structure (see file comment).
 */
bool batchEligible(const ExecutionTape &tape,
                   const hw::Calibration &cal);

/**
 * Pre-sampled draws for one batch of shots, laid out site-major
 * (`[site][lane]`) so the batch walk reads each site's lane row
 * contiguously. Reusable across batches: presample() resizes for the
 * batch's lane count without shrinking capacity.
 */
class BatchPlan
{
  public:
    /**
     * Replay the scalar loop's RNG call sequence for @p lanes shots
     * (shot-major, like the scalar loop consumes them) and record the
     * draws. @p rng advances exactly as if the scalar loop had run
     * @p lanes shots.
     */
    void presample(const ExecutionTape &tape,
                   const hw::Calibration &cal, std::size_t lanes,
                   Rng &rng);

    std::size_t lanes() const { return lanes_; }

    /** Raw uniform per lane for Kraus site @p site (walk order). */
    const double *krausU(std::size_t site) const
    {
        return krausU_.data() + site * lanes_;
    }
    /** Pauli index per lane (-1 none) for depol site @p site. */
    const std::int8_t *pauli(std::size_t site) const
    {
        return pauli_.data() + site * lanes_;
    }
    /** Raw measurement-sampling uniform per lane. */
    const double *measureU() const { return measureU_.data(); }
    /** Raw readout uniform per lane for active readout site @p site. */
    const double *readoutU(std::size_t site) const
    {
        return readoutU_.data() + site * lanes_;
    }
    /** Resolved joint pair flip per lane for pair site @p site. */
    const std::uint8_t *pairFlip(std::size_t site) const
    {
        return pairFlip_.data() + site * lanes_;
    }

  private:
    std::size_t lanes_ = 0;
    std::vector<double> krausU_;
    std::vector<std::int8_t> pauli_;
    std::vector<double> measureU_;
    std::vector<double> readoutU_;
    std::vector<std::uint8_t> pairFlip_;
};

} // namespace qedm::sim
