/**
 * @file
 * Per-device error characterization data.
 *
 * Mirrors the data IBM publishes after every calibration cycle and
 * that variation-aware mappers consume (Section 2.4): per-qubit
 * single-qubit gate error, readout error (with state-dependent bias),
 * T1/T2 times, and per-edge CX error. Includes a drift model so
 * successive experimental "rounds" see slightly different rates, as on
 * the real machine (Section 4.2).
 */

#pragma once

#include <vector>

#include "common/rng.hpp"
#include "hw/topology.hpp"

namespace qedm::hw {

/** Calibration record for one physical qubit. */
struct QubitCalibration
{
    double error1q = 1e-3;    ///< single-qubit gate error probability
    double readoutP01 = 0.02; ///< P(read 1 | prepared 0)
    double readoutP10 = 0.05; ///< P(read 0 | prepared 1), biased higher
    double t1Us = 50.0;       ///< relaxation time, microseconds
    double t2Us = 30.0;       ///< dephasing time, microseconds

    /** Symmetrized average readout error. */
    double readoutError() const { return 0.5 * (readoutP01 + readoutP10); }
};

/** Calibration record for one coupled pair. */
struct EdgeCalibration
{
    double cxError = 0.03; ///< two-qubit gate error probability
};

/** Random-spread parameters used to synthesize a calibration. */
struct CalibrationSpec
{
    double meanError1q = 1.0e-3;
    double meanCxError = 0.03;
    double meanReadoutError = 0.06;
    /** Multiplicative log-normal spread (sigma of ln rate). */
    double spread = 0.5;
    /** Readout bias factor: p10 = bias * p01 on average. */
    double readoutBias = 2.0;
    double meanT1Us = 50.0;
    double meanT2Us = 30.0;
};

/** Full calibration table for a device. */
class Calibration
{
  public:
    /** All-default (uniform) calibration for @p topology. */
    explicit Calibration(const Topology &topology);

    /** Synthesize a spread calibration from @p spec. */
    static Calibration sample(const Topology &topology,
                              const CalibrationSpec &spec, Rng &rng);

    /**
     * The hand-tuned IBMQ-14 melbourne-like table used by the paper
     * reproduction: realistic variation (CX 1.5%..9%, readout 1.5%..30%)
     * with two very noisy readout qubits (Q11, Q12; footnote 3).
     */
    static Calibration melbourne();

    /** The same table for an already-built melbourne @p topology (it
     *  must have melbourne's 14 qubits and 18 couplings). */
    static Calibration melbourne(const Topology &topology);

    std::size_t numQubits() const { return qubits_.size(); }
    std::size_t numEdges() const { return edges_.size(); }

    const QubitCalibration &qubit(int q) const;
    QubitCalibration &qubit(int q);

    /** Edge record by canonical edge index (Topology::edgeIndex). */
    const EdgeCalibration &edge(std::size_t idx) const;
    EdgeCalibration &edge(std::size_t idx);

    /**
     * A drifted copy: every rate is multiplied by an independent
     * log-normal factor exp(drift * N(0,1)); T1/T2 get the inverse
     * treatment. Models calibration change between rounds.
     */
    Calibration drifted(Rng &rng, double drift = 0.15) const;

    /**
     * A stale-jump copy: the machine degraded *after* the published
     * calibration, so every rate is multiplied by a one-sided
     * log-normal factor exp(|severity * N(0,1)|) >= 1 and T1/T2 only
     * shrink. Unlike drifted(), the perturbation is strictly
     * pessimistic — this models running against stale calibration
     * data between cycles (the resilience layer's staleness fault),
     * layered on top of the per-round drift model.
     */
    Calibration staleJump(Rng &rng, double severity = 0.5) const;

    /**
     * Content hash over every calibration value. Drift produces a new
     * fingerprint, which is exactly what invalidates runtime cache
     * entries keyed on calibration identity ("epoch").
     */
    std::uint64_t fingerprint() const;

    /** Mean CX error over all edges. */
    double meanCxError() const;

    /** Mean (symmetrized) readout error over all qubits. */
    double meanReadoutError() const;

  private:
    std::vector<QubitCalibration> qubits_;
    std::vector<EdgeCalibration> edges_;
};

} // namespace qedm::hw
