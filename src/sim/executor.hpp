/**
 * @file
 * Noisy execution of physical circuits on a Device model.
 *
 * The Executor is the stand-in for submitting a compiled program to
 * the real machine: it takes a *physical* circuit (qubit indices are
 * device qubits; every 2-qubit gate sits on a coupling edge), applies
 * the device's systematic and stochastic noise, and returns shot
 * counts exactly as the IBMQ job API would.
 *
 * Two engines share one preprocessing pass (the ExecutionTape, see
 * sim/execution_tape.hpp):
 *  - exact: density-matrix evolution applying every channel fully
 *    (sim/density_matrix.hpp);
 *  - trajectory: per-shot state-vector evolution with sampled noise
 *    (sim/trajectories.hpp).
 *
 * run() samples a tape with at most kExactSampleMaxQubits active
 * qubits from its exact outcome table, which the tape computed once at
 * build: one uniform draw and a binary search per shot. Each trial is
 * an independent draw from the same noisy output law either way,
 * since the state resets every shot and the noise is drawn fresh.
 * Larger tapes run trajectories; setSimBatch() tunes only those.
 *
 * Only the qubits the circuit touches are simulated; the tape compacts
 * physical indices into a dense local register while retaining the
 * physical identities for calibration/noise lookups.
 *
 * Fault injection lives in the resilience layer: a member that drops
 * out mid-batch runs only the trials before the dropout. That relies on
 * a prefix property of every engine: with the same Rng, run(tape, n,
 * rng) returns the counts of the first n trials of any longer run
 * (DESIGN.md §11). The engine choice depends on the tape alone, never
 * on the shot count, which keeps that property.
 *
 * Thread safety: every run()/exactDistribution() overload is const and
 * touches only call-local state, so one Executor may be used from many
 * threads concurrently as long as each caller supplies its own Rng.
 * Tapes are immutable and freely shareable across threads; pass a
 * prebuilt (or TapeCache-served) tape to avoid rebuilding identical
 * preprocessing for every call on the same circuit.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "hw/device.hpp"
#include "sim/execution_tape.hpp"
#include "stats/counts.hpp"
#include "stats/distribution.hpp"

namespace qedm::sim {

/** Runs physical circuits against one device model. */
class Executor
{
  public:
    /** @param device device model (copied; the Executor owns its own). */
    explicit Executor(hw::Device device);

    const hw::Device &device() const { return device_; }

    /**
     * Execute @p physical for @p shots trials and return the outcome
     * histogram. Builds the tape once and reuses it for every shot.
     */
    stats::Counts run(const circuit::Circuit &physical,
                      std::uint64_t shots, Rng &rng) const;

    /**
     * Same, from a prebuilt tape. The tape must have been built
     * against a device with this Executor's fingerprint; any other
     * tape throws UserError.
     */
    stats::Counts run(const ExecutionTape &tape, std::uint64_t shots,
                      Rng &rng) const;

    /**
     * Batched-engine width for tapes above kExactSampleMaxQubits:
     * stochastic tapes whose draw structure is state-independent
     * (sim/shot_plan.hpp) evolve this many shots per tape walk on the
     * SoA engine, bit-identical to the scalar loop. 0 forces the
     * scalar per-shot path (the pre-batching reference); widths are
     * additionally capped so the amplitude planes stay memory-sane for
     * large registers. Configure before sharing the Executor across
     * threads.
     */
    static constexpr std::size_t kDefaultSimBatch = 64;
    void setSimBatch(std::size_t width) { simBatch_ = width; }
    std::size_t simBatch() const { return simBatch_; }

    /**
     * Exact output distribution over the classical register via
     * density-matrix simulation (the tape's stored table when it has
     * one).
     *
     * Hard limit: at most 10 *active* qubits (the density matrix is
     * dense over 4^n entries — 10 qubits is already a 1M-complex
     * matrix). Exceeding it throws UserError with the offending count;
     * use run() (trajectory sampling) for larger circuits.
     */
    stats::Distribution
    exactDistribution(const circuit::Circuit &physical) const;

    /** Same, from a prebuilt tape (same device precondition as run). */
    stats::Distribution
    exactDistribution(const ExecutionTape &tape) const;

  private:
    /** Throws UserError unless @p tape was built for this device. */
    void requireOwnDevice(const ExecutionTape &tape) const;

    hw::Device device_;
    std::uint64_t fingerprint_; ///< device_.fingerprint(), cached
    std::size_t simBatch_ = kDefaultSimBatch;
};

/**
 * Exact output distribution of @p circuit on an ideal machine,
 * ignoring any device (no mapping required). Barriers are skipped;
 * Ccx/Cswap/Swap are decomposed. Qubits without a Measure are
 * marginalized out.
 */
stats::Distribution idealDistribution(const circuit::Circuit &circuit);

} // namespace qedm::sim
