/**
 * @file
 * Precompiled, shareable execution tapes.
 *
 * A tape is the device-specific preprocessing of one physical circuit:
 * active-qubit compaction, per-gate systematic noise terms, scheduled
 * idle/gate relaxation channels, and the readout channel list. It is
 * immutable after build and references nothing mutable, so one tape can
 * be executed by any number of threads concurrently.
 *
 * Tapes are the unit the runtime layer caches: within one experimental
 * round, the four baseline policies and the K ensemble members re-run
 * the same (circuit, calibration) pairs repeatedly, and the tape only
 * needs to be built once per pair. The cache key is (device
 * fingerprint, circuit fingerprint); calibration drift changes the
 * device fingerprint, so stale tapes from earlier rounds can never be
 * served ("drift-aware invalidation" by construction).
 *
 * A tape over at most kExactSampleMaxQubits active qubits also carries
 * its exact classical-outcome distribution, readout noise included
 * (ExactOutcomes), computed once at build: every shot of such a tape
 * is one draw from that table instead of a noisy trajectory
 * (DESIGN.md §8).
 */

#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/bits.hpp"
#include "hw/device.hpp"
#include "sim/channels.hpp"

namespace qedm::sim {

/** One preprocessed gate on a tape.
 *
 *  All unitary factors are pre-materialized at build time (the base
 *  gate matrix, the over-rotation/control-phase kicks, and the
 *  crosstalk phases), so the per-shot trajectory loop never calls
 *  gateMatrix1q/gateMatrix2q or evaluates trigonometry. */
struct TapeOp
{
    circuit::OpKind kind;
    std::vector<double> params;
    int l0 = -1, l1 = -1; ///< local operands
    int p0 = -1, p1 = -1; ///< physical operands
    /** Pre-materialized base gate matrix (arity-1 ops). */
    std::array<circuit::Complex, 4> gate1q{};
    /** Pre-materialized base gate matrix (arity-2 ops). */
    std::array<circuit::Complex, 16> gate2q{};
    double overRotation = 0.0; ///< coherent extra on target (rad)
    double controlPhase = 0.0; ///< coherent Rz on control (rad)
    /** Rx(overRotation), pre-materialized; valid iff overRotation != 0. */
    std::array<circuit::Complex, 4> overRotationMat{};
    /** Rz(controlPhase), pre-materialized; valid iff controlPhase != 0. */
    std::array<circuit::Complex, 4> controlPhaseMat{};
    /** (local spectator, Rz(angle) matrix) crosstalk kicks. */
    std::vector<std::pair<int, std::array<circuit::Complex, 4>>>
        crosstalk;
    double depolProb = 0.0; ///< stochastic depolarizing strength
    /** Thermal relaxation applied *before* the gate, covering each
     *  operand's idle window since its previous gate. */
    std::vector<std::pair<int, Kraus1q>> preRelaxation;
    /** Thermal-relaxation Kraus sets per operand (local qubit,
     *  channel), precomputed from gate duration and T1/T2. */
    std::vector<std::pair<int, Kraus1q>> relaxation;
};

/** One measurement on a tape. */
struct TapeMeasure
{
    int local;
    int phys;
    int clbit;
    /** Relaxation during the measurement window. */
    std::vector<Kraus1q> relaxation;
};

/** Pairwise-correlated readout flip between two classical bits. */
struct TapePairReadout
{
    int clbitA;
    int clbitB;
    double jointFlipProb;
};

/**
 * Largest active-qubit count at which a tape carries its exact outcome
 * table. A fixed constant, set from the measured crossover between one
 * fused density-matrix evolution (4^n) and trajectory sampling against
 * the trials a built tape actually serves (DESIGN.md §8); it depends
 * on the tape alone, never on the shot count, so run(n) stays a prefix
 * of every longer run.
 */
inline constexpr int kExactSampleMaxQubits = 7;

/**
 * A tape's exact classical-outcome distribution as a sampling table.
 * Entries are the outcomes with nonzero probability, ascending; only
 * measured clbits vary, so there are at most 2^measured of them
 * (never 2^numClbits).
 */
struct ExactOutcomes
{
    std::vector<Outcome> outcomes; ///< full-register outcome values
    std::vector<double> probs;     ///< normalized probabilities
    /** Running sums of probs, for sampleFromCumulative. */
    std::vector<double> cumulative;
};

/**
 * Immutable preprocessed program for one (device, physical circuit)
 * pair. Build once, execute from any thread.
 */
struct ExecutionTape
{
    /** Fingerprint of the device the tape was built against; an
     *  Executor only runs tapes built for its own device. */
    std::uint64_t deviceFingerprint = 0;
    int numLocal = 0;
    int numClbits = 0;
    std::vector<int> localToPhys;
    std::vector<TapeOp> ops;
    std::vector<TapeMeasure> measures;
    std::vector<TapePairReadout> pairReadout;
    bool stochastic = false; ///< any per-shot randomness pre-readout
    /** The exact outcome table, present iff
     *  numLocal <= kExactSampleMaxQubits. */
    std::optional<ExactOutcomes> exact;

    /**
     * Preprocess @p physical for @p device. The circuit register must
     * match the device; every 2-qubit gate must sit on a coupling
     * edge; at least one qubit must be measured.
     */
    static ExecutionTape build(const hw::Device &device,
                               const circuit::Circuit &physical);
};

/**
 * Thread-safe LRU cache of built tapes keyed on
 * (device fingerprint, circuit fingerprint).
 */
class TapeCache
{
  public:
    /** @param capacity maximum resident tapes (>= 1). */
    explicit TapeCache(std::size_t capacity = 256);

    /** Fetch the tape for (@p device, @p physical), building on miss. */
    std::shared_ptr<const ExecutionTape>
    get(const hw::Device &device, const circuit::Circuit &physical);

    std::size_t size() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    void clear();

  private:
    using Key = std::pair<std::uint64_t, std::uint64_t>;

    std::size_t capacity_;
    mutable std::mutex mutex_;
    /** LRU order: front = most recent. */
    std::list<Key> order_;
    std::map<Key, std::pair<std::shared_ptr<const ExecutionTape>,
                            std::list<Key>::iterator>>
        entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace qedm::sim
