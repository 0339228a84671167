/**
 * @file
 * Trajectory sampling of execution tapes: each shot evolves a state
 * vector through the tape with its noise drawn fresh.
 *
 * Two engines sit behind one entry point and agree bit for bit at a
 * fixed seed (DESIGN.md §12, §17):
 *  - the scalar per-shot loop (width 0, and tapes batchEligible()
 *    rejects); a deterministic tape evolves once and only samples;
 *  - the batched SoA engine, B shots per tape walk.
 *
 * Executor::run samples tapes above kExactSampleMaxQubits active
 * qubits here; smaller tapes draw from their exact outcome table
 * instead. Tests and perf_micro call runTrajectories directly, which
 * keeps both engines pinned against the exact distribution and their
 * fixed-seed goldens.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "hw/calibration.hpp"
#include "sim/execution_tape.hpp"
#include "stats/counts.hpp"

namespace qedm::sim {

/**
 * Run @p shots noisy trajectories of @p tape (built against a device
 * with calibration @p cal). @p width is the batched engine's lane
 * count; 0 forces the scalar loop. The result at a fixed seed is the
 * same at every width, and run(n) followed by run(k) on the continuing
 * @p rng sums to run(n + k).
 */
stats::Counts runTrajectories(const hw::Calibration &cal,
                              const ExecutionTape &tape,
                              std::uint64_t shots, Rng &rng,
                              std::size_t width);

} // namespace qedm::sim
