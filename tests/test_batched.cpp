/**
 * @file
 * Equivalence tests for the batched SoA trajectory engine
 * (sim/batched_statevector.hpp, DESIGN.md §17).
 *
 * The engine's contract is bit-identity with the scalar per-shot
 * path: for any batch width, any remainder batch, any --jobs value,
 * and either lane-kernel build (baseline or AVX2), a fixed seed must
 * produce the exact same Counts. These tests pin that contract:
 *
 *  - batch widths {1, 3, 8, 64} and a shot total chosen so the last
 *    batch is a non-power-of-two remainder, each compared against the
 *    pre-batching scalar path (width 0) on the same seed, through the
 *    trajectory entry point sim::runTrajectories;
 *  - the full EDM/WEDM pipeline at --jobs {1, 4} crossed with batch
 *    widths, merged distributions compared double-for-double, on a
 *    circuit wide enough (9 active qubits) that Executor::run takes
 *    the trajectory engines rather than the exact sampler;
 *  - forceScalarLaneKernels: the baseline-ISA kernel build replayed
 *    against whatever build the CPU selected, counts bit-identical
 *    (trivially true on hosts without AVX2, a real cross-check with).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/edm.hpp"
#include "hw/device.hpp"
#include "sim/execution_tape.hpp"
#include "sim/executor.hpp"
#include "sim/lane_kernels.hpp"
#include "sim/trajectories.hpp"
#include "stats/counts.hpp"
#include "transpile/transpiler.hpp"

namespace qedm {
namespace {

/** Counts from one fixed-seed trajectory run of bv-6 at the given
 *  lane width. */
stats::Counts
runBv6(std::size_t sim_batch, std::uint64_t shots)
{
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Transpiler compiler(device);
    const auto program = compiler.compile(benchmarks::bv6().circuit);
    const auto tape = sim::ExecutionTape::build(device, program.physical);
    Rng rng(12345);
    return sim::runTrajectories(device.calibration(), tape, shots, rng,
                                sim_batch);
}

void
expectSameCounts(const stats::Counts &got, const stats::Counts &want)
{
    EXPECT_EQ(got.width(), want.width());
    EXPECT_EQ(got.total(), want.total());
    EXPECT_EQ(got.entries(), want.entries());
}

class BatchedWidth : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BatchedWidth, CountsMatchScalarPath)
{
    // 100 shots: widths 3/8/64 all leave a non-power-of-two remainder
    // batch (1, 4, and 36 lanes), exercising the partial-batch path.
    const stats::Counts scalar = runBv6(0, 100);
    expectSameCounts(runBv6(GetParam(), 100), scalar);
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchedWidth,
                         ::testing::Values(std::size_t(1),
                                           std::size_t(3),
                                           std::size_t(8),
                                           std::size_t(64)));

TEST(BatchedWidth, LargerRunMatchesScalarPath)
{
    // A shot total past the width cap so every width runs many full
    // batches plus a remainder.
    const stats::Counts scalar = runBv6(0, 707);
    expectSameCounts(runBv6(64, 707), scalar);
}

// ---------------------------------------------------------------------
// Full pipeline: batch width x jobs, merged distributions identical.
// ---------------------------------------------------------------------

class BatchedPipeline
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(BatchedPipeline, EdmWedmInvariantToWidthAndJobs)
{
    const auto [width, jobs] = GetParam();
    const hw::Device device = hw::Device::melbourne(2);
    // An 8-bit key plus the ancilla: every member tape has more than
    // kExactSampleMaxQubits active qubits, so it runs trajectories.
    const auto bench = benchmarks::bernsteinVazirani("11001101");

    const auto runAt = [&](std::size_t w, int j) {
        core::EdmConfig config;
        config.totalShots = 1024;
        config.jobs = j;
        config.simBatch = w;
        core::EdmPipeline pipeline(device, config);
        Rng rng(2026);
        return pipeline.run(bench.circuit, rng);
    };

    const auto ref = runAt(0, 1); // scalar path, sequential
    const auto got = runAt(width, jobs);
    for (const auto &member : got.members) {
        ASSERT_GT(sim::ExecutionTape::build(device, member.program.physical)
                      .numLocal,
                  sim::kExactSampleMaxQubits);
    }
    ASSERT_EQ(got.edm.size(), ref.edm.size());
    ASSERT_EQ(got.wedm.size(), ref.wedm.size());
    for (std::size_t i = 0; i < ref.edm.size(); ++i) {
        EXPECT_EQ(got.edm.probabilities()[i],
                  ref.edm.probabilities()[i])
            << "edm outcome " << i;
        EXPECT_EQ(got.wedm.probabilities()[i],
                  ref.wedm.probabilities()[i])
            << "wedm outcome " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsByJobs, BatchedPipeline,
    ::testing::Combine(::testing::Values(std::size_t(1),
                                         std::size_t(3),
                                         std::size_t(64)),
                       ::testing::Values(1, 4)));

// ---------------------------------------------------------------------
// Scalar vs SIMD lane-kernel builds.
// ---------------------------------------------------------------------

/** RAII guard so a failing EXPECT cannot leak the forced build. */
struct ScalarKernelGuard
{
    ScalarKernelGuard() { sim::forceScalarLaneKernels(true); }
    ~ScalarKernelGuard() { sim::forceScalarLaneKernels(false); }
};

TEST(BatchedSimd, ScalarBuildMatchesSelectedBuild)
{
    const stats::Counts selected = runBv6(64, 256);
    const bool had_simd = sim::laneKernelsSimd();
    stats::Counts forced(1);
    {
        const ScalarKernelGuard guard;
        ASSERT_FALSE(sim::laneKernelsSimd());
        forced = runBv6(64, 256);
    }
    // On AVX2 hosts this compares two genuinely different instruction
    // streams; elsewhere it degenerates to a determinism check.
    expectSameCounts(forced, selected);
    EXPECT_EQ(sim::laneKernelsSimd(), had_simd);
}

TEST(BatchedSimd, ScalarBuildMatchesScalarPath)
{
    const ScalarKernelGuard guard;
    const stats::Counts scalar = runBv6(0, 100);
    expectSameCounts(runBv6(8, 100), scalar);
}

} // namespace
} // namespace qedm
