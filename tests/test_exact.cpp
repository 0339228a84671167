/**
 * @file
 * Tests for the exact engine and the exact sampler (DESIGN.md §8).
 *
 *  - the fused density-matrix evolution reproduces, within 1e-12, the
 *    exact distributions the pre-fusion engine produced for every
 *    benchmark circuit on melbourne(1..3) (tests/data fixture);
 *  - each block kernel (1-qubit superoperator, fused 1-qubit chain,
 *    2-qubit gate + depolarizing pass) matches a dense
 *    sum_k K rho K^dagger reference on up to three qubits;
 *  - the per-component evolution matches one density matrix over the
 *    whole register within 1e-12, on a hand-built tape whose crosstalk
 *    and pair readout cross components and on a 9-10-qubit compiled
 *    Bernstein-Vazirani tape;
 *  - the prefix property holds on both sides of kExactSampleMaxQubits;
 *  - a tape carries its outcome table iff it is small enough, and the
 *    table spans the measured clbits only;
 *  - an Executor refuses tapes built for another device.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "benchmarks/extra.hpp"
#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "hw/device.hpp"
#include "sim/channels.hpp"
#include "sim/density_matrix.hpp"
#include "sim/execution_tape.hpp"
#include "sim/executor.hpp"
#include "sim/trajectories.hpp"
#include "stats/counts.hpp"
#include "transpile/transpiler.hpp"

namespace qedm {
namespace {

using circuit::Circuit;
using circuit::Complex;
using circuit::OpKind;

// ---------------------------------------------------------------------
// (a) Parent-engine fixture.
// ---------------------------------------------------------------------

struct FixtureRecord
{
    std::string bench;
    int seed = 0;
    int width = 0;
    int active = 0;
    std::map<Outcome, double> probs;
};

std::vector<FixtureRecord>
loadFixture()
{
    std::ifstream in(std::string(QEDM_TEST_DATA_DIR) +
                     "/exact_distributions.txt");
    EXPECT_TRUE(in.good()) << "missing exact_distributions.txt";
    std::vector<FixtureRecord> records;
    std::string line;
    std::size_t pending = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        if (pending == 0) {
            std::string tag;
            FixtureRecord rec;
            fields >> tag >> rec.bench >> rec.seed >> rec.width >>
                pending >> rec.active;
            EXPECT_EQ(tag, "dist");
            records.push_back(rec);
            continue;
        }
        Outcome o = 0;
        double p = 0.0;
        fields >> o >> p;
        records.back().probs[o] = p;
        --pending;
    }
    EXPECT_EQ(pending, 0u);
    return records;
}

benchmarks::Benchmark
benchmarkNamed(const std::string &name)
{
    std::vector<benchmarks::Benchmark> suite = benchmarks::paperSuite();
    for (auto &b : benchmarks::extraSuite())
        suite.push_back(std::move(b));
    for (auto &b : suite) {
        if (b.name == name)
            return b;
    }
    throw UserError("unknown benchmark " + name);
}

TEST(ExactFixture, MatchesPreFusionEngineWithin1e12)
{
    const std::vector<FixtureRecord> records = loadFixture();
    ASSERT_EQ(records.size(), 51u); // 17 benchmarks x 3 seeds
    for (const FixtureRecord &rec : records) {
        const hw::Device device = hw::Device::melbourne(rec.seed);
        const transpile::Transpiler compiler(device);
        const auto program =
            compiler.compile(benchmarkNamed(rec.bench).circuit);
        const auto tape =
            sim::ExecutionTape::build(device, program.physical);
        ASSERT_EQ(tape.numLocal, rec.active) << rec.bench;
        const sim::Executor exec(device);
        const stats::Distribution got = exec.exactDistribution(tape);
        ASSERT_EQ(got.width(), rec.width) << rec.bench;
        for (Outcome o = 0; o < got.size(); ++o) {
            const auto it = rec.probs.find(o);
            const double want = it == rec.probs.end() ? 0.0 : it->second;
            EXPECT_NEAR(got.prob(o), want, 1e-12)
                << rec.bench << " seed " << rec.seed << " outcome " << o;
        }
    }
}

// ---------------------------------------------------------------------
// (b) Block kernels against a dense reference.
// ---------------------------------------------------------------------

using Dense = std::vector<Complex>; // dim x dim, row-major

/** A dense operator on @p n qubits: @p m on the listed operands
 *  (operand 0 most significant), identity elsewhere. */
Dense
embed(int n, const std::vector<Complex> &m, const std::vector<int> &ops)
{
    const std::size_t dim = std::size_t(1) << n;
    const std::size_t k = std::size_t(1) << ops.size();
    const auto local = [&](std::size_t idx) {
        std::size_t v = 0;
        for (int q : ops)
            v = (v << 1) | ((idx >> q) & 1);
        return v;
    };
    std::size_t others = dim - 1;
    for (int q : ops)
        others &= ~(std::size_t(1) << q);
    Dense out(dim * dim, Complex(0.0));
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            if ((r & others) == (c & others))
                out[r * dim + c] = m[local(r) * k + local(c)];
    return out;
}

Dense
matmul(const Dense &a, const Dense &b, std::size_t dim)
{
    Dense out(dim * dim, Complex(0.0));
    for (std::size_t i = 0; i < dim; ++i)
        for (std::size_t k = 0; k < dim; ++k)
            for (std::size_t j = 0; j < dim; ++j)
                out[i * dim + j] += a[i * dim + k] * b[k * dim + j];
    return out;
}

Dense
dagger(const Dense &a, std::size_t dim)
{
    Dense out(dim * dim);
    for (std::size_t i = 0; i < dim; ++i)
        for (std::size_t j = 0; j < dim; ++j)
            out[j * dim + i] = std::conj(a[i * dim + j]);
    return out;
}

/** The dense reference state: rho -> sum_k K rho K^dagger. */
struct DenseRho
{
    int n;
    std::size_t dim;
    Dense rho;

    explicit DenseRho(int qubits)
        : n(qubits), dim(std::size_t(1) << qubits),
          rho(dim * dim, Complex(0.0))
    {
        rho[0] = Complex(1.0);
    }

    void channel(const std::vector<Dense> &kraus)
    {
        Dense acc(dim * dim, Complex(0.0));
        for (const Dense &k : kraus) {
            const Dense t =
                matmul(matmul(k, rho, dim), dagger(k, dim), dim);
            for (std::size_t i = 0; i < acc.size(); ++i)
                acc[i] += t[i];
        }
        rho = acc;
    }

    void kraus1q(const sim::Kraus1q &kraus, int q)
    {
        std::vector<Dense> full;
        for (const auto &k : kraus)
            full.push_back(embed(n, {k.begin(), k.end()}, {q}));
        channel(full);
    }

    void unitary2q(const std::array<Complex, 16> &u, int q0, int q1)
    {
        channel({embed(n, {u.begin(), u.end()}, {q0, q1})});
    }

    void depolarizing2q(double p, int q0, int q1)
    {
        std::vector<Dense> full;
        std::vector<Complex> id(16, Complex(0.0));
        for (int i = 0; i < 4; ++i)
            id[static_cast<std::size_t>(i * 5)] = std::sqrt(1.0 - p);
        full.push_back(embed(n, id, {q0, q1}));
        for (int w = 0; w < 15; ++w) {
            const auto [pa, pb] = sim::twoQubitPauli(w);
            Dense k = matmul(embed(n, {pa.begin(), pa.end()}, {q0}),
                             embed(n, {pb.begin(), pb.end()}, {q1}), dim);
            for (Complex &x : k)
                x *= std::sqrt(p / 15.0);
            full.push_back(k);
        }
        channel(full);
    }
};

void
expectSameState(const sim::DensityMatrix &got, const DenseRho &want,
                const std::string &what)
{
    for (std::size_t r = 0; r < want.dim; ++r)
        for (std::size_t c = 0; c < want.dim; ++c)
            EXPECT_LT(std::abs(got.at(r, c) - want.rho[r * want.dim + c]),
                      1e-13)
                << what << " at (" << r << ", " << c << ")";
}

std::array<Complex, 4>
rotation(double a, double b, double c)
{
    const auto rz1 = circuit::gateMatrix1q(OpKind::Rz, {a});
    const auto ry = circuit::gateMatrix1q(OpKind::Ry, {b});
    const auto rz2 = circuit::gateMatrix1q(OpKind::Rz, {c});
    const auto mul2 = [](const std::array<Complex, 4> &x,
                         const std::array<Complex, 4> &y) {
        return std::array<Complex, 4>{x[0] * y[0] + x[1] * y[2],
                                      x[0] * y[1] + x[1] * y[3],
                                      x[2] * y[0] + x[3] * y[2],
                                      x[2] * y[1] + x[3] * y[3]};
    };
    return mul2(rz2, mul2(ry, rz1));
}

/** A dense (non-monomial) 2-qubit unitary: local rotations around CX. */
std::array<Complex, 16>
entangler(double seed)
{
    const auto a = rotation(0.3 + seed, 1.1, -0.4);
    const auto b = rotation(-0.7, 0.5 + seed, 0.9);
    const auto cx = circuit::gateMatrix2q(OpKind::Cx);
    std::array<Complex, 16> u{};
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c) {
            Complex acc(0.0);
            for (int k = 0; k < 4; ++k)
                acc += a[static_cast<std::size_t>((r >> 1) * 2 + (k >> 1))] *
                       b[static_cast<std::size_t>((r & 1) * 2 + (k & 1))] *
                       cx[static_cast<std::size_t>(k * 4 + c)];
            u[static_cast<std::size_t>(r * 4 + c)] = acc;
        }
    return u;
}

/** Bring both engines to the same generic mixed state on n qubits. */
void
scramble(sim::DensityMatrix &rho, DenseRho &ref)
{
    for (int q = 0; q < ref.n; ++q) {
        const auto u = rotation(0.2 + q, 0.9 - 0.3 * q, 0.5 * q);
        rho.apply1q(u, q);
        ref.kraus1q({u}, q);
    }
    for (int q = 0; q + 1 < ref.n; ++q) {
        const auto u = entangler(0.1 * q);
        rho.apply2q(u, q, q + 1);
        ref.unitary2q(u, q, q + 1);
        const auto damp = sim::amplitudeDamping(0.15 + 0.05 * q);
        rho.applyKraus1q(damp, q);
        ref.kraus1q(damp, q);
    }
}

TEST(ExactKernels, BlockSuperopMatchesDenseReference)
{
    for (int n = 1; n <= 3; ++n) {
        for (int q = 0; q < n; ++q) {
            sim::DensityMatrix rho(n);
            DenseRho ref(n);
            scramble(rho, ref);
            for (const sim::Kraus1q &k :
                 {sim::depolarizing1q(0.2), sim::amplitudeDamping(0.3),
                  sim::phaseDamping(0.4),
                  sim::Kraus1q{rotation(0.4, 1.3, -0.2)}}) {
                rho.applySuperop1q(sim::superopOf(k), q);
                ref.kraus1q(k, q);
                expectSameState(rho, ref,
                                "n=" + std::to_string(n) +
                                    " q=" + std::to_string(q));
            }
        }
    }
}

TEST(ExactKernels, FusedChainMatchesDenseReference)
{
    // A thermal-relaxation / gate / depolarizing run composed into one
    // superoperator, applied once, equals applying each in turn.
    for (int n = 1; n <= 3; ++n) {
        for (int q = 0; q < n; ++q) {
            sim::DensityMatrix rho(n);
            DenseRho ref(n);
            scramble(rho, ref);
            std::vector<sim::Kraus1q> chain =
                sim::thermalRelaxation(320.0, 50.0, 70.0);
            chain.push_back({circuit::gateMatrix1q(OpKind::H, {})});
            chain.push_back({rotation(0.01, -0.02, 0.03)});
            chain.push_back(sim::depolarizing1q(0.01));
            for (auto &k : sim::thermalRelaxation(100.0, 40.0, 30.0))
                chain.push_back(std::move(k));
            sim::Superop1q fused = sim::superopOf(chain.front());
            for (std::size_t i = 1; i < chain.size(); ++i)
                fused = sim::superopThen(fused, sim::superopOf(chain[i]));
            for (const auto &k : chain)
                ref.kraus1q(k, q);
            rho.applySuperop1q(fused, q);
            expectSameState(rho, ref,
                            "n=" + std::to_string(n) +
                                " q=" + std::to_string(q));
        }
    }
}

TEST(ExactKernels, GateDepolarizingPassMatchesDenseReference)
{
    for (int n = 2; n <= 3; ++n) {
        for (int q0 = 0; q0 < n; ++q0) {
            for (int q1 = 0; q1 < n; ++q1) {
                if (q0 == q1)
                    continue;
                for (const double p : {0.0, 0.05, 1.0}) {
                    sim::DensityMatrix rho(n);
                    DenseRho ref(n);
                    scramble(rho, ref);
                    const auto u = entangler(0.37 * q0 + q1);
                    rho.apply2qDepolarizing(u, p, q0, q1);
                    ref.unitary2q(u, q0, q1);
                    ref.depolarizing2q(p, q0, q1);
                    expectSameState(rho, ref,
                                    "n=" + std::to_string(n) + " (" +
                                        std::to_string(q0) + "," +
                                        std::to_string(q1) +
                                        ") p=" + std::to_string(p));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// (c) Per-component evolution against one whole-register matrix.
// ---------------------------------------------------------------------

/** Per-bit readout confusion on @p dist (o and o^bit exchange mass). */
void
confuseBit(stats::Distribution &dist, int bit, double p01, double p10)
{
    for (Outcome o = 0; o < dist.size(); ++o) {
        if (getBit(o, bit))
            continue;
        const Outcome o1 = setBit(o, bit, 1);
        const double p0 = dist.prob(o);
        const double p1 = dist.prob(o1);
        dist.setProb(o, p0 * (1.0 - p01) + p1 * p10);
        dist.setProb(o1, p0 * p01 + p1 * (1.0 - p10));
    }
}

/**
 * The exact outcome distribution of @p tape from one density matrix
 * over its whole local register, every gate and channel applied to it
 * as it comes (no deferral, no factorization), then the clbit
 * projection, readout confusion and pair flips.
 */
stats::Distribution
singleMatrixDistribution(const sim::ExecutionTape &tape,
                         const hw::Calibration &cal)
{
    sim::DensityMatrix rho(tape.numLocal);
    for (const sim::TapeOp &op : tape.ops) {
        for (const auto &[q, kraus] : op.preRelaxation)
            rho.applyKraus1q(kraus, q);
        if (op.l1 < 0) {
            rho.apply1q(op.gate1q, op.l0);
            if (op.overRotation != 0.0)
                rho.apply1q(op.overRotationMat, op.l0);
            if (op.depolProb > 0.0)
                rho.applyKraus1q(sim::depolarizing1q(op.depolProb), op.l0);
        } else {
            rho.apply2q(op.gate2q, op.l0, op.l1);
            if (op.overRotation != 0.0)
                rho.apply1q(op.overRotationMat, op.l1);
            if (op.controlPhase != 0.0)
                rho.apply1q(op.controlPhaseMat, op.l0);
            for (const auto &[q, k] : op.crosstalk)
                rho.apply1q(k, q);
            if (op.depolProb > 0.0)
                rho.applyDepolarizing2q(op.depolProb, op.l0, op.l1);
        }
        for (const auto &[q, kraus] : op.relaxation)
            rho.applyKraus1q(kraus, q);
    }
    for (const auto &m : tape.measures) {
        for (const auto &kraus : m.relaxation)
            rho.applyKraus1q(kraus, m.local);
    }

    const std::vector<double> basis = rho.probabilities();
    stats::Distribution dist(tape.numClbits);
    for (std::size_t b = 0; b < basis.size(); ++b) {
        Outcome o = 0;
        for (const auto &m : tape.measures)
            o = setBit(o, m.clbit, getBit(b, m.local));
        dist.addProb(o, basis[b]);
    }
    for (const auto &m : tape.measures) {
        const auto &qc = cal.qubit(m.phys);
        confuseBit(dist, m.clbit, qc.readoutP01, qc.readoutP10);
    }
    for (const auto &pr : tape.pairReadout) {
        for (Outcome o = 0; o < dist.size(); ++o) {
            const Outcome f = flipBit(flipBit(o, pr.clbitA), pr.clbitB);
            if (f <= o)
                continue;
            const double po = dist.prob(o);
            const double pf = dist.prob(f);
            const double p = pr.jointFlipProb;
            dist.setProb(o, po * (1.0 - p) + pf * p);
            dist.setProb(f, po * p + pf * (1.0 - p));
        }
    }
    dist.normalize();
    return dist;
}

void
expectSameDistribution(const stats::Distribution &got,
                       const stats::Distribution &want)
{
    ASSERT_EQ(got.width(), want.width());
    for (Outcome o = 0; o < want.size(); ++o)
        EXPECT_NEAR(got.prob(o), want.prob(o), 1e-12) << "outcome " << o;
}

sim::TapeOp
oneQubitOp(int q, const std::array<Complex, 4> &u)
{
    sim::TapeOp op;
    op.kind = OpKind::Ry; // the exact engine reads the matrix, not the kind
    op.l0 = q;
    op.gate1q = u;
    return op;
}

sim::TapeOp
twoQubitOp(int q0, int q1, double seed, double depol)
{
    sim::TapeOp op;
    op.kind = OpKind::Cx;
    op.l0 = q0;
    op.l1 = q1;
    op.gate2q = entangler(seed);
    op.depolProb = depol;
    return op;
}

std::array<Complex, 4>
rz(double angle)
{
    return circuit::gateMatrix1q(OpKind::Rz, {angle});
}

TEST(ExactFactorized, CrossComponentKicksAndPairReadout)
{
    // Six local qubits in three interaction components, {0, 1, 2},
    // {3, 4} and {5}. Crosstalk from each component's 2-qubit ops
    // kicks spectators in the others, qubit 2 is never measured, and
    // both pair-readout flips join clbits of different components.
    const hw::Device device = hw::Device::melbourne(2);
    sim::ExecutionTape tape;
    tape.numLocal = 6;
    tape.numClbits = 5;
    tape.localToPhys = {0, 1, 2, 3, 4, 5};

    sim::TapeOp a = oneQubitOp(0, rotation(0.3, 1.2, -0.5));
    a.preRelaxation = {{0, sim::amplitudeDamping(0.05)}};
    a.overRotation = 0.02;
    a.overRotationMat = circuit::gateMatrix1q(OpKind::Rx, {0.02});
    a.depolProb = 0.01;
    tape.ops.push_back(a);
    tape.ops.push_back(oneQubitOp(1, circuit::gateMatrix1q(OpKind::H, {})));
    tape.ops.push_back(oneQubitOp(3, rotation(-0.4, 0.8, 0.6)));
    tape.ops.push_back(oneQubitOp(5, rotation(0.9, 1.9, 0.1)));

    sim::TapeOp b = twoQubitOp(0, 1, 0.2, 0.03);
    b.overRotation = 0.03;
    b.overRotationMat = circuit::gateMatrix1q(OpKind::Rx, {0.03});
    b.controlPhase = 0.04;
    b.controlPhaseMat = rz(0.04);
    b.crosstalk = {{3, rz(0.05)}, {5, rz(-0.07)}, {0, rz(0.01)}};
    b.relaxation = {{0, sim::phaseDamping(0.02)},
                    {1, sim::amplitudeDamping(0.03)}};
    tape.ops.push_back(b);
    sim::TapeOp c = twoQubitOp(4, 3, 0.5, 0.02);
    c.crosstalk = {{2, rz(0.06)}, {1, rz(0.02)}};
    tape.ops.push_back(c);
    sim::TapeOp d = twoQubitOp(1, 2, 0.8, 0.04);
    d.preRelaxation = {{2, sim::amplitudeDamping(0.04)}};
    d.crosstalk = {{4, rz(-0.03)}};
    tape.ops.push_back(d);
    sim::TapeOp e = oneQubitOp(5, rotation(0.2, -0.7, 1.4));
    e.depolProb = 0.005;
    tape.ops.push_back(e);
    tape.ops.push_back(oneQubitOp(4, rotation(1.1, 0.3, -0.2)));

    // (local, phys, clbit): physical 11 and 12 carry the large
    // melbourne readout errors.
    const std::array<std::array<int, 3>, 5> measured = {
        {{0, 11, 3}, {1, 12, 0}, {3, 5, 1}, {4, 10, 4}, {5, 3, 2}}};
    for (const auto &[local, phys, clbit] : measured)
        tape.measures.push_back(
            {local, phys, clbit, {sim::amplitudeDamping(0.02)}});
    tape.pairReadout = {{0, 4, 0.05}, {2, 3, 0.03}};

    const sim::ExactOutcomes table =
        sim::exactOutcomes(tape, device.calibration());
    stats::Distribution got(tape.numClbits);
    for (std::size_t i = 0; i < table.outcomes.size(); ++i)
        got.setProb(table.outcomes[i], table.probs[i]);
    expectSameDistribution(
        got, singleMatrixDistribution(tape, device.calibration()));
}

TEST(ExactFactorized, NineQubitBernsteinVaziraniMatchesSingleMatrix)
{
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Transpiler compiler(device);
    const auto program =
        compiler.compile(benchmarks::bernsteinVazirani("11001101").circuit);
    const auto tape = sim::ExecutionTape::build(device, program.physical);
    ASSERT_GE(tape.numLocal, 9);
    ASSERT_LE(tape.numLocal, 10);
    ASSERT_FALSE(tape.exact.has_value()); // evolved on demand below
    const sim::Executor exec(device);
    expectSameDistribution(
        exec.exactDistribution(tape),
        singleMatrixDistribution(tape, device.calibration()));
}

// ---------------------------------------------------------------------
// Tapes on both sides of kExactSampleMaxQubits.
// ---------------------------------------------------------------------

/** A simple path through melbourne's coupling graph. */
constexpr std::array<int, 13> kPath = {0, 1,  2,  3,  4,  5, 6,
                                       8, 9, 10, 11, 12, 13};

/** GHZ chain over the first @p n path qubits, all measured. */
Circuit
ghzChain(int n)
{
    Circuit c(14, n);
    c.h(kPath[0]);
    for (int i = 0; i + 1 < n; ++i)
        c.cx(kPath[static_cast<std::size_t>(i)],
             kPath[static_cast<std::size_t>(i + 1)]);
    for (int i = 0; i < n; ++i)
        c.measure(kPath[static_cast<std::size_t>(i)], i);
    return c;
}

TEST(ExactTape, CarriesTableIffSmallEnough)
{
    const hw::Device device = hw::Device::melbourne(2);
    for (int n = 1; n <= 11; ++n) {
        const auto tape = sim::ExecutionTape::build(device, ghzChain(n));
        ASSERT_EQ(tape.numLocal, n);
        EXPECT_EQ(tape.exact.has_value(),
                  tape.numLocal <= sim::kExactSampleMaxQubits)
            << n << " active qubits";
    }
}

void
expectPrefixProperty(const sim::Executor &exec,
                     const sim::ExecutionTape &tape)
{
    Rng whole(99);
    const stats::Counts all = exec.run(tape, 700, whole);
    Rng split(99);
    stats::Counts parts = exec.run(tape, 300, split);
    parts.merge(exec.run(tape, 400, split));
    EXPECT_EQ(parts.entries(), all.entries());
    EXPECT_EQ(parts.total(), all.total());
    // Both runs leave the Rng at the same stream position.
    EXPECT_EQ(whole.uniform(), split.uniform());
}

TEST(ExactTape, PrefixPropertyBothSidesOfThreshold)
{
    const hw::Device device = hw::Device::melbourne(2);
    const sim::Executor exec(device);
    const auto small = sim::ExecutionTape::build(
        device, ghzChain(sim::kExactSampleMaxQubits));
    ASSERT_TRUE(small.exact.has_value());
    expectPrefixProperty(exec, small);
    const auto large = sim::ExecutionTape::build(
        device, ghzChain(sim::kExactSampleMaxQubits + 1));
    ASSERT_FALSE(large.exact.has_value());
    expectPrefixProperty(exec, large);
}

TEST(ExactTape, WideRegisterKeepsMeasuredOnlyTable)
{
    // Three measured qubits on a 20-bit register: the table spans the
    // 2^3 measured patterns, and matches the same circuit measured
    // into a 3-bit register after relabelling (up to the order of the
    // normalization sum).
    const hw::Device device = hw::Device::melbourne(3);
    const sim::Executor exec(device);
    const std::array<int, 3> wide_bits = {19, 7, 0};
    Circuit wide(14, 20);
    Circuit narrow(14, 3);
    for (Circuit *c : {&wide, &narrow}) {
        c->h(0).cx(0, 1).cx(1, 2).rz(0.3, 2).h(3).cx(3, 2);
    }
    for (int i = 0; i < 3; ++i) {
        wide.measure(i, wide_bits[static_cast<std::size_t>(i)]);
        narrow.measure(i, i);
    }
    const auto tape = sim::ExecutionTape::build(device, wide);
    ASSERT_LE(tape.numLocal, sim::kExactSampleMaxQubits);
    ASSERT_TRUE(tape.exact.has_value());
    EXPECT_LE(tape.exact->outcomes.size(), 8u);
    EXPECT_EQ(tape.exact->probs.size(), tape.exact->outcomes.size());
    EXPECT_EQ(tape.exact->cumulative.size(), tape.exact->outcomes.size());

    const stats::Distribution d_wide = exec.exactDistribution(tape);
    const stats::Distribution d_narrow = exec.exactDistribution(narrow);
    ASSERT_EQ(d_wide.width(), 20);
    double total = 0.0;
    for (Outcome o = 0; o < 8; ++o) {
        Outcome w = 0;
        for (int i = 0; i < 3; ++i)
            w = setBit(w, wide_bits[static_cast<std::size_t>(i)],
                       getBit(o, i));
        EXPECT_NEAR(d_wide.prob(w), d_narrow.prob(o), 1e-15)
            << "outcome " << o;
        total += d_wide.prob(w);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    for (Outcome o : tape.exact->outcomes) {
        Outcome unmeasured = o;
        for (int bit : wide_bits)
            unmeasured = setBit(unmeasured, bit, 0);
        EXPECT_EQ(unmeasured, 0u);
    }
    Rng rng(5);
    const stats::Counts counts = exec.run(tape, 2000, rng);
    EXPECT_EQ(counts.width(), 20);
    for (const auto &[o, n] : counts.entries())
        EXPECT_GT(d_wide.prob(o), 0.0) << "outcome " << o;
}

TEST(ExactTape, SamplerMatchesExactLaw)
{
    // 200k draws from the stored table land within sampling noise of
    // the exact distribution (a law check on the sampler itself).
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Transpiler compiler(device);
    const auto program = compiler.compile(benchmarks::bv6().circuit);
    const sim::Executor exec(device);
    const auto tape = sim::ExecutionTape::build(device, program.physical);
    Rng rng(41);
    const auto empirical = stats::Distribution::fromCounts(
        exec.run(tape, 200000, rng));
    const auto exact = exec.exactDistribution(tape);
    double tv = 0.0;
    for (Outcome o = 0; o < exact.size(); ++o)
        tv += std::abs(exact.prob(o) - empirical.prob(o));
    EXPECT_LT(0.5 * tv, 0.01);
}

// ---------------------------------------------------------------------
// Device precondition.
// ---------------------------------------------------------------------

TEST(ExactTape, ForeignDeviceTapeIsRefused)
{
    const hw::Device built_for = hw::Device::melbourne(1);
    const hw::Device other = hw::Device::melbourne(2);
    ASSERT_NE(built_for.fingerprint(), other.fingerprint());
    Rng rng(3);
    for (const int n : {3, sim::kExactSampleMaxQubits + 1}) {
        const auto tape =
            sim::ExecutionTape::build(built_for, ghzChain(n));
        EXPECT_EQ(tape.deviceFingerprint, built_for.fingerprint());
        const sim::Executor own(built_for);
        EXPECT_NO_THROW(own.run(tape, 10, rng));
        EXPECT_NO_THROW(own.exactDistribution(tape));
        const sim::Executor foreign(other);
        EXPECT_THROW(foreign.run(tape, 10, rng), UserError);
        EXPECT_THROW(foreign.exactDistribution(tape), UserError);
    }
}

} // namespace
} // namespace qedm
