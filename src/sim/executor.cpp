#include "sim/executor.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectories.hpp"

namespace qedm::sim {

using circuit::Circuit;
using circuit::Gate;
using circuit::OpKind;

Executor::Executor(hw::Device device)
    : device_(std::move(device)), fingerprint_(device_.fingerprint())
{
}

stats::Counts
Executor::run(const Circuit &physical, std::uint64_t shots,
              Rng &rng) const
{
    return run(ExecutionTape::build(device_, physical), shots, rng);
}

namespace {

/** @p shots draws from an exact outcome table: one uniform and a binary
 *  search each, tallied per entry and added to the Counts once. */
stats::Counts
sampleExact(const ExactOutcomes &table, int width, std::uint64_t shots,
            Rng &rng)
{
    std::vector<std::uint64_t> hits(table.outcomes.size(), 0);
    for (std::uint64_t shot = 0; shot < shots; ++shot)
        ++hits[sampleFromCumulative(table.cumulative, rng)];
    stats::Counts counts(width);
    for (std::size_t i = 0; i < hits.size(); ++i) {
        if (hits[i] > 0)
            counts.add(table.outcomes[i], hits[i]);
    }
    return counts;
}

} // namespace

void
Executor::requireOwnDevice(const ExecutionTape &tape) const
{
    QEDM_REQUIRE(tape.deviceFingerprint == fingerprint_,
                 "execution tape was built against a different device "
                 "(fingerprint mismatch); build the tape with this "
                 "Executor's device");
}

stats::Counts
Executor::run(const ExecutionTape &tape, std::uint64_t shots,
              Rng &rng) const
{
    QEDM_REQUIRE(shots > 0, "shots must be positive");
    requireOwnDevice(tape);
    if (tape.exact)
        return sampleExact(*tape.exact, tape.numClbits, shots, rng);
    return runTrajectories(device_.calibration(), tape, shots, rng,
                           simBatch_);
}

stats::Distribution
Executor::exactDistribution(const Circuit &physical) const
{
    return exactDistribution(ExecutionTape::build(device_, physical));
}

stats::Distribution
Executor::exactDistribution(const ExecutionTape &tape) const
{
    requireOwnDevice(tape);
    std::optional<ExactOutcomes> computed;
    const ExactOutcomes &table =
        tape.exact ? *tape.exact
                   : computed.emplace(
                         exactOutcomes(tape, device_.calibration()));
    stats::Distribution dist(tape.numClbits);
    for (std::size_t i = 0; i < table.outcomes.size(); ++i)
        dist.setProb(table.outcomes[i], table.probs[i]);
    return dist;
}

stats::Distribution
idealDistribution(const Circuit &logical)
{
    const Circuit flat = logical.decomposed();
    QEDM_REQUIRE(flat.numQubits() <= 24, "circuit too large");

    StateVector sv(flat.numQubits());
    std::vector<std::pair<int, int>> measures; // (qubit, clbit)
    std::vector<bool> measured(flat.numQubits(), false);
    for (const Gate &g : flat.gates()) {
        if (g.kind == OpKind::Barrier)
            continue;
        for (int q : g.qubits)
            QEDM_REQUIRE(!measured[q],
                         "gate after measurement is not supported");
        if (g.kind == OpKind::Measure) {
            measured[g.qubits[0]] = true;
            measures.emplace_back(g.qubits[0], g.clbit);
            continue;
        }
        sv.applyGate(g.kind, g.qubits, g.params);
    }
    QEDM_REQUIRE(!measures.empty(),
                 "circuit must measure at least one qubit");

    stats::Distribution dist(flat.numClbits());
    const std::vector<double> probs = sv.probabilities();
    for (std::size_t basis = 0; basis < probs.size(); ++basis) {
        if (probs[basis] <= 0.0)
            continue;
        Outcome outcome = 0;
        for (const auto &[q, c] : measures)
            outcome = setBit(outcome, c, getBit(basis, q));
        dist.addProb(outcome, probs[basis]);
    }
    dist.normalize();
    return dist;
}

} // namespace qedm::sim
