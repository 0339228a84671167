#include "core/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "sim/executor.hpp"
#include "stats/metrics.hpp"
#include "transpile/esp_model.hpp"
#include "transpile/placement_search.hpp"
#include "transpile/vf2.hpp"

namespace qedm::core {

using transpile::CompiledProgram;

namespace {

/**
 * One isomorphic transfer before materialization: the full relabeling,
 * the relabeled initial map (the deterministic tie-break key), and the
 * exact trace-scored ESP. Cheap to build and sort; the physical
 * circuit is only materialized for candidates that survive the
 * automorphism dedup.
 */
struct CandidateRecord
{
    std::vector<int> relabel;
    std::vector<int> initialMap;
    std::vector<int> usedSet; ///< sorted embedding targets (dedup key)
    double esp = 0.0;
};

/** Deterministic candidate order: ESP descending, ties broken on the
 *  initial map and then on the full relabeling — a total order
 *  independent of enumeration order. */
bool
candidateBefore(const CandidateRecord &a, const CandidateRecord &b)
{
    if (a.esp != b.esp)
        return a.esp > b.esp;
    if (a.initialMap != b.initialMap)
        return a.initialMap < b.initialMap;
    return a.relabel < b.relabel;
}

} // namespace

EnsembleBuilder::EnsembleBuilder(const hw::Device &device,
                                 EnsembleConfig config)
    : device_(device), config_(std::move(config)),
      view_(config_.region.empty()
                ? hw::DeviceView(device)
                : hw::DeviceView(device, config_.region))
{
    QEDM_REQUIRE(config_.size >= 1, "ensemble size must be >= 1");
    QEDM_REQUIRE(config_.expectedDropoutProb >= 0.0 &&
                     config_.expectedDropoutProb < 1.0,
                 "expected dropout probability must be in [0, 1)");
    QEDM_REQUIRE(config_.plannedDropouts >= 0,
                 "planned dropout count must be non-negative");
}

std::vector<CompiledProgram>
EnsembleBuilder::candidates(const circuit::Circuit &logical) const
{
    transpile::Transpiler compiler(view_, config_.routeCost,
                                   config_.verifyPasses);
    std::shared_ptr<const CompiledProgram> cached;
    if (config_.compileCache != nullptr)
        cached = config_.compileCache->getOrCompile(compiler, logical);
    const CompiledProgram seed =
        cached ? *cached : compiler.compile(logical);
    const auto &topo = device_.topology();

    // Pattern: the induced subgraph on the qubits the seed executable
    // touches (including any SWAP waypoints).
    const std::vector<int> used = seed.usedQubits();
    QEDM_ASSERT(!used.empty(), "compiled program uses no qubits");
    std::vector<int> patternIndex(topo.numQubits(), -1);
    for (std::size_t i = 0; i < used.size(); ++i)
        patternIndex[used[i]] = static_cast<int>(i);
    std::vector<std::pair<int, int>> pattern_edges;
    for (const auto &edge : topo.edges()) {
        if (patternIndex[edge.a] >= 0 && patternIndex[edge.b] >= 0)
            pattern_edges.emplace_back(patternIndex[edge.a],
                                       patternIndex[edge.b]);
    }
    const hw::Topology pattern(static_cast<int>(used.size()),
                               pattern_edges);

    const auto embeddings = transpile::vf2AllEmbeddings(
        pattern, topo, config_.vf2Limit, view_.maskPtr());
    QEDM_ASSERT(!embeddings.empty(),
                "identity embedding must always exist");

    // Score every transfer from the seed's gate trace — the same
    // factors esp() multiplies on the materialized circuit, in the
    // same order, so the scores are bit-identical, without building
    // a circuit per candidate.
    const auto model = transpile::sharedEspModel(view_);
    const transpile::GateTrace trace =
        transpile::EspModel::trace(seed.physical.decomposed());

    std::vector<CandidateRecord> records;
    records.reserve(embeddings.size());
    for (const auto &embedding : embeddings) {
        // Full physical-to-physical relabeling: used qubits move via
        // the embedding; the rest fill the remaining slots (their
        // placement is irrelevant, no gate touches them).
        CandidateRecord rec;
        rec.relabel.assign(topo.numQubits(), -1);
        std::vector<bool> taken(topo.numQubits(), false);
        for (std::size_t i = 0; i < used.size(); ++i) {
            rec.relabel[used[i]] = embedding[i];
            taken[embedding[i]] = true;
        }
        int fill = 0;
        for (int q = 0; q < topo.numQubits(); ++q) {
            if (rec.relabel[q] >= 0)
                continue;
            while (taken[fill])
                ++fill;
            rec.relabel[q] = fill;
            taken[fill] = true;
        }
        rec.initialMap.reserve(seed.initialMap.size());
        for (int p : seed.initialMap)
            rec.initialMap.push_back(rec.relabel[p]);
        rec.usedSet = embedding;
        std::sort(rec.usedSet.begin(), rec.usedSet.end());
        rec.esp = model->espOfTrace(trace, rec.relabel);
        records.push_back(std::move(rec));
    }
    std::sort(records.begin(), records.end(), candidateBefore);

    // The paper ranks isomorphic *sub-graphs*: collapse automorphic
    // relabelings onto the same qubit set, keeping the best-ESP one.
    // Dedup happens *before* materialization, so automorphic copies
    // never cost a circuit build.
    std::vector<CandidateRecord> survivors;
    std::set<std::vector<int>> seen_sets;
    for (auto &rec : records) {
        if (seen_sets.insert(rec.usedSet).second)
            survivors.push_back(std::move(rec));
    }

    // Materialize (and verify) only the survivors.
    std::vector<CompiledProgram> out;
    out.reserve(survivors.size());
    for (const CandidateRecord &rec : survivors) {
        CompiledProgram member;
        member.physical =
            seed.physical.remapQubits(rec.relabel, topo.numQubits());
        member.initialMap = rec.initialMap;
        member.finalMap.reserve(seed.finalMap.size());
        for (int p : seed.finalMap)
            member.finalMap.push_back(rec.relabel[p]);
        member.swapCount = seed.swapCount;
        member.esp = rec.esp;
        // Isomorphic transfer must preserve validity; verify every
        // member the builder hands out, not just the compiled seed.
        if (config_.verifyPasses) {
            check::ProgramView view;
            view.physical = &member.physical;
            view.initialMap = &member.initialMap;
            view.finalMap = &member.finalMap;
            view.swapCount = member.swapCount;
            view.esp = member.esp;
            view.device = &device_;
            view.logical = &logical;
            view.region = &view_;
            check::verifyProgram(view);
        }
        out.push_back(std::move(member));
    }
    return out;
}

namespace {

/** Fraction of @p a's qubits also present in @p b (both sorted). */
double
overlapFraction(const std::vector<int> &a, const std::vector<int> &b)
{
    if (a.empty())
        return 0.0;
    std::size_t shared = 0;
    for (int q : a) {
        if (std::binary_search(b.begin(), b.end(), q))
            ++shared;
    }
    return static_cast<double>(shared) / static_cast<double>(a.size());
}

} // namespace

std::vector<CompiledProgram>
EnsembleBuilder::build(const circuit::Circuit &logical) const
{
    const std::vector<CompiledProgram> all = candidates(logical);
    // Fault-aware sizing: when the fault plan predicts member dropout,
    // over-provision K so the ensemble *expected to survive* still has
    // config_.size members — size / (1 - p) against probabilistic
    // dropout, plus one slot per deterministically-failed member.
    std::size_t want = static_cast<std::size_t>(config_.size);
    if (config_.expectedDropoutProb > 0.0 || config_.plannedDropouts > 0) {
        const double p = std::min(config_.expectedDropoutProb, 0.9);
        want = static_cast<std::size_t>(std::ceil(
                   static_cast<double>(config_.size) / (1.0 - p))) +
               static_cast<std::size_t>(config_.plannedDropouts);
    }

    // Greedy top-K selection under the overlap cap. If the cap
    // starves the ensemble below K, it is relaxed progressively for
    // the *remaining* slots only, so the tight-cap prefix (the most
    // diverse members) is preserved.
    std::vector<CompiledProgram> out;
    std::vector<std::vector<int>> used_sets;
    std::vector<bool> taken(all.size(), false);
    for (double cap = config_.maxOverlap;
         out.size() < want && out.size() < all.size(); cap += 0.25) {
        for (std::size_t i = 0; i < all.size() && out.size() < want;
             ++i) {
            if (taken[i])
                continue;
            const std::vector<int> used = all[i].usedQubits();
            bool ok = true;
            if (cap < 1.0) {
                for (const auto &prev : used_sets) {
                    if (overlapFraction(used, prev) > cap) {
                        ok = false;
                        break;
                    }
                }
            }
            if (ok) {
                out.push_back(all[i]);
                used_sets.push_back(used);
                taken[i] = true;
            }
        }
        if (cap >= 1.0)
            break;
    }
    return out;
}

std::vector<CompiledProgram>
EnsembleBuilder::buildPredictive(const circuit::Circuit &logical,
                                 std::size_t pool_size) const
{
    QEDM_REQUIRE(pool_size >= 2, "predictive pool needs >= 2 members");
    std::vector<CompiledProgram> pool = candidates(logical);
    if (pool.size() > pool_size)
        pool.resize(pool_size);
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(config_.size), pool.size());

    // Exact compile-time prediction of every pool member's output.
    const sim::Executor exec(device_);
    std::vector<stats::Distribution> predicted;
    predicted.reserve(pool.size());
    for (const auto &member : pool)
        predicted.push_back(exec.exactDistribution(member.physical));

    // Greedy max-diversity: seed with the best-ESP member, then add
    // the candidate with the largest summed divergence from the
    // already-selected set.
    std::vector<std::size_t> chosen{0};
    while (chosen.size() < want) {
        double best_gain = -1.0;
        std::size_t best_idx = 0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (std::find(chosen.begin(), chosen.end(), i) !=
                chosen.end()) {
                continue;
            }
            double gain = 0.0;
            for (std::size_t j : chosen)
                gain += stats::symmetricKl(predicted[i], predicted[j]);
            if (gain > best_gain) {
                best_gain = gain;
                best_idx = i;
            }
        }
        chosen.push_back(best_idx);
    }
    std::vector<CompiledProgram> out;
    out.reserve(chosen.size());
    for (std::size_t i : chosen)
        out.push_back(pool[i]);
    return out;
}

std::vector<CompiledProgram>
EnsembleBuilder::buildAdaptive(const circuit::Circuit &logical,
                               double min_esp_ratio) const
{
    QEDM_REQUIRE(min_esp_ratio > 0.0 && min_esp_ratio <= 1.0,
                 "min_esp_ratio must be in (0, 1]");
    std::vector<CompiledProgram> selected = build(logical);
    QEDM_ASSERT(!selected.empty(), "ensemble builder returned nothing");
    const double floor_esp = selected.front().esp * min_esp_ratio;
    std::size_t keep = 1;
    while (keep < selected.size() && selected[keep].esp >= floor_esp)
        ++keep;
    selected.resize(keep);
    return selected;
}

std::vector<CompiledProgram>
EnsembleBuilder::buildRandom(const circuit::Circuit &logical,
                             Rng &rng) const
{
    std::vector<CompiledProgram> all = candidates(logical);
    if (static_cast<int>(all.size()) <= config_.size)
        return all;
    std::vector<CompiledProgram> out;
    out.push_back(all.front()); // keep the compile-time best
    // Fisher-Yates over the remainder.
    for (std::size_t i = 1; i < all.size() &&
                            out.size() <
                                static_cast<std::size_t>(config_.size);
         ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(
                    rng.uniformInt(all.size() - i));
        std::swap(all[i], all[j]);
        out.push_back(std::move(all[i]));
    }
    return out;
}

} // namespace qedm::core
