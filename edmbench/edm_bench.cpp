/**
 * @file
 * edm_bench — closed-loop program behind the end-to-end EDM benchmark.
 *
 * One caller issues core::runExperiment calls back to back for
 * --seconds and reports end-to-end metrics (untraced, --trace 0). A
 * traced run (--trace 1) additionally rebuilds the same experiment
 * from the layers' public calls, timing each call from outside, and
 * reports per-layer metrics. Every run checks its outputs:
 *
 *  - repeated calls with the same inputs give bit-identical summaries;
 *  - the serial rebuild equals the runExperiment summary bit for bit
 *    on every round (with jobs > 1 this also checks that results do
 *    not depend on the worker count);
 *  - faulted rounds conserve their trial budget, and resuming from
 *    the journal a call just wrote reproduces its summary bit for bit.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * where attempted counts experiment calls plus rebuilds and failed
 * counts those that threw or failed a check. Progress and diagnostics
 * go to stderr. See edmbench/README.md for the metric definitions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "check/check.hpp"
#include "common/rng.hpp"
#include "core/edm.hpp"
#include "core/ensemble.hpp"
#include "core/experiment.hpp"
#include "hw/device.hpp"
#include "resilience/journal.hpp"
#include "runtime/scheduler.hpp"
#include "sim/execution_tape.hpp"
#include "sim/executor.hpp"
#include "stats/counts.hpp"
#include "stats/distribution.hpp"
#include "stats/metrics.hpp"
#include "transpile/compile_cache.hpp"

namespace {

using namespace qedm;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Run @p fn and add its wall time to @p acc. */
template <typename Fn>
auto
timed(double &acc, Fn &&fn)
{
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        acc += secondsSince(start);
    } else {
        auto result = fn();
        acc += secondsSince(start);
        return result;
    }
}

double
median(std::vector<double> values)
{
    return values.empty() ? 0.0 : stats::median(std::move(values));
}

// ---------------------------------------------------------------------
// Workloads

// Shared by every workload, and pinned here so a change to a library
// default cannot silently change a workload.
constexpr int kEnsembleSize = 4;
constexpr double kDrift = 0.10;
constexpr int kRetryMax = 2;

struct Workload
{
    std::string name;
    int rounds = 4;
    std::uint64_t shots = 16384;
    bool verify = false;
    int jobs = 1;
    resilience::FaultConfig faults;
    bool journal = false;
    /**
     * Distinct experiments per run: call i runs sub-experiment
     * i mod experiments, each with its own seed derived from the
     * workload seed. The gains pool the rounds of all of them.
     */
    int experiments = 8;
};

/**
 * The named workloads (BENCHMARK.json). @p tiny shrinks rounds and
 * shots for the smoke test while keeping every mechanism live.
 */
std::optional<Workload>
workloadByName(const std::string &name, bool tiny)
{
    Workload w;
    w.name = name;
    if (name == "paper_bv6") {
        // The paper's experiment: drifted rounds of a K=4 ensemble and
        // two baselines at 16,384 trials each, one worker.
        w.rounds = tiny ? 2 : 4;
        w.shots = tiny ? 1024 : 16384;
    } else if (name == "small_budget_checked") {
        // Recompile-per-calibration regime: a small trial budget over
        // many drifted rounds, verifier passes on, four workers.
        w.rounds = tiny ? 4 : 20;
        w.shots = 512;
        w.verify = true;
        w.jobs = 4;
        w.experiments = 16;
    } else if (name == "faulted_journal") {
        // The resilience and journal layers: dropout, transient batch
        // failures and stale calibration under a durable journal.
        w.rounds = tiny ? 2 : 4;
        w.shots = tiny ? 4096 : 16384;
        w.jobs = 4;
        w.faults.dropoutProb = 0.3;
        w.faults.transientProb = 0.05;
        w.faults.stalenessProb = 0.2;
        w.journal = true;
        w.experiments = 12;
    } else {
        return std::nullopt;
    }
    if (tiny)
        w.experiments = 2;
    return w;
}

core::ExperimentConfig
experimentConfig(const Workload &w, int jobs)
{
    core::ExperimentConfig config;
    config.rounds = w.rounds;
    config.totalShots = w.shots;
    config.ensembleSize = kEnsembleSize;
    config.calibrationDrift = kDrift;
    config.jobs = jobs;
    config.verifyPasses = w.verify;
    config.resilience.faults = w.faults;
    config.resilience.retryMax = kRetryMax;
    return config;
}

// ---------------------------------------------------------------------
// Inputs

/**
 * Calibration seed of the melbourne device model (qedm_cli's default).
 * It stays fixed: the workload seed drives calibration drift and shot
 * noise through runExperiment's seed, so timings and gains compare
 * across workload seeds instead of across unrelated calibrations.
 */
constexpr std::uint64_t kDeviceSeed = 2;

/** Everything the experiment reads besides its seed. */
struct Inputs
{
    hw::Device device;
    benchmarks::Benchmark bench;
};

Inputs
makeInputs()
{
    return Inputs{hw::Device::melbourne(kDeviceSeed), benchmarks::bv6()};
}

// ---------------------------------------------------------------------
// Summary comparison

bool
sameDouble(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
samePolicy(const core::PolicyOutcome &a, const core::PolicyOutcome &b)
{
    return sameDouble(a.ist, b.ist) && sameDouble(a.pst, b.pst);
}

bool
sameDegradation(const resilience::DegradationReport &a,
                const resilience::DegradationReport &b)
{
    if (a.trialsLost != b.trialsLost ||
        a.trialsReassigned != b.trialsReassigned ||
        a.retriesTotal != b.retriesTotal ||
        a.faults.size() != b.faults.size() ||
        a.members.size() != b.members.size())
        return false;
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
        const auto &x = a.faults[i];
        const auto &y = b.faults[i];
        if (x.kind != y.kind || x.member != y.member ||
            x.batch != y.batch || x.attempt != y.attempt)
            return false;
    }
    for (std::size_t i = 0; i < a.members.size(); ++i) {
        const auto &x = a.members[i];
        const auto &y = b.members[i];
        if (x.member != y.member || x.cause != y.cause ||
            x.plannedShots != y.plannedShots ||
            x.completedShots != y.completedShots || x.kept != y.kept ||
            x.retries != y.retries)
            return false;
    }
    return true;
}

bool
sameRound(const core::RoundOutcome &a, const core::RoundOutcome &b)
{
    return samePolicy(a.baselineEst, b.baselineEst) &&
           samePolicy(a.baselinePost, b.baselinePost) &&
           samePolicy(a.edm, b.edm) && samePolicy(a.wedm, b.wedm) &&
           sameDegradation(a.degradation, b.degradation);
}

/** Bit-for-bit equality of every round, the medians and the roll-up. */
bool
sameSummary(const core::ExperimentSummary &a,
            const core::ExperimentSummary &b)
{
    if (a.rounds.size() != b.rounds.size() ||
        a.degradedRounds != b.degradedRounds ||
        a.trialsLost != b.trialsLost ||
        a.trialsReassigned != b.trialsReassigned ||
        a.retriesTotal != b.retriesTotal)
        return false;
    for (std::size_t r = 0; r < a.rounds.size(); ++r) {
        if (!sameRound(a.rounds[r], b.rounds[r]))
            return false;
    }
    return samePolicy(a.median.baselineEst, b.median.baselineEst) &&
           samePolicy(a.median.baselinePost, b.median.baselinePost) &&
           samePolicy(a.median.edm, b.median.edm) &&
           samePolicy(a.median.wedm, b.median.wedm);
}

/** Scores must be finite probabilities with a non-zero baseline. */
bool
plausible(const core::ExperimentSummary &s, int rounds)
{
    if (s.rounds.size() != static_cast<std::size_t>(rounds))
        return false;
    for (const auto &r : s.rounds) {
        for (const core::PolicyOutcome *p :
             {&r.baselineEst, &r.baselinePost, &r.edm, &r.wedm}) {
            if (!std::isfinite(p->ist) || !(p->pst >= 0.0) ||
                !(p->pst <= 1.0) || !(p->ist >= 0.0))
                return false;
        }
    }
    return s.median.baselineEst.ist > 0.0;
}

/**
 * Each round conserves its trial budget: the trials its degraded
 * members did not contribute (a dropped member's whole share) are
 * exactly the trials reassigned to survivors plus the trials lost.
 */
bool
conservesBudget(const core::ExperimentSummary &s)
{
    for (const auto &r : s.rounds) {
        std::uint64_t deficit = 0;
        for (const auto &m : r.degradation.members) {
            if (m.completedShots > m.plannedShots)
                return false;
            deficit += m.kept ? m.plannedShots - m.completedShots
                              : m.plannedShots;
        }
        if (deficit !=
            r.degradation.trialsLost + r.degradation.trialsReassigned)
            return false;
    }
    return true;
}

/**
 * Trials executed by one experiment across all policies: the members'
 * useful trials plus each baseline run (baseline-post only runs when
 * the best-by-PST member is not member 0, otherwise it copies
 * baseline-est bit for bit).
 */
std::uint64_t
trialsExecuted(const core::ExperimentSummary &s, std::uint64_t shots)
{
    std::uint64_t total = 0;
    for (const auto &r : s.rounds) {
        total += shots - r.degradation.trialsLost;
        total += shots;
        if (!samePolicy(r.baselinePost, r.baselineEst))
            total += shots;
    }
    return total;
}

// ---------------------------------------------------------------------
// Traced rebuild

/** Span totals and counters of one or more traced rebuilds. */
struct Trace
{
    double wall = 0.0;
    /** Benchmark-side work inside the member stage, not experiment
     *  work; subtracted from the wall and pipeline spans. */
    double excluded = 0.0;
    double drift = 0.0;
    double pipeline = 0.0;
    double ensemble = 0.0;
    double verify = 0.0;
    double tapes = 0.0;
    double sim = 0.0;
    double merge = 0.0;
    double baselines = 0.0;
    std::uint64_t shots = 0;
    std::uint64_t runCalls = 0;
    std::uint64_t members = 0;
    std::uint64_t verified = 0;
    std::uint64_t tapeHits = 0;
    std::uint64_t tapeMisses = 0;
    std::uint64_t compileHits = 0;
    std::uint64_t compileMisses = 0;
    std::uint64_t budgetViolations = 0;
};

/** Run @p shots trials of @p tape in shotBatch units rooted at @p seq,
 *  as EdmPipeline does for one member or one baseline. */
stats::Counts
runBatches(const sim::Executor &exec, const sim::ExecutionTape &tape,
           std::uint64_t shots, std::uint64_t shot_batch,
           const SeedSequence &seq, Trace &t,
           const std::function<void(std::uint64_t, const stats::Counts &)>
               &on_batch)
{
    std::optional<stats::Counts> counts;
    for (std::uint64_t done = 0, b = 0; done < shots;
         done += shot_batch, ++b) {
        const std::uint64_t n = std::min(shot_batch, shots - done);
        Rng rng = seq.child(b).rng();
        stats::Counts part =
            timed(t.sim, [&] { return exec.run(tape, n, rng); });
        t.shots += n;
        ++t.runCalls;
        if (on_batch)
            on_batch(b, part);
        if (!counts)
            counts = std::move(part);
        else
            timed(t.merge, [&] { counts->merge(part); });
    }
    return std::move(*counts);
}

/** The fault-free member stage of EdmPipeline::run, one call per layer. */
core::EdmResult
rebuildMembers(const hw::Device &device, const core::EdmConfig &config,
               const circuit::Circuit &logical, const SeedSequence &seq,
               bool verify, sim::TapeCache &tape_cache, Trace &t)
{
    core::EnsembleConfig ec = config.ensemble;
    ec.verifyPasses = false; // verification is timed separately below
    const core::EnsembleBuilder builder(device, ec);
    std::vector<transpile::CompiledProgram> programs =
        timed(t.ensemble, [&] { return builder.build(logical); });
    t.members += programs.size();

    if (verify) {
        // The untraced builder verifies every candidate transfer it
        // materialises; verify the same set here, from outside. Listing
        // them again is not part of the experiment, so its time is
        // excluded, and it bypasses the compile cache so the cache
        // counters stay those of the experiment.
        core::EnsembleConfig uncached = ec;
        uncached.compileCache = nullptr;
        const std::vector<transpile::CompiledProgram> all =
            timed(t.excluded, [&] {
                return core::EnsembleBuilder(device, uncached)
                    .candidates(logical);
            });
        for (const auto &p : all) {
            check::ProgramView view;
            view.physical = &p.physical;
            view.initialMap = &p.initialMap;
            view.finalMap = &p.finalMap;
            view.swapCount = p.swapCount;
            view.esp = p.esp;
            view.device = &device;
            view.logical = &logical;
            view.region = &builder.view();
            timed(t.verify, [&] { check::verifyProgram(view); });
            ++t.verified;
        }
    }

    sim::Executor exec(device);
    exec.setSimBatch(config.simBatch);
    const std::vector<std::uint64_t> splits =
        core::EdmPipeline::splitShots(config.totalShots, programs.size());

    core::EdmResult result;
    for (std::size_t m = 0; m < programs.size(); ++m) {
        const auto tape = timed(t.tapes, [&] {
            return tape_cache.get(device, programs[m].physical);
        });
        const stats::Counts counts =
            runBatches(exec, *tape, splits[m], config.shotBatch,
                       seq.child(m), t, nullptr);
        core::MemberResult member;
        member.shots = counts.total();
        member.output = timed(
            t.merge, [&] { return stats::Distribution::fromCounts(counts); });
        member.program = std::move(programs[m]);
        result.members.push_back(std::move(member));
    }
    timed(t.merge, [&] {
        result.edm = core::EdmPipeline::merge(
            result.members, core::MergeRule::Uniform, config.klSmoothing);
        result.wedm = core::EdmPipeline::merge(
            result.members, core::MergeRule::KlWeighted,
            config.klSmoothing);
    });
    return result;
}

core::PolicyOutcome
score(const stats::Distribution &dist, Outcome correct)
{
    return {stats::ist(dist, correct), stats::pst(dist, correct)};
}

/** The single-mapping baseline of EdmPipeline::runSingle. */
core::PolicyOutcome
rebuildBaseline(const hw::Device &device, const core::EdmConfig &config,
                const transpile::CompiledProgram &program,
                const SeedSequence &seq, resilience::JournalStage stage,
                Outcome correct, sim::TapeCache &tape_cache, Trace &t)
{
    sim::Executor exec(device);
    exec.setSimBatch(config.simBatch);
    const auto tape = timed(
        t.tapes, [&] { return tape_cache.get(device, program.physical); });
    const auto record = [&](std::uint64_t b, const stats::Counts &c) {
        if (config.journal != nullptr)
            config.journal->recordBatch({config.journalRound, stage, 0, b},
                                        {1, false, c});
    };
    const stats::Counts counts = runBatches(
        exec, *tape, config.totalShots, config.shotBatch, seq, t, record);
    return timed(t.merge, [&] {
        return score(stats::Distribution::fromCounts(counts), correct);
    });
}

core::PolicyOutcome
medianPolicy(const std::vector<core::RoundOutcome> &rounds,
             core::PolicyOutcome core::RoundOutcome::*field)
{
    std::vector<double> ists, psts;
    for (const auto &r : rounds) {
        ists.push_back((r.*field).ist);
        psts.push_back((r.*field).pst);
    }
    return {stats::median(ists), stats::median(psts)};
}

/**
 * Rebuild runExperiment serially from the layers' public calls (same
 * SeedSequence layout: round r draws drift from child(r).child(0), the
 * member stage from child(1), the baselines from child(2) and
 * child(3)), timing each call into @p t. On a faulted workload the
 * member stage is EdmPipeline::run as a whole; @p journal, when set,
 * receives the same records runExperiment writes.
 */
core::ExperimentSummary
rebuildExperiment(const Inputs &in, const Workload &w, std::uint64_t seed,
                  resilience::Journal *journal, Trace &t)
{
    const Clock::time_point start = Clock::now();
    const SeedSequence root(seed);
    const runtime::JobScheduler serial(1);
    transpile::CompileCache compile_cache;
    sim::TapeCache tape_cache;
    const core::ExperimentConfig xc = experimentConfig(w, 1);
    const Outcome correct = in.bench.expected;

    core::EdmConfig base;
    base.ensemble.size = xc.ensembleSize;
    base.ensemble.compileCache = &compile_cache;
    base.totalShots = xc.totalShots;
    base.simBatch = xc.simBatch;
    base.verifyPasses = xc.verifyPasses;
    base.scheduler = &serial;
    base.tapeCache = &tape_cache;
    base.resilience = xc.resilience;
    base.journal = journal;

    core::ExperimentSummary summary;
    summary.benchmark = in.bench.name;
    summary.rounds.resize(static_cast<std::size_t>(w.rounds));
    for (int round = 0; round < w.rounds; ++round) {
        const SeedSequence seq = root.child(static_cast<std::uint64_t>(round));
        std::optional<hw::Device> drifted;
        if (round != 0) {
            timed(t.drift, [&] {
                Rng rng = seq.child(0).rng();
                drifted = in.device.driftedRound(rng, xc.calibrationDrift);
            });
        }
        const hw::Device &device = drifted ? *drifted : in.device;
        core::EdmConfig config = base;
        config.journalRound = static_cast<std::uint32_t>(round);

        const core::EdmResult result = timed(t.pipeline, [&] {
            if (w.faults.any()) {
                return core::EdmPipeline(device, config)
                    .run(in.bench.circuit, seq.child(1));
            }
            return rebuildMembers(device, config, in.bench.circuit,
                                  seq.child(1), w.verify, tape_cache, t);
        });
        if (w.faults.any()) {
            t.members += result.members.size();
            std::uint64_t used = 0;
            for (const auto &m : result.members)
                used += m.failed ? 0 : m.shots;
            if (used + result.degradation.trialsLost != w.shots)
                ++t.budgetViolations;
        }

        core::RoundOutcome out;
        out.degradation = result.degradation;
        timed(t.merge, [&] {
            out.edm = score(result.edm, correct);
            out.wedm = score(result.wedm, correct);
        });
        timed(t.baselines, [&] {
            out.baselineEst = rebuildBaseline(
                device, config, result.members.front().program,
                seq.child(2), resilience::JournalStage::BaselineEst,
                correct, tape_cache, t);
            const std::size_t best = timed(
                t.merge, [&] { return result.bestMemberByPst(correct); });
            out.baselinePost =
                best == 0 ? out.baselineEst
                          : rebuildBaseline(
                                device, config, result.members[best].program,
                                seq.child(3),
                                resilience::JournalStage::BaselinePost,
                                correct, tape_cache, t);
        });
        summary.rounds[static_cast<std::size_t>(round)] = out;
        if (journal != nullptr) {
            resilience::RoundRecord rec;
            rec.policy = {out.baselineEst.ist, out.baselineEst.pst,
                          out.baselinePost.ist, out.baselinePost.pst,
                          out.edm.ist, out.edm.pst,
                          out.wedm.ist, out.wedm.pst};
            rec.degradation = out.degradation;
            journal->recordRound(static_cast<std::uint32_t>(round), rec);
        }
    }

    using R = core::RoundOutcome;
    summary.median.baselineEst = medianPolicy(summary.rounds, &R::baselineEst);
    summary.median.baselinePost =
        medianPolicy(summary.rounds, &R::baselinePost);
    summary.median.edm = medianPolicy(summary.rounds, &R::edm);
    summary.median.wedm = medianPolicy(summary.rounds, &R::wedm);
    for (const auto &r : summary.rounds) {
        if (r.degradation.degraded())
            ++summary.degradedRounds;
        summary.trialsLost += r.degradation.trialsLost;
        summary.trialsReassigned += r.degradation.trialsReassigned;
        summary.retriesTotal += r.degradation.retriesTotal;
    }
    t.tapeHits += tape_cache.hits();
    t.tapeMisses += tape_cache.misses();
    t.compileHits += compile_cache.hits();
    t.compileMisses += compile_cache.misses();
    t.wall += secondsSince(start);
    return summary;
}

// ---------------------------------------------------------------------
// Benchmark loop

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch;
    bool tiny = false;
    /** Negative-case hooks for the smoke test. */
    bool corruptJournal = false;
    bool perturbRebuild = false;
};

std::optional<Options>
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false, have_seed = false, have_scratch = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc)
                return std::nullopt;
            return std::string(argv[++i]);
        };
        std::optional<std::string> v;
        if (arg == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (!(v = value()))
            return std::nullopt;
        try {
            if (arg == "--workload") {
                o.workload = *v;
                have_workload = true;
            } else if (arg == "--seed") {
                o.seed = std::stoull(*v);
                have_seed = true;
            } else if (arg == "--seconds") {
                o.seconds = std::stod(*v);
            } else if (arg == "--trace") {
                if (*v != "0" && *v != "1")
                    return std::nullopt;
                o.trace = *v == "1";
            } else if (arg == "--scratch") {
                o.scratch = *v;
                have_scratch = true;
            } else if (arg == "--inject") {
                if (*v == "journal-byte")
                    o.corruptJournal = true;
                else if (*v == "traced-result")
                    o.perturbRebuild = true;
                else
                    return std::nullopt;
            } else {
                return std::nullopt;
            }
        } catch (const std::exception &) {
            return std::nullopt;
        }
    }
    if (!have_workload || !have_seed || !have_scratch || !(o.seconds > 0.0))
        return std::nullopt;
    return o;
}

/** Outcome bookkeeping shared by every checked call. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one checked call; log and count a failure when !ok. */
    void record(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "edm_bench: check failed: " << what << "\n";
        }
    }
};

/** Flip one byte in the middle of @p path (never the final record). */
void
corruptMiddleByte(const std::string &path)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    const std::streamoff at = size / 2;
    char c = 0;
    f.seekg(at);
    f.get(c);
    f.seekp(at);
    f.put(static_cast<char>(c ^ 0x5a));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

class JsonMetrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(value) ? value : 0.0);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                 unit + "\"}";
    }
    const std::string &body() const { return body_; }

  private:
    std::string body_;
};

/** Experiment seed of sub-experiment @p index of a run seeded @p seed. */
std::uint64_t
experimentSeed(std::uint64_t seed, int index)
{
    return SeedSequence(seed).child(static_cast<std::uint64_t>(index)).state();
}

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 101;

int
run(const Options &opt)
{
    const std::optional<Workload> found =
        workloadByName(opt.workload, opt.tiny);
    if (!found) {
        std::cerr << "edm_bench: unknown workload `" << opt.workload << "`\n";
        return 2;
    }
    const Workload &w = *found;
    const core::ExperimentConfig config = experimentConfig(w, w.jobs);
    Tally tally;
    int journal_serial = 0;
    const auto journalPath = [&] {
        return (fs::path(opt.scratch) /
                ("journal-" + std::to_string(journal_serial++) + ".qj"))
            .string();
    };

    // Set-up: device model + benchmark circuit (+ journal creation),
    // repeated and reported as the median. Every set-up stays alive
    // until the run ends, so each one builds into fresh memory and the
    // median spans many heap layouts.
    std::vector<Inputs> inputs;
    inputs.reserve(kSetupReps);
    std::vector<double> setup_times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Clock::time_point start = Clock::now();
        const Inputs &built = inputs.emplace_back(makeInputs());
        std::string path;
        if (w.journal) {
            path = journalPath();
            resilience::Journal::create(
                path, core::experimentFingerprint(
                          built.device, built.bench, config,
                          experimentSeed(opt.seed, 0)));
        }
        setup_times.push_back(secondsSince(start));
        if (w.journal)
            fs::remove(path);
    }
    const Inputs &in = inputs.front();

    // One checked runExperiment call of sub-experiment @p sub. The
    // first call of each sub-experiment becomes its reference summary;
    // later calls must repeat it bit for bit.
    std::vector<std::optional<core::ExperimentSummary>> reference(
        static_cast<std::size_t>(w.experiments));
    std::vector<double> call_times, resume_times;
    double call_total = 0.0;
    std::uint64_t trials = 0, journal_records = 0, journal_bytes = 0;
    const auto experimentCall = [&](int sub, int jobs,
                                    std::vector<double> &times) {
        const std::string path = journalPath();
        try {
            const std::uint64_t seed = experimentSeed(opt.seed, sub);
            core::ExperimentConfig c = experimentConfig(w, jobs);
            const auto fingerprint =
                core::experimentFingerprint(in.device, in.bench, c, seed);
            std::optional<resilience::Journal> journal;
            if (w.journal) {
                journal.emplace(resilience::Journal::create(path, fingerprint));
                c.journal = &*journal;
            }
            const Clock::time_point start = Clock::now();
            const core::ExperimentSummary s =
                core::runExperiment(in.device, in.bench, c, seed);
            const double elapsed = secondsSince(start);
            journal.reset();
            times.push_back(elapsed);
            call_total += elapsed;
            trials += trialsExecuted(s, w.shots);

            auto &ref = reference[static_cast<std::size_t>(sub)];
            bool ok = plausible(s, w.rounds) && conservesBudget(s);
            if (!ref)
                ref = s;
            else
                ok = ok && sameSummary(s, *ref);
            if (w.journal) {
                // Resume from the journal just written: every round is
                // committed, so the summary must come back bit for bit.
                if (opt.corruptJournal)
                    corruptMiddleByte(path);
                if (sub == 0)
                    journal_bytes = fs::file_size(path);
                const Clock::time_point resume_start = Clock::now();
                const resilience::JournalReplay replay =
                    resilience::JournalReplay::load(path);
                replay.requireMatches(fingerprint);
                core::ExperimentConfig rc = experimentConfig(w, jobs);
                rc.replay = &replay;
                const core::ExperimentSummary resumed =
                    core::runExperiment(in.device, in.bench, rc, seed);
                resume_times.push_back(secondsSince(resume_start));
                if (sub == 0) {
                    journal_records =
                        replay.batchCount() + replay.roundCount();
                }
                ok = ok && !replay.truncatedTail() &&
                     replay.roundCount() ==
                         static_cast<std::size_t>(w.rounds) &&
                     sameSummary(resumed, s);
            }
            tally.record(ok, "runExperiment summary, sub-experiment " +
                                 std::to_string(sub));
        } catch (const std::exception &e) {
            tally.record(false, std::string("experiment call threw: ") + e.what());
        }
        std::error_code ignored;
        fs::remove(path, ignored);
    };

    // One checked traced rebuild of sub-experiment 0, compared with
    // its runExperiment reference.
    Trace trace;
    int rebuilds = 0;
    const auto rebuildCall = [&](bool with_journal) {
        const std::string path = journalPath();
        try {
            const std::uint64_t seed = experimentSeed(opt.seed, 0);
            std::optional<resilience::Journal> journal;
            if (with_journal) {
                journal.emplace(resilience::Journal::create(
                    path, core::experimentFingerprint(in.device, in.bench,
                                                      config, seed)));
            }
            core::ExperimentSummary s = rebuildExperiment(
                in, w, seed, journal ? &*journal : nullptr, trace);
            journal.reset();
            ++rebuilds;
            if (opt.perturbRebuild) {
                s.rounds.front().edm.ist =
                    std::nextafter(s.rounds.front().edm.ist, 1e300);
            }
            tally.record(reference.front() &&
                             sameSummary(s, *reference.front()) &&
                             trace.budgetViolations == 0,
                         "traced rebuild vs runExperiment");
        } catch (const std::exception &e) {
            tally.record(false, std::string("traced rebuild threw: ") + e.what());
        }
        std::error_code ignored;
        fs::remove(path, ignored);
    };

    // Closed loop: calls back to back, cycling over the sub-experiments.
    // Every sub-experiment runs at least once, so the pooled gains and
    // resilience counters are a function of the seed alone.
    const Clock::time_point loop_start = Clock::now();
    const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    for (int n = 0;
         n < w.experiments || secondsSince(loop_start) < untraced_budget; ++n)
        experimentCall(n % w.experiments, w.jobs, call_times);
    std::vector<const core::ExperimentSummary *> refs;
    for (const auto &ref : reference) {
        if (ref)
            refs.push_back(&*ref);
    }

    std::cerr << "edm_bench: " << w.name << " call times (s):";
    for (double t : call_times)
        std::cerr << ' ' << t;
    std::cerr << '\n';

    JsonMetrics metrics;
    if (!opt.trace) {
        rebuildCall(false);
        std::vector<double> base, edm, wedm;
        for (const core::ExperimentSummary *ref : refs) {
            for (const auto &r : ref->rounds) {
                base.push_back(r.baselineEst.ist);
                edm.push_back(r.edm.ist);
                wedm.push_back(r.wedm.ist);
            }
        }
        const double base_ist = median(base);
        const auto gain = [&](const std::vector<double> &ist) {
            return base_ist > 0.0 ? median(ist) / base_ist : 0.0;
        };
        metrics.add("experiment_s", median(call_times), "s");
        metrics.add("shots_per_s", call_total > 0 ? trials / call_total : 0.0,
                    "1/s");
        metrics.add("setup_s", median(setup_times), "s");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
        metrics.add("edm_ist_gain", gain(edm), "ratio");
        metrics.add("wedm_ist_gain", gain(wedm), "ratio");
        metrics.add("ok_frac",
                    tally.attempted == 0
                        ? 0.0
                        : 1.0 - static_cast<double>(tally.failed) /
                                    static_cast<double>(tally.attempted),
                    "ratio");
    } else {
        // Each traced rebuild of sub-experiment 0 is paired with
        // untraced calls of the same sub-experiment, at the workload's
        // jobs and serially (the rebuild is serial), so the ratios below
        // compare the same work under the same machine conditions. The
        // serial call also checks that results do not depend on jobs.
        std::vector<double> sub0_times, serial_times;
        const Clock::time_point traced_start = Clock::now();
        for (int n = 0;
             n < 1 || secondsSince(traced_start) < opt.seconds / 2; ++n) {
            rebuildCall(w.journal);
            experimentCall(0, w.jobs, sub0_times);
            if (w.jobs != 1)
                experimentCall(0, 1, serial_times);
        }
        if (w.jobs == 1)
            serial_times = sub0_times;

        const double k = rebuilds > 0 ? 1.0 / rebuilds : 0.0;
        trace.wall -= trace.excluded;
        trace.pipeline -= trace.excluded;
        const double busy = trace.wall * k;
        const auto ratio = [](double num, double den) {
            return den > 0.0 ? num / den : 0.0;
        };
        const auto perExp = [&](std::uint64_t v) {
            return static_cast<double>(v) * k;
        };
        // Resilience counters: mean per experiment over the
        // sub-experiments' runExperiment summaries.
        double retries = 0, reassigned = 0, lost = 0, degraded = 0;
        for (const core::ExperimentSummary *ref : refs) {
            retries += ref->retriesTotal;
            reassigned += static_cast<double>(ref->trialsReassigned);
            lost += static_cast<double>(ref->trialsLost);
            degraded += static_cast<double>(ref->degradedRounds);
        }
        const double per_ref = refs.empty() ? 0.0 : 1.0 / refs.size();
        metrics.add("sim.shots_s", trace.sim * k, "s");
        metrics.add("sim.ns_per_shot", ratio(trace.sim * 1e9, trace.shots),
                    "ns");
        metrics.add("sim.shots", perExp(trace.shots), "count");
        metrics.add("sim.run_calls", perExp(trace.runCalls), "count");
        metrics.add("sim.tape_build_s", trace.tapes * k, "s");
        metrics.add("sim.tape_cache_hit_ratio",
                    ratio(trace.tapeHits, trace.tapeHits + trace.tapeMisses),
                    "ratio");
        metrics.add("core.ensemble_build_s", trace.ensemble * k, "s");
        metrics.add("core.members_built", perExp(trace.members), "count");
        metrics.add("transpile.compile_cache_hit_ratio",
                    ratio(trace.compileHits,
                          trace.compileHits + trace.compileMisses),
                    "ratio");
        metrics.add("check.verify_s", trace.verify * k, "s");
        metrics.add("check.programs_verified", perExp(trace.verified),
                    "count");
        metrics.add("hw.drift_s", trace.drift * k, "s");
        metrics.add("stats.merge_s", trace.merge * k, "s");
        metrics.add("core.pipeline_s", trace.pipeline * k, "s");
        metrics.add("core.baselines_s", trace.baselines * k, "s");
        metrics.add("core.self_s",
                    (trace.wall - trace.drift - trace.pipeline -
                     trace.baselines) *
                        k,
                    "s");
        const double budget =
            static_cast<double>(w.shots) * static_cast<double>(w.rounds);
        metrics.add("resilience.retries", retries * per_ref, "count");
        metrics.add("resilience.trials_reassigned", reassigned * per_ref,
                    "count");
        metrics.add("resilience.trials_lost_frac",
                    ratio(lost * per_ref, budget), "ratio");
        metrics.add("resilience.degraded_rounds", degraded * per_ref,
                    "count");
        metrics.add("resilience.journal_records",
                    static_cast<double>(journal_records), "count");
        metrics.add("resilience.journal_bytes",
                    static_cast<double>(journal_bytes), "bytes");
        metrics.add("resilience.resume_s", median(resume_times), "s");
        metrics.add("runtime.parallel_efficiency",
                    ratio(busy, median(sub0_times) * w.jobs), "ratio");
        metrics.add("trace.overhead_frac",
                    ratio(busy, median(serial_times)) - 1.0, "ratio");
    }

    const bool correct = tally.failed == 0 && tally.attempted > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed << ", \"metrics\": {"
              << metrics.body() << "}}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::optional<Options> opt = parseOptions(argc, argv);
    if (!opt) {
        std::cerr << "usage: edm_bench --workload NAME --seed N --scratch DIR"
                     " [--seconds S] [--trace 0|1] [--tiny]"
                     " [--inject journal-byte|traced-result]\n";
        return 2;
    }
    try {
        return run(*opt);
    } catch (const std::exception &e) {
        std::cerr << "edm_bench: " << e.what() << "\n";
        return 1;
    }
}
