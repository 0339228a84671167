/**
 * @file
 * Graceful-degradation policy types for faulted ensemble runs.
 *
 * When a member fails mid-run the ensemble must keep answering with
 * honest statistics: completed trials are kept when they clear the
 * minTrialsPerMember floor (otherwise the member is dropped from the
 * merge entirely), surviving healthy members absorb the remaining
 * trial budget, and EDM/WEDM merge weights are renormalized over the
 * members that actually contribute. The DegradationReport records
 * exactly what happened — which members failed and why, how many
 * trials were lost and reassigned, how many retries were consumed,
 * and the full deterministic fault log — and is threaded up through
 * EdmResult / ExperimentSummary to the CLI.
 *
 * Everything here is bookkeeping. The pipeline runs every member
 * through one shot-unit executor whether faults are on or off; with
 * every fault source off nothing fails, so the report stays empty and
 * the result equals a plain run's.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "resilience/fault_injector.hpp"
#include "runtime/clock.hpp"

namespace qedm::resilience {

/**
 * One wall-clock abandonment fact: member was cut off from batch
 * @p batch onward. Recorded when the live watchdog fires; replayed as
 * a forced fault so the nondeterministic wall-clock decision becomes
 * reproducible (see runtime/watchdog.hpp).
 */
struct WallAbandon
{
    std::size_t member = 0;
    std::uint64_t batch = 0;
};

/** Resilience knobs for one pipeline execution. */
struct ResilienceConfig
{
    /** Fault model (all-off by default). */
    FaultConfig faults;
    /** Retries allowed per shot batch beyond the first attempt. */
    int retryMax = 2;
    /** Backoff base for batch retries (ms); 0 = no sleeping. */
    double backoffBaseMs = 0.0;
    /**
     * Virtual-time budget per member (ms); a member whose cumulative
     * batch cost exceeds it is abandoned at the batch boundary.
     * 0 = unlimited.
     */
    double memberDeadlineMs = 0.0;
    /**
     * Floor below which a failed member's completed trials are
     * discarded instead of merged (0 = keep any non-empty partial).
     */
    std::uint64_t minTrialsPerMember = 0;
    /**
     * Symmetric jitter fraction applied to retry backoff delays,
     * drawn from the unit's own seed stream (see RetryPolicy).
     */
    double backoffJitter = 0.0;
    /**
     * Wall-clock budget per member (ms); unlike memberDeadlineMs this
     * runs on real time via the watchdog and is inherently
     * nondeterministic — fires are recorded so replay/resume can force
     * them. 0 = no watchdog.
     */
    double wallDeadlineMs = 0.0;
    /**
     * Time source for the watchdog and retry backoff; null means the
     * real steadyClock(). Tests inject a ManualClock here.
     */
    const runtime::Clock *clock = nullptr;
    /**
     * Wall abandonments to re-apply as forced faults (from a journal
     * being resumed or replayed). Each entry cuts its member off from
     * the given batch onward, exactly as the recorded live fire did.
     */
    std::vector<WallAbandon> forcedWallAbandons;

    /**
     * True when any resilience input is set: a fault source, a wall
     * budget, or forced wall abandons. It decides whether a dropout
     * probability sizes the ensemble, whether a member deadline is
     * accepted (EdmPipeline refuses one otherwise), and whether the
     * CLI prints degradation reports.
     */
    bool active() const
    {
        return faults.any() || wallDeadlineMs > 0.0 ||
               !forcedWallAbandons.empty();
    }

    /** The effective time source (injected or real). */
    const runtime::Clock &effectiveClock() const
    {
        return clock != nullptr ? *clock : runtime::steadyClock();
    }
};

/** Outcome of one failed or degraded ensemble member. */
struct MemberDegradation
{
    std::size_t member = 0;
    /** Primary cause (dropout > deadline > retry exhaustion). */
    FaultKind cause = FaultKind::QubitDropout;
    std::uint64_t plannedShots = 0;
    /** Trials that completed before the member failed. */
    std::uint64_t completedShots = 0;
    /** True when the partial trials cleared the floor and merged. */
    bool kept = false;
    /** Retries consumed across the member's batches. */
    int retries = 0;
};

/** Full account of one degraded ensemble execution. */
struct DegradationReport
{
    /** Deterministic fault log, in (member, batch, attempt) order. */
    std::vector<FaultEvent> faults;
    /** Failed/degraded members (empty = fully healthy run). */
    std::vector<MemberDegradation> members;
    /** Trials lost to faults and not recovered by reassignment. */
    std::uint64_t trialsLost = 0;
    /** Trials reassigned to and completed by surviving members. */
    std::uint64_t trialsReassigned = 0;
    /** Retries consumed across all members and batches. */
    int retriesTotal = 0;

    /** Did any member fail or lose trials? */
    bool degraded() const { return !members.empty(); }

    /** Members whose results were dropped from the merge. */
    std::size_t droppedCount() const;

    /** Human-readable multi-line summary (CLI output). */
    std::string toString() const;
};

/**
 * Structured failure: every ensemble member failed and nothing
 * cleared the keep floor, so there is no distribution to report.
 */
class EnsembleFailedError : public Error
{
  public:
    EnsembleFailedError(std::size_t total_members,
                        std::size_t failed_members);

    std::size_t totalMembers() const { return total_; }
    std::size_t failedMembers() const { return failed_; }

  private:
    std::size_t total_;
    std::size_t failed_;
};

} // namespace qedm::resilience
