/**
 * @file
 * Bounded retry-with-backoff for transient work-unit failures.
 *
 * A production EDM service cannot let one flaky trial batch take down
 * an ensemble run: transient failures (queue hiccups, job rejections)
 * are retried a bounded number of times with exponential backoff, and
 * only then surfaced as a permanent loss for the degradation policy to
 * absorb. The primitive is deliberately deterministic: backoff delays
 * are a pure function of the attempt index plus — when a jitter
 * fraction is configured — a SeedSequence child stream keyed by the
 * attempt, never of shared mutable state, so a faulted run's retry
 * schedule replays bit-identically at any --jobs value. Sleeping goes
 * through an injectable runtime::Clock, so tests observe exact backoff
 * schedules on a ManualClock without real sleeps.
 *
 * A body signals "retry me" by throwing TransientError; any other
 * exception is considered permanent and propagates immediately.
 */

#pragma once

#include <functional>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/clock.hpp"

namespace qedm::runtime {

/** A retriable failure of one work unit (fault-injected or real). */
class TransientError : public Error
{
  public:
    explicit TransientError(const std::string &msg) : Error(msg) {}
};

/** Retry policy for one class of work units. */
struct RetryPolicy
{
    /** Total attempts per unit (first try + retries). Must be >= 1. */
    int maxAttempts = 3;
    /**
     * Backoff before retry k (1-based) is
     * backoffBaseMs * backoffFactor^(k-1). 0 disables sleeping; the
     * schedule is still computed and reported either way, so tests
     * and simulations stay wall-clock free.
     */
    double backoffBaseMs = 0.0;
    double backoffFactor = 2.0;
    /**
     * Symmetric jitter fraction in [0, 1]: retry k's delay is scaled
     * by a factor drawn uniformly from [1 - jitter, 1 + jitter] off
     * the jitter stream's child(k). 0 = no jitter (and no stream
     * draws, so legacy schedules are unchanged bit-for-bit).
     */
    double jitterFraction = 0.0;
};

/** What happened across the attempts of one unit. */
struct RetryOutcome
{
    /** Attempts actually made (1 = first try succeeded). */
    int attempts = 0;
    /** Total backoff scheduled between attempts, in milliseconds. */
    double totalBackoffMs = 0.0;
    /** True when some attempt completed without throwing. */
    bool succeeded = false;
    /** what() of the last TransientError when exhausted. */
    std::string lastError;

    /** Retries consumed beyond the first attempt. */
    int retries() const { return attempts > 0 ? attempts - 1 : 0; }
};

/**
 * Run body(attempt) until it completes or the policy is exhausted,
 * sleeping the scheduled backoff on @p clock between attempts. Jitter
 * (when the policy enables it) is drawn from @p jitter's child(k)
 * stream for retry k — a pure function of the caller-chosen stream
 * node, so schedules are reproducible and independent across units.
 * TransientError triggers a retry; every other exception propagates.
 * Never throws on exhaustion — the caller decides how to degrade
 * (see resilience/degradation.hpp).
 */
RetryOutcome retryWithBackoff(const RetryPolicy &policy,
                              const std::function<void(int)> &body,
                              const Clock &clock,
                              const SeedSequence &jitter);

} // namespace qedm::runtime
