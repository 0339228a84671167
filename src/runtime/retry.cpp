#include "runtime/retry.hpp"

namespace qedm::runtime {

RetryOutcome
retryWithBackoff(const RetryPolicy &policy,
                 const std::function<void(int)> &body, const Clock &clock,
                 const SeedSequence &jitter)
{
    QEDM_REQUIRE(policy.maxAttempts >= 1,
                 "retry policy needs at least one attempt");
    QEDM_REQUIRE(policy.backoffBaseMs >= 0.0,
                 "backoff base must be non-negative");
    QEDM_REQUIRE(policy.jitterFraction >= 0.0 &&
                     policy.jitterFraction <= 1.0,
                 "jitter fraction must be in [0, 1]");
    RetryOutcome outcome;
    double next_backoff = policy.backoffBaseMs;
    for (int attempt = 0; attempt < policy.maxAttempts; ++attempt) {
        if (attempt > 0) {
            double delay = next_backoff;
            if (policy.jitterFraction > 0.0) {
                // One child stream per retry index: the scale factor
                // is a pure function of (jitter stream, attempt), so
                // identical units replay identical schedules and
                // distinct units stay decorrelated.
                Rng rng =
                    jitter.child(static_cast<std::uint64_t>(attempt))
                        .rng();
                delay *= rng.uniform(1.0 - policy.jitterFraction,
                                     1.0 + policy.jitterFraction);
            }
            outcome.totalBackoffMs += delay;
            if (delay > 0.0)
                clock.sleepMs(delay);
            next_backoff *= policy.backoffFactor;
        }
        ++outcome.attempts;
        try {
            body(attempt);
            outcome.succeeded = true;
            return outcome;
        } catch (const TransientError &e) {
            outcome.lastError = e.what();
        }
    }
    return outcome;
}

} // namespace qedm::runtime
