//! Retry budgets and the bounded exponential backoff schedule used for
//! remote-worker communication.
//!
//! A [`RetryPolicy`] is shared by two layers:
//!
//! * [`RemoteBackend`](crate::RemoteBackend) uses it standalone — connect
//!   and read timeouts plus a per-request retry budget, so one flaky accept
//!   or a reaped keep-alive connection no longer hard-fails a scenario;
//! * the campaign scheduler uses it to pace worker health probes and decide
//!   when a worker has died (every in-budget retry is exhausted).
//!
//! The schedule is deterministic: retry `k` (1-based) waits
//! `base_backoff * 2^(k-1)`, clamped to `max_backoff`.

use std::time::Duration;

/// Connect/read timeouts and the bounded exponential-backoff retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Socket read timeout (a worker that goes silent for longer is dead).
    pub read_timeout: Duration,
    /// Retries after the first attempt (`0` = fail on the first error).
    pub retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff wait.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// The standalone `RemoteBackend` default: patient reads (batches take
    /// real lab time), three quick reconnect attempts.
    fn default() -> RetryPolicy {
        RetryPolicy {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(120),
            retries: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// No retries at all: fail on the first error (the pre-policy
    /// behaviour, useful in tests that want fast, loud failures).
    pub fn none() -> RetryPolicy {
        RetryPolicy { retries: 0, ..RetryPolicy::default() }
    }

    /// A snappy fail-over profile for pooled schedulers: short connect
    /// timeout and tight backoff, so a dead worker is detected and its work
    /// re-queued quickly instead of stalling the campaign.
    pub fn failover() -> RetryPolicy {
        RetryPolicy {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(120),
            retries: 2,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(500),
        }
    }

    /// Total attempts (first try + retries).
    pub fn attempts(&self) -> u32 {
        self.retries.saturating_add(1)
    }

    /// The wait before retry `k` (1-based): `base * 2^(k-1)`, clamped to
    /// [`max_backoff`](RetryPolicy::max_backoff). `backoff(0)` is zero (no
    /// wait before the first attempt).
    pub fn backoff(&self, retry: u32) -> Duration {
        if retry == 0 {
            return Duration::ZERO;
        }
        // 2^(k-1) saturates well before the clamp can miss it.
        let factor = 1u32.checked_shl(retry - 1).unwrap_or(u32::MAX);
        self.base_backoff.checked_mul(factor).unwrap_or(self.max_backoff).min(self.max_backoff)
    }

    /// The wait before retrying a load-shed request (HTTP 429/503):
    /// honors the server's `Retry-After` hint when one was sent, clamped
    /// to `4 × max_backoff` so a confused server cannot park a client
    /// indefinitely; without a hint it falls back to the plain
    /// exponential [`backoff`](RetryPolicy::backoff) for retry `k`.
    pub fn backpressure_delay(&self, hint: Option<Duration>, retry: u32) -> Duration {
        match hint {
            Some(hint) => hint.min(self.max_backoff.saturating_mul(4)),
            None => self.backoff(retry),
        }
    }

    /// The full wait schedule, one entry per in-budget retry.
    pub fn schedule(&self) -> Vec<Duration> {
        (1..=self.retries).map(|k| self.backoff(k)).collect()
    }

    /// Sum of every in-budget backoff wait — the worst-case added latency
    /// before the policy gives up.
    pub fn total_backoff(&self) -> Duration {
        self.schedule().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_clamps() {
        let p = RetryPolicy {
            retries: 6,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(300),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(
            p.schedule(),
            vec![
                Duration::from_millis(50),
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(300), // clamped
                Duration::from_millis(300),
                Duration::from_millis(300),
            ]
        );
        assert_eq!(p.total_backoff(), Duration::from_millis(1250));
        assert_eq!(p.attempts(), 7);
    }

    #[test]
    fn zero_budget_has_empty_schedule() {
        let p = RetryPolicy::none();
        assert_eq!(p.retries, 0);
        assert!(p.schedule().is_empty());
        assert_eq!(p.total_backoff(), Duration::ZERO);
        assert_eq!(p.attempts(), 1);
    }

    #[test]
    fn huge_retry_counts_saturate_instead_of_overflowing() {
        let p = RetryPolicy {
            retries: 500,
            base_backoff: Duration::from_secs(1),
            max_backoff: Duration::from_secs(7),
            ..RetryPolicy::default()
        };
        // 2^499 overflows every integer width in sight; the schedule must
        // still be the clamped ceiling, not a panic.
        assert_eq!(p.backoff(500), Duration::from_secs(7));
        assert_eq!(p.backoff(40), Duration::from_secs(7));
    }

    #[test]
    fn backpressure_delay_honors_clamped_retry_after() {
        let p = RetryPolicy {
            retries: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        // An in-range hint is used verbatim.
        assert_eq!(
            p.backpressure_delay(Some(Duration::from_millis(300)), 1),
            Duration::from_millis(300)
        );
        // A hostile hint clamps to 4 × max_backoff.
        assert_eq!(
            p.backpressure_delay(Some(Duration::from_secs(3600)), 1),
            Duration::from_millis(800)
        );
        // No hint: the plain exponential schedule.
        assert_eq!(p.backpressure_delay(None, 2), p.backoff(2));
    }

    #[test]
    fn failover_profile_is_snappier_than_default() {
        let d = RetryPolicy::default();
        let f = RetryPolicy::failover();
        assert!(f.connect_timeout < d.connect_timeout);
        assert!(f.total_backoff() < d.total_backoff());
    }
}
