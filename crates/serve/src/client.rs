//! An idempotent, retrying client for the detlock-serve protocol.
//!
//! [`RetryingClient`] wraps the blocking [`Client`] with the failure
//! handling a caller facing a chaotic network actually needs:
//!
//! * **reconnect** — a dropped/reset/truncated connection is discarded and
//!   re-dialed lazily on the next attempt;
//! * **deterministic exponential backoff** — attempt *n* waits
//!   `base_backoff * 2^n`, capped at `max_backoff`, with no randomized
//!   jitter (retry schedules stay reproducible, in the spirit of the rest
//!   of the system);
//! * **per-request timeouts** — each attempt is bounded by
//!   `request_timeout` via the socket read deadline, so a swallowed
//!   response becomes a retry, not a hang;
//! * **typed-shed awareness** — a `{"error_kind":"shed","reason":
//!   "queue_full"}` refusal honors the server's `retry_after_ms` hint
//!   (which replaces the exponential schedule for that round) and does not
//!   consume an I/O attempt; `"reason":"draining"` stops retrying
//!   immediately, because the server is going away;
//! * **idempotent retry** — retrying a `run` is safe precisely because
//!   execution is deterministic: a re-executed job yields a byte-identical
//!   receipt. The client keys completed receipts by
//!   [`JobSpec::identity_key`] in a [`ReceiptLedger`] and cross-checks
//!   every later answer for the same key, so "exactly-once *effect*" is
//!   verified, not assumed. Any divergence is counted in
//!   [`ClientStats::receipt_mismatches`].
//!
//! A request that exhausts its attempts without ever getting a definitive
//! answer (ok **or** typed rejection) surfaces as
//! [`ClientError::Unanswered`] — callers like `detload` treat those as
//! hard errors, never as silently-missing data points.

use crate::protocol::{batch_request, Client, JobSpec};
use crate::receipt::{Receipt, ReceiptLedger, Sighting};
use detlock_shim::json::{Json, ToJson};
use std::io;
use std::time::Duration;

/// Retry/backoff knobs for [`RetryingClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum connection/request attempts that may fail with an I/O
    /// error before giving up [`ClientError::Unanswered`].
    pub max_attempts: u32,
    /// Maximum `queue_full` shed responses tolerated per request (these
    /// don't consume I/O attempts; the server said "later", not "broken").
    pub max_shed_retries: u32,
    /// Backoff before retry attempt 1 (doubles each failure).
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
    /// Socket read deadline bounding each individual attempt.
    pub request_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            max_shed_retries: 64,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            request_timeout: Duration::from_secs(120),
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before retrying after `failures` I/O
    /// failures (1-based): `base * 2^(failures-1)`, capped.
    pub fn backoff(&self, failures: u32) -> Duration {
        let exp = failures.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff)
    }
}

/// Counters describing what a [`RetryingClient`] had to do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Connections established (first dial + every reconnect).
    pub connects: u64,
    /// Attempts that failed with an I/O error and were retried.
    pub io_retries: u64,
    /// `queue_full` shed responses waited out.
    pub shed_retries: u64,
    /// Re-answers for an identity key whose receipt matched the recorded
    /// one (idempotency observed working).
    pub duplicate_receipts: u64,
    /// Re-answers whose receipt **diverged** from the recorded one —
    /// determinism violations as seen from the client. Must stay 0.
    pub receipt_mismatches: u64,
    /// Requests that exhausted attempts with no definitive answer.
    pub unanswered: u64,
}

/// Why a [`RetryingClient`] request ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// All attempts failed without a definitive server answer; the job may
    /// or may not have executed. Callers must treat this as an error, not
    /// a missing data point.
    Unanswered {
        /// I/O failures accumulated.
        attempts: u32,
        /// The last underlying error, for diagnostics.
        last_error: String,
    },
    /// The server answered definitively with a failure (`ok:false` that is
    /// not a retryable shed).
    Rejected {
        /// The server's `error` string.
        error: String,
    },
    /// The server is draining: admission refused and retrying is useless.
    Draining,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unanswered {
                attempts,
                last_error,
            } => write!(f, "unanswered after {attempts} attempts: {last_error}"),
            ClientError::Rejected { error } => write!(f, "rejected by server: {error}"),
            ClientError::Draining => write!(f, "server is draining"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A reconnecting, retrying, idempotency-checking protocol client (see
/// module docs).
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    /// identity_key → canonical receipt of the first completion observed.
    ledger: ReceiptLedger,
    stats: ClientStats,
}

impl RetryingClient {
    /// Create a client for `addr` (connects lazily on first use).
    pub fn new(addr: &str, policy: RetryPolicy) -> RetryingClient {
        RetryingClient {
            addr: addr.to_string(),
            policy,
            conn: None,
            ledger: ReceiptLedger::default(),
            stats: ClientStats::default(),
        }
    }

    /// [`RetryingClient::new`] with the default policy.
    pub fn connect(addr: &str) -> RetryingClient {
        RetryingClient::new(addr, RetryPolicy::default())
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The canonical receipt recorded for an identity key, if one
    /// completed through this client (and the ledger still had room).
    pub fn receipt_for(&self, identity_key: &str) -> Option<&str> {
        self.ledger.receipt(identity_key)
    }

    fn try_once(&mut self, req: &Json) -> io::Result<Json> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_with_timeout(
                &self.addr,
                self.policy.request_timeout,
            )?);
            self.stats.connects += 1;
        }
        self.conn.as_mut().unwrap().request(req)
    }

    /// Send `req` until a definitive answer arrives, retrying I/O failures
    /// (with reconnect + exponential backoff) and `queue_full` sheds (with
    /// the server's `retry_after_ms`). Returns the response object, which
    /// may still be `ok:false` for non-shed failures — [`Self::run`]
    /// layers rejection/idempotency handling on top.
    pub fn request(&mut self, req: &Json) -> Result<Json, ClientError> {
        let mut io_failures = 0u32;
        let mut shed_waits = 0u32;
        loop {
            match self.try_once(req) {
                Err(e) => {
                    // The connection is suspect (dropped, reset, timed
                    // out, or mid-frame garbage): discard and re-dial.
                    self.conn = None;
                    io_failures += 1;
                    self.stats.io_retries += 1;
                    if io_failures >= self.policy.max_attempts {
                        self.stats.unanswered += 1;
                        return Err(ClientError::Unanswered {
                            attempts: io_failures,
                            last_error: e.to_string(),
                        });
                    }
                    std::thread::sleep(self.policy.backoff(io_failures));
                }
                Ok(resp) => match shed_wait(&resp)? {
                    None => return Ok(resp),
                    Some(ms) => self.wait_out_shed(&mut shed_waits, ms, io_failures)?,
                },
            }
        }
    }

    /// Sleep out one `queue_full` shed of `ms`, or give up once this
    /// request has waited out more sheds than the policy allows.
    fn wait_out_shed(
        &mut self,
        shed_waits: &mut u32,
        ms: u64,
        io_failures: u32,
    ) -> Result<(), ClientError> {
        *shed_waits += 1;
        self.stats.shed_retries += 1;
        if *shed_waits > self.policy.max_shed_retries {
            self.stats.unanswered += 1;
            return Err(ClientError::Unanswered {
                attempts: io_failures,
                last_error: "admission queue stayed full".to_string(),
            });
        }
        std::thread::sleep(Duration::from_millis(ms));
        Ok(())
    }

    /// Submit a job, retrying until it definitively completes or is
    /// definitively rejected, and cross-check the receipt against any
    /// earlier completion of the same identity key.
    pub fn run(&mut self, spec: &JobSpec) -> Result<Json, ClientError> {
        let resp = self.request(&spec.to_json())?;
        accepted(&resp, "unknown server error")?;
        self.record_receipt(spec, &resp);
        Ok(resp)
    }

    /// Submit many jobs as one v2 `batch` frame with the same retry
    /// semantics as [`Self::run`]. A wire casualty or a `queue_full` shed
    /// of any job re-issues the **whole** batch — safe because execution
    /// is deterministic and every completion is cross-checked against the
    /// receipt ledger. Per-job responses come back in submission order.
    pub fn run_batch(&mut self, specs: &[JobSpec]) -> Result<Vec<Json>, ClientError> {
        let frame = batch_request(specs);
        let mut shed_waits = 0u32;
        loop {
            let resp = self.request(&frame)?;
            accepted(&resp, "batch rejected")?;
            let results = resp
                .get("results")
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .unwrap_or_default();
            if results.len() != specs.len() {
                return Err(ClientError::Rejected {
                    error: format!(
                        "batch answered {} results for {} jobs",
                        results.len(),
                        specs.len()
                    ),
                });
            }
            // A job inside the batch can be individually shed while its
            // siblings complete; honor the hint and re-issue everything.
            let mut retry_after = None;
            for r in &results {
                retry_after = retry_after.max(shed_wait(r)?);
            }
            if let Some(ms) = retry_after {
                self.wait_out_shed(&mut shed_waits, ms, 0)?;
                continue;
            }
            for (spec, r) in specs.iter().zip(&results) {
                accepted(r, "unknown server error")?;
                self.record_receipt(spec, r);
            }
            return Ok(results);
        }
    }

    /// Cross-check a completion's receipt against the ledger for its
    /// identity key (recording it on first sight).
    fn record_receipt(&mut self, spec: &JobSpec, resp: &Json) {
        if let Some(receipt) = resp.get("receipt").and_then(Receipt::from_json) {
            match self
                .ledger
                .record(spec.identity_key(), &receipt.canonical())
            {
                Sighting::First => {}
                Sighting::Same => self.stats.duplicate_receipts += 1,
                Sighting::Mismatch => self.stats.receipt_mismatches += 1,
            }
        }
    }
}

/// `Ok` for an `ok:true` answer; any other is a definitive rejection
/// carrying its `error` string (`fallback` when it has none).
fn accepted(resp: &Json, fallback: &str) -> Result<(), ClientError> {
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(());
    }
    let error = resp.get("error").and_then(Json::as_str).unwrap_or(fallback);
    Err(ClientError::Rejected {
        error: error.to_string(),
    })
}

/// What a response says about retrying it: `Ok(None)` for an answer that
/// is not a typed shed, `Ok(Some(ms))` for a `queue_full` shed asking the
/// client to wait `ms` (its `retry_after_ms`), and [`ClientError::Draining`]
/// for a server that is going away.
fn shed_wait(resp: &Json) -> Result<Option<u64>, ClientError> {
    let shed = resp.get("ok").and_then(Json::as_bool) == Some(false)
        && resp.get("error_kind").and_then(Json::as_str) == Some("shed");
    if !shed {
        return Ok(None);
    }
    if resp.get("reason").and_then(Json::as_str) == Some("draining") {
        return Err(ClientError::Draining);
    }
    Ok(Some(
        resp.get("retry_after_ms")
            .and_then(Json::as_u64)
            .unwrap_or(50),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(5), Duration::from_millis(100));
        assert_eq!(p.backoff(40), Duration::from_millis(100));
    }

    #[test]
    fn unreachable_server_yields_unanswered() {
        // Port 1 on localhost refuses connections immediately.
        let mut c = RetryingClient::new(
            "127.0.0.1:1",
            RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
        );
        match c.request(&Json::obj([("op", "ping".to_json())])) {
            Err(ClientError::Unanswered { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected Unanswered, got {other:?}"),
        }
        assert_eq!(c.stats().unanswered, 1);
        assert_eq!(c.stats().io_retries, 2);
    }
}
