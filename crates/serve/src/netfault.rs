//! Seeded fault injection for the serving edge.
//!
//! Extends the runtime's `FaultPlan` discipline (core/fault.rs) to the two
//! places the service can fail that the VM cannot see:
//!
//! * **the wire** — [`NetFaultPlan`] perturbs the server's response path
//!   with connection drops, truncated frames, partial writes, and delayed
//!   frames, keyed on `(connection-id, response-index)` through the same
//!   stateless splitmix64 mix the runtime uses. The coordinates are
//!   per-connection deterministic, so a given seed produces a reproducible
//!   *kind* of havoc even though connection arrival order is not itself
//!   deterministic. Faults apply to data-plane (`run`) responses only:
//!   control-plane ops (`chaos`, `stats`, `shutdown`, `ping`) stay
//!   reliable so chaos can always be observed and disarmed.
//! * **the shard** — [`CrashPlan`] fires an injected panic inside a shard
//!   engine at a checkpoint boundary, keyed on `(job-identity, attempt,
//!   checkpoint-index)`. Because the coordinates are fully deterministic,
//!   a crash schedule is a property of the job set and seed — the chaos
//!   CI job relies on that to assert "≥ 1 recovery happened" without
//!   flakiness. The fire probability halves with each attempt so every
//!   job eventually completes.
//!
//! An injected crash carries [`InjectedCrash`] as its panic payload; the
//! shard engine downcasts it to distinguish simulated crashes (shard is
//! healthy — do not exclude it from retry) from organic panics (exclude).

use detlock_shim::hash::Fnv64;
use detlock_shim::json::{Json, ToJson};
use detlock_shim::rng::mix;

/// What to do to one wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Close the connection without writing the response at all.
    Drop,
    /// Write only the first `keep` bytes of the frame, then close — a
    /// mid-frame reset as seen by the peer (an abrupt close is the
    /// portable stand-in for RST; `TcpStream` has no stable linger knob).
    Truncate {
        /// Bytes of the frame that do get written.
        keep: usize,
    },
    /// Write the frame in two chunks with a stall between them (a partial
    /// write the client must buffer across).
    PartialWrite {
        /// Bytes written before the stall.
        first: usize,
        /// Stall length in milliseconds.
        stall_ms: u64,
    },
    /// Delay the whole frame by `ms` milliseconds, then deliver intact.
    Delay {
        /// Delay in milliseconds.
        ms: u64,
    },
}

/// Seeded wire-fault schedule (see module docs). Rates are per-1024:
/// `drop_per_1024 = 128` drops ~an eighth of data-plane responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Seed for the fault draw.
    pub seed: u64,
    /// Per-1024 probability of dropping a response entirely.
    pub drop_per_1024: u32,
    /// Per-1024 probability of truncating a response mid-frame.
    pub truncate_per_1024: u32,
    /// Per-1024 probability of a stalled two-chunk partial write.
    pub partial_per_1024: u32,
    /// Per-1024 probability of delaying a response.
    pub delay_per_1024: u32,
    /// Maximum injected delay/stall in milliseconds.
    pub max_delay_ms: u64,
}

impl NetFaultPlan {
    /// The default chaos mix for a seed: ~1/8 of responses dropped, ~1/16
    /// truncated, ~1/16 partial-written, ~1/8 delayed up to 40 ms.
    pub fn new(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            drop_per_1024: 128,
            truncate_per_1024: 64,
            partial_per_1024: 64,
            delay_per_1024: 128,
            max_delay_ms: 40,
        }
    }

    /// The fault (if any) to apply to response `resp_idx` of connection
    /// `conn_id`, for a frame of `frame_len` bytes.
    pub fn fault_for(&self, conn_id: u64, resp_idx: u64, frame_len: usize) -> Option<WireFault> {
        let draw = mix(self.seed, conn_id, resp_idx);
        let pick = (draw % 1024) as u32;
        let aux = mix(self.seed ^ 0x5ca1ab1e, conn_id, resp_idx);
        let cut = || 1 + (aux as usize) % frame_len.max(2).saturating_sub(1);
        let d = self.drop_per_1024;
        let t = d + self.truncate_per_1024;
        let p = t + self.partial_per_1024;
        let y = p + self.delay_per_1024;
        if pick < d {
            Some(WireFault::Drop)
        } else if pick < t {
            Some(WireFault::Truncate { keep: cut() })
        } else if pick < p {
            Some(WireFault::PartialWrite {
                first: cut(),
                stall_ms: 1 + aux % self.max_delay_ms.max(1),
            })
        } else if pick < y {
            Some(WireFault::Delay {
                ms: 1 + aux % self.max_delay_ms.max(1),
            })
        } else {
            None
        }
    }

    /// Parse from a `chaos` request body (`{"seed":N, ...}`; rate fields
    /// optional, defaulting to [`NetFaultPlan::new`]).
    pub fn from_json(v: &Json) -> Result<NetFaultPlan, String> {
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("net fault plan needs a numeric `seed`")?;
        let base = NetFaultPlan::new(seed);
        let rate = |k: &str, d: u32| {
            v.get(k)
                .and_then(Json::as_u64)
                .map(|x| x as u32)
                .unwrap_or(d)
        };
        Ok(NetFaultPlan {
            seed,
            drop_per_1024: rate("drop_per_1024", base.drop_per_1024),
            truncate_per_1024: rate("truncate_per_1024", base.truncate_per_1024),
            partial_per_1024: rate("partial_per_1024", base.partial_per_1024),
            delay_per_1024: rate("delay_per_1024", base.delay_per_1024),
            max_delay_ms: v
                .get("max_delay_ms")
                .and_then(Json::as_u64)
                .unwrap_or(base.max_delay_ms),
        })
    }
}

impl ToJson for NetFaultPlan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("drop_per_1024", (self.drop_per_1024 as u64).to_json()),
            (
                "truncate_per_1024",
                (self.truncate_per_1024 as u64).to_json(),
            ),
            ("partial_per_1024", (self.partial_per_1024 as u64).to_json()),
            ("delay_per_1024", (self.delay_per_1024 as u64).to_json()),
            ("max_delay_ms", self.max_delay_ms.to_json()),
        ])
    }
}

/// Panic payload of a [`CrashPlan`] firing (downcast it in the shard's
/// `catch_unwind` handler to tell simulated crashes from organic ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash {
    /// Attempt number the crash fired on.
    pub attempt: u32,
    /// Checkpoint index (within the attempt) at which it fired.
    pub at_checkpoint: u64,
}

impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected shard crash at checkpoint {} of attempt {} (CrashPlan)",
            self.at_checkpoint, self.attempt
        )
    }
}

/// Seeded shard-crash schedule: at each checkpoint boundary of a job
/// attempt, crash with probability `per_1024 >> (2 * attempt)` / 1024 —
/// deterministic in `(job identity, attempt, checkpoint index)`, decaying
/// across attempts so retries converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Seed for the crash draw.
    pub seed: u64,
    /// Per-1024 crash probability at attempt 0 (quartered each attempt).
    pub per_1024: u32,
}

impl CrashPlan {
    /// Default: ~3/8 crash chance per checkpoint on a job's first attempt.
    pub fn new(seed: u64) -> CrashPlan {
        CrashPlan {
            seed,
            per_1024: 384,
        }
    }

    /// FNV-1a over a job identity key, the stable `job` coordinate.
    pub fn key_hash(identity_key: &str) -> u64 {
        Fnv64::of(identity_key.as_bytes())
    }

    /// Whether to crash at checkpoint `ckpt_idx` (1-based) of `attempt`.
    pub fn should_crash(&self, key_hash: u64, attempt: u32, ckpt_idx: u64) -> bool {
        let effective = self.per_1024 >> (2 * attempt.min(15));
        if effective == 0 {
            return false;
        }
        let draw = mix(self.seed, key_hash.wrapping_add(attempt as u64), ckpt_idx);
        ((draw % 1024) as u32) < effective
    }

    /// Parse from a `chaos` request body.
    pub fn from_json(v: &Json) -> Result<CrashPlan, String> {
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("crash plan needs a numeric `seed`")?;
        let base = CrashPlan::new(seed);
        Ok(CrashPlan {
            seed,
            per_1024: v
                .get("per_1024")
                .and_then(Json::as_u64)
                .map(|x| x as u32)
                .unwrap_or(base.per_1024),
        })
    }
}

impl ToJson for CrashPlan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("per_1024", (self.per_1024 as u64).to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_faults_are_seed_deterministic() {
        let plan = NetFaultPlan::new(7);
        for conn in 0..50u64 {
            for resp in 0..20u64 {
                assert_eq!(
                    plan.fault_for(conn, resp, 100),
                    plan.fault_for(conn, resp, 100)
                );
            }
        }
    }

    #[test]
    fn wire_fault_mix_covers_every_kind_and_spares_most_frames() {
        let plan = NetFaultPlan::new(3);
        let (mut none, mut drops, mut truncs, mut partials, mut delays) = (0, 0, 0, 0, 0);
        for conn in 0..64u64 {
            for resp in 0..32u64 {
                match plan.fault_for(conn, resp, 200) {
                    None => none += 1,
                    Some(WireFault::Drop) => drops += 1,
                    Some(WireFault::Truncate { keep }) => {
                        assert!((1..200).contains(&keep));
                        truncs += 1;
                    }
                    Some(WireFault::PartialWrite { first, stall_ms }) => {
                        assert!((1..200).contains(&first));
                        assert!(stall_ms >= 1 && stall_ms <= plan.max_delay_ms);
                        partials += 1;
                    }
                    Some(WireFault::Delay { ms }) => {
                        assert!(ms >= 1 && ms <= plan.max_delay_ms);
                        delays += 1;
                    }
                }
            }
        }
        assert!(drops > 0 && truncs > 0 && partials > 0 && delays > 0);
        assert!(none > drops + truncs + partials + delays, "mostly clean");
    }

    #[test]
    fn truncate_keep_stays_inside_tiny_frames() {
        let plan = NetFaultPlan {
            truncate_per_1024: 1024,
            drop_per_1024: 0,
            partial_per_1024: 0,
            delay_per_1024: 0,
            ..NetFaultPlan::new(1)
        };
        for len in [2usize, 3, 5] {
            for resp in 0..50u64 {
                if let Some(WireFault::Truncate { keep }) = plan.fault_for(0, resp, len) {
                    assert!(keep >= 1 && keep < len, "keep={keep} len={len}");
                }
            }
        }
    }

    #[test]
    fn crash_plan_decays_across_attempts() {
        let plan = CrashPlan::new(11);
        let key = CrashPlan::key_hash("ocean/t2/s123/seed1/all");
        let fires = |attempt: u32| {
            (1..=512u64)
                .filter(|&c| plan.should_crash(key, attempt, c))
                .count()
        };
        let a0 = fires(0);
        let a2 = fires(2);
        assert!(a0 > 100, "attempt 0 should crash often: {a0}");
        assert!(a2 < a0 / 4, "attempt 2 must be far safer: {a2} vs {a0}");
        // And the schedule is a pure function of its coordinates.
        assert_eq!(fires(0), a0);
    }

    #[test]
    fn plans_round_trip_through_json() {
        let n = NetFaultPlan::new(42);
        let back = NetFaultPlan::from_json(&n.to_json()).unwrap();
        assert_eq!(back, n);
        let c = CrashPlan::new(42);
        let back = CrashPlan::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
        assert!(NetFaultPlan::from_json(&Json::obj([])).is_err());
    }
}
