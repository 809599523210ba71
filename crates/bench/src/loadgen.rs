//! Event-loop traffic driver for `detload`: tens of thousands of
//! keep-alive connections from one thread.
//!
//! A thread per job tops out far below the connection counts a serving
//! stack must handle, so all traffic goes through a single `poll(2)` loop
//! (the shim's [`Poller`] over [`FramedConn`]s, the same primitives the
//! server uses): a persistent pool of nonblocking keep-alive connections,
//! v2 pipelined `batch` frames, deterministic hot-key skew, and an
//! open-loop/closed-loop mix.
//!
//! * **Open loop**: frame *k* is released at `k·depth/rate` seconds by
//!   the clock, regardless of completions — a slow server accumulates
//!   queueing delay instead of politely throttling the load, which is
//!   what makes the latency-under-load curve honest.
//! * **Closed loop**: optionally, a set of connections that always keep
//!   exactly one frame in flight — the "steady background tenant" shape.
//! * **Hot-key skew**: a deterministic per-1024 draw replaces a frame
//!   slot's job with the grid's first job, concentrating load on one
//!   identity key (one shard/backend) the way real traffic does.
//!
//! Every job result feeds a receipt ledger: first sighting of an
//! identity key records the canonical receipt, every later sighting —
//! same phase, later phase, retry after a reconnect, duplicate from the
//! hot key — must match byte-for-byte. Determinism is what makes the
//! retry policy trivially safe: re-running a job can only produce the
//! same receipt.

use detlock_serve::conn::FramedConn;
use detlock_serve::protocol::{batch_request, JobSpec};
use detlock_serve::receipt::Receipt;
use detlock_serve::stats::LatencyHistogram;
use detlock_shim::evloop::Poller;
use detlock_shim::hash::Fnv64;
use detlock_shim::json::{Json, ToJson};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// FNV-1a over a counter: the deterministic per-slot draw for hot-key
/// skew (well-spread, reproducible across sweeps).
fn slot_hash(n: u64) -> u64 {
    Fnv64::of(&n.to_le_bytes())
}

/// Load-driver shape: connection counts, pipelining depth, skew.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Server (or group-router) address.
    pub addr: String,
    /// Open-loop keep-alive connections (frames round-robin over them).
    pub conns: usize,
    /// Additional closed-loop connections (each keeps one frame in
    /// flight at all times while the phase is active).
    pub closed_conns: usize,
    /// Jobs per frame: 1 sends v1 `run` lines, >1 sends v2 `batch`
    /// frames (pipelined either way — the driver never waits for a
    /// response before sending the next frame).
    pub pipeline: usize,
    /// Per-1024 chance a frame slot is replaced by the hot job
    /// (`jobs[0]`). 0 disables skew.
    pub hot_per_1024: u32,
    /// Per-job cap on connection-casualty reissues. Sheds don't count —
    /// they are definitive "later" answers bounded by the phase deadline.
    pub max_attempts: u32,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            addr: String::new(),
            conns: 1,
            closed_conns: 0,
            pipeline: 1,
            hot_per_1024: 0,
            max_attempts: 96,
        }
    }
}

/// Receipt ledger and verdicts accumulated over a whole pass (a sequence
/// of phases driven through one [`LoadGen`]).
#[derive(Default)]
pub struct Ledger {
    /// identity key → canonical receipt (first sighting wins).
    pub receipts: std::collections::HashMap<String, String>,
    /// Divergent re-sightings: `{job, first, later}` objects.
    pub mismatches: Vec<Json>,
    /// Permanently failed jobs: `{job, error, unanswered}` objects.
    pub failures: Vec<Json>,
    /// Jobs that exhausted retries without a definitive answer.
    pub unanswered: u64,
}

impl Ledger {
    /// Record a successful receipt; returns `false` on divergence from
    /// an earlier sighting of the same key.
    fn record(&mut self, key: &str, canonical: String) -> bool {
        match self.receipts.get(key) {
            Some(first) if *first != canonical => {
                self.mismatches.push(Json::obj([
                    ("job", key.to_json()),
                    ("first", first.clone().to_json()),
                    ("later", canonical.to_json()),
                ]));
                false
            }
            Some(_) => true,
            None => {
                self.receipts.insert(key.to_string(), canonical);
                true
            }
        }
    }

    fn fail(&mut self, key: &str, error: String, unanswered: bool) {
        if unanswered {
            self.unanswered += 1;
        }
        self.failures.push(Json::obj([
            ("job", key.to_json()),
            ("error", error.to_json()),
            ("unanswered", unanswered.to_json()),
        ]));
    }
}

/// One point on the latency-under-load curve.
pub struct PhaseReport {
    /// The rate the phase *asked* for.
    pub offered_qps: f64,
    /// Jobs completed per wall second actually observed.
    pub achieved_qps: f64,
    /// Jobs that returned a receipt.
    pub completed: u64,
    /// Jobs that resolved without a receipt (typed failure or retry
    /// exhaustion).
    pub failed: u64,
    /// Typed shed responses seen (each triggers a retry until the cap).
    pub sheds: u64,
    /// Connections re-dialed during this phase.
    pub reconnects: u64,
    /// Frames driven by the closed-loop connections.
    pub closed_frames: u64,
    /// Phase wall time, release of the first frame to the last response.
    pub wall: Duration,
    /// Median request latency (release → response parsed).
    pub p50_us: u64,
    /// Tail request latency.
    pub p99_us: u64,
    /// Full latency histogram JSON.
    pub latency: Json,
    /// Distinct `backend` stamps seen in responses (router runs only).
    pub backends_seen: Vec<u64>,
}

impl PhaseReport {
    /// One point of the report's `latency_curve` (observability output:
    /// nothing gates it).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("offered_qps", self.offered_qps.to_json()),
            ("achieved_qps", self.achieved_qps.to_json()),
            ("completed", self.completed.to_json()),
            ("failed", self.failed.to_json()),
            ("sheds", self.sheds.to_json()),
            ("reconnects", self.reconnects.to_json()),
            ("closed_frames", self.closed_frames.to_json()),
            ("wall_ms", (self.wall.as_millis() as u64).to_json()),
            ("p50_us", self.p50_us.to_json()),
            ("p99_us", self.p99_us.to_json()),
            ("latency", self.latency.clone()),
            ("backends_seen", self.backends_seen.to_json()),
        ])
    }
}

/// One pipelined request frame awaiting its response line.
struct Frame {
    released: Instant,
    jobs: Vec<PendJob>,
    /// True when issued by a closed-loop connection.
    closed_loop: bool,
}

struct PendJob {
    spec_idx: usize,
    attempts: u32,
}

struct LoadConn {
    io: FramedConn,
    inflight: VecDeque<Frame>,
    next_dial: Instant,
}

impl LoadConn {
    fn new() -> LoadConn {
        LoadConn {
            io: FramedConn::new(),
            inflight: VecDeque::new(),
            next_dial: Instant::now(),
        }
    }

    fn dial(&mut self, addr: &str) -> bool {
        if self.io.is_connected() {
            return true;
        }
        let now = Instant::now();
        if now < self.next_dial {
            return false;
        }
        let dialed = TcpStream::connect(addr).is_ok_and(|s| self.io.attach(s).is_ok());
        if !dialed {
            self.next_dial = now + Duration::from_millis(50);
        }
        dialed
    }
}

/// The persistent connection pool + event loop. One `LoadGen` is reused
/// across phases and sweeps so connections are genuinely keep-alive.
pub struct LoadGen {
    opts: LoadOptions,
    conns: Vec<LoadConn>,
    reconnects_total: u64,
    /// Read buffer shared by every connection in the pool.
    scratch: Vec<u8>,
}

impl LoadGen {
    /// Create the pool (lazily dialed — the first phase connects).
    pub fn new(opts: LoadOptions) -> LoadGen {
        assert!(opts.conns >= 1, "need at least one open-loop connection");
        assert!(opts.pipeline >= 1, "pipeline depth must be at least 1");
        // Open-loop connections first, then the closed-loop pool.
        let conns = (0..opts.conns + opts.closed_conns)
            .map(|_| LoadConn::new())
            .collect();
        LoadGen {
            opts,
            conns,
            reconnects_total: 0,
            scratch: vec![0u8; 64 * 1024],
        }
    }

    /// Dial every connection in the pool up front; returns how many are
    /// live. Used to assert "N concurrent connections are actually open"
    /// before any traffic flows.
    pub fn prewarm(&mut self) -> usize {
        let deadline = Instant::now() + Duration::from_secs(60);
        let addr = self.opts.addr.clone();
        loop {
            let mut live = 0;
            for c in &mut self.conns {
                if c.dial(&addr) {
                    live += 1;
                }
            }
            if live == self.conns.len() || Instant::now() >= deadline {
                return live;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Total reconnect count over the generator's lifetime.
    pub fn reconnects(&self) -> u64 {
        self.reconnects_total
    }

    /// Drive `jobs` once at `rate` jobs/sec (open loop), with the
    /// closed-loop connections cycling the same grid in the background.
    /// Receipts and failures land in `ledger`; latency lands in the
    /// returned curve point.
    pub fn run_phase(&mut self, jobs: &[JobSpec], rate: f64, ledger: &mut Ledger) -> PhaseReport {
        assert!(!jobs.is_empty() && rate > 0.0);
        let depth = self.opts.pipeline.min(jobs.len());
        let hot_per_1024 = self.opts.hot_per_1024 as u64;
        let hot = move |draw: u64| slot_hash(draw) % 1024 < hot_per_1024;

        // Open-loop schedule: frame k = jobs [k·depth, (k+1)·depth), with
        // the deterministic hot-key substitution (job 0) applied per slot,
        // and a release time of k·depth/rate. The slot counter restarts at
        // 0 each phase so every pass over the same grid sees the same skew.
        let slots: Vec<usize> = (0..jobs.len())
            .map(|slot| if hot(slot as u64) { 0 } else { slot })
            .collect();
        let frames: Vec<&[usize]> = slots.chunks(depth).collect();
        let period = Duration::from_secs_f64(depth as f64 / rate);

        let mut tally = Tally {
            keys: jobs.iter().map(|j| j.identity_key()).collect(),
            ledger,
            hist: LatencyHistogram::default(),
            completed: 0,
            failed: 0,
            sheds: 0,
            outstanding: jobs.len() as u64,
            retryq: Vec::new(),
            backends_seen: Vec::new(),
            reconnects: 0,
        };
        let mut closed_frames = 0u64;
        let mut next_frame = 0usize;
        let mut rr = 0usize; // open-loop round-robin cursor
        let mut closed_cursor = 0usize;
        let t0 = Instant::now();
        // Generous overall deadline: schedule length + drain allowance.
        let deadline = t0
            + Duration::from_secs_f64(frames.len() as f64 * period.as_secs_f64())
            + Duration::from_secs(180);

        let mut poller = Poller::new();
        loop {
            let now = Instant::now();

            // 1. Release due open-loop frames.
            while next_frame < frames.len() && t0 + period * next_frame as u32 <= now {
                let batch = frames[next_frame]
                    .iter()
                    .map(|&spec_idx| PendJob {
                        spec_idx,
                        attempts: 0,
                    })
                    .collect();
                self.issue(rr % self.opts.conns, batch, jobs, false);
                rr += 1;
                next_frame += 1;
            }

            // 2. Re-release due retries (grouped into fresh frames).
            let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut tally.retryq)
                .into_iter()
                .partition(|(when, _)| *when <= now);
            tally.retryq = later;
            let mut due = due.into_iter().map(|(_, job)| job).peekable();
            while due.peek().is_some() {
                let batch = due.by_ref().take(depth).collect();
                self.issue(rr % self.opts.conns, batch, jobs, false);
                rr += 1;
            }

            let open_work_left = tally.outstanding > 0;

            // 3. Closed-loop connections: keep one frame in flight while
            //    the open-loop phase is still running.
            if open_work_left {
                for ci in self.opts.conns..self.conns.len() {
                    if !self.conns[ci].inflight.is_empty() {
                        continue;
                    }
                    let batch = (closed_cursor..closed_cursor + depth)
                        .map(|c| PendJob {
                            spec_idx: if hot(0x9e37_79b9 ^ c as u64) {
                                0
                            } else {
                                c % jobs.len()
                            },
                            attempts: 0,
                        })
                        .collect();
                    closed_cursor += depth;
                    self.issue(ci, batch, jobs, true);
                    closed_frames += 1;
                }
            }

            // 4. Phase exit: all open-loop work resolved and every
            //    closed-loop tail frame answered.
            let closed_idle = self.conns[self.opts.conns..]
                .iter()
                .all(|c| c.inflight.is_empty());
            if next_frame == frames.len()
                && !open_work_left
                && tally.retryq.is_empty()
                && closed_idle
            {
                break;
            }
            if now >= deadline {
                // Account every unresolved job as unanswered — missing
                // data points are errors, not gaps.
                for conn in &mut self.conns {
                    for frame in conn.inflight.drain(..) {
                        for j in &frame.jobs {
                            tally.fail(j, "phase deadline exceeded", true, !frame.closed_loop);
                        }
                    }
                }
                for (_, j) in std::mem::take(&mut tally.retryq) {
                    tally.fail(&j, "phase deadline exceeded", true, true);
                }
                break;
            }

            // 5. Dial/flush, then poll.
            poller.clear();
            let mut order: Vec<(usize, usize)> = Vec::with_capacity(self.conns.len());
            for (ci, conn) in self.conns.iter_mut().enumerate() {
                // Idle keep-alive connections stay out of the poll set: a
                // frame in flight is the only reason to touch the socket.
                if conn.inflight.is_empty() {
                    continue;
                }
                conn.dial(&self.opts.addr);
                conn.io.flush(now);
                if conn.io.is_dead() {
                    tally.fail_conn(conn, self.opts.max_attempts);
                } else if let (Some(interest), _) = conn.io.interest(now) {
                    order.push((poller.push(conn.io.fd(), interest), ci));
                }
            }

            // Wake for the earliest of: next open-loop release, next
            // retry release, a coarse 20ms tick.
            let mut timeout = Duration::from_millis(20);
            if next_frame < frames.len() {
                let due = t0 + period * next_frame as u32;
                timeout = timeout.min(due.saturating_duration_since(now));
            }
            for (when, _) in &tally.retryq {
                timeout = timeout.min(when.saturating_duration_since(now));
            }
            if poller.is_empty() || poller.wait(Some(timeout)).is_err() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }

            // 6. Read responses.
            for &(pidx, ci) in &order {
                let ready = poller.ready(pidx);
                if !ready.readable && !ready.error {
                    continue;
                }
                let conn = &mut self.conns[ci];
                conn.io.read_ready(ready, &mut self.scratch);
                let mut broken = false;
                while let Some(line) = conn.io.next_frame() {
                    // An unsolicited or mangled line voids in-order
                    // matching for everything behind it: the link is a
                    // casualty and its frames are reissued.
                    let Ok(resp) = Json::parse(&line) else {
                        broken = true;
                        break;
                    };
                    let Some(frame) = conn.inflight.pop_front() else {
                        broken = true;
                        break;
                    };
                    tally.resolve(frame, &resp);
                }
                if broken || conn.io.is_dead() || conn.io.peer_closed() {
                    tally.fail_conn(conn, self.opts.max_attempts);
                }
            }
        }

        let wall = t0.elapsed();
        self.reconnects_total += tally.reconnects;
        tally.backends_seen.sort_unstable();
        PhaseReport {
            offered_qps: rate,
            achieved_qps: tally.completed as f64 / wall.as_secs_f64().max(1e-9),
            completed: tally.completed,
            failed: tally.failed,
            sheds: tally.sheds,
            reconnects: tally.reconnects,
            closed_frames,
            wall,
            p50_us: tally.hist.percentile_us(0.50),
            p99_us: tally.hist.percentile_us(0.99),
            latency: tally.hist.to_json(),
            backends_seen: tally.backends_seen,
        }
    }

    /// Encode a frame onto connection `ci` and record it in flight.
    fn issue(&mut self, ci: usize, batch: Vec<PendJob>, jobs: &[JobSpec], closed_loop: bool) {
        let conn = &mut self.conns[ci];
        let mut line = if let [job] = batch.as_slice() {
            jobs[job.spec_idx].to_json().to_string_compact()
        } else {
            let specs: Vec<JobSpec> = batch.iter().map(|j| jobs[j.spec_idx].clone()).collect();
            batch_request(&specs).to_string_compact()
        };
        line.push('\n');
        conn.io.queue(line.into_bytes());
        conn.inflight.push_back(Frame {
            released: Instant::now(),
            jobs: batch,
            closed_loop,
        });
    }
}

/// A phase's running account: how each job resolved, and which must be
/// reissued.
struct Tally<'a> {
    /// Identity key per job-grid index.
    keys: Vec<String>,
    ledger: &'a mut Ledger,
    hist: LatencyHistogram,
    completed: u64,
    failed: u64,
    sheds: u64,
    /// Open-loop jobs not yet definitively resolved (receipt, typed
    /// failure, or retry exhaustion); the phase ends at 0. Retries keep a
    /// job outstanding, closed-loop jobs never count.
    outstanding: u64,
    retryq: Vec<(Instant, PendJob)>,
    backends_seen: Vec<u64>,
    reconnects: u64,
}

impl Tally<'_> {
    /// Job `j` resolved without a receipt; `open` when it was open-loop.
    fn fail(&mut self, j: &PendJob, error: &str, unanswered: bool, open: bool) {
        self.ledger
            .fail(&self.keys[j.spec_idx], error.to_string(), unanswered);
        self.failed += 1;
        if open {
            self.outstanding = self.outstanding.saturating_sub(1);
        }
    }

    /// Connection death: every in-flight job is re-queued (attempts
    /// permitting) — determinism makes reissue safe, the receipt ledger
    /// proves it.
    fn fail_conn(&mut self, conn: &mut LoadConn, max_attempts: u32) {
        conn.io.reset();
        conn.next_dial = Instant::now() + Duration::from_millis(20);
        self.reconnects += 1;
        for frame in conn.inflight.drain(..) {
            // Closed-loop frames are background load: a lost one is
            // simply regenerated by the refill logic.
            if frame.closed_loop {
                continue;
            }
            for mut j in frame.jobs {
                j.attempts += 1;
                if j.attempts > max_attempts {
                    self.fail(&j, "connection failed and retries exhausted", true, true);
                } else {
                    self.retryq
                        .push((Instant::now() + Duration::from_millis(25), j));
                }
            }
        }
    }

    /// Resolve every job of `frame` against its response line: record
    /// receipts, schedule shed retries, count failures.
    fn resolve(&mut self, frame: Frame, resp: &Json) {
        let latency_us = frame.released.elapsed().as_micros() as u64;
        let open = !frame.closed_loop;
        // A batch answers with one result per job; a whole-batch rejection
        // (or a v1 frame) is the same verdict for every job in the frame.
        let per_job = resp
            .get("results")
            .and_then(Json::as_arr)
            .filter(|items| frame.jobs.len() > 1 && items.len() == frame.jobs.len());
        for (i, j) in frame.jobs.into_iter().enumerate() {
            let result = per_job.map_or(resp, |items| &items[i]);
            if result.get("ok").and_then(Json::as_bool) == Some(true) {
                let Some(receipt) = result.get("receipt").and_then(Receipt::from_json) else {
                    self.fail(&j, "malformed receipt", false, open);
                    continue;
                };
                self.hist.record_us(latency_us);
                self.ledger
                    .record(&self.keys[j.spec_idx], receipt.canonical());
                self.completed += 1;
                if open {
                    self.outstanding = self.outstanding.saturating_sub(1);
                }
                if let Some(b) = result.get("backend").and_then(Json::as_u64) {
                    if !self.backends_seen.contains(&b) {
                        self.backends_seen.push(b);
                    }
                }
            } else if result.get("error_kind").and_then(Json::as_str) == Some("shed") {
                self.sheds += 1;
                if !open {
                    continue; // background load: just regenerate
                }
                // A shed is a definitive "later" from a live server, not a
                // casualty: it consumes no reissue attempt. The phase
                // deadline bounds the waiting — a job still shed at the
                // deadline surfaces as unanswered.
                let backoff = result
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(25)
                    .min(2000);
                self.retryq
                    .push((Instant::now() + Duration::from_millis(backoff), j));
            } else {
                let err = result
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error");
                self.fail(&j, err, false, open);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_key_draw_is_deterministic_and_roughly_calibrated() {
        let hits = |per_1024: u32| -> usize {
            (0..10_000u64)
                .filter(|&s| slot_hash(s) % 1024 < per_1024 as u64)
                .count()
        };
        let h = hits(256); // ask for ~25%
        assert!((2000..3000).contains(&h), "256/1024 draw hit {h}/10000");
        assert_eq!(hits(0), 0);
        assert_eq!(hits(1024), 10_000);
        // Determinism: the same slot always draws the same way.
        assert_eq!(slot_hash(42), slot_hash(42));
    }

    #[test]
    fn ledger_flags_divergent_receipts() {
        let mut l = Ledger::default();
        assert!(l.record("k", "r1".to_string()));
        assert!(l.record("k", "r1".to_string()));
        assert!(!l.record("k", "r2".to_string()));
        assert_eq!(l.mismatches.len(), 1);
        l.fail("k2", "boom".to_string(), true);
        assert_eq!(l.unanswered, 1);
    }
}
