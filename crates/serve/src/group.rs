//! Multi-process shard groups: consistent-hash routing over backends.
//!
//! One `detserved` process holds a fixed set of in-process shards; a
//! *shard group* scales past that by running several such processes and
//! putting a [`GroupRouter`] in front. The router speaks the same wire
//! protocol as a single server (v1 and v2), so clients — including
//! [`crate::client::RetryingClient`] and `detload` — need no changes.
//!
//! Routing is a consistent-hash [`HashRing`] over [`JobSpec::identity_key`]:
//! every field an episode's outcome depends on hashes to a stable backend,
//! so the same job always lands on the process that compiled it and holds
//! its receipt, and removing a backend only remaps the keys it owned.
//!
//! Determinism makes the multi-process story *verifiable for free*:
//!
//! * **cross-process dedup** — the router keeps a bounded
//!   identity-key → receipt ledger spanning all backends; any divergence
//!   (`receipt_mismatches`) is an incident, because receipts are a
//!   function of the job, not the process.
//! * **cross-process audits** — the ledger also counts each identity's
//!   requests, and from the second on, a request the audit schedule picks
//!   ([`audit_scheduled`], the one every backend runs) goes to the next
//!   distinct live backend on the ring instead of the owner. Its receipt
//!   meets the owner's in the ledger (`cross_checks`). The audit is the
//!   client's own request: nothing is forwarded twice.
//! * **failover** — a dead backend's in-flight jobs are replayed by the
//!   router to the ring's next live process (`failovers`, `replays`);
//!   determinism makes the reissue safe, and the substitute backend's
//!   receipt is checked against the ledger like any other. A job only
//!   falls back to a retryable typed shed when its replay budget runs
//!   out or no process in the group is reachable.

use crate::conn::{accept_backlog, raw_fd, FramedConn, SlotKind, SlotTable};
use crate::protocol::{error_json, parse_request, JobSpec, WireRequest};
use crate::receipt::{audit_scheduled, ReceiptLedger, Sighting};
use detlock_shim::evloop::{self, Interest, Poller};
use detlock_shim::hash::Fnv64;
use detlock_shim::json::{Json, ToJson};
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A consistent-hash ring over backend labels with virtual nodes.
pub struct HashRing {
    /// (point hash, backend index), sorted by hash.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// Build a ring with `vnodes` virtual nodes per backend label.
    pub fn new(labels: &[String], vnodes: usize) -> HashRing {
        assert!(!labels.is_empty() && vnodes >= 1);
        let mut points = Vec::with_capacity(labels.len() * vnodes);
        for (i, label) in labels.iter().enumerate() {
            for v in 0..vnodes {
                points.push((Fnv64::of(format!("{label}#{v}").as_bytes()), i));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            backends: labels.len(),
        }
    }

    /// Number of backends on the ring.
    pub fn backends(&self) -> usize {
        self.backends
    }

    fn walk_from(&self, key: &str) -> impl Iterator<Item = usize> + '_ {
        let h = Fnv64::of(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        (0..self.points.len()).map(move |off| self.points[(start + off) % self.points.len()].1)
    }

    /// The backend owning `key`: first ring point at or after the key's
    /// hash (wrapping).
    pub fn route(&self, key: &str) -> usize {
        self.walk_from(key).next().expect("ring is never empty")
    }

    /// The backend owning `key` among those `alive` — walks the ring past
    /// dead entries, so failover inherits consistent-hash locality.
    pub fn route_alive(&self, key: &str, alive: &[bool]) -> Option<usize> {
        self.walk_from(key)
            .find(|&b| alive.get(b).copied().unwrap_or(false))
    }

    /// The next backend among those `alive` on `key`'s walk that is a
    /// *different* process from `primary` (where a scheduled audit goes).
    /// `None` on a 1-backend ring or when no other backend is alive.
    pub fn next_distinct(&self, key: &str, primary: usize, alive: &[bool]) -> Option<usize> {
        self.walk_from(key)
            .find(|&b| b != primary && alive.get(b).copied().unwrap_or(false))
    }
}

/// Group router configuration.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Listen address for clients (`127.0.0.1:0` picks a port).
    pub addr: String,
    /// Backend `detserved` addresses (the shard-group members).
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            vnodes: 32,
        }
    }
}

/// How long a failed backend stays marked down before re-dial attempts.
const BACKEND_RETRY_AFTER: Duration = Duration::from_millis(500);

/// How many times one job rides out a backend-connection casualty before
/// the router gives up and sheds it back to the client. Replay is safe
/// because execution is deterministic: a re-run of the same `JobSpec`
/// produces the same receipt bytes wherever it lands.
const REPLAY_BUDGET: u32 = 4;

#[derive(Default)]
struct RouterCounters {
    routed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    failovers: AtomicU64,
    replays: AtomicU64,
    dedup_hits: AtomicU64,
    receipt_mismatches: AtomicU64,
    cross_checks: AtomicU64,
}

struct RouterShared {
    config: GroupConfig,
    shutdown: AtomicBool,
    waker: evloop::Waker,
    counters: RouterCounters,
    open_conns: AtomicU64,
    peak_conns: AtomicU64,
    started: Instant,
}

/// A running shard-group router. Speaks the full wire protocol; routes
/// `run`/`batch` jobs across backends by identity-key consistent hash.
pub struct GroupRouter {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    thread: Option<JoinHandle<()>>,
}

impl GroupRouter {
    /// Bind the client-facing listener and start the router loop.
    pub fn start(config: GroupConfig) -> std::io::Result<GroupRouter> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "a shard group needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (waker, wake_rx) = evloop::wake_pair()?;
        let shared = Arc::new(RouterShared {
            shutdown: AtomicBool::new(false),
            waker,
            counters: RouterCounters::default(),
            open_conns: AtomicU64::new(0),
            peak_conns: AtomicU64::new(0),
            started: Instant::now(),
            config,
        });
        let sh = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("group-router".to_string())
            .spawn(move || router_loop(listener, wake_rx, &sh))?;
        Ok(GroupRouter {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    /// The bound client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the router loop exits (after a client `shutdown`).
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Stop the router from the server side (does **not** shut the
    /// backends down — use the wire `shutdown` op for a full group drain).
    pub fn shutdown_and_join(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A client connection: same ordered-slot pipelining discipline as the
/// single-server event loop, minus wire-fault injection (faults are a
/// backend feature; the router is transparent).
struct ClientConn {
    io: FramedConn,
    slots: SlotTable,
}

impl ClientConn {
    /// Nothing is owed: no unanswered frame, no unflushed byte.
    fn idle(&self) -> bool {
        self.slots.is_empty() && !self.io.has_output()
    }
}

/// Where a backend's next response line goes.
struct PendingForward {
    token: u64,
    slot: u64,
    idx: usize,
    key: String,
    /// The forwarded job line, newline included — kept so a connection
    /// casualty can be replayed to another backend instead of shed.
    line: String,
    attempts: u32,
    /// A scheduled audit, sent to a backend other than the key's owner.
    audit: bool,
}

/// One backend process: a single pipelined connection carrying forwarded
/// job lines; responses come back strictly in order (FIFO matching).
struct Backend {
    addr: String,
    io: FramedConn,
    pending: VecDeque<PendingForward>,
    down_until: Option<Instant>,
    forwarded: u64,
    completed: u64,
    errors: u64,
}

impl Backend {
    fn new(addr: String) -> Backend {
        Backend {
            addr,
            io: FramedConn::new(),
            pending: VecDeque::new(),
            down_until: None,
            forwarded: 0,
            completed: 0,
            errors: 0,
        }
    }

    fn usable(&self, now: Instant) -> bool {
        self.io.is_connected() || self.down_until.map(|d| now >= d).unwrap_or(true)
    }

    fn ensure_connected(&mut self) -> bool {
        if self.io.is_connected() {
            return true;
        }
        let now = Instant::now();
        if !self.usable(now) {
            return false;
        }
        let dialed = self
            .addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .and_then(|a| TcpStream::connect_timeout(&a, Duration::from_secs(2)).ok())
            .is_some_and(|stream| self.io.attach(stream).is_ok());
        self.down_until = (!dialed).then(|| now + BACKEND_RETRY_AFTER);
        dialed
    }

    /// Send one job line down the link; its answer is matched FIFO.
    fn forward(&mut self, p: PendingForward) {
        self.io.queue(p.line.as_bytes().to_vec());
        self.forwarded += 1;
        self.pending.push_back(p);
    }
}

/// The retryable shed a client sees when its backend died mid-request:
/// the retry (e.g. `RetryingClient`) re-routes around the dead process.
fn failover_shed() -> Json {
    Json::obj([
        ("ok", false.to_json()),
        ("error", "backend_unavailable".to_json()),
        ("error_kind", "shed".to_json()),
        ("reason", "queue_full".to_json()),
        ("retry_after_ms", 100u64.to_json()),
    ])
}

struct RouterState {
    ring: HashRing,
    backends: Vec<Backend>,
    /// Identity key → canonical receipt and request count, spanning every
    /// backend.
    ledger: ReceiptLedger,
}

impl RouterState {
    /// Tear down a backend connection. In-flight jobs are replayed to
    /// another live backend (determinism makes the reissue safe); only a
    /// job that exhausts its replay budget — or finds the whole group
    /// unreachable — is answered with a retryable shed.
    fn fail_backend(
        &mut self,
        b: usize,
        conns: &mut HashMap<u64, ClientConn>,
        shared: &RouterShared,
    ) {
        let backend = &mut self.backends[b];
        backend.io.reset();
        backend.down_until = Some(Instant::now() + BACKEND_RETRY_AFTER);
        backend.errors += 1;
        let pending: Vec<PendingForward> = backend.pending.drain(..).collect();
        if !pending.is_empty() {
            shared
                .counters
                .failovers
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
            eprintln!(
                "[group-router] backend {} ({}) failed with {} pending jobs — replaying",
                b,
                self.backends[b].addr,
                pending.len()
            );
        }
        for mut p in pending {
            if p.attempts >= REPLAY_BUDGET {
                if let Some(conn) = conns.get_mut(&p.token) {
                    conn.slots.fill(p.slot, p.idx, failover_shed());
                }
                continue;
            }
            p.attempts += 1;
            self.replay_forward(p, conns, shared);
        }
    }

    /// Re-forward a casualty's job to the ring's next live backend; shed
    /// back to the client only when no process in the group is dialable.
    /// A replay goes where the owner's jobs go, so it is no longer an audit.
    fn replay_forward(
        &mut self,
        mut p: PendingForward,
        conns: &mut HashMap<u64, ClientConn>,
        shared: &RouterShared,
    ) {
        p.audit = false;
        match self.dial_owner(&p.key) {
            Some(t) => {
                shared.counters.replays.fetch_add(1, Ordering::Relaxed);
                self.backends[t].forward(p);
            }
            None => {
                if let Some(conn) = conns.get_mut(&p.token) {
                    conn.slots.fill(p.slot, p.idx, failover_shed());
                }
            }
        }
    }

    /// The live, connected backend that should run `key`: its ring owner
    /// among the usable backends, else (the owner refused the dial) any
    /// backend that accepts one.
    fn dial_owner(&mut self, key: &str) -> Option<usize> {
        self.ring
            .route_alive(key, &self.usable())
            .filter(|&b| self.backends[b].ensure_connected())
            .or_else(|| (0..self.backends.len()).find(|&b| self.backends[b].ensure_connected()))
    }

    /// The live, connected backend a scheduled audit of `key` goes to: the
    /// next one on the ring that is not `owner`.
    fn dial_auditor(&mut self, key: &str, owner: usize) -> Option<usize> {
        self.ring
            .next_distinct(key, owner, &self.usable())
            .filter(|&b| self.backends[b].ensure_connected())
    }

    /// Which backends may be dialed now.
    fn usable(&self) -> Vec<bool> {
        let now = Instant::now();
        self.backends.iter().map(|b| b.usable(now)).collect()
    }

    /// Route one job body: forward it to its ring owner, or to the next
    /// distinct live backend when the audit schedule picks this request,
    /// or answer immediately.
    fn route_job(
        &mut self,
        body: &Json,
        token: u64,
        slot: u64,
        idx: usize,
        shared: &RouterShared,
    ) -> Option<Json> {
        let spec = match JobSpec::from_json(body) {
            Ok(s) => s,
            Err(e) => return Some(error_json(&format!("bad job spec: {e}"))),
        };
        let key = spec.identity_key();
        let Some(owner) = self.dial_owner(&key) else {
            return Some(failover_shed());
        };
        shared.counters.routed.fetch_add(1, Ordering::Relaxed);
        // The request's number for its identity, counted as a server
        // counts it: the audit schedule is a function of the stream alone.
        let audit_due = self
            .ledger
            .count(key.clone())
            .is_some_and(|k| k >= 2 && audit_scheduled(&key, k));
        let auditor = audit_due.then(|| self.dial_auditor(&key, owner)).flatten();
        let mut line = body.to_string_compact();
        line.push('\n');
        self.backends[auditor.unwrap_or(owner)].forward(PendingForward {
            token,
            slot,
            idx,
            key,
            line,
            attempts: 0,
            audit: auditor.is_some(),
        });
        None
    }

    /// Handle one response line from backend `b`.
    fn backend_response(
        &mut self,
        b: usize,
        line: &str,
        conns: &mut HashMap<u64, ClientConn>,
        shared: &RouterShared,
    ) {
        let Some(p) = self.backends[b].pending.pop_front() else {
            // Unsolicited line: protocol confusion; drop the link.
            self.fail_backend(b, conns, shared);
            return;
        };
        let mut resp = match Json::parse(line) {
            Ok(v) => v,
            Err(_) => {
                // A mangled frame voids in-order matching for everything
                // behind it: fail the link, shed the rest.
                self.backends[b].pending.push_front(p);
                self.fail_backend(b, conns, shared);
                return;
            }
        };
        self.backends[b].completed += 1;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            if let Some(receipt) = resp.get("receipt") {
                let sighting = self
                    .ledger
                    .record(p.key.clone(), &receipt.to_string_compact());
                // An audit answered before any receipt was on record is
                // the reference the owner's answer is compared with.
                if sighting != Sighting::First {
                    shared.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    if p.audit {
                        shared.counters.cross_checks.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if sighting == Sighting::Mismatch {
                    shared
                        .counters
                        .receipt_mismatches
                        .fetch_add(1, Ordering::Relaxed);
                    eprintln!("[group-router] cross-process ledger mismatch for {}", p.key);
                }
            }
        } else if resp.get("error_kind").and_then(Json::as_str) != Some("shed") {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
        }
        // Stamp which process served it — detload uses this to prove the
        // sweep actually spanned the group.
        if let Json::Obj(fields) = &mut resp {
            fields.push(("backend".to_string(), (b as u64).to_json()));
        }
        if let Some(conn) = conns.get_mut(&p.token) {
            conn.slots.fill(p.slot, p.idx, resp);
        }
    }

    fn stats_json(&self, shared: &RouterShared, open: usize) -> Json {
        let backends: Vec<Json> = self
            .backends
            .iter()
            .map(|b| {
                Json::obj([
                    ("addr", b.addr.to_json()),
                    ("up", b.io.is_connected().to_json()),
                    ("forwarded", b.forwarded.to_json()),
                    ("completed", b.completed.to_json()),
                    ("errors", b.errors.to_json()),
                    ("pending", b.pending.len().to_json()),
                ])
            })
            .collect();
        let c = &shared.counters;
        Json::obj([
            ("ok", true.to_json()),
            ("router", true.to_json()),
            (
                "uptime_ms",
                (shared.started.elapsed().as_millis() as u64).to_json(),
            ),
            ("open_conns", (open as u64).to_json()),
            (
                "peak_conns",
                shared.peak_conns.load(Ordering::Relaxed).to_json(),
            ),
            (
                "counters",
                Json::obj([
                    ("routed", c.routed.load(Ordering::Relaxed).to_json()),
                    ("completed", c.completed.load(Ordering::Relaxed).to_json()),
                    ("failed", c.failed.load(Ordering::Relaxed).to_json()),
                    ("failovers", c.failovers.load(Ordering::Relaxed).to_json()),
                    ("replays", c.replays.load(Ordering::Relaxed).to_json()),
                    ("dedup_hits", c.dedup_hits.load(Ordering::Relaxed).to_json()),
                    (
                        "receipt_mismatches",
                        c.receipt_mismatches.load(Ordering::Relaxed).to_json(),
                    ),
                    (
                        "cross_checks",
                        c.cross_checks.load(Ordering::Relaxed).to_json(),
                    ),
                ]),
            ),
            (
                "ring",
                Json::obj([
                    ("backends", self.ring.backends().to_json()),
                    ("vnodes", shared.config.vnodes.to_json()),
                ]),
            ),
            ("backends", Json::Arr(backends)),
        ])
    }
}

/// Forward a control op (chaos/shutdown) to every backend over a fresh
/// blocking connection. Rare control-plane work, so blocking the loop
/// briefly is acceptable.
fn broadcast_control(state: &RouterState, req: &Json, timeout: Duration) -> Vec<Json> {
    state
        .backends
        .iter()
        .map(
            |b| match crate::protocol::Client::connect_with_timeout(&b.addr, timeout) {
                Ok(mut c) => c
                    .request(req)
                    .unwrap_or_else(|e| error_json(&format!("backend {}: {e}", b.addr))),
                Err(e) => error_json(&format!("backend {}: {e}", b.addr)),
            },
        )
        .collect()
}

fn process_client_frame(
    conn: &mut ClientConn,
    token: u64,
    line: &str,
    state: &mut RouterState,
    shared: &RouterShared,
    open_conns: usize,
    drain_requested: &mut bool,
) {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(reply) => return conn.slots.push_ready(SlotKind::Control, reply),
    };
    let all_ok = |results: &[Json]| {
        results
            .iter()
            .all(|r| r.get("ok").and_then(Json::as_bool) == Some(true))
    };
    let (kind, bodies) = match WireRequest::classify(&req) {
        WireRequest::Run(body) => (SlotKind::Run, std::slice::from_ref(body)),
        WireRequest::Batch(bodies) => (SlotKind::Batch, bodies),
        WireRequest::BadBatch(why) => {
            return conn.slots.push_ready(SlotKind::Batch, error_json(why))
        }
        WireRequest::Hello { max_version } => {
            let mut reply = WireRequest::hello_reply(max_version);
            if let Json::Obj(fields) = &mut reply {
                fields.push(("router".to_string(), true.to_json()));
            }
            return conn.slots.push_ready(SlotKind::Control, reply);
        }
        WireRequest::Other(op) => {
            let reply = match op {
                Some("ping") => Json::obj([("ok", true.to_json())]),
                Some("stats") => state.stats_json(shared, open_conns),
                Some("chaos") => {
                    let results = broadcast_control(state, &req, Duration::from_secs(10));
                    Json::obj([
                        ("ok", all_ok(&results).to_json()),
                        ("backends", Json::Arr(results)),
                    ])
                }
                Some("kill") => {
                    error_json("kill is per-process: send it to a backend address directly")
                }
                Some("shutdown") => {
                    // Drain the whole group: every backend drains its
                    // in-flight work (blocking, each answers after its own
                    // drain), then the router answers and exits.
                    let results = broadcast_control(
                        state,
                        &Json::obj([("op", "shutdown".to_json())]),
                        Duration::from_secs(120),
                    );
                    *drain_requested = true;
                    Json::obj([
                        ("ok", all_ok(&results).to_json()),
                        ("drained", true.to_json()),
                        ("backends", Json::Arr(results)),
                    ])
                }
                op => WireRequest::unknown_op_reply(op),
            };
            return conn.slots.push_ready(SlotKind::Control, reply);
        }
    };
    let slot = conn.slots.alloc(kind, bodies.len());
    for (idx, body) in bodies.iter().enumerate() {
        if let Some(now) = state.route_job(body, token, slot, idx, shared) {
            conn.slots.fill(slot, idx, now);
        }
    }
}

fn router_loop(listener: TcpListener, wake_rx: evloop::WakeRx, shared: &Arc<RouterShared>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut state = RouterState {
        ring: HashRing::new(&shared.config.backends, shared.config.vnodes),
        backends: shared
            .config
            .backends
            .iter()
            .map(|a| Backend::new(a.clone()))
            .collect(),
        ledger: ReceiptLedger::default(),
    };
    let mut conns: HashMap<u64, ClientConn> = HashMap::new();
    let mut next_token = 0u64;
    let mut poller = Poller::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut exit_deadline: Option<Instant> = None;

    loop {
        let exiting = shared.shutdown.load(Ordering::SeqCst);
        if exiting && exit_deadline.is_none() {
            exit_deadline = Some(Instant::now() + Duration::from_secs(5));
        }

        // Render + flush clients; reap the dead.
        let now = Instant::now();
        conns.retain(|_, conn| {
            while let Some((_, line)) = conn.slots.pop_ready() {
                conn.io.queue(line);
            }
            conn.io.flush(now);
            !(conn.io.is_dead() || conn.io.peer_closed() && conn.idle())
        });
        shared
            .open_conns
            .store(conns.len() as u64, Ordering::Relaxed);

        // Flush backends; a write error fails the link and replays pendings.
        for b in 0..state.backends.len() {
            state.backends[b].io.flush(now);
            if state.backends[b].io.is_dead() {
                state.fail_backend(b, &mut conns, shared);
            }
        }

        if exiting {
            let overdue = exit_deadline.map(|d| now >= d).unwrap_or(false);
            if overdue || conns.values().all(ClientConn::idle) {
                break;
            }
        }

        // Interest set: wake, listener, clients, live backend links.
        poller.clear();
        poller.push(wake_rx.fd(), Interest::READABLE);
        let accept_idx = (!exiting).then(|| poller.push(raw_fd(&listener), Interest::READABLE));
        let mut client_order: Vec<(usize, u64)> = Vec::with_capacity(conns.len());
        for (&token, conn) in conns.iter() {
            if let (Some(interest), _) = conn.io.interest(now) {
                client_order.push((poller.push(conn.io.fd(), interest), token));
            }
        }
        let mut backend_order: Vec<(usize, usize)> = Vec::with_capacity(state.backends.len());
        for (b, backend) in state.backends.iter().enumerate() {
            if let (Some(interest), _) = backend.io.interest(now) {
                backend_order.push((poller.push(backend.io.fd(), interest), b));
            }
        }

        if poller.wait(Some(Duration::from_millis(250))).is_err() {
            std::thread::sleep(Duration::from_millis(5));
        }
        wake_rx.drain();

        if accept_idx.is_some_and(|i| poller.ready(i).readable) {
            accept_backlog(&listener, |io| {
                let slots = SlotTable::default();
                conns.insert(next_token, ClientConn { io, slots });
                next_token += 1;
            });
            let open = conns.len() as u64;
            shared.open_conns.store(open, Ordering::Relaxed);
            shared.peak_conns.fetch_max(open, Ordering::Relaxed);
        }

        // Backend responses first: frees pending slots before new work.
        for &(idx, b) in &backend_order {
            let ready = poller.ready(idx);
            if !ready.any() {
                continue;
            }
            state.backends[b].io.read_ready(ready, &mut scratch);
            while let Some(line) = state.backends[b].io.next_frame() {
                state.backend_response(b, &line, &mut conns, shared);
            }
            // A backend that hangs up is a casualty even when it was
            // polite about it.
            let io = &state.backends[b].io;
            if io.is_dead() || io.peer_closed() {
                state.fail_backend(b, &mut conns, shared);
            }
        }

        // Client requests.
        if !exiting {
            let open = conns.len();
            let mut drain_requested = false;
            for &(idx, token) in &client_order {
                let ready = poller.ready(idx);
                if !ready.any() {
                    continue;
                }
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                conn.io.read_ready(ready, &mut scratch);
                while let Some(line) = conn.io.next_frame() {
                    process_client_frame(
                        conn,
                        token,
                        &line,
                        &mut state,
                        shared,
                        open,
                        &mut drain_requested,
                    );
                }
            }
            if drain_requested {
                shared.shutdown.store(true, Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:90{i:02}")).collect()
    }

    #[test]
    fn ring_routes_deterministically_and_spreads() {
        let ring = HashRing::new(&labels(3), 32);
        let mut hits = [0usize; 3];
        for i in 0..600 {
            let key = format!("ocean/t2/s{}/seed{}/all/kendo", i, i);
            let a = ring.route(&key);
            assert_eq!(a, ring.route(&key), "routing must be stable");
            hits[a] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                h > 60,
                "backend {i} got only {h}/600 keys — ring too skewed"
            );
        }
    }

    #[test]
    fn ring_next_distinct_names_a_different_backend() {
        let ring = HashRing::new(&labels(3), 16);
        for i in 0..100 {
            let key = format!("k{i}");
            let p = ring.route(&key);
            let s = ring.next_distinct(&key, p, &[true; 3]).expect("3 backends");
            assert_ne!(p, s);
            // A dead successor is walked past, and the last live one is
            // never `p` itself.
            let mut alive = [true; 3];
            alive[s] = false;
            let t = ring
                .next_distinct(&key, p, &alive)
                .expect("one other alive");
            assert!(t != p && t != s);
            alive[t] = false;
            assert_eq!(ring.next_distinct(&key, p, &alive), None);
        }
        let solo = HashRing::new(&labels(1), 16);
        assert_eq!(solo.next_distinct("k", 0, &[true]), None);
    }

    #[test]
    fn ring_failover_walks_past_dead_backends() {
        let ring = HashRing::new(&labels(3), 32);
        for i in 0..100 {
            let key = format!("k{i}");
            let owner = ring.route(&key);
            let mut alive = [true; 3];
            alive[owner] = false;
            let fallback = ring.route_alive(&key, &alive).expect("two still alive");
            assert_ne!(fallback, owner);
            // Keys whose owner is alive stay put.
            assert_eq!(ring.route_alive(&key, &[true, true, true]), Some(owner));
        }
        assert_eq!(ring.route_alive("k", &[false, false, false]), None);
    }

    #[test]
    fn ring_removal_only_remaps_owned_keys() {
        // Consistent hashing's defining property: removing backend 2 must
        // not move any key owned by 0 or 1.
        let three = HashRing::new(&labels(3), 64);
        let two = HashRing::new(&labels(2), 64);
        for i in 0..500 {
            let key = format!("job/{i}");
            let before = three.route(&key);
            if before < 2 {
                assert_eq!(two.route(&key), before, "key {key} moved needlessly");
            }
        }
    }
}
