//! `serve_closed`: the product's end-to-end path — frame parse → admission
//! → queue → shard cache → execute with checkpoints → receipt → render.
//!
//! An in-process `DetServed` (1 shard, threaded backend, Kendo, default
//! checkpoint interval, queue 64) on loopback; 2 closed-loop `Client`
//! connections, one thread each, walk the seeded job list of `joblist.rs`.
//! Closed loop because every caller of this protocol waits for its receipt.
//! The whole process is confined to one CPU for as long as the workload
//! lives: the shard never leaves the core the clients' host-speed probes
//! measure (each client runs one after every reply), and a neighbour on the
//! container's other core cannot reach the numbers. Only the shard has real
//! work to do, so nothing is starved.
//! With one shard and two clients the shard is saturated, so queue wait is
//! visible: p50 sits on the small-job plateau, p90 on the medium one, and
//! the hot key gives a duplicate-collapse or priority PR something to show.
//! The alt phase sends the same mix as protocol-v2 `batch` frames of 8 on
//! one connection after `hello`. One op = one job.
//!
//! Correctness: every receipt must be byte-equal to `Receipt::from_metrics`
//! of a direct interpreter-backend run of the same job, computed in set-up
//! without going near the server or the threaded backend.

use crate::clock::Pinned;
use crate::harness::{BlockOut, Phase, Workload};
use crate::joblist::{self, Class};
use crate::programs::{self, Engine, Program, SimCounts};
use crate::trace::Tracer;
use crate::workloads::block_seed;
use detlock_passes::cost::CostModel;
use detlock_serve::{Client, DetServed, JobSpec, Receipt, ServeConfig};
use detlock_shim::json::Json;
use detlock_vm::machine::ExecMode;
use detlock_vm::{Backend, Sched};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Jobs per block of either phase (a multiple of 10 and of [`BATCH`]).
pub const OPS_PER_BLOCK: usize = 200;
/// Jobs per v2 `batch` frame in the alt phase.
pub const BATCH: usize = 8;
/// Closed-loop client connections of the primary phase.
pub const CLIENTS: usize = 2;

/// The engine reference receipts come from: the interpreter, which the
/// server under test (threaded backend) never runs.
const REFERENCE: Engine = Engine {
    backend: Backend::Interp,
    sched: Sched::Kendo,
};

/// The server configuration under test.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        queue_capacity: 64,
        compile_threads: 1,
        backend: Backend::Threaded,
        scheduler: Sched::Kendo,
        ..ServeConfig::default()
    }
}

/// The mix's distinct programs, keyed by workload name. Jobs of one
/// workload differ only in jitter seed, so they share a compiled program.
pub fn mix_programs(cost: &CostModel) -> BTreeMap<String, Program> {
    let mut out = BTreeMap::new();
    for job in joblist::identities() {
        out.entry(job.workload.clone()).or_insert_with(|| {
            let w = detlock_workloads::by_name(&job.workload, job.threads, job.scale)
                .expect("known workload");
            Program::compile(w, cost)
        });
    }
    out
}

/// The span name of a request of `job`'s class.
fn request_span(job: &JobSpec) -> &'static str {
    match joblist::class_of(job) {
        Class::Small => "serve.request.small",
        Class::Medium => "serve.request.medium",
    }
}

fn field_us(resp: &Json, key: &str) -> u64 {
    resp.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Whether `resp` is a success carrying exactly the reference receipt.
fn receipt_ok(resp: &Json, want: &str) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
        && resp
            .get("receipt")
            .is_some_and(|r| r.to_string_compact() == want)
}

/// The `serve_closed` workload.
pub struct Serve {
    cost: CostModel,
    programs: BTreeMap<String, Program>,
    /// Identity key → canonical receipt of the direct interpreter run.
    reference: BTreeMap<String, String>,
    server: DetServed,
    clients: Vec<Client>,
    batch_client: Client,
    ops_per_block: usize,
    seed: u64,
    /// Dropped last: the server's threads inherited it at `start`.
    _pinned: Pinned,
}

impl Serve {
    /// Address of the server under test.
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// `(failed, shed)` as the server counted them.
    pub fn server_counters(&mut self) -> (u64, u64) {
        let stats = self.stats_round_trip();
        let counter = |k: &str| {
            stats
                .get("counters")
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .expect("counter in /stats")
        };
        (
            counter("failed"),
            counter("shed_full") + counter("shed_draining"),
        )
    }

    /// Primary phase: every client connection, one thread each, takes the
    /// next job off a shared cursor as soon as its previous one is answered.
    fn closed_loop(&mut self, jobs: &[JobSpec], tracer: &mut Tracer, out: &mut BlockOut) {
        let reference = &self.reference;
        let cursor = AtomicUsize::new(0);
        let epoch = tracer.epoch();
        let lanes: Vec<_> = self
            .clients
            .iter_mut()
            .map(|c| (c, tracer.fork()))
            .collect();
        let done: Vec<(BlockOut, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .into_iter()
                .map(|(client, mut tr)| {
                    let cursor = &cursor;
                    s.spawn(move || {
                        let mut out = BlockOut::new(epoch);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { break };
                            out.op(&mut tr, i as u64, |tr| {
                                let resp = tr.span(request_span(job), |tr| {
                                    let resp = client.run(job);
                                    if let Ok(r) = &resp {
                                        tr.attribute("serve.queue", field_us(r, "queue_us") * 1000);
                                        tr.attribute("serve.exec", field_us(r, "exec_us") * 1000);
                                    }
                                    resp
                                });
                                resp.is_ok_and(|r| receipt_ok(&r, &reference[&job.identity_key()]))
                            });
                        }
                        (out, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for (lane_out, lane_tr) in done {
            out.absorb(lane_out);
            tracer.absorb(lane_tr);
        }
    }

    /// Alt phase: the jobs as v2 `batch` frames on one connection. One op is
    /// still one job; each job of a frame took the frame's round trip. One
    /// host-speed probe per frame.
    fn batch_frames(&mut self, jobs: &[JobSpec], tracer: &mut Tracer, out: &mut BlockOut) {
        out.probe();
        for frame in jobs.chunks(BATCH) {
            let start_ns = out.clock.now_ns();
            let results = tracer.span("serve.batch", |_| self.batch_client.run_batch(frame));
            let end_ns = out.clock.now_ns();
            for (i, job) in frame.iter().enumerate() {
                let ok = results
                    .as_ref()
                    .is_ok_and(|rs| receipt_ok(&rs[i], &self.reference[&job.identity_key()]));
                out.record(start_ns, end_ns, ok);
            }
            out.probe();
        }
    }

    /// One `stats` round trip on a warm connection, for the wire probes.
    pub fn stats_round_trip(&mut self) -> Json {
        self.clients[0].stats().expect("stats round trip")
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve_closed";

    fn set_up(seed: u64) -> Serve {
        let pinned = Pinned::to_one_cpu();
        let cost = CostModel::default();
        let programs = mix_programs(&cost);
        let reference = joblist::identities()
            .into_iter()
            .map(|job| {
                let (metrics, _) = programs::run(
                    &programs[&job.workload],
                    &cost,
                    ExecMode::Det,
                    REFERENCE,
                    job.seed,
                );
                (
                    job.identity_key(),
                    Receipt::from_metrics(&job, &metrics).canonical(),
                )
            })
            .collect();
        let server = DetServed::start(serve_config()).expect("start detserved on loopback");
        let addr = server.local_addr().to_string();
        let connect = || Client::connect(&addr).expect("connect to detserved");
        let clients = (0..CLIENTS).map(|_| connect()).collect();
        let mut batch_client = connect();
        assert_eq!(
            batch_client.hello().expect("hello"),
            2,
            "server speaks protocol v2"
        );
        Serve {
            cost,
            programs,
            reference,
            server,
            clients,
            batch_client,
            ops_per_block: OPS_PER_BLOCK,
            seed,
            _pinned: pinned,
        }
    }

    fn ops_per_block(&self, _phase: Phase) -> usize {
        self.ops_per_block
    }

    fn run_block(&mut self, phase: Phase, block: usize, tracer: &mut Tracer, out: &mut BlockOut) {
        let jobs = joblist::block(self.ops_per_block, block_seed(self.seed, phase, block));
        match phase {
            Phase::Primary => self.closed_loop(&jobs, tracer, out),
            Phase::Alt => self.batch_frames(&jobs, tracer, out),
        }
    }

    fn sim_counts(&self, with_clocks_only: bool) -> SimCounts {
        // Every block has the same multiset of jobs, so any block's counts
        // weight the identities.
        let mut weight: BTreeMap<String, (JobSpec, u64)> = BTreeMap::new();
        for job in joblist::block(self.ops_per_block, 0) {
            weight.entry(job.identity_key()).or_insert((job, 0)).1 += 1;
        }
        let mut sim = SimCounts::default();
        for (job, count) in weight.into_values() {
            sim.add(
                &self.programs[&job.workload],
                &self.cost,
                job.seed,
                count,
                with_clocks_only,
            );
        }
        sim
    }

    fn layer_counts(&mut self) -> Vec<(&'static str, f64)> {
        let (failed, shed) = self.server_counters();
        let jobs = joblist::block(OPS_PER_BLOCK, block_seed(self.seed, Phase::Primary, 1));
        vec![
            ("serve.failed", failed as f64),
            ("serve.shed", shed as f64),
            ("serve.dup_share", joblist::dup_share(&jobs)),
        ]
    }

    fn tear_down(self) {
        drop(self.clients);
        drop(self.batch_client);
        self.server.shutdown_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn receipts_match_the_direct_run_until_a_reference_is_tampered_with() {
        let mut w = Serve::set_up(5);
        w.ops_per_block = 40;
        let mut tracer = Tracer::new(Instant::now(), true);
        for phase in [Phase::Primary, Phase::Alt] {
            let mut out = BlockOut::new(Instant::now());
            w.run_block(phase, 1, &mut tracer, &mut out);
            assert_eq!(out.ops.len(), 40);
            assert!(out.clock.len() >= 5, "a probe per reply or frame");
            assert_eq!(out.failed, 0, "{phase:?}");
        }
        // Both client threads' spans arrived, children attached.
        let spans = tracer.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "op").count(), 40);
        assert_eq!(spans.iter().filter(|s| s.name == "serve.exec").count(), 40);
        assert_eq!(spans.iter().filter(|s| s.name == "serve.batch").count(), 5);

        // Tamper with the hot identity's receipt: its 20 jobs now fail.
        let hot = joblist::identities()[0].identity_key();
        w.reference.get_mut(&hot).unwrap().push(' ');
        let mut out = BlockOut::new(Instant::now());
        w.run_block(Phase::Primary, 1, &mut tracer, &mut out);
        assert_eq!(out.failed, 20);
        let (failed, shed) = w.server_counters();
        assert_eq!((failed, shed), (0, 0));
        w.tear_down();
    }
}
