//! Protocol-v2 coverage: property tests for frame encode/decode under
//! adversarial byte segmentation, and an end-to-end pipelined connection
//! driven through an active wire-fault plan.
//!
//! The property tests use a seeded xorshift generator — every run checks
//! the same cases, so a failure here reproduces exactly.

use detlock_passes::pipeline::OptLevel;
use detlock_serve::netfault::NetFaultPlan;
use detlock_serve::protocol::{batch_request, parse_batch, Client, FrameBuffer, JobSpec};
use detlock_serve::server::{DetServed, ServeConfig};
use detlock_shim::json::{Json, ToJson};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Deterministic xorshift64* — the workspace's stand-in for a PRNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// A random but wire-representable job spec (scales drawn from exactly
/// representable values so the JSON float roundtrip is lossless).
fn random_spec(rng: &mut Rng) -> JobSpec {
    let workloads = ["ocean", "raytrace", "water-nsq", "radiosity", "volrend"];
    let scales = [0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0];
    let opts = [
        OptLevel::None,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::All,
    ];
    let scheds = ["kendo", "chunk", "chunk:64", "dc-batch"];
    JobSpec {
        tenant: format!("t{}", rng.below(100)),
        workload: workloads[rng.below(workloads.len() as u64) as usize].to_string(),
        threads: 1 + rng.below(8) as usize,
        scale: *rng.pick(&scales),
        // The line protocol carries integers as i64, so seeds above
        // i64::MAX are not wire-representable; stay in range.
        seed: rng.next() >> 1,
        opt: *rng.pick(&opts),
        sanitize: rng.below(2) == 1,
        scheduler: detlock_vm::Sched::parse(scheds[rng.below(scheds.len() as u64) as usize])
            .unwrap(),
    }
}

#[test]
fn batch_frames_roundtrip_over_random_specs() {
    let mut rng = Rng(0x5eed_0001);
    for case in 0..200 {
        let n = 1 + rng.below(12) as usize;
        let specs: Vec<JobSpec> = (0..n).map(|_| random_spec(&mut rng)).collect();
        let frame = batch_request(&specs);
        let reparsed = Json::parse(&frame.to_string_compact()).expect("frame parses");
        let decoded = parse_batch(&reparsed).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(decoded, specs, "case {case}: roundtrip changed the specs");
        // Identity keys survive the wire too — routing depends on this.
        for (d, s) in decoded.iter().zip(&specs) {
            assert_eq!(d.identity_key(), s.identity_key());
        }
    }
}

#[test]
fn frame_buffer_reassembles_under_random_segmentation() {
    // Many frames of varied content, delivered in random-size chunks
    // (modelling arbitrary TCP segmentation and partial writes), must
    // come back as exactly the original line sequence.
    let mut rng = Rng(0x5eed_0002);
    for case in 0..100 {
        let n = 1 + rng.below(20) as usize;
        let mut wire = Vec::new();
        let mut want = Vec::new();
        for _ in 0..n {
            let line = match rng.below(3) {
                0 => batch_request(&[random_spec(&mut rng)]).to_string_compact(),
                1 => random_spec(&mut rng).to_json().to_string_compact(),
                _ => format!(
                    "{{\"op\":\"ping\",\"pad\":\"{}\"}}",
                    "x".repeat(rng.below(300) as usize)
                ),
            };
            wire.extend_from_slice(line.as_bytes());
            // Mix bare-\n and \r\n terminators; both must frame.
            if rng.below(4) == 0 {
                wire.push(b'\r');
            }
            wire.push(b'\n');
            want.push(line);
        }
        let mut buf = FrameBuffer::new();
        let mut got = Vec::new();
        let mut off = 0;
        while off < wire.len() {
            let chunk = 1 + rng.below(17) as usize;
            let end = (off + chunk).min(wire.len());
            buf.push(&wire[off..end]);
            off = end;
            while let Some(frame) = buf.next_frame() {
                got.push(frame);
            }
        }
        assert_eq!(got, want, "case {case}: segmentation changed the frames");
        assert_eq!(buf.pending(), 0, "case {case}: trailing bytes left behind");
    }
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        queue_capacity: 64,
        max_retries: 3,
        job_cycle_budget: u64::MAX,
        watchdog: Some(Duration::from_secs(60)),
        compile_threads: 2,
        backend: detlock_vm::Backend::Threaded,
        ..ServeConfig::default()
    }
}

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        tenant: "pipeline-e2e".to_string(),
        workload: "ocean".to_string(),
        threads: 2,
        scale: 0.02,
        seed,
        opt: OptLevel::All,
        sanitize: false,
        scheduler: detlock_vm::Sched::Kendo,
    }
}

/// Write every frame up front (true pipelining: no response awaited
/// between sends), then read responses in order. On any wire casualty —
/// drop, truncation, unparsable line, stall — reconnect and reissue the
/// unacknowledged tail. Determinism makes the reissue safe; the receipts
/// prove it.
fn drive_pipelined(addr: &str, frames: &[Json]) -> Vec<Json> {
    let mut answered: Vec<Option<Json>> = vec![None; frames.len()];
    for _attempt in 0..40 {
        let first_open = match answered.iter().position(Option::is_none) {
            Some(i) => i,
            None => break,
        };
        let Ok(mut stream) = TcpStream::connect(addr) else {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut wire = String::new();
        for f in &frames[first_open..] {
            wire.push_str(&f.to_string_compact());
            wire.push('\n');
        }
        if stream.write_all(wire.as_bytes()).is_err() {
            continue;
        }
        let mut reader = BufReader::new(stream);
        let mut cursor = first_open;
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // dropped/stalled: reissue tail
                Ok(_) => {}
            }
            let Ok(resp) = Json::parse(line.trim_end()) else {
                break; // truncated frame: reissue tail
            };
            answered[cursor] = Some(resp);
            cursor += 1;
            if cursor == frames.len() {
                break;
            }
        }
        if answered.iter().all(Option::is_some) {
            break;
        }
    }
    answered
        .into_iter()
        .map(|r| r.expect("pipelined request never definitively answered"))
        .collect()
}

#[test]
fn pipelined_connection_survives_wire_faults_with_identical_receipts() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    let jobs: Vec<JobSpec> = (0..6).map(|i| spec(7000 + i)).collect();

    // Clean-wire reference receipts.
    let mut client = Client::connect(&addr).unwrap();
    let reference: Vec<String> = jobs
        .iter()
        .map(|j| {
            let resp = client.run(j).expect("reference run");
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            resp.get("receipt").expect("receipt").to_string_compact()
        })
        .collect();

    // Arm seeded wire faults, then drive the same jobs down pipelined
    // connections: a mix of single `run` lines and v2 `batch` frames,
    // all written before any response is read.
    let armed = client
        .chaos(Some(&NetFaultPlan::new(0xFA01)), None)
        .unwrap();
    assert_eq!(armed.get("ok").and_then(Json::as_bool), Some(true));

    let frames: Vec<Json> = vec![
        jobs[0].to_json(),
        batch_request(&jobs[1..4]),
        jobs[4].to_json(),
        batch_request(&jobs[5..6]),
    ];
    let responses = drive_pipelined(&addr, &frames);
    let disarmed = client.chaos(None, None).unwrap();
    assert_eq!(disarmed.get("ok").and_then(Json::as_bool), Some(true));

    // Flatten back to per-job receipts in submission order.
    let mut got: Vec<String> = Vec::new();
    for resp in &responses {
        match resp.get("results").and_then(Json::as_arr) {
            Some(results) => {
                for r in results {
                    assert_eq!(
                        r.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "batched job failed under faults: {}",
                        r.to_string_compact()
                    );
                    got.push(r.get("receipt").expect("receipt").to_string_compact());
                }
            }
            None => {
                assert_eq!(
                    resp.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "job failed under faults: {}",
                    resp.to_string_compact()
                );
                got.push(resp.get("receipt").expect("receipt").to_string_compact());
            }
        }
    }
    assert_eq!(
        got, reference,
        "wire faults must not change any receipt byte"
    );

    // The plan must actually have fired, or this test exercised nothing.
    let stats = client.stats().unwrap();
    let injected = stats
        .get("counters")
        .and_then(|c| c.get("net_faults_injected"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(injected > 0, "no wire faults were injected");

    server.shutdown_and_join();
}
