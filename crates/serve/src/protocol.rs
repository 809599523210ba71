//! The wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one response line per request, in order. The
//! protocol is hand-rolled on `std::net` + `detlock_shim::json` so the
//! workspace stays zero-dependency.
//!
//! Requests (`op` selects the verb):
//!
//! | op         | fields                                              | response |
//! |------------|-----------------------------------------------------|----------|
//! | `run`      | `tenant workload threads scale seed opt`            | `ok, source, shard, attempts, receipt{…}, queue_us, exec_us` |
//! | `stats`    | —                                                   | `ok, stats{…}` |
//! | `kill`     | `shard`                                             | `ok` (chaos/testing: evict a shard) |
//! | `chaos`    | `net{seed,…}?, crash{seed,…}?`                      | `ok, net, crash` (set/clear fault plans; absent = clear) |
//! | `shutdown` | —                                                   | `ok, drained` after in-flight jobs finish |
//! | `ping`     | —                                                   | `ok` |
//!
//! `source` says where a receipt came from: `exec` (this request's own
//! execution), `attached` (an execution of the same job identity that was
//! already in flight; `exec_us` is 0 and `queue_us` is this request's own
//! wait) or `memo` (the server's receipt ledger; nothing ran, `queue_us`
//! and `exec_us` are 0 and `shard` is `null`). The receipt is byte-identical
//! whichever it is.
//!
//! Failures answer `{"ok":false,"error":…}`. Load-shedding refusals are
//! **typed**: they add `"error_kind":"shed"` plus `"reason":"queue_full"`
//! (retryable; carries `retry_after_ms`) or `"reason":"draining"` (not
//! retryable — the server is going away).
//!
//! ## Protocol v2: negotiation, batching, pipelining
//!
//! v2 keeps the v1 framing (one JSON object per `\n`-terminated line) and
//! adds two ops:
//!
//! | op      | fields                         | response |
//! |---------|--------------------------------|----------|
//! | `hello` | `max_version`                  | `ok, version, batch` — the server picks `min(client max, 2)` |
//! | `batch` | `jobs:[run-body, …]`           | `ok, results:[per-job v1 response, …]` in submission order |
//!
//! A v1 client never sends `hello` and never sees v2 frames; a v2 server
//! answers every v1 op exactly as before, so negotiation is optional and
//! backward compatibility is structural rather than versioned-endpoint.
//! Connections are **pipelined**: a client may send many frames without
//! waiting; the server answers frames strictly in arrival order per
//! connection (a batch frame produces exactly one response line, which is
//! one data-plane frame for fault-injection purposes).

use detlock_passes::pipeline::OptLevel;
use detlock_shim::json::{Json, ToJson};
use detlock_vm::Sched;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Highest wire-protocol version this build speaks.
pub const WIRE_VERSION: u64 = 2;

/// Incremental newline framing over a nonblocking byte stream.
///
/// Bytes arrive in arbitrary splits (partial writes, coalesced frames);
/// [`FrameBuffer::push`] accumulates them and [`FrameBuffer::next_frame`]
/// yields each complete line exactly once, without its terminator. The
/// scan position is remembered so repeated pushes stay O(bytes), not
/// O(buffer²).
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    scanned: usize,
}

impl FrameBuffer {
    /// An empty frame buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete line (without `\n`; a trailing `\r` is also
    /// stripped), or `None` if no full frame has arrived yet.
    pub fn next_frame(&mut self) -> Option<String> {
        let nl = self.buf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| p + self.scanned);
        match nl {
            None => {
                self.scanned = self.buf.len();
                None
            }
            Some(pos) => {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the '\n'
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                Some(String::from_utf8_lossy(&line).into_owned())
            }
        }
    }

    /// Bytes buffered but not yet framed.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Build a v2 `hello` negotiation request.
pub fn hello_request(max_version: u64) -> Json {
    Json::obj([
        ("op", "hello".to_json()),
        ("max_version", max_version.to_json()),
    ])
}

/// Build a v2 `batch` frame carrying many jobs (one response line comes
/// back with a `results` array in the same order).
pub fn batch_request(jobs: &[JobSpec]) -> Json {
    Json::obj([
        ("op", "batch".to_json()),
        (
            "jobs",
            Json::Arr(jobs.iter().map(|j| j.to_json()).collect()),
        ),
    ])
}

/// The job bodies of a `batch` frame, or why the frame has none.
fn batch_bodies(v: &Json) -> Result<&[Json], &'static str> {
    match v.get("jobs").and_then(Json::as_arr) {
        None => Err("batch frame missing `jobs` array"),
        Some([]) => Err("batch frame has no jobs"),
        Some(jobs) => Ok(jobs),
    }
}

/// Parse the `jobs` array out of a `batch` frame.
pub fn parse_batch(v: &Json) -> Result<Vec<JobSpec>, String> {
    batch_bodies(v)?.iter().map(JobSpec::from_json).collect()
}

/// The standard failure reply, `{"ok":false,"error":msg}`.
pub fn error_json(msg: &str) -> Json {
    Json::obj([("ok", false.to_json()), ("error", msg.to_json())])
}

/// Parse one request line; `Err` is the reply to a line that is not JSON.
pub fn parse_request(line: &str) -> Result<Json, Json> {
    Json::parse(line).map_err(|e| error_json(&format!("bad json: {e}")))
}

/// One parsed request frame, sorted into the shapes every endpoint (a
/// server, a group router) answers the same way.
pub enum WireRequest<'a> {
    /// A v1 `run` frame; the frame itself is the job body.
    Run(&'a Json),
    /// A v2 `batch` frame and its (non-empty) job bodies.
    Batch(&'a [Json]),
    /// A `batch` frame without usable `jobs`; the message is answered in
    /// a one-result batch reply.
    BadBatch(&'static str),
    /// A v2 `hello`; `max_version` defaults to 1 when absent.
    Hello {
        /// Highest version the client speaks.
        max_version: u64,
    },
    /// Any other (control-plane) op, by name; `None` when `op` is missing.
    Other(Option<&'a str>),
}

impl<'a> WireRequest<'a> {
    /// Classify a parsed request frame.
    pub fn classify(req: &'a Json) -> WireRequest<'a> {
        match req.get("op").and_then(Json::as_str) {
            Some("run") => WireRequest::Run(req),
            Some("batch") => match batch_bodies(req) {
                Ok(jobs) => WireRequest::Batch(jobs),
                Err(why) => WireRequest::BadBatch(why),
            },
            Some("hello") => WireRequest::Hello {
                max_version: req.get("max_version").and_then(Json::as_u64).unwrap_or(1),
            },
            op => WireRequest::Other(op),
        }
    }

    /// The reply to [`WireRequest::Hello`]: the negotiated version is
    /// `min(client max, WIRE_VERSION)`.
    pub fn hello_reply(max_version: u64) -> Json {
        Json::obj([
            ("ok", true.to_json()),
            ("version", max_version.min(WIRE_VERSION).to_json()),
            ("batch", true.to_json()),
        ])
    }

    /// The reply to a [`WireRequest::Other`] op the endpoint does not serve.
    pub fn unknown_op_reply(op: Option<&str>) -> Json {
        match op {
            Some(other) => error_json(&format!("unknown op `{other}`")),
            None => error_json("missing `op`"),
        }
    }
}

/// One job: "run workload W with config C, seed S".
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Requesting tenant (isolation/diagnostics label; receipts do not
    /// depend on it).
    pub tenant: String,
    /// Workload name (`ocean`, `raytrace`, `water-nsq`, `radiosity`,
    /// `volrend`).
    pub workload: String,
    /// Thread count.
    pub threads: usize,
    /// Scale factor.
    pub scale: f64,
    /// Jitter seed.
    pub seed: u64,
    /// Optimization level.
    pub opt: OptLevel,
    /// Run the happens-before sanitizer alongside the job. Diagnostics
    /// only: the receipt does not depend on it (the sanitizer never
    /// changes the schedule), so it is excluded from `identity_key`.
    pub sanitize: bool,
    /// Deterministic scheduling policy. Part of the job's identity: two
    /// submissions differing only in scheduler are *different* jobs with
    /// different (each internally deterministic) receipts. A request
    /// without one parses as [`Sched::Kendo`]; the server then substitutes
    /// its configured policy.
    pub scheduler: Sched,
}

impl JobSpec {
    /// Cache / receipt-identity key: every field an episode's outcome
    /// depends on (tenant excluded — two tenants running the same job must
    /// get the same receipt, and the server checks exactly that).
    pub fn identity_key(&self) -> String {
        format!(
            "{}/t{}/s{}/seed{}/{}/{}",
            self.workload,
            self.threads,
            self.scale.to_bits(),
            self.seed,
            self.opt.name(),
            self.scheduler.spec()
        )
    }

    /// Parse a `run` request body.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string `{k}`"))
        };
        let workload = str_field("workload")?;
        Ok(JobSpec {
            tenant: v
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or("anonymous")
                .to_string(),
            workload,
            threads: v.get("threads").and_then(Json::as_u64).unwrap_or(4) as usize,
            scale: v.get("scale").and_then(Json::as_f64).unwrap_or(0.05),
            seed: v.get("seed").and_then(Json::as_u64).unwrap_or(1),
            opt: match v.get("opt") {
                Some(o) => OptLevel::parse(o.as_str().ok_or("non-string `opt`")?)?,
                None => OptLevel::All,
            },
            sanitize: v.get("sanitize").and_then(Json::as_bool).unwrap_or(false),
            scheduler: match v.get("scheduler").and_then(Json::as_str) {
                Some(s) => Sched::parse(s)?,
                None => Sched::Kendo,
            },
        })
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("op", "run".to_json()),
            ("tenant", self.tenant.to_json()),
            ("workload", self.workload.to_json()),
            ("threads", self.threads.to_json()),
            ("scale", self.scale.to_json()),
            ("seed", self.seed.to_json()),
            ("opt", self.opt.name().to_json()),
            ("sanitize", self.sanitize.to_json()),
            ("scheduler", self.scheduler.spec().to_json()),
        ])
    }
}

/// A blocking line-protocol client (one request in flight at a time).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server, with a generous read timeout so a wedged
    /// server surfaces as an error instead of a hang.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(120))
    }

    /// Connect with an explicit per-request read timeout.
    pub fn connect_with_timeout(addr: &str, read_timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request line and read one response line.
    pub fn request(&mut self, req: &Json) -> io::Result<Json> {
        let mut line = req.to_string_compact();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(resp.trim_end()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response line: {e}"),
            )
        })
    }

    /// Submit a job and return the raw response object.
    pub fn run(&mut self, spec: &JobSpec) -> io::Result<Json> {
        self.request(&spec.to_json())
    }

    /// Fetch the server's `/stats` snapshot.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(&Json::obj([("op", "stats".to_json())]))
    }

    /// Evict a shard (chaos/testing).
    pub fn kill_shard(&mut self, shard: usize) -> io::Result<Json> {
        self.request(&Json::obj([
            ("op", "kill".to_json()),
            ("shard", shard.to_json()),
        ]))
    }

    /// Set or clear the server's fault plans (`None` clears). Control-plane
    /// op: never itself subject to wire faults.
    pub fn chaos(
        &mut self,
        net: Option<&crate::netfault::NetFaultPlan>,
        crash: Option<&crate::netfault::CrashPlan>,
    ) -> io::Result<Json> {
        let mut fields = vec![("op", "chaos".to_json())];
        if let Some(n) = net {
            fields.push(("net", n.to_json()));
        }
        if let Some(c) = crash {
            fields.push(("crash", c.to_json()));
        }
        self.request(&Json::obj(fields))
    }

    /// Gracefully drain and stop the server.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request(&Json::obj([("op", "shutdown".to_json())]))
    }

    /// Negotiate the wire version (v2): returns what the server will
    /// speak, `min(our max, server max)`. A v1 server answers with an
    /// error object, which maps to version 1 here.
    pub fn hello(&mut self) -> io::Result<u64> {
        let resp = self.request(&hello_request(WIRE_VERSION))?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Ok(1);
        }
        Ok(resp.get("version").and_then(Json::as_u64).unwrap_or(1))
    }

    /// Submit many jobs in one v2 `batch` frame; returns the per-job
    /// response objects in submission order.
    pub fn run_batch(&mut self, specs: &[JobSpec]) -> io::Result<Vec<Json>> {
        let resp = self.request(&batch_request(specs))?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            let err = resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("batch rejected");
            return Err(io::Error::new(io::ErrorKind::InvalidData, err.to_string()));
        }
        match resp.get("results").and_then(Json::as_arr) {
            Some(items) if items.len() == specs.len() => Ok(items.to_vec()),
            Some(items) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "batch answered {} results for {} jobs",
                    items.len(),
                    specs.len()
                ),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "batch response missing `results`",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips() {
        let spec = JobSpec {
            tenant: "acme".into(),
            workload: "radiosity".into(),
            threads: 4,
            scale: 0.1,
            seed: 42,
            opt: OptLevel::All,
            sanitize: true,
            scheduler: Sched::DcBatch,
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn job_spec_defaults_apply() {
        let v = Json::parse(r#"{"op":"run","workload":"ocean"}"#).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(spec.tenant, "anonymous");
        assert_eq!(spec.threads, 4);
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.opt, OptLevel::All);
        assert!(!spec.sanitize);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            r#"{"op":"run"}"#,
            r#"{"op":"run","workload":7}"#,
            r#"{"op":"run","workload":"ocean","opt":"o9"}"#,
            r#"{"op":"run","workload":"ocean","scheduler":"fifo"}"#,
        ] {
            assert!(JobSpec::from_json(&Json::parse(bad).unwrap()).is_err());
        }
    }

    #[test]
    fn identity_key_ignores_tenant_and_sanitize_only() {
        let a = JobSpec {
            tenant: "a".into(),
            workload: "ocean".into(),
            threads: 4,
            scale: 0.05,
            seed: 1,
            opt: OptLevel::All,
            sanitize: false,
            scheduler: Sched::Kendo,
        };
        let mut b = a.clone();
        b.tenant = "b".into();
        assert_eq!(a.identity_key(), b.identity_key());
        b.sanitize = true;
        assert_eq!(a.identity_key(), b.identity_key());
        b.seed = 2;
        assert_ne!(a.identity_key(), b.identity_key());
        // Scheduler IS identity: same job under another policy is a
        // different job with a different (still deterministic) receipt.
        b.seed = 1;
        b.scheduler = Sched::DcBatch;
        assert_ne!(a.identity_key(), b.identity_key());
    }

    #[test]
    fn frame_buffer_handles_arbitrary_splits() {
        let mut fb = FrameBuffer::new();
        fb.push(b"{\"op\":");
        assert_eq!(fb.next_frame(), None);
        fb.push(b"\"ping\"}\n{\"op\":\"sta");
        assert_eq!(fb.next_frame().as_deref(), Some("{\"op\":\"ping\"}"));
        assert_eq!(fb.next_frame(), None);
        fb.push(b"ts\"}\r\n\n");
        assert_eq!(fb.next_frame().as_deref(), Some("{\"op\":\"stats\"}"));
        assert_eq!(fb.next_frame().as_deref(), Some(""));
        assert_eq!(fb.next_frame(), None);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn batch_frames_round_trip() {
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec {
                tenant: format!("t{i}"),
                workload: "ocean".into(),
                threads: 2,
                scale: 0.02,
                seed: i,
                opt: OptLevel::All,
                sanitize: false,
                scheduler: Sched::Kendo,
            })
            .collect();
        let frame = batch_request(&jobs);
        let parsed = parse_batch(&Json::parse(&frame.to_string_compact()).unwrap()).unwrap();
        assert_eq!(parsed, jobs);
    }

    #[test]
    fn empty_and_malformed_batches_are_rejected() {
        assert!(parse_batch(&Json::parse(r#"{"op":"batch","jobs":[]}"#).unwrap()).is_err());
        assert!(parse_batch(&Json::parse(r#"{"op":"batch"}"#).unwrap()).is_err());
        assert!(
            parse_batch(&Json::parse(r#"{"op":"batch","jobs":[{"workload":7}]}"#).unwrap())
                .is_err()
        );
    }

    #[test]
    fn requests_classify_by_shape() {
        let classify = |line: &str| {
            let req = parse_request(line).unwrap();
            match WireRequest::classify(&req) {
                WireRequest::Run(_) => "run".to_string(),
                WireRequest::Batch(jobs) => format!("batch/{}", jobs.len()),
                WireRequest::BadBatch(why) => format!("bad-batch: {why}"),
                WireRequest::Hello { max_version } => format!("hello/{max_version}"),
                WireRequest::Other(op) => format!("other/{op:?}"),
            }
        };
        assert_eq!(classify(r#"{"op":"run","workload":"ocean"}"#), "run");
        assert_eq!(classify(r#"{"op":"batch","jobs":[{},{}]}"#), "batch/2");
        assert_eq!(
            classify(r#"{"op":"batch","jobs":[]}"#),
            "bad-batch: batch frame has no jobs"
        );
        assert_eq!(
            classify(r#"{"op":"batch"}"#),
            "bad-batch: batch frame missing `jobs` array"
        );
        assert_eq!(classify(r#"{"op":"hello","max_version":9}"#), "hello/9");
        assert_eq!(classify(r#"{"op":"hello"}"#), "hello/1");
        assert_eq!(classify(r#"{"op":"stats"}"#), r#"other/Some("stats")"#);
        assert_eq!(classify(r#"{}"#), "other/None");
        assert_eq!(
            parse_request("{nope").unwrap_err().to_string_compact()[..29],
            *r#"{"ok":false,"error":"bad json"#
        );
        assert_eq!(
            WireRequest::hello_reply(9).to_string_compact(),
            r#"{"ok":true,"version":2,"batch":true}"#
        );
        assert_eq!(
            WireRequest::unknown_op_reply(Some("zap")).to_string_compact(),
            r#"{"ok":false,"error":"unknown op `zap`"}"#
        );
        assert_eq!(
            WireRequest::unknown_op_reply(None).to_string_compact(),
            r#"{"ok":false,"error":"missing `op`"}"#
        );
    }
}
