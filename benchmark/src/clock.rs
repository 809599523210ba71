//! Host-speed normalisation.
//!
//! The reference container is two vCPUs of a shared host, and how fast a
//! vCPU runs this code changes under it in two ways the guest cannot see
//! (steal time stays under 1 %, `/proc` shows no frequency):
//!
//! * the *core clock* switches between base and turbo bins (up to 1.28×) in
//!   episodes of ten to thirty seconds;
//! * the *core's other hardware thread* belongs to another tenant. While it
//!   is busy this vCPU keeps its clock but loses issue slots and cache: over
//!   a minute of fixed work, blocks of `vm_compute` took 1.47 – 1.88 s with
//!   the clock flat at base, and every workload moved together.
//!
//! A whole run lands in one state or another, so no count of blocks or
//! medians inside a 25-second run removes either: ten runs of one build
//! spread 12 – 37 % on every time metric of every workload. So the benchmark
//! measures the host's speed beside the work and divides it out. A *probe*
//! is two fixed pieces of work, ≈0.15 ms together:
//!
//! * `wide` — eight independent ALU chains in one loop: bound by issue
//!   width, so it slows with the clock *and* with a busy sibling thread (a
//!   dependent chain, which sees the clock alone, explained a quarter of
//!   the variance at best);
//! * `heap` — hash-map entries, growing vectors, a little formatting, clones
//!   and frees: the allocator, the hasher and a cache footprint rebuilt on
//!   every run, which is what the product's code does between its hot loops.
//!
//! Over 40-second fixed-work runs of `compile`, `vm_compute` and `vm_sync`
//! the log slow-down of half-second groups of ops, regressed on the log
//! slow-down of the probes around them, gave exponents near 0.4 (`wide`) and
//! 0.6 (`heap`) on all six phases and left a residual of 3 – 6 % where the
//! raw spread was 11 – 17 %. (Pointer chases through 1, 16 and 256 MiB and a
//! toy interpreter loop were tried beside them and added nothing.) Those
//! exponents are constants here ([`WIDE_WEIGHT`], [`HEAP_WEIGHT`]), the same
//! for every workload and both sides of every comparison; they sum to one,
//! so a pure clock change is divided out exactly.
//!
//! Single-threaded workloads run one probe after every op, in the measuring
//! thread: same thread, same core, same sibling. An op's wall time is
//! multiplied by the mean speed of the probes around it — the one before,
//! the one after, any inside — which is what the op would have taken on the
//! host in its reference state. A block's wall is scaled by the
//! duration-weighted mean of its ops' speeds. Each piece of a probe runs as
//! two halves and counts twice the faster one: a timer interrupt lands in
//! one half at most. Raw walls and the measured speed are printed beside the
//! reported times.
//!
//! `serve_closed`, whose work runs on the server's threads, confines the
//! whole process to one CPU ([`Pinned`]) so that the probes its client
//! threads run see the core the shard executes on.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Iterations of one half of the `wide` loop.
const WIDE_ITERS: u64 = 6_000;
/// Map inserts of one half of the `heap` piece.
const HEAP_INSERTS: u64 = 600;
/// What the two halves of `wide` take with the reference container quiet at
/// base clock, ns. On another machine every reported time scales by one
/// constant; comparisons between commits on one machine are unaffected.
pub const NOMINAL_WIDE_NS: f64 = 31_650.0;
/// The same for `heap`.
pub const NOMINAL_HEAP_NS: f64 = 60_000.0;
/// Exponent of the `wide` slow-down in a sample's speed.
pub const WIDE_WEIGHT: f64 = 0.4;
/// Exponent of the `heap` slow-down.
pub const HEAP_WEIGHT: f64 = 0.6;

/// Eight independent xorshift-add-rotate chains: more ready work per cycle
/// than the core can issue, so its time follows issue slots, not latency.
#[inline(never)]
fn wide(iters: u64) -> [u64; 8] {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..iters {
        for (k, x) in lanes.iter_mut().enumerate() {
            *x = (*x ^ (*x >> 7)).wrapping_add(i ^ k as u64).rotate_left(9);
        }
    }
    lanes
}

/// Keys of the `heap` piece's map.
const HEAP_KEYS: u64 = 64;

/// What every Rust program does between its hot loops: hash-map entries,
/// growing vectors, a little formatting, clones, and frees — the allocator,
/// the hasher and a cache footprint that is rebuilt on every run. The same
/// sequence every run (fixed hasher keys, fixed generator seed).
#[inline(never)]
fn heap(inserts: u64) -> u64 {
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut text = 0;
    for i in 0..inserts {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % HEAP_KEYS).or_default().push(i);
        if i % 7 == 0 {
            text += black_box(format!("v{}", x % 1000)).len() as u64;
        }
    }
    let copies: Vec<Vec<u64>> = map.values().cloned().collect();
    text + copies.iter().flatten().sum::<u64>()
}

/// One probe sample: when it ran (ns since the epoch) and how long each
/// fixed piece of work took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Start, ns since the epoch.
    pub at_ns: u64,
    /// Wall time of the whole probe, ns: what it cost the thread it ran in.
    pub wall_ns: u64,
    /// Twice the faster half of `wide`, ns.
    pub wide_ns: u64,
    /// Twice the faster half of `heap`, ns.
    pub heap_ns: u64,
}

impl Sample {
    /// Host speed relative to the reference state (1.0 = quiet, base clock):
    /// the weighted geometric mean of the two pieces' speed-ups.
    pub fn speed(&self) -> f64 {
        (NOMINAL_WIDE_NS / self.wide_ns as f64).powf(WIDE_WEIGHT)
            * (NOMINAL_HEAP_NS / self.heap_ns as f64).powf(HEAP_WEIGHT)
    }
}

/// A timeline of probe samples on one epoch.
#[derive(Debug, Clone)]
pub struct Clock {
    epoch: Instant,
    samples: Vec<Sample>,
}

impl Clock {
    /// An empty timeline counting from `epoch`.
    pub fn new(epoch: Instant) -> Clock {
        Clock {
            epoch,
            samples: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run one probe in the calling thread and record it. The caller keeps
    /// the sample's `wall_ns` out of the work it is timing.
    pub fn sample(&mut self) -> Sample {
        let at_ns = self.now_ns();
        let mut marks = [at_ns; 5];
        for half in 0..2 {
            black_box(wide(black_box(WIDE_ITERS)));
            marks[2 * half + 1] = self.now_ns();
            black_box(heap(black_box(HEAP_INSERTS)));
            marks[2 * half + 2] = self.now_ns();
        }
        let piece = |i: usize| marks[i + 1] - marks[i];
        let sample = Sample {
            at_ns,
            wall_ns: marks[4] - at_ns,
            wide_ns: 2 * piece(0).min(piece(2)),
            heap_ns: 2 * piece(1).min(piece(3)),
        };
        self.samples.push(sample);
        sample
    }

    /// Merge another timeline on the same epoch.
    pub fn absorb(&mut self, other: Clock) {
        self.samples.extend(other.samples);
        self.samples.sort_by_key(|s| s.at_ns);
    }

    /// Samples recorded.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The host speed over `[from_ns, to_ns]`: the mean speed of the samples
    /// taken in the interval and of the nearest one on either side of it —
    /// for one op between two probes, the probe before and the probe after.
    pub fn speed(&self, from_ns: u64, to_ns: u64) -> f64 {
        assert!(!self.samples.is_empty(), "no clock samples");
        let lo = self.samples.partition_point(|s| s.at_ns < from_ns);
        let hi = self.samples.partition_point(|s| s.at_ns <= to_ns);
        let around = &self.samples[lo.saturating_sub(1)..(hi + 1).min(self.samples.len())];
        around.iter().map(Sample::speed).sum::<f64>() / around.len() as f64
    }

    /// The duration-weighted mean speed of a set of `(start, end)` intervals:
    /// the factor that turns the wall time of the block they make up into
    /// reference time.
    pub fn speed_over(&self, ops: &[(u64, u64)]) -> f64 {
        let (mut scaled, mut raw) = (0.0, 0.0);
        for &(start, end) in ops {
            let dur = (end - start) as f64;
            scaled += dur * self.speed(start, end);
            raw += dur;
        }
        scaled / raw
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask (1024 CPUs, the kernel's default set size).
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

/// The calling thread confined to one CPU until dropped. Threads spawned
/// meanwhile inherit the confinement, which is the point: a server started
/// under it executes on the core the caller's probes measure. Where the
/// kernel refuses (no such call, one CPU allowed anyway) nothing changes.
pub struct Pinned {
    before: Option<CpuMask>,
}

impl Pinned {
    /// Confine the calling thread to the highest-numbered CPU it may run on
    /// (CPU 0 takes most of a guest's interrupts).
    pub fn to_one_cpu() -> Pinned {
        let mut before: CpuMask = [0; MASK_WORDS];
        // SAFETY: `before` is MASK_WORDS × 8 writable bytes, the size passed.
        let got = unsafe { sched_getaffinity(0, size_of::<CpuMask>(), before.as_mut_ptr()) };
        let Some(word) = before.iter().rposition(|&w| w != 0).filter(|_| got == 0) else {
            return Pinned { before: None };
        };
        let mut one: CpuMask = [0; MASK_WORDS];
        one[word] = 1 << (63 - before[word].leading_zeros());
        // SAFETY: `one` is MASK_WORDS × 8 readable bytes, the size passed.
        let set = unsafe { sched_setaffinity(0, size_of::<CpuMask>(), one.as_ptr()) };
        Pinned {
            before: (set == 0).then_some(before),
        }
    }

    /// Whether the kernel accepted the confinement.
    #[cfg(test)]
    pub fn is_active(&self) -> bool {
        self.before.is_some()
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(before) = self.before {
            // SAFETY: as in `to_one_cpu`; restoring a mask the kernel gave us.
            unsafe { sched_setaffinity(0, size_of::<CpuMask>(), before.as_ptr()) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sample at `at_ns` whose pieces both ran `slowdown` × nominal.
    fn sample(at_ns: u64, slowdown: f64) -> Sample {
        Sample {
            at_ns,
            wall_ns: 0,
            wide_ns: (NOMINAL_WIDE_NS * slowdown).round() as u64,
            heap_ns: (NOMINAL_HEAP_NS * slowdown).round() as u64,
        }
    }

    fn timeline(samples: &[(u64, f64)]) -> Clock {
        Clock {
            epoch: Instant::now(),
            samples: samples.iter().map(|&(at, s)| sample(at, s)).collect(),
        }
    }

    #[test]
    fn a_pure_clock_change_is_divided_out_exactly_and_a_busy_sibling_by_the_weights() {
        assert!((sample(0, 1.0).speed() - 1.0).abs() < 1e-4);
        assert!((sample(0, 0.5).speed() - 2.0).abs() < 1e-4);
        assert!((WIDE_WEIGHT + HEAP_WEIGHT - 1.0).abs() < 1e-12);
        // `wide` halves its speed, `heap` loses a fifth.
        let s = Sample {
            wide_ns: (NOMINAL_WIDE_NS * 2.0) as u64,
            heap_ns: (NOMINAL_HEAP_NS * 1.25) as u64,
            ..sample(0, 1.0)
        };
        let want = 0.5f64.powf(WIDE_WEIGHT) * 0.8f64.powf(HEAP_WEIGHT);
        assert!((s.speed() - want).abs() < 1e-4);
    }

    #[test]
    fn speed_is_the_mean_of_the_samples_in_and_around_the_interval() {
        let c = timeline(&[(100, 1.0), (200, 0.5), (300, 0.5), (900, 2.0)]);
        let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        // One op between two probes: the one before and the one after.
        close(c.speed(120, 180), (1.0 + 2.0) / 2.0);
        close(c.speed(320, 800), (2.0 + 0.5) / 2.0);
        // Samples inside count beside the two neighbours.
        close(c.speed(150, 350), (1.0 + 2.0 + 2.0 + 0.5) / 4.0);
        // Nothing before, or nothing after: the one side there is.
        close(c.speed(0, 10), 1.0);
        close(c.speed(2000, 3000), 0.5);
        close(c.speed(0, u64::MAX), (1.0 + 2.0 + 2.0 + 0.5) / 4.0);
    }

    #[test]
    fn a_block_that_straddles_a_speed_change_is_charged_each_part_at_its_speed() {
        // 100 ops of 1 ms of reference work, each followed by its probe. Run
        // the first `k` on a quiet host and the rest 1.28× faster: raw walls
        // differ by a fifth, the reference wall does not.
        for k in [0, 30, 50, 100] {
            let mut t = 0.0f64;
            let (mut ops, mut samples) = (Vec::new(), vec![(0, 1.0)]);
            for op in 0..100 {
                let f = if op < k { 1.0 } else { 1.28 };
                ops.push((t as u64 + 1, (t + 1e6 / f) as u64));
                t += 1e6 / f;
                samples.push((t as u64 + 1, 1.0 / f));
                t += 1e5 / f;
            }
            samples[0].1 = samples[1].1;
            let raw: u64 = ops.iter().map(|&(s, e)| e - s).sum();
            let reference = raw as f64 * timeline(&samples).speed_over(&ops);
            // Only the op at the switch sees one probe of each speed.
            assert!((reference / 1e8 - 1.0).abs() < 2e-3, "k={k}: {reference}");
        }
    }

    #[test]
    fn a_probe_takes_real_time_and_repeats_its_work() {
        let mut c = Clock::new(Instant::now());
        let (a, b) = (c.sample(), c.sample());
        for s in [a, b] {
            assert!(
                s.wide_ns > 1_000 && s.heap_ns > 1_000,
                "probe {s:?} is too short to time"
            );
            assert!(s.wall_ns >= (s.wide_ns + s.heap_ns) / 2 && s.speed() > 0.0);
        }
        assert_eq!(c.len(), 2);
        assert!(b.at_ns >= a.at_ns + a.wall_ns);
        // The same work every run: the same digest out.
        assert_eq!(heap(HEAP_INSERTS), heap(HEAP_INSERTS));
        assert_eq!(wide(WIDE_ITERS), wide(WIDE_ITERS));
    }

    #[test]
    fn pinning_confines_spawned_threads_and_is_undone_on_drop() {
        let allowed = || {
            let mut m: CpuMask = [0; MASK_WORDS];
            // SAFETY: `m` is MASK_WORDS × 8 writable bytes, the size passed.
            unsafe { sched_getaffinity(0, size_of::<CpuMask>(), m.as_mut_ptr()) };
            m.iter().map(|w| w.count_ones()).sum::<u32>()
        };
        let before = allowed();
        let pin = Pinned::to_one_cpu();
        if pin.is_active() {
            assert_eq!(allowed(), 1);
            assert_eq!(std::thread::spawn(allowed).join().unwrap(), 1);
        }
        drop(pin);
        assert_eq!(allowed(), before);
    }
}
