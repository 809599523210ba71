//! Run metrics produced by the simulator and overhead arithmetic used by the
//! Table I / Table II harnesses.

use detlock_shim::acq::Acquisition;

/// Simulated core frequency in GHz: the paper's testbed ran at 2.66 GHz.
pub const GHZ: f64 = 2.66;

/// Per-thread counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadMetrics {
    /// Instructions committed (ticks included when executed).
    pub instructions: u64,
    /// Cycles spent making progress (issue + multi-cycle completion).
    pub busy_cycles: u64,
    /// Cycles stalled waiting: lock arbitration, barrier, turn waits.
    pub wait_cycles: u64,
    /// Lock acquisitions performed.
    pub lock_acquires: u64,
    /// Barrier arrivals.
    pub barrier_waits: u64,
    /// Tick instructions executed.
    pub ticks_executed: u64,
    /// Final logical clock.
    pub final_clock: u64,
    /// Retired stores (drives the simulated-Kendo performance counter).
    pub retired_stores: u64,
    /// Deterministic clock bumps performed while spinning on a lock.
    pub lock_clock_bumps: u64,
    /// Cycle at which the thread finished.
    pub finish_cycle: u64,
}

/// Whole-run metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Wall cycles until the last thread finished.
    pub cycles: u64,
    /// Per-thread counters.
    pub per_thread: Vec<ThreadMetrics>,
    /// [`AcquisitionLog`](detlock_shim::acq::AcquisitionLog) hash over the
    /// whole acquisition sequence, clocks included — equal hashes across
    /// runs ⇒ same order at the same clocks.
    pub lock_order_hash: u64,
    /// The first `lock_order_limit` acquisitions. `clock` is the
    /// acquirer's logical clock just after the grant, the value
    /// `detlock-core`'s `Turn::acquired` records.
    pub lock_order: Vec<Acquisition>,
}

impl RunMetrics {
    /// Total instructions across threads.
    pub fn instructions(&self) -> u64 {
        self.per_thread.iter().map(|t| t.instructions).sum()
    }

    /// Total lock acquisitions across threads.
    pub fn lock_acquires(&self) -> u64 {
        self.per_thread.iter().map(|t| t.lock_acquires).sum()
    }

    /// Total wait cycles across threads.
    pub fn wait_cycles(&self) -> u64 {
        self.per_thread.iter().map(|t| t.wait_cycles).sum()
    }

    /// Total ticks executed across threads.
    pub fn ticks_executed(&self) -> u64 {
        self.per_thread.iter().map(|t| t.ticks_executed).sum()
    }

    /// Simulated seconds of the run.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (GHZ * 1e9)
    }

    /// Lock acquisitions per simulated second (the paper's "Locks/sec").
    pub fn locks_per_sec(&self) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            0.0
        } else {
            self.lock_acquires() as f64 / s
        }
    }

    /// Percentage overhead of this run versus a baseline run of the same
    /// workload (the paper's Table I cells): `(self - base) / base * 100`.
    pub fn overhead_pct(&self, baseline: &RunMetrics) -> f64 {
        if baseline.cycles == 0 {
            return 0.0;
        }
        (self.cycles as f64 - baseline.cycles as f64) / baseline.cycles as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(cycles: u64, locks: u64) -> RunMetrics {
        RunMetrics {
            cycles,
            per_thread: vec![ThreadMetrics {
                lock_acquires: locks,
                ..Default::default()
            }],
            lock_order_hash: 0,
            lock_order: vec![],
        }
    }

    #[test]
    fn overhead_pct() {
        let base = metrics(1000, 0);
        let slow = metrics(1200, 0);
        assert!((slow.overhead_pct(&base) - 20.0).abs() < 1e-9);
        assert!((base.overhead_pct(&base)).abs() < 1e-9);
    }

    #[test]
    fn locks_per_sec_conversion() {
        // 2.66 GHz, 2.66e9 cycles = 1 simulated second, 500 locks.
        let m = metrics(2_660_000_000, 500);
        assert!((m.seconds() - 1.0).abs() < 1e-9);
        assert!((m.locks_per_sec() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn zero_cycles_guard() {
        let z = metrics(0, 10);
        assert_eq!(z.locks_per_sec(), 0.0);
        assert_eq!(z.overhead_pct(&z), 0.0);
    }
}
