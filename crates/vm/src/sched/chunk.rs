//! Chunk-based scheduling: min-clock arbitration over simulated
//! retired-store performance-counter clocks.

use super::{min_clock_turn, Decision, DetScheduler, ThreadView};

/// Chunked store-counter clock parameters (Table II). The paper notes
/// Kendo must balance chunk size by hand; `chunk_size` is that knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    /// Retired stores between performance-counter overflow interrupts.
    pub chunk_size: u64,
    /// Cycle cost of servicing one overflow interrupt.
    pub interrupt_cost: u64,
}

impl Default for ChunkParams {
    fn default() -> Self {
        ChunkParams {
            chunk_size: 1024,
            // A performance-counter overflow interrupt traps into the
            // kernel: order 10^3 cycles on the paper's era of hardware.
            interrupt_cost: 800,
        }
    }
}

/// The same turn rule as [`super::KendoSched`], but threads additionally
/// run fixed logical-work chunks between clock updates: the virtualized
/// store counter only surfaces at overflow interrupts, so the clock
/// advances in `chunk_size` units and each boundary costs
/// `interrupt_cost` cycles. Under `ExecMode::Kendo` (uninstrumented, no
/// tick instructions) this reproduces the paper's simulated-Kendo
/// baseline bit-for-bit; under `ExecMode::Det` it layers chunk clocks on
/// top of the compiler-placed ticks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSched {
    params: ChunkParams,
}

impl ChunkSched {
    /// A chunk scheduler with the given counter parameters.
    pub fn new(params: ChunkParams) -> ChunkSched {
        ChunkSched { params }
    }
}

impl DetScheduler for ChunkSched {
    #[inline]
    fn decide(&mut self, threads: &[ThreadView]) -> Decision {
        Decision::Turn(min_clock_turn(threads))
    }

    fn chunk(&self) -> Option<ChunkParams> {
        Some(self.params)
    }
}
