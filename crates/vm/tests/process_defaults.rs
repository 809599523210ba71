//! The process-wide scheduler override. Alone in its test binary: the
//! override is global state that every `MachineConfig::default()` reads.

use detlock_vm::{ChunkParams, MachineConfig, Sched};

#[test]
fn the_latest_scheduler_override_wins_on_every_thread() {
    let chunk = Sched::Chunk(ChunkParams {
        chunk_size: 1 << 40,
        interrupt_cost: 7,
    });
    for sched in [Sched::DcBatch, chunk, Sched::Kendo, chunk] {
        sched.set_process_default();
        assert_eq!(Sched::resolve(), sched);
        assert_eq!(MachineConfig::default().scheduler, sched);
        let seen = std::thread::spawn(Sched::resolve).join().unwrap();
        assert_eq!(seen, sched);
    }
}
