//! The metric tables: every name, unit and bound `BENCHMARK.json` declares.
//! A unit test holds the JSON file to these tables, so the two cannot drift.

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower` (declared for `BENCHMARK.json`; the program
    /// itself never branches on it).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

/// The seven end-to-end metrics, reported on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "alt_ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "sim_overhead_pct",
        unit: "%",
        better: "lower",
        bound: 0.001,
    },
];

/// A per-layer metric of the trace run. No bound: it explains, it does not gate.
pub struct PerLayer {
    /// Name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// Every per-layer metric, printed by every `--trace 1` run.
pub const PER_LAYER: &[PerLayer] = &[
    // This workload's traced primary phase: self-time shares of op time.
    lower("trace.overhead_share", "share"),
    higher("trace.share.ir", "share"),
    higher("trace.share.passes", "share"),
    higher("trace.share.vm_lower", "share"),
    higher("trace.share.vm_new", "share"),
    higher("trace.share.vm_exec", "share"),
    higher("trace.share.serve_queue", "share"),
    higher("trace.share.serve_exec", "share"),
    higher("trace.share.serve_wire", "share"),
    lower("trace.share.bench", "share"),
    lower("isolation.failed", "count"),
    // This workload's program set, simulated (exact).
    lower("vm.sim.instructions", "count"),
    lower("vm.sim.cycles", "count"),
    lower("vm.sim.lock_acquires", "count"),
    lower("vm.sim.barrier_waits", "count"),
    lower("vm.sim.wait_cycle_share", "share"),
    lower("vm.sim.tick_share", "share"),
    lower("vm.sim.lock_clock_bumps", "count"),
    lower("vm.sim.clocks_only_overhead_pct", "%"),
    // ir
    lower("ir.parse.ns_per_inst", "ns"),
    lower("ir.verify.ns_per_inst", "ns"),
    lower("ir.print.ns_per_inst", "ns"),
    lower("ir.corpus.insts", "count"),
    // passes
    lower("passes.instrument.cold_us_per_fn", "us"),
    lower("passes.pass.o1-function-clocking.ns", "ns"),
    lower("passes.pass.split-blocks.ns", "ns"),
    lower("passes.pass.base-plan.ns", "ns"),
    lower("passes.pass.o2a-cond-motion.ns", "ns"),
    lower("passes.pass.o2b-approx-motion.ns", "ns"),
    lower("passes.pass.o3-averaging.ns", "ns"),
    lower("passes.pass.o4-loop-merge.ns", "ns"),
    lower("passes.pass.materialize-ticks.ns", "ns"),
    higher("passes.analysis_cache.hit_share", "share"),
    lower("passes.plan_key.us", "us"),
    lower("passes.cache.hit_us", "us"),
    lower("passes.ticks_materialized", "count"),
    higher("passes.parallel.speedup_2t", "ratio"),
    // vm
    lower("vm.lower.ns_per_inst", "ns"),
    lower("vm.machine_new.us", "us"),
    lower("vm.exec.ns_per_instr", "ns"),
    lower("vm.exec_alt.ns_per_instr", "ns"),
    lower("vm.exec.interp_over_threaded", "ratio"),
    lower("vm.arbiter.ns_per_sync", "ns"),
    lower("vm.arbiter.share.vm_sync", "share"),
    lower("vm.arbiter.share.vm_compute", "share"),
    lower("vm.sched.kendo.ns_per_sync", "ns"),
    lower("vm.sched.chunk.ns_per_sync", "ns"),
    lower("vm.sched.dc-batch.ns_per_sync", "ns"),
    lower("vm.checkpoint.overhead_share", "share"),
    lower("vm.checkpoint.snapshot_us", "us"),
    lower("vm.checkpoint.bytes", "B"),
    lower("vm.resume.us", "us"),
    lower("vm.sanitize.slowdown", "ratio"),
    // serve
    lower("serve.job.wall_ms.small", "ms"),
    lower("serve.job.wall_ms.medium", "ms"),
    lower("serve.job.p99_ms", "ms"),
    lower("serve.job.queue_ms", "ms"),
    lower("serve.job.exec_ms", "ms"),
    lower("serve.wire.self_ms", "ms"),
    lower("serve.wire.self_ms.small", "ms"),
    lower("serve.wire.self_ms.medium", "ms"),
    lower("serve.stats.rtt_us", "us"),
    lower("serve.protocol.parse_us", "us"),
    lower("serve.protocol.frame_ns", "ns"),
    lower("serve.protocol.batch_parse_us_per_job", "us"),
    lower("serve.receipt.us", "us"),
    lower("serve.queue.push_pop_ns", "ns"),
    lower("serve.shard.exec_ms.small", "ms"),
    lower("serve.shard.exec_ms.medium", "ms"),
    lower("serve.shard.cold_ms", "ms"),
    higher("serve.dup_share", "share"),
    lower("serve.group.route_ns", "ns"),
    lower("serve.group.hop_ms", "ms"),
    lower("serve.failed", "count"),
    lower("serve.shed", "count"),
    // shim, workloads, analyze
    higher("shim.json.parse_mb_per_s", "MB/s"),
    higher("shim.json.render_mb_per_s", "MB/s"),
    lower("workloads.build.us", "us"),
    lower("analyze.validate.ms", "ms"),
    lower("analyze.lint.ms", "ms"),
    // core (native runtime): reported with its spread, gates nothing.
    lower("core.tick.ns", "ns"),
    lower("core.mutex.uncontended_ns", "ns"),
    lower("core.mutex.handoff_ns_2t", "ns"),
    lower("core.mutex.handoff_ns_2t.min", "ns"),
    lower("core.mutex.handoff_ns_2t.max", "ns"),
    lower("core.barrier.ns_2t", "ns"),
    lower("core.trace.record_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_shim::json::Json;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_legal_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "illegal metric name");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let e2e: Vec<_> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<_> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(layers, want);
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
