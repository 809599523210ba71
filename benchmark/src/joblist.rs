//! The seeded job mix `serve_closed` (and the serve probes) submit.
//!
//! Every block has the same *multiset* of jobs — exact quotas, so every seed
//! does identical total work and `sim_overhead_pct` repeats bit-for-bit —
//! and the seed decides only the *order*: where the hot key falls, which
//! small job queues behind which medium one.
//!
//! * 50 % one hot identity ([`HOT`]) — what a duplicate-collapse PR could save;
//! * 30 % other small jobs, cycling the remaining small identities;
//! * 20 % medium jobs (radiosity), cycling its eight seeds.

use detlock_passes::pipeline::OptLevel;
use detlock_serve::JobSpec;
use detlock_vm::Sched;

/// Job size class: small sits on the p50 plateau, medium on the p90 one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 2 threads, scale 0.02 of a light SPLASH-2 shape.
    Small,
    /// radiosity at scale 0.05 — the paper's highest lock rate.
    Medium,
}

/// The small workloads, in the order identities are cycled: 3 – 4 ms each.
/// water-nsq is left out — at 2 threads it cannot run shorter than 8.9 ms,
/// and a third latency cluster of that size ended exactly at the median, so
/// `op_p50_ms` flipped between two clusters from run to run.
pub const SMALL_KINDS: [&str; 3] = ["raytrace", "ocean", "volrend"];
/// The medium workload.
pub const MEDIUM_KIND: &str = "radiosity";
/// Jitter seeds jobs draw from. Fixed (not derived from `--seed`), so the
/// set of identities — and every reference receipt — is the same on every run.
pub const JOB_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// The hot identity: (workload, jitter seed).
pub const HOT: (&str, u64) = ("raytrace", 1);

const SMALL_SCALE: f64 = 0.02;
const MEDIUM_SCALE: f64 = 0.05;
const JOB_THREADS: usize = 2;

fn spec(workload: &str, scale: f64, seed: u64) -> JobSpec {
    JobSpec {
        tenant: "bench".to_string(),
        workload: workload.to_string(),
        threads: JOB_THREADS,
        scale,
        seed,
        opt: OptLevel::All,
        sanitize: false,
        scheduler: Sched::Kendo,
    }
}

/// The class of a job drawn from this mix.
pub fn class_of(job: &JobSpec) -> Class {
    if job.workload == MEDIUM_KIND {
        Class::Medium
    } else {
        Class::Small
    }
}

/// Whether `job` is the hot identity.
#[cfg(test)]
pub fn is_hot(job: &JobSpec) -> bool {
    job.workload == HOT.0 && job.seed == HOT.1
}

/// Every distinct identity the mix can contain (hot first).
pub fn identities() -> Vec<JobSpec> {
    let mut out = vec![spec(HOT.0, SMALL_SCALE, HOT.1)];
    for kind in SMALL_KINDS {
        for seed in JOB_SEEDS {
            if (kind, seed) != HOT {
                out.push(spec(kind, SMALL_SCALE, seed));
            }
        }
    }
    for seed in JOB_SEEDS {
        out.push(spec(MEDIUM_KIND, MEDIUM_SCALE, seed));
    }
    out
}

/// One block of `n` jobs (`n` a multiple of 10) in the order `seed` picks.
pub fn block(n: usize, seed: u64) -> Vec<JobSpec> {
    assert!(
        n > 0 && n.is_multiple_of(10),
        "block size {n} must be a multiple of 10"
    );
    let ids = identities();
    let small_others = &ids[1..ids.len() - JOB_SEEDS.len()];
    let mediums = &ids[ids.len() - JOB_SEEDS.len()..];
    let (hot_n, medium_n) = (n / 2, n / 5);
    let mut jobs = Vec::with_capacity(n);
    jobs.extend(std::iter::repeat_n(ids[0].clone(), hot_n));
    jobs.extend(
        small_others
            .iter()
            .cycle()
            .take(n - hot_n - medium_n)
            .cloned(),
    );
    jobs.extend(mediums.iter().cycle().take(medium_n).cloned());
    crate::workloads::shuffle(&mut jobs, seed);
    jobs
}

/// Share of jobs whose identity already appeared earlier in `jobs`: what a
/// receipt memo keyed on identity could answer without executing.
pub fn dup_share(jobs: &[JobSpec]) -> f64 {
    let mut seen = std::collections::BTreeSet::new();
    let dups = jobs
        .iter()
        .filter(|j| !seen.insert(j.identity_key()))
        .count();
    dups as f64 / jobs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        let a = block(200, 1);
        assert_eq!(a, block(200, 1));
        let b = block(200, 2);
        assert_ne!(a, b);
        // Same multiset all the same: only the order moved.
        let key = |j: &JobSpec| j.identity_key();
        let (mut ka, mut kb): (Vec<_>, Vec<_>) =
            (a.iter().map(key).collect(), b.iter().map(key).collect());
        ka.sort();
        kb.sort();
        assert_eq!(ka, kb);
    }

    #[test]
    fn class_and_hot_key_shares_hold() {
        for (n, seed) in [(200, 1), (1000, 7), (240, 99)] {
            let jobs = block(n, seed);
            assert_eq!(jobs.len(), n);
            let share = |f: &dyn Fn(&JobSpec) -> bool| {
                jobs.iter().filter(|j| f(j)).count() as f64 / n as f64
            };
            let small = share(&|j| class_of(j) == Class::Small);
            let medium = share(&|j| class_of(j) == Class::Medium);
            let hot = share(&is_hot);
            assert!((small - 0.80).abs() <= 0.01, "small share {small}");
            assert!((medium - 0.20).abs() <= 0.01, "medium share {medium}");
            assert!((hot - 0.50).abs() <= 0.01, "hot share {hot}");
        }
    }

    #[test]
    fn identities_are_distinct_and_the_hot_one_is_small() {
        let ids = identities();
        assert_eq!(
            ids.len(),
            SMALL_KINDS.len() * JOB_SEEDS.len() + JOB_SEEDS.len()
        );
        let keys: std::collections::BTreeSet<_> = ids.iter().map(|j| j.identity_key()).collect();
        assert_eq!(keys.len(), ids.len());
        assert!(is_hot(&ids[0]) && class_of(&ids[0]) == Class::Small);
        assert_eq!(ids.iter().filter(|j| is_hot(j)).count(), 1);
    }

    #[test]
    fn dup_share_counts_repeats_of_an_identity() {
        let ids = identities();
        assert_eq!(dup_share(&ids), 0.0);
        let jobs = block(200, 3);
        // 200 jobs over at most 40 identities: at least 80 % are repeats.
        assert!(dup_share(&jobs) >= 0.80);
        assert_eq!(dup_share(&jobs), dup_share(&block(200, 4)));
    }
}
