//! # stamp — STAMP-like transactional applications on the `rinval` STM
//!
//! Rust re-implementations of the STAMP benchmark applications the paper
//! evaluates (Figs. 3 and 8): `kmeans`, `ssca2`, `intruder`, `genome`,
//! `vacation`, `labyrinth` and `bayes`, plus the red-black-tree
//! micro-benchmark of Figs. 2 and 7. `yada` is excluded exactly as in the
//! paper (§V, footnote 4).
//!
//! Each application module provides:
//!
//! * a `Config` with `Default` values scaled to finish quickly on a small
//!   host while preserving the *transactional profile* the paper relies on
//!   (read/write-set sizes, contention level, fraction of
//!   non-transactional work) — see each module's docs for the mapping to
//!   the original STAMP parameters;
//! * a seeded workload generator (fully deterministic inputs);
//! * `run(&Stm, threads, &Config) -> RunReport` executing the workload on
//!   real threads through the transactional API;
//! * a correctness verifier used by the tests and by the benchmark harness
//!   (a benchmark run that produces wrong answers must not count).

#![warn(missing_docs)]

pub mod bayes;
pub mod genome;
pub mod intruder;
pub mod kmeans;
pub mod labyrinth;
pub mod rbtree_bench;
pub mod ssca2;
pub mod vacation;

use rinval::{HeapStats, PhaseStats, ServerStats};
use std::time::Duration;

/// Outcome of one application run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock time of the parallel phase.
    pub wall: Duration,
    /// Phase statistics merged over all worker threads.
    pub stats: PhaseStats,
    /// Worker threads used.
    pub threads: usize,
    /// Application-defined result digest (used by verifiers).
    pub checksum: u64,
    /// Heap telemetry sampled at the end of the run: peak arena footprint
    /// (`allocated_words`), free/recycle volume and live segments.
    pub heap: HeapStats,
    /// Server/watchdog telemetry sampled at the end of the run. All-zero
    /// recovery counters (`respawns`, `degradations`, …) certify the run
    /// executed on its nominal algorithm with no fault-handling activity —
    /// see [`RunReport::degraded`].
    pub server: ServerStats,
}

impl RunReport {
    /// The report of a run whose verifier failed before producing one: no
    /// wall time, stats or checksum, just the instance's end-of-run
    /// telemetry.
    pub fn failed(stm: &rinval::Stm, threads: usize) -> RunReport {
        RunReport {
            wall: Duration::ZERO,
            stats: PhaseStats::default(),
            threads,
            checksum: 0,
            heap: stm.heap_stats(),
            server: stm.server_stats(),
        }
    }

    /// Peak heap footprint in words (bump-frontier high-water mark; node
    /// recycling keeps this flat under churn).
    pub fn heap_peak_words(&self) -> u64 {
        self.heap.allocated_words
    }

    /// True if the instance degraded to serverless InvalSTM during the
    /// run: its throughput is not a measurement of the nominal algorithm
    /// and must be excluded from (or flagged in) figures.
    pub fn degraded(&self) -> bool {
        self.server.degradations > 0
    }

    /// True if any fault-recovery machinery fired during the run
    /// (respawns, withdrawals, timeouts, drains — not just degradation).
    pub fn recovery_activity(&self) -> bool {
        self.server.any_recovery_activity()
    }
}

/// The full STAMP line-up in the paper's Fig. 3/8 order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum App {
    /// K-means clustering (short write transactions, moderate contention).
    Kmeans,
    /// SSCA2 graph kernel (tiny write transactions, low contention).
    Ssca2,
    /// Maze routing (long private work, short claim transactions).
    Labyrinth,
    /// Network intrusion detection (queue + map churn).
    Intruder,
    /// Gene sequencing (read-intensive dedup + matching).
    Genome,
    /// Travel reservations (read-intensive OLTP mix).
    Vacation,
    /// Bayesian network learning (behaves like labyrinth; paper §V).
    Bayes,
}

impl App {
    /// All applications, in the paper's presentation order.
    pub const ALL: [App; 7] = [
        App::Kmeans,
        App::Ssca2,
        App::Labyrinth,
        App::Intruder,
        App::Genome,
        App::Vacation,
        App::Bayes,
    ];

    /// Lower-case name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            App::Kmeans => "kmeans",
            App::Ssca2 => "ssca2",
            App::Labyrinth => "labyrinth",
            App::Intruder => "intruder",
            App::Genome => "genome",
            App::Vacation => "vacation",
            App::Bayes => "bayes",
        }
    }

    /// Runs this application with default configuration on `stm`.
    pub fn run_default(&self, stm: &rinval::Stm, threads: usize) -> RunReport {
        match self {
            App::Kmeans => kmeans::run(stm, threads, &kmeans::Config::default()),
            App::Ssca2 => ssca2::run(stm, threads, &ssca2::Config::default()),
            App::Labyrinth => labyrinth::run(stm, threads, &labyrinth::Config::default()),
            App::Intruder => intruder::run(stm, threads, &intruder::Config::default()),
            App::Genome => genome::run(stm, threads, &genome::Config::default()),
            App::Vacation => vacation::run(stm, threads, &vacation::Config::default()),
            App::Bayes => bayes::run(stm, threads, &bayes::Config::default()),
        }
    }

    /// Heap words the default configuration needs.
    pub fn default_heap_words(&self) -> usize {
        match self {
            App::Vacation | App::Genome => 1 << 21,
            _ => 1 << 20,
        }
    }

    /// Runs a reduced configuration that finishes in well under a second
    /// per algorithm even on a single-core host — used by the benchmark
    /// harness's real-implementation cross-checks and by smoke tests.
    /// Returns the report and the result of the application's verifier.
    pub fn run_small(&self, stm: &rinval::Stm, threads: usize) -> (RunReport, Result<(), String>) {
        match self {
            App::Kmeans => {
                let cfg = kmeans::Config {
                    points: 768,
                    dims: 2,
                    clusters: 4,
                    iterations: 3,
                    nontx_noops: 8,
                    seed: 0x5EED,
                };
                let r = kmeans::run(stm, threads, &cfg);
                let v = kmeans::verify(&cfg, &r);
                (r, v)
            }
            App::Ssca2 => {
                let cfg = ssca2::Config {
                    vertices: 512,
                    edges: 3_000,
                    locality_block: 16,
                    seed: 0x55CA2,
                };
                let r = ssca2::run(stm, threads, &cfg);
                let v = ssca2::verify(stm, &cfg, &r);
                (r, v)
            }
            App::Labyrinth => {
                let cfg = labyrinth::Config {
                    width: 32,
                    height: 32,
                    routes: 10,
                    seed: 0x1AB,
                };
                match labyrinth::run_verified(stm, threads, &cfg) {
                    Ok(r) => (r, Ok(())),
                    Err(e) => (RunReport::failed(stm, threads), Err(e)),
                }
            }
            App::Intruder => {
                let cfg = intruder::Config {
                    flows: 128,
                    frags_per_flow: 6,
                    attack_every: 8,
                    seed: 0x1D5,
                };
                let r = intruder::run(stm, threads, &cfg);
                let v = intruder::verify(&cfg, &r);
                (r, v)
            }
            App::Genome => {
                let cfg = genome::Config {
                    genome_len: 768,
                    segment_len: 10,
                    copies: 3,
                    seed: 0x6E0,
                };
                let r = genome::run(stm, threads, &cfg);
                let v = genome::verify(&cfg, &r);
                (r, v)
            }
            App::Vacation => {
                let cfg = vacation::Config {
                    resources: 64,
                    customers: 32,
                    initial_avail: 30,
                    transactions: 800,
                    queries: 6,
                    reserve_pct: 80,
                    seed: 0xACA7,
                };
                match vacation::run_verified(stm, threads, &cfg) {
                    Ok(r) => (r, Ok(())),
                    Err(e) => (RunReport::failed(stm, threads), Err(e)),
                }
            }
            App::Bayes => {
                let cfg = bayes::Config {
                    vars: 24,
                    candidates: 200,
                    score_noops: 200,
                    seed: 0xBAE5,
                };
                match bayes::run_verified(stm, threads, &cfg) {
                    Ok(r) => (r, Ok(())),
                    Err(e) => (RunReport::failed(stm, threads), Err(e)),
                }
            }
        }
    }
}

/// Deterministic split-mix style PRNG used by all workload generators, so
/// every run of a benchmark sees the identical input regardless of the
/// `rand` crate version.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        rinval::sync::mix64(self.state)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Splits off an independent child generator (the SplitMix64 idiom the
    /// algorithm is named for): the child is seeded from the parent's next
    /// output, so sibling streams share no state and a parent advanced `n`
    /// times always yields the same `n`-th child — the property episode
    /// replay relies on for per-client workload streams.
    pub fn split(&mut self) -> SplitMix {
        SplitMix::new(self.next_u64())
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Burns roughly `n` no-op iterations — the inter-transaction delay the
/// paper's red-black-tree benchmark inserts ("a delay of 10 no-ops between
/// transactions"), and the stand-in for STAMP's non-transactional
/// processing.
#[inline]
pub fn nontx_work(n: u64) {
    for _ in 0..n {
        std::hint::black_box(0u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_below_in_range() {
        let mut r = SplitMix::new(1);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn splitmix_unit_in_range() {
        let mut r = SplitMix::new(2);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left the slice sorted (astronomically unlikely)"
        );
    }

    #[test]
    fn app_names_unique() {
        let mut names: Vec<&str> = App::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), App::ALL.len());
    }
}
