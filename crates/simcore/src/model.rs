//! Cost model, workload profiles and simulation configuration.
//!
//! The simulator executes the *protocol steps* of each algorithm (seqlock
//! acquisition, bloom scans, server mailbox hops) over an abstract cost
//! model of a 64-core cache-coherent machine. The constants below are
//! order-of-magnitude figures for a 2.2 GHz AMD Opteron like the paper's
//! testbed: an L1 hit a few cycles, a coherence transfer several dozens,
//! a contended CAS several dozens more. Shapes — who wins, where the
//! crossover sits — come from the protocol structure, not from tuning any
//! single constant; the sensitivity tests in `tests/` vary them and check
//! the orderings survive.

/// Abstract per-operation costs in CPU cycles.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Cache-hit access (L1/L2) to a line this core already owns.
    pub hit: u64,
    /// Coherence transfer: accessing a line last written by another core.
    pub miss: u64,
    /// Uncontended compare-and-swap on top of the line transfer.
    pub cas: u64,
    /// Appending to a private read/write log.
    pub log: u64,
    /// Fixed instruction overhead of one STM read call (write-set lookup,
    /// seqlock bookkeeping).
    pub read_op: u64,
    /// A data access that misses all caches (big-structure traversals on
    /// a 64-core NUMA machine).
    pub dram: u64,
    /// Inserting an address into a bloom signature.
    pub bloom_insert: u64,
    /// Intersecting one transaction's signature against a commit signature
    /// (short-circuiting scan of a few cache lines, usually remote).
    pub slot_scan: u64,
    /// Starting a transaction (clearing logs, reading the timestamp).
    pub begin: u64,
    /// Per-waiter slowdown factor on a critical section protected by a
    /// *shared* spin lock: every spinning core keeps stealing the lock
    /// line, slowing the holder's own accesses (paper §III "Locking";
    /// reference \[9\]'s CAS/cache-miss bottleneck). RInval's private-line spinning
    /// deliberately avoids this term.
    pub spin_penalty: f64,
    /// Clock frequency used to convert cycles to seconds in reports.
    pub ghz: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            hit: 4,
            miss: 64,
            cas: 48,
            log: 4,
            read_op: 20,
            dram: 250,
            bloom_insert: 6,
            slot_scan: 60,
            begin: 20,
            spin_penalty: 0.12,
            ghz: 2.2,
        }
    }
}

/// A transactional workload profile: what an *average* transaction looks
/// like. Profiles for the paper's benchmarks live in [`crate::presets`].
#[derive(Clone, Debug)]
pub struct Workload {
    /// Transactional reads per transaction.
    pub reads: u64,
    /// Transactional writes per transaction (write transactions only).
    pub writes: u64,
    /// Fraction of transactions that are read-only.
    pub read_only_frac: f64,
    /// Fraction of transactional reads whose data access misses the cache
    /// hierarchy (≈ 1 for random probes into structures much larger than
    /// LLC, ≈ 0 for small hot structures).
    pub data_miss_frac: f64,
    /// Non-transactional cycles between transactions.
    pub nontx: u64,
    /// Probability that one committing write transaction *truly* conflicts
    /// with one concurrently running transaction.
    pub conflict_prob: f64,
    /// Extra false-conflict probability added by bloom signatures
    /// (invalidation-based algorithms only). Roughly
    /// `reads × writes / bloom_bits` for the paper-scale filters.
    pub bloom_fp_prob: f64,
}

impl Workload {
    /// Conflict probability as seen by invalidation-based algorithms
    /// (true conflicts plus signature false positives).
    pub fn inval_conflict_prob(&self) -> f64 {
        (self.conflict_prob + self.bloom_fp_prob).min(1.0)
    }
}

/// Which algorithm the simulated machine runs (mirrors
/// `rinval::AlgorithmKind`, minus the lock-only baselines).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimAlgorithm {
    /// NOrec: value-based incremental validation, global seqlock commit.
    NOrec,
    /// InvalSTM: commit-time invalidation under the global lock.
    InvalStm,
    /// RInval-V1: remote commit + inline invalidation on one server.
    RInvalV1,
    /// RInval-V2: remote commit, invalidation on `invalidators` servers.
    RInvalV2 {
        /// Number of invalidation-server cores.
        invalidators: usize,
    },
    /// RInval-V3: V2 plus `steps_ahead` commits of server run-ahead.
    RInvalV3 {
        /// Number of invalidation-server cores.
        invalidators: usize,
        /// Commit-server run-ahead bound.
        steps_ahead: usize,
    },
}

impl SimAlgorithm {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            SimAlgorithm::NOrec => "norec",
            SimAlgorithm::InvalStm => "invalstm",
            SimAlgorithm::RInvalV1 => "rinval-v1",
            SimAlgorithm::RInvalV2 { .. } => "rinval-v2",
            SimAlgorithm::RInvalV3 { .. } => "rinval-v3",
        }
    }

    /// Server cores this algorithm dedicates.
    pub fn server_cores(&self) -> usize {
        match *self {
            SimAlgorithm::NOrec | SimAlgorithm::InvalStm => 0,
            SimAlgorithm::RInvalV1 => 1,
            SimAlgorithm::RInvalV2 { invalidators } => 1 + invalidators,
            SimAlgorithm::RInvalV3 { invalidators, .. } => 1 + invalidators,
        }
    }

    /// Invalidation-server count (0 where invalidation is inline).
    pub fn invalidators(&self) -> usize {
        match *self {
            SimAlgorithm::RInvalV2 { invalidators } => invalidators.max(1),
            SimAlgorithm::RInvalV3 { invalidators, .. } => invalidators.max(1),
            _ => 0,
        }
    }

    /// Commit-server run-ahead in commits (V3 only).
    pub fn steps_ahead(&self) -> usize {
        match *self {
            SimAlgorithm::RInvalV3 { steps_ahead, .. } => steps_ahead,
            _ => 0,
        }
    }

    /// The paper's Fig. 7/8 line-up.
    pub fn paper_lineup() -> [SimAlgorithm; 4] {
        [
            SimAlgorithm::NOrec,
            SimAlgorithm::InvalStm,
            SimAlgorithm::RInvalV1,
            SimAlgorithm::RInvalV2 { invalidators: 4 },
        ]
    }
}

/// One simulation run's configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Algorithm under simulation.
    pub algo: SimAlgorithm,
    /// Application (client) threads.
    pub threads: usize,
    /// Cores on the simulated machine (paper: 64).
    pub cores: usize,
    /// Workload profile.
    pub workload: Workload,
    /// Cost model.
    pub costs: CostModel,
    /// Virtual duration of the run in cycles.
    pub duration_cycles: u64,
    /// Optional cap on committed transactions (0 = unlimited); lets tests
    /// and fixed-work experiments (Fig. 8) terminate early.
    pub max_commits: u64,
    /// RNG seed for conflict sampling.
    pub seed: u64,
    /// Injected stall on invalidation-server 0, in cycles (models OS
    /// preemption / paging; used by the V2-vs-V3 ablation of paper §IV-C).
    pub server_stall: u64,
    /// Apply the stall every Nth commit processed by server 0
    /// (1 = every commit, i.e. a persistent slowdown; larger values model
    /// transient blocking, which is what V3's run-ahead absorbs).
    pub server_stall_every: u64,
    /// Reader-biased contention management (paper §V future work): if a
    /// commit would doom more than this many in-flight transactions, the
    /// committer aborts itself instead. `None` = committer always wins.
    pub reader_bias: Option<u32>,
}

impl SimConfig {
    /// A config with paper-like defaults for the given algorithm, thread
    /// count and workload.
    pub fn new(algo: SimAlgorithm, threads: usize, workload: Workload) -> SimConfig {
        SimConfig {
            algo,
            threads,
            cores: 64,
            workload,
            costs: CostModel::default(),
            duration_cycles: 40_000_000, // ~18 ms of 2.2 GHz virtual time
            max_commits: 0,
            seed: 0xC0FFEE,
            server_stall: 0,
            server_stall_every: 1,
            reader_bias: None,
        }
    }

    /// Oversubscription factor: when clients + servers exceed the core
    /// count every thread runs proportionally slower (coarse model of
    /// time-slicing; the paper never oversubscribes except at 64 threads
    /// where servers push past 64 runnable threads).
    pub fn slowdown(&self) -> f64 {
        let runnable = self.threads + self.algo.server_cores();
        if runnable <= self.cores {
            1.0
        } else {
            runnable as f64 / self.cores as f64
        }
    }
}

/// Aggregated outcome of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Virtual cycles actually simulated.
    pub wall_cycles: u64,
    /// Client cycles spent in reads + validation.
    pub validation_cycles: u64,
    /// Client cycles spent committing (including lock/server waits).
    pub commit_cycles: u64,
    /// Client cycles spent on non-transactional work, begin and backoff.
    pub other_cycles: u64,
}

impl SimResult {
    /// Committed transactions per second of virtual time.
    pub fn throughput(&self, costs: &CostModel) -> f64 {
        let secs = self.wall_cycles as f64 / (costs.ghz * 1e9);
        self.commits as f64 / secs.max(f64::MIN_POSITIVE)
    }

    /// Virtual seconds the run took (fixed-work experiments).
    pub fn wall_seconds(&self, costs: &CostModel) -> f64 {
        self.wall_cycles as f64 / (costs.ghz * 1e9)
    }

    /// `(validation, commit, other)` fractions of total client time,
    /// the paper's Fig. 2/3 stacking.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let total = (self.validation_cycles + self.commit_cycles + self.other_cycles) as f64;
        if total == 0.0 {
            return (0.0, 0.0, 1.0);
        }
        (
            self.validation_cycles as f64 / total,
            self.commit_cycles as f64 / total,
            self.other_cycles as f64 / total,
        )
    }

    /// Abort ratio over all attempts.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_ordered_sanely() {
        let c = CostModel::default();
        assert!(c.hit < c.miss);
        assert!(c.miss <= c.cas + c.miss);
        assert!(c.ghz > 0.0);
    }

    #[test]
    fn server_core_accounting() {
        assert_eq!(SimAlgorithm::NOrec.server_cores(), 0);
        assert_eq!(SimAlgorithm::RInvalV1.server_cores(), 1);
        assert_eq!(SimAlgorithm::RInvalV2 { invalidators: 4 }.server_cores(), 5);
        assert_eq!(
            SimAlgorithm::RInvalV3 {
                invalidators: 2,
                steps_ahead: 3
            }
            .server_cores(),
            3
        );
    }

    #[test]
    fn oversubscription_slowdown() {
        let w = crate::presets::rbtree(50);
        let mut cfg = SimConfig::new(SimAlgorithm::RInvalV2 { invalidators: 4 }, 60, w);
        assert_eq!(cfg.slowdown(), (60 + 5) as f64 / 64.0);
        cfg.threads = 32;
        assert_eq!(cfg.slowdown(), 1.0);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let r = SimResult {
            validation_cycles: 30,
            commit_cycles: 50,
            other_cycles: 20,
            ..Default::default()
        };
        let (v, c, o) = r.breakdown();
        assert!((v + c + o - 1.0).abs() < 1e-12);
        assert!((v - 0.3).abs() < 1e-12);
        assert!((c - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_uses_virtual_time() {
        let costs = CostModel::default();
        let r = SimResult {
            commits: 2200,
            wall_cycles: (costs.ghz * 1e9) as u64,
            ..Default::default()
        };
        assert!((r.throughput(&costs) - 2200.0).abs() < 1.0);
    }

    #[test]
    fn inval_conflict_prob_adds_fp() {
        let mut w = crate::presets::rbtree(50);
        w.conflict_prob = 0.01;
        w.bloom_fp_prob = 0.02;
        assert!((w.inval_conflict_prob() - 0.03).abs() < 1e-12);
    }
}
