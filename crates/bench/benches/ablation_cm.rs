//! Ablation (paper §V future work): reader-biased contention management.
//!
//! The paper proposes, as an enhancement for the read-intensive cases it
//! loses (genome, vacation), to "bias the contention manager to readers,
//! and allow it to abort the committing transaction if it is conflicting
//! with many readers (instead of the classical winning commit mechanism)".
//! The policy exists in the simulator alone (`SimConfig::reader_bias`):
//! this bench measures whether the hypothesis holds and what it costs on
//! writer-dominated workloads, and its result — a loss on three of four
//! apps (EXPERIMENTS.md §"Ablation §V") — is why the real engines keep the
//! paper's committer-always-wins rule and nothing else.

use bench::banner;
use simcore::{simulate, CostModel, SimAlgorithm, SimConfig};

fn exec_ms(w: &simcore::Workload, threads: usize, bias: Option<u32>, algo: SimAlgorithm) -> f64 {
    let mut cfg = SimConfig::new(algo, threads, w.clone());
    cfg.max_commits = 6_000;
    cfg.duration_cycles = u64::MAX / 4;
    cfg.reader_bias = bias;
    simulate(&cfg).wall_seconds(&CostModel::default()) * 1000.0
}

fn main() {
    banner(
        "Ablation §V (simulated 64-core): reader-biased contention manager",
        "RInval-V2 execution time for 6k commits under doom budgets [ms]",
        "hypothesis (paper future work): biasing to readers improves the \
         read-intensive benchmarks (genome, vacation) where committer-wins \
         loses to NOrec; expected to hurt writer-heavy workloads",
    );
    let v2 = SimAlgorithm::RInvalV2 { invalidators: 4 };
    println!(
        "{:>10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "app", "threads", "wins", "bias<=4", "bias<=2", "bias<=1", "norec(ref)"
    );
    for name in ["genome", "vacation", "kmeans", "intruder"] {
        let w = simcore::presets::by_name(name).unwrap();
        for threads in [16usize, 32] {
            let wins = exec_ms(&w, threads, None, v2);
            let b4 = exec_ms(&w, threads, Some(4), v2);
            let b2 = exec_ms(&w, threads, Some(2), v2);
            let b1 = exec_ms(&w, threads, Some(1), v2);
            let norec = exec_ms(&w, threads, None, SimAlgorithm::NOrec);
            println!(
                "{name:>10} {threads:>8} {wins:>10.1} {b4:>10.1} {b2:>10.1} {b1:>10.1} {norec:>12.1}"
            );
        }
    }
}
