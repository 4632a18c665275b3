//! STAMP `bayes`: Bayesian network structure learning (simplified).
//!
//! Workers score candidate edges *outside* transactions (the dominant
//! cost, modelled by a no-op burn sized like the original's
//! log-likelihood computation), then atomically add an edge to the shared
//! DAG — a transaction that re-reads the adjacency rows reachable from the
//! target to prove acyclicity before writing one bit. The paper groups
//! bayes with labyrinth ("almost all of the work is non-transactional",
//! §III; "we did not show bayes as it behaves the same as labyrinth", §V),
//! and this profile preserves exactly that.

use crate::{nontx_work, RunReport, SplitMix};
use rinval::{PhaseStats, Stm, TxResult, Txn};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use txds::TBitmap;

/// Bayes workload parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of variables (≤ 64 so one adjacency row is one heap word).
    pub vars: u64,
    /// Candidate edges proposed (with duplicates / cycle-inducing ones).
    pub candidates: usize,
    /// Non-transactional scoring cost per candidate, in no-ops.
    pub score_noops: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            vars: 48,
            candidates: 600,
            score_noops: 2000,
            seed: 0xBAE5,
        }
    }
}

/// Generates the candidate edge list (ordered pairs, no self loops).
pub fn generate_candidates(cfg: &Config) -> Vec<(u64, u64)> {
    let mut rng = SplitMix::new(cfg.seed);
    let mut out = Vec::with_capacity(cfg.candidates);
    while out.len() < cfg.candidates {
        let a = rng.below(cfg.vars);
        let b = rng.below(cfg.vars);
        if a != b {
            out.push((a, b));
        }
    }
    out
}

/// Transactionally checks whether `to` can already reach `from` through
/// the adjacency bitmap (row `u` = bits `u*vars .. u*vars+vars`); if so,
/// adding `from → to` would create a cycle.
fn reaches(adj: &TBitmap, vars: u64, tx: &mut Txn<'_>, start: u64, target: u64) -> TxResult<bool> {
    let mut stack = vec![start];
    let mut visited = vec![false; vars as usize];
    visited[start as usize] = true;
    while let Some(u) = stack.pop() {
        if u == target {
            return Ok(true);
        }
        for v in 0..vars {
            if !visited[v as usize] && adj.test(tx, u * vars + v)? {
                visited[v as usize] = true;
                stack.push(v);
            }
        }
    }
    Ok(false)
}

/// Runs structure learning; `checksum` is the number of edges accepted.
pub fn run(stm: &Stm, threads: usize, cfg: &Config) -> RunReport {
    assert!(cfg.vars <= 64);
    let candidates = generate_candidates(cfg);
    let adj = TBitmap::new(stm, cfg.vars * cfg.vars);
    run_on(stm, &adj, &candidates, threads, cfg)
}

/// Runs and verifies acyclicity of the produced DAG.
pub fn run_verified(stm: &Stm, threads: usize, cfg: &Config) -> Result<RunReport, String> {
    assert!(cfg.vars <= 64);
    let candidates = generate_candidates(cfg);
    let adj = TBitmap::new(stm, cfg.vars * cfg.vars);
    let report = run_on(stm, &adj, &candidates, threads, cfg);
    check_acyclic(stm, &adj, cfg.vars)?;
    if report.checksum == 0 {
        return Err("no edges were accepted".into());
    }
    Ok(report)
}

fn run_on(
    stm: &Stm,
    adj: &TBitmap,
    candidates: &[(u64, u64)],
    threads: usize,
    cfg: &Config,
) -> RunReport {
    let next = AtomicUsize::new(0);
    let next = &next;
    let mut merged = PhaseStats::default();
    let started = Instant::now();
    let stats: Vec<PhaseStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= candidates.len() {
                            break;
                        }
                        let (from, to) = candidates[i];
                        nontx_work(cfg.score_noops);
                        th.run(|tx| {
                            if adj.test(tx, from * cfg.vars + to)? {
                                return Ok(());
                            }
                            if reaches(adj, cfg.vars, tx, to, from)? {
                                return Ok(());
                            }
                            adj.set(tx, from * cfg.vars + to).map(|_| ())
                        });
                    }
                    th.take_stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();
    for st in &stats {
        merged.merge(st);
    }
    RunReport {
        wall,
        stats: merged,
        threads,
        checksum: adj.popcount(stm),
        heap: stm.heap_stats(),
        server: stm.server_stats(),
    }
}

/// Kahn's algorithm over the quiescent adjacency snapshot.
fn check_acyclic(stm: &Stm, adj: &TBitmap, vars: u64) -> Result<(), String> {
    let edge = |u: u64, v: u64| {
        stm.peek(adj.word_handle(u * vars + v)) & (1 << ((u * vars + v) % 64)) != 0
    };
    let mut indeg = vec![0u64; vars as usize];
    for u in 0..vars {
        for v in 0..vars {
            if edge(u, v) {
                indeg[v as usize] += 1;
            }
        }
    }
    let mut queue: Vec<u64> = (0..vars).filter(|&v| indeg[v as usize] == 0).collect();
    let mut removed = 0;
    while let Some(u) = queue.pop() {
        removed += 1;
        for v in 0..vars {
            if edge(u, v) {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
    }
    if removed == vars {
        Ok(())
    } else {
        Err("the learned graph contains a cycle".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    fn small() -> Config {
        Config {
            vars: 16,
            candidates: 120,
            score_noops: 50,
            seed: 21,
        }
    }

    #[test]
    fn candidates_have_no_self_loops() {
        let cfg = small();
        for (a, b) in generate_candidates(&cfg) {
            assert_ne!(a, b);
            assert!(a < cfg.vars && b < cfg.vars);
        }
    }

    #[test]
    fn sequential_graph_is_acyclic() {
        let cfg = small();
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 12)
            .build();
        run_verified(&stm, 1, &cfg).unwrap();
    }

    #[test]
    fn concurrent_learning_stays_acyclic() {
        let cfg = small();
        for algo in [
            AlgorithmKind::NOrec,
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
        ] {
            let stm = Stm::builder(algo).heap_words(1 << 12).build();
            run_verified(&stm, 3, &cfg).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        }
    }
}
