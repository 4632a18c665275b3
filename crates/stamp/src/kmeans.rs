//! STAMP `kmeans`: iterative K-means clustering.
//!
//! Transactional profile (matches the C original): each point's assignment
//! is computed *outside* any transaction against the previous iteration's
//! centroids; a short write transaction then folds the point into the new
//! centroid accumulators (`len`-dimension sums + one count). Contention is
//! concentrated on `clusters` records — moderate, rising with thread count
//! — and commit cost dominates validation, which is why the paper sees
//! invalidation-based algorithms (and especially RInval) win here (Fig.
//! 8a).
//!
//! Input: seeded Gaussian-ish blobs around `clusters` true centres, so
//! convergence is fast and verifiable.

use crate::{nontx_work, RunReport, SplitMix};
use rinval::{PhaseStats, Stm};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use txds::TArray;

/// K-means workload parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of points.
    pub points: usize,
    /// Dimensions per point.
    pub dims: usize,
    /// Number of clusters (K).
    pub clusters: usize,
    /// Clustering iterations (fixed, like STAMP's -T with early exit off).
    pub iterations: usize,
    /// No-ops of extra per-point non-transactional work.
    pub nontx_noops: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            points: 4096,
            dims: 4,
            clusters: 8,
            iterations: 4,
            nontx_noops: 16,
            seed: 0x5EED,
        }
    }
}

/// Generates the blob dataset: `points` rows of `dims` coordinates.
pub fn generate_points(cfg: &Config) -> Vec<f64> {
    let mut rng = SplitMix::new(cfg.seed);
    let mut data = Vec::with_capacity(cfg.points * cfg.dims);
    for p in 0..cfg.points {
        let c = p % cfg.clusters;
        for d in 0..cfg.dims {
            // True centre at (c*10) in every dimension, +/- 1 noise.
            let noise = rng.unit_f64() * 2.0 - 1.0;
            data.push(c as f64 * 10.0 + d as f64 + noise);
        }
    }
    data
}

fn nearest(centroids: &[f64], dims: usize, k: usize, point: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for c in 0..k {
        let mut dist = 0.0;
        for d in 0..dims {
            let diff = centroids[c * dims + d] - point[d];
            dist += diff * diff;
        }
        if dist < best_d {
            best_d = dist;
            best = c;
        }
    }
    best
}

/// Runs K-means and reports. `checksum` is the number of points that ended
/// in their generating cluster (used by the verifier).
pub fn run(stm: &Stm, threads: usize, cfg: &Config) -> RunReport {
    let data = generate_points(cfg);
    let k = cfg.clusters;
    let dims = cfg.dims;

    // Shared transactional accumulators for the iteration being computed.
    let sums: TArray<f64> = TArray::new(stm, k * dims);
    let counts: TArray<u64> = TArray::new(stm, k);

    // Previous iteration's centroids, read-only during the parallel phase
    // (STAMP also keeps them in plain memory).
    let mut centroids: Vec<f64> = (0..k * dims)
        .map(|i| {
            let c = i / dims;
            let d = i % dims;
            // Deliberately offset initial guesses.
            c as f64 * 10.0 + d as f64 + 2.0
        })
        .collect();

    let mut merged = PhaseStats::default();
    let mut assignments = vec![0usize; cfg.points];
    let started = Instant::now();

    for _iter in 0..cfg.iterations {
        // Reset accumulators (quiescent).
        for i in 0..k * dims {
            sums.poke(stm, i, 0.0);
        }
        for c in 0..k {
            counts.poke(stm, c, 0);
        }

        let next_point = AtomicUsize::new(0);
        let next_point = &next_point;
        let centroids_ref = &centroids;
        let data_ref = &data;
        let iter_stats: Vec<(PhaseStats, Vec<(usize, usize)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        let mut my_assign = Vec::new();
                        loop {
                            // Self-scheduling chunks, like STAMP's work queue.
                            let p = next_point.fetch_add(1, Ordering::Relaxed);
                            if p >= cfg.points {
                                break;
                            }
                            let point = &data_ref[p * dims..(p + 1) * dims];
                            // Non-transactional: distance computation.
                            let c = nearest(centroids_ref, dims, k, point);
                            nontx_work(cfg.nontx_noops);
                            my_assign.push((p, c));
                            // Transactional: fold into the new centroid.
                            th.run(|tx| {
                                for (d, &coord) in point.iter().enumerate() {
                                    let i = c * dims + d;
                                    let cur = sums.get(tx, i)?;
                                    sums.set(tx, i, cur + coord)?;
                                }
                                let n = counts.get(tx, c)?;
                                counts.set(tx, c, n + 1)
                            });
                        }
                        (th.take_stats(), my_assign)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut assigned_total = 0u64;
        for (st, assigns) in iter_stats {
            merged.merge(&st);
            for (p, c) in assigns {
                assignments[p] = c;
            }
            // (count folded below via counts array)
        }
        for c in 0..k {
            assigned_total += counts.peek(stm, c);
        }
        assert_eq!(
            assigned_total, cfg.points as u64,
            "kmeans lost point assignments — transactional accumulation is broken"
        );
        // Recompute centroids (quiescent).
        for c in 0..k {
            let n = counts.peek(stm, c);
            if n == 0 {
                continue;
            }
            for d in 0..dims {
                centroids[c * dims + d] = sums.peek(stm, c * dims + d) / n as f64;
            }
        }
    }
    let wall = started.elapsed();

    // Checksum: points assigned to their generating blob. With well
    // separated blobs this should be every point once converged.
    let correct = (0..cfg.points).filter(|&p| assignments[p] == p % k).count() as u64;

    RunReport {
        wall,
        stats: merged,
        threads,
        checksum: correct,
        heap: stm.heap_stats(),
        server: stm.server_stats(),
    }
}

/// Verifies a report produced by [`run`]: every point must sit in its
/// generating cluster (blobs are separated by 10, noise by 1).
pub fn verify(cfg: &Config, report: &RunReport) -> Result<(), String> {
    if report.checksum == cfg.points as u64 {
        Ok(())
    } else {
        Err(format!(
            "only {}/{} points converged to their generating blob",
            report.checksum, cfg.points
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    fn small() -> Config {
        Config {
            points: 512,
            dims: 2,
            clusters: 4,
            iterations: 3,
            nontx_noops: 4,
            seed: 1,
        }
    }

    #[test]
    fn generate_points_shape_and_determinism() {
        let cfg = small();
        let a = generate_points(&cfg);
        let b = generate_points(&cfg);
        assert_eq!(a.len(), cfg.points * cfg.dims);
        assert_eq!(a, b);
    }

    #[test]
    fn nearest_picks_closest() {
        let centroids = [0.0, 0.0, 10.0, 10.0];
        assert_eq!(nearest(&centroids, 2, 2, &[1.0, 1.0]), 0);
        assert_eq!(nearest(&centroids, 2, 2, &[9.0, 9.0]), 1);
    }

    #[test]
    fn single_thread_converges() {
        let cfg = small();
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 14)
            .build();
        let report = run(&stm, 1, &cfg);
        verify(&cfg, &report).unwrap();
        assert!(report.stats.commits >= (cfg.points * cfg.iterations) as u64);
    }

    #[test]
    fn multi_thread_matches_across_algorithms() {
        let cfg = small();
        for algo in [
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
        ] {
            let stm = Stm::builder(algo).heap_words(1 << 14).build();
            let report = run(&stm, 3, &cfg);
            verify(&cfg, &report).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        }
    }
}
