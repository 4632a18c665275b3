//! STAMP `genome`: gene sequencing by segment deduplication and overlap
//! matching.
//!
//! A genome of `genome_len` symbols is oversampled into `copies ×
//! genome_len` overlapping segments of length `segment_len`. Phase 1
//! deduplicates segments into a shared hash set (read-dominated once the
//! set is warm — most inserts find the segment already present). Phase 2
//! links unique segments whose (k-1)-prefix matches another's (k-1)-suffix,
//! reconstructing the genome (long read transactions over the prefix
//! index).
//!
//! This is the read-intensive profile where the paper's Fig. 8e shows
//! NOrec *beating* invalidation algorithms: aborted readers must re-execute
//! their whole read phase, so invalidating readers is costly. RInval stays
//! between NOrec and InvalSTM.

use crate::{RunReport, SplitMix};
use rinval::{PhaseStats, Stm};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use txds::THashMap;

/// Genome workload parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Genome length in symbols (alphabet of 4, like nucleotides).
    pub genome_len: usize,
    /// Segment length (k-mer size); must be ≤ 21 so a segment packs into
    /// one `u64` (3 bits/symbol with guard bit).
    pub segment_len: usize,
    /// Oversampling factor: how many times each position is segmented.
    pub copies: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            genome_len: 4096,
            segment_len: 12,
            copies: 4,
            seed: 0x6E0,
        }
    }
}

/// Generates the genome symbol string (values 0..4).
pub fn generate_genome(cfg: &Config) -> Vec<u8> {
    let mut rng = SplitMix::new(cfg.seed);
    (0..cfg.genome_len).map(|_| rng.below(4) as u8).collect()
}

/// Packs `seg` (symbols 0..4) into a u64 key with a leading guard bit so
/// different lengths never collide.
fn pack(seg: &[u8]) -> u64 {
    let mut k = 1u64;
    for &s in seg {
        k = (k << 2) | s as u64;
    }
    k
}

/// All segments (with duplicates), shuffled deterministically — the work
/// list that threads drain in phase 1.
pub fn generate_segments(cfg: &Config, genome: &[u8]) -> Vec<u64> {
    let mut segs = Vec::new();
    let n = genome.len();
    for _ in 0..cfg.copies {
        for start in 0..n {
            let mut seg = Vec::with_capacity(cfg.segment_len);
            for i in 0..cfg.segment_len {
                seg.push(genome[(start + i) % n]);
            }
            segs.push(pack(&seg));
        }
    }
    let mut rng = SplitMix::new(cfg.seed ^ 0xFACE);
    rng.shuffle(&mut segs);
    segs
}

/// Runs both phases; `checksum` is the number of unique segments linked
/// into the overlap graph in phase 2.
pub fn run(stm: &Stm, threads: usize, cfg: &Config) -> RunReport {
    assert!(cfg.segment_len <= 21, "segment must pack into u64");
    let genome = generate_genome(cfg);
    let segments = generate_segments(cfg, &genome);

    // Phase 1 output: the unique-segment set.
    let unique = THashMap::new(stm, (cfg.genome_len / 2).max(64) as u32);
    // Phase 2 output: prefix → segment index (the overlap chain).
    let chain = THashMap::new(stm, (cfg.genome_len / 2).max(64) as u32);

    let mut merged = PhaseStats::default();
    let started = Instant::now();

    // ---- Phase 1: transactional dedup ----
    let next = AtomicUsize::new(0);
    {
        let next = &next;
        let segments = &segments;
        let stats: Vec<PhaseStats> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= segments.len() {
                                break;
                            }
                            let seg = segments[i];
                            th.run(|tx| {
                                // Read-dominated: 3/4 of attempts find the
                                // segment already present.
                                if !unique.contains(tx, seg)? {
                                    unique.insert(tx, seg, 1)?;
                                }
                                Ok(())
                            });
                        }
                        th.take_stats()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for st in &stats {
            merged.merge(st);
        }
    }

    // ---- Phase 2: overlap matching ----
    // Each unique segment S registers under its (k-1)-prefix, then looks up
    // which segment's (k-1)-suffix matches — a read transaction over the
    // shared index.
    let uniques: Vec<u64> = unique.snapshot(stm).into_iter().map(|(k, _)| k).collect();
    let next2 = AtomicUsize::new(0);
    let linked_total: u64 = {
        let next2 = &next2;
        let uniques = &uniques;
        let chain = &chain;
        let seg_len = cfg.segment_len as u32;
        let results: Vec<(PhaseStats, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(move || {
                        let mut th = stm.register_thread();
                        let mut linked = 0u64;
                        loop {
                            let i = next2.fetch_add(1, Ordering::Relaxed);
                            if i >= uniques.len() {
                                break;
                            }
                            let seg = uniques[i];
                            // (k-1)-prefix: drop the last symbol, keep guard.
                            let prefix = seg >> 2;
                            // (k-1)-suffix: drop the first symbol, re-guard.
                            let suffix = (seg & ((1u64 << (2 * (seg_len - 1))) - 1))
                                | (1u64 << (2 * (seg_len - 1)));
                            let was_linked = th.run(|tx| {
                                chain.insert(tx, prefix, seg)?;
                                // Does some segment end with our prefix —
                                // i.e. is our suffix someone's prefix?
                                chain.contains(tx, suffix)
                            });
                            if was_linked {
                                linked += 1;
                            }
                        }
                        (th.take_stats(), linked)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut total = 0;
        for (st, l) in results {
            merged.merge(&st);
            total += l;
        }
        total
    };

    let wall = started.elapsed();
    let _ = linked_total;
    RunReport {
        wall,
        stats: merged,
        threads,
        checksum: unique.snapshot(stm).len() as u64,
        heap: stm.heap_stats(),
        server: stm.server_stats(),
    }
}

/// Verifies: the unique-segment count equals the sequential model's.
pub fn verify(cfg: &Config, report: &RunReport) -> Result<(), String> {
    let genome = generate_genome(cfg);
    let mut model = generate_segments(cfg, &genome);
    model.sort_unstable();
    model.dedup();
    if report.checksum == model.len() as u64 {
        Ok(())
    } else {
        Err(format!(
            "unique segments {} != model {}",
            report.checksum,
            model.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    fn small() -> Config {
        Config {
            genome_len: 256,
            segment_len: 8,
            copies: 3,
            seed: 11,
        }
    }

    #[test]
    fn pack_is_injective_for_fixed_len() {
        let a = pack(&[0, 1, 2, 3]);
        let b = pack(&[0, 1, 2, 2]);
        let c = pack(&[1, 1, 2, 3]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Guard bit separates lengths.
        assert_ne!(pack(&[0, 0]), pack(&[0, 0, 0]));
    }

    #[test]
    fn segments_cover_every_position() {
        let cfg = small();
        let genome = generate_genome(&cfg);
        let segs = generate_segments(&cfg, &genome);
        assert_eq!(segs.len(), cfg.genome_len * cfg.copies);
        let mut uniq = segs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        // Circular windows: at most genome_len distinct segments.
        assert!(uniq.len() <= cfg.genome_len);
    }

    #[test]
    fn sequential_run_verifies() {
        let cfg = small();
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 16)
            .build();
        let report = run(&stm, 1, &cfg);
        verify(&cfg, &report).unwrap();
    }

    #[test]
    fn concurrent_dedup_is_exact() {
        let cfg = small();
        for algo in [
            AlgorithmKind::NOrec,
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
        ] {
            let stm = Stm::builder(algo).heap_words(1 << 16).build();
            let report = run(&stm, 3, &cfg);
            verify(&cfg, &report).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        }
    }
}
