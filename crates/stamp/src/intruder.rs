//! STAMP `intruder`: signature-based network intrusion detection.
//!
//! Packet *fragments* of many interleaved flows sit in a shared queue.
//! Each worker iteration is two short transactions — dequeue a fragment,
//! then fold it into the flow's reassembly state — followed by a
//! non-transactional detection pass when a flow completes. The shared
//! queue head/tail and the reassembly map churn constantly, giving the
//! high-contention small-transaction profile where the paper's Fig. 8d
//! shows RInval-V2 up to an order of magnitude ahead of InvalSTM.

use crate::{RunReport, SplitMix};
use rinval::{PhaseStats, Stm};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use txds::{THashMap, TQueue};

/// Fragments XOR to this value in attack flows.
pub const ATTACK_SIGNATURE: u64 = 0xDEAD;
/// Payloads are 48-bit so `count << 48 | xor` packs into a word.
const PAYLOAD_BITS: u32 = 48;
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;

/// Intruder workload parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of flows.
    pub flows: u64,
    /// Fragments per flow (≤ 255).
    pub frags_per_flow: u64,
    /// Every `attack_every`-th flow carries the attack signature.
    pub attack_every: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            flows: 512,
            frags_per_flow: 8,
            attack_every: 16,
            seed: 0x1D5,
        }
    }
}

impl Config {
    /// Number of planted attacks.
    pub fn planted_attacks(&self) -> u64 {
        self.flows.div_ceil(self.attack_every)
    }
}

/// A fragment on the wire: flow id + payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// Owning flow.
    pub flow: u64,
    /// 48-bit payload.
    pub payload: u64,
}

/// Generates the shuffled fragment trace. Flow `f` is an attack iff
/// `f % attack_every == 0`; its fragments XOR to [`ATTACK_SIGNATURE`].
pub fn generate_trace(cfg: &Config) -> Vec<Fragment> {
    assert!(cfg.frags_per_flow >= 1 && cfg.frags_per_flow <= 255);
    let mut rng = SplitMix::new(cfg.seed);
    let mut trace = Vec::with_capacity((cfg.flows * cfg.frags_per_flow) as usize);
    for f in 0..cfg.flows {
        let mut acc = 0u64;
        for i in 0..cfg.frags_per_flow - 1 {
            let p = rng.next_u64() & PAYLOAD_MASK;
            acc ^= p;
            trace.push(Fragment {
                flow: f,
                payload: p,
            });
            let _ = i;
        }
        // Last fragment fixes the XOR: attack flows hit the signature,
        // benign flows hit a random non-signature value.
        let target = if f % cfg.attack_every == 0 {
            ATTACK_SIGNATURE
        } else {
            let mut t = rng.next_u64() & PAYLOAD_MASK;
            if t == ATTACK_SIGNATURE {
                t ^= 1;
            }
            t
        };
        trace.push(Fragment {
            flow: f,
            payload: acc ^ target,
        });
    }
    rng.shuffle(&mut trace);
    trace
}

#[inline]
fn pack_state(count: u64, xor: u64) -> u64 {
    (count << PAYLOAD_BITS) | (xor & PAYLOAD_MASK)
}

#[inline]
fn unpack_state(v: u64) -> (u64, u64) {
    (v >> PAYLOAD_BITS, v & PAYLOAD_MASK)
}

/// Runs detection; `checksum` is the number of attacks detected.
pub fn run(stm: &Stm, threads: usize, cfg: &Config) -> RunReport {
    let trace = generate_trace(cfg);
    let queue = TQueue::new(stm);
    let assembly = THashMap::new(stm, (cfg.flows / 2).max(16) as u32);

    // Load the trace into the shared queue (setup, single-threaded).
    // Fragment encoding on the queue: flow << 48 | payload.
    {
        let mut th = stm.register_thread();
        for frag in &trace {
            let word = (frag.flow << PAYLOAD_BITS) | frag.payload;
            th.run(|tx| queue.enqueue(tx, word));
        }
    }

    let attacks = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let attacks = &attacks;
    let completed = &completed;
    let mut merged = PhaseStats::default();
    let started = Instant::now();
    let stats: Vec<PhaseStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    // Tx 1 each iteration: grab a fragment.
                    while let Some(word) = th.run(|tx| queue.dequeue(tx)) {
                        let flow = word >> PAYLOAD_BITS;
                        let payload = word & PAYLOAD_MASK;
                        // Tx 2: fold into the flow's reassembly state; if
                        // complete, extract the flow.
                        let done = th.run(|tx| {
                            let (count, xor) =
                                assembly.get(tx, flow)?.map(unpack_state).unwrap_or((0, 0));
                            let count = count + 1;
                            let xor = xor ^ payload;
                            if count == cfg.frags_per_flow {
                                assembly.remove(tx, flow)?;
                                Ok(Some(xor))
                            } else {
                                assembly.insert(tx, flow, pack_state(count, xor))?;
                                Ok(None)
                            }
                        });
                        // Non-transactional: signature detection.
                        if let Some(xor) = done {
                            completed.fetch_add(1, Ordering::Relaxed);
                            if xor == ATTACK_SIGNATURE {
                                attacks.fetch_add(1, Ordering::Relaxed);
                            }
                        }
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
    assert_eq!(
        completed.load(Ordering::Relaxed),
        cfg.flows,
        "not every flow reassembled"
    );
    RunReport {
        wall,
        stats: merged,
        threads,
        checksum: attacks.load(Ordering::Relaxed),
        heap: stm.heap_stats(),
        server: stm.server_stats(),
    }
}

/// Verifies a report: detected attacks must equal the planted count.
pub fn verify(cfg: &Config, report: &RunReport) -> Result<(), String> {
    let want = cfg.planted_attacks();
    if report.checksum == want {
        Ok(())
    } else {
        Err(format!(
            "detected {} attacks, planted {want}",
            report.checksum
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    fn small() -> Config {
        Config {
            flows: 64,
            frags_per_flow: 4,
            attack_every: 8,
            seed: 3,
        }
    }

    #[test]
    fn trace_has_all_fragments_and_signatures() {
        let cfg = small();
        let trace = generate_trace(&cfg);
        assert_eq!(trace.len() as u64, cfg.flows * cfg.frags_per_flow);
        // Reassemble sequentially.
        let mut xor = vec![0u64; cfg.flows as usize];
        let mut count = vec![0u64; cfg.flows as usize];
        for f in &trace {
            xor[f.flow as usize] ^= f.payload;
            count[f.flow as usize] += 1;
        }
        for f in 0..cfg.flows {
            assert_eq!(count[f as usize], cfg.frags_per_flow);
            let is_attack = f % cfg.attack_every == 0;
            assert_eq!(
                xor[f as usize] == ATTACK_SIGNATURE,
                is_attack,
                "flow {f} signature wrong"
            );
        }
    }

    #[test]
    fn state_packing_roundtrip() {
        let v = pack_state(7, 0xABCDE);
        assert_eq!(unpack_state(v), (7, 0xABCDE));
    }

    #[test]
    fn sequential_detects_all_planted() {
        let cfg = small();
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 14)
            .build();
        let report = run(&stm, 1, &cfg);
        verify(&cfg, &report).unwrap();
    }

    #[test]
    fn concurrent_detection_is_exact() {
        let cfg = small();
        for algo in [
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV1,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
        ] {
            let stm = Stm::builder(algo).heap_words(1 << 14).build();
            let report = run(&stm, 3, &cfg);
            verify(&cfg, &report).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        }
    }
}
