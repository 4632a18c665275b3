//! Closed-loop load generator with a chaos mode and an exactly-once
//! ledger.
//!
//! Every client owns a strictly increasing idempotency-key counter and has
//! exactly one operation outstanding: on `RetryAfter`/`Timeout` it backs
//! off and retries the *same* key until the service acknowledges it. That
//! closed loop is what makes the ledger decisive — at quiescence, the
//! number of operations the service *applied* for a client
//! ([`crate::Frontend::applied_ops`]) must equal the number the client saw
//! *acknowledged*: a shortfall is a lost operation, an excess is a
//! duplicate, and either fails the run.
//!
//! Load shape: zipfian hot keys (precomputed CDF), optional bursty
//! busy/idle arrival phases, and a read/write mix. Chaos mode arms a
//! [`rinval::faults`] spec mid-run (optionally killing an invalidation
//! server so engine-level degradation composes with service-level faults),
//! disarms it, then watches the windowed write p99 until it returns under
//! the SLO — recovery must land inside the configured window.

use crate::{Request, SvcConfig, SvcError, SvcStats, Workload};
use rinval::faults::site;
use rinval::stats::log2_quantile_ns;
use rinval::{FaultAction, ServerStats, Stm};
use stamp::SplitMix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Builds a concrete request from the sampled shape: `(client, rng,
/// hot_key, write?) -> (endpoint, args)`. This is the only
/// workload-specific piece of the generator.
pub type RequestPlan = dyn Fn(u64, &mut SplitMix, u64, bool) -> (u8, [u64; 4]) + Sync;

/// Bursty arrival phases: `busy` of full-rate submission, then `idle` of
/// silence, repeating.
#[derive(Clone, Copy, Debug)]
pub struct Burst {
    /// Full-rate phase length.
    pub busy: Duration,
    /// Silent phase length.
    pub idle: Duration,
}

/// Chaos-mode schedule.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// When (after start) to arm the fault spec.
    pub arm_at: Duration,
    /// When to disarm every site again.
    pub disarm_at: Duration,
    /// `RINVAL_FAILPOINTS`-syntax spec to arm (may be empty).
    pub spec: String,
    /// Additionally kill one invalidation server (engine-level fault) at
    /// arm time.
    pub kill_inval_server: bool,
    /// Recovery budget: windowed write p99 must return under the SLO
    /// within this long after disarm.
    pub recovery_window: Duration,
}

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Closed-loop client threads.
    pub clients: u64,
    /// Measured run length (excludes the drain phase).
    pub duration: Duration,
    /// Per-request deadline.
    pub timeout: Duration,
    /// Percent of operations that are writes.
    pub write_pct: u64,
    /// Hot-key space sampled through the zipfian CDF.
    pub keys: u64,
    /// Zipf exponent (0 = uniform; 1 ≈ classic web skew).
    pub zipf_s: f64,
    /// Optional bursty arrivals.
    pub burst: Option<Burst>,
    /// Deterministic seed. Per-client streams are split off a parent
    /// SplitMix64 generator seeded with this ([`stamp::SplitMix::split`]),
    /// so client `c`'s request sequence is a pure function of
    /// `(seed, c, plan)`.
    pub seed: u64,
    /// Optional chaos schedule.
    pub chaos: Option<ChaosConfig>,
    /// Ops-bounded mode: each client issues exactly this many operations
    /// instead of running for [`LoadConfig::duration`] — the replay mode,
    /// where the set of issued requests (and so the fault-site hit counts)
    /// must not depend on wall-clock speed. Bursty arrivals are ignored
    /// (they only shape time).
    pub ops_per_client: Option<u64>,
    /// Write retry budget before a client gives up on its key and reports
    /// itself undrained. The default is effectively "retry until the drain
    /// is conclusive"; chaos episodes lower it so a plan that permanently
    /// swallows replies (e.g. the dedup-disabled canary) fails fast
    /// instead of spinning through thousands of timeouts.
    pub max_write_tries: u32,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 8,
            duration: Duration::from_millis(500),
            timeout: Duration::from_millis(100),
            write_pct: 50,
            keys: 256,
            zipf_s: 1.0,
            burst: None,
            seed: 0x10AD,
            chaos: None,
            ops_per_client: None,
            max_write_tries: 10_000,
        }
    }
}

/// Per-endpoint slice of a [`LoadReport`].
#[derive(Clone, Debug)]
pub struct EndpointReport {
    /// Endpoint name.
    pub name: &'static str,
    /// Requests that ran a transaction.
    pub executed: u64,
    /// Lifetime p50, upper bucket edge in ns (0 when nothing executed).
    pub p50_ns: u64,
    /// Lifetime p99, upper bucket edge in ns (0 when nothing executed).
    pub p99_ns: u64,
}

/// Outcome of one load run: the ledger, the latency profile, recovery.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Per-endpoint latency/volume.
    pub endpoints: Vec<EndpointReport>,
    /// Write operations acknowledged to clients (unique keys).
    pub acked_writes: u64,
    /// Write operations the service applied (dedup-ledger sum).
    pub applied_writes: u64,
    /// Acked but never applied — must be 0.
    pub lost: u64,
    /// Applied beyond acked — must be 0 once drained.
    pub duplicated: u64,
    /// Clients that exhausted the drain budget with a key still
    /// unacknowledged (makes the ledger inconclusive; fails the run).
    pub undrained: u64,
    /// Service lifecycle counters.
    pub svc: SvcStats,
    /// Engine counters (respawns, degradations, timeout withdrawals …).
    pub server: ServerStats,
    /// Whether the engine degraded off its nominal algorithm.
    pub degraded: bool,
    /// Time from chaos disarm to the write p99 returning under the SLO
    /// (`None` = never recovered, or no chaos was scheduled).
    pub recovered_after: Option<Duration>,
    /// Whether chaos was scheduled.
    pub chaos_ran: bool,
    /// Fault-journal fires recorded during the run (0 without the
    /// `failpoints` feature).
    pub fault_fires: u64,
    /// Order-insensitive fault-journal digest — the replay gate's equality
    /// surface (0 without the `failpoints` feature).
    pub fault_digest: u64,
}

impl LoadReport {
    /// The pass/fail verdict the chaos gate enforces: nothing lost,
    /// nothing duplicated, ledger conclusive, and — when chaos ran —
    /// recovery observed.
    pub fn ledger_ok(&self) -> bool {
        self.lost == 0
            && self.duplicated == 0
            && self.undrained == 0
            && (!self.chaos_ran || self.recovered_after.is_some())
    }

    /// Human/CI-readable summary. The per-endpoint lines are the
    /// bench-smoke grep surface: `endpoint=<name> … p50=<ns> p99=<ns>`.
    pub fn print(&self) {
        for ep in &self.endpoints {
            println!(
                "endpoint={} executed={} p50={}ns p99={}ns",
                ep.name, ep.executed, ep.p50_ns, ep.p99_ns
            );
        }
        println!(
            "ledger acked={} applied={} lost={} duplicated={} undrained={}",
            self.acked_writes, self.applied_writes, self.lost, self.duplicated, self.undrained
        );
        println!(
            "svc accepted={} shed={} dedup_hits={} timeouts={} worker_deaths={} respawns={} \
             caller_parks={} worker_parks={} wakes_sent={}",
            self.svc.accepted,
            self.svc.shed_writes,
            self.svc.dedup_hits,
            self.svc.client_timeouts,
            self.svc.worker_deaths,
            self.svc.worker_respawns,
            self.svc.caller_parks,
            self.svc.worker_parks,
            self.svc.wakes_sent
        );
        match (self.chaos_ran, self.recovered_after) {
            (true, Some(d)) => println!("chaos recovered_after={}ms", d.as_millis()),
            (true, None) => println!("chaos recovered_after=NEVER"),
            (false, _) => {}
        }
        if self.fault_fires > 0 {
            println!(
                "faults fired={} digest={:#018x}",
                self.fault_fires, self.fault_digest
            );
        }
        println!(
            "verdict {} (degraded={})",
            if self.ledger_ok() { "OK" } else { "FAILED" },
            self.degraded
        );
    }
}

/// Zipfian sampler over `1..=keys` via a precomputed CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(keys: u64, s: f64) -> Zipf {
        let n = keys.max(1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix) -> u64 {
        let u = rng.below(1 << 53) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Runs the generator against `workload` behind a fresh service instance
/// on `stm`. Deterministic in everything but thread interleaving.
pub fn run(
    stm: &Stm,
    workload: &dyn Workload,
    svc_cfg: &SvcConfig,
    cfg: &LoadConfig,
    plan: &RequestPlan,
) -> LoadReport {
    assert!(
        cfg.clients <= svc_cfg.clients,
        "loadgen: more clients than the service's dedup table"
    );
    let write_endpoints: Vec<u8> = workload
        .endpoints()
        .iter()
        .enumerate()
        .filter_map(|(i, ep)| ep.writes.then_some(i as u8))
        .collect();
    let zipf = Zipf::new(cfg.keys, cfg.zipf_s);
    // Split one independent stream per client off a parent generator (the
    // SplitMix64 idiom) — the XOR-of-index scheme this replaces gave
    // correlated sibling streams and made replay depend on the mixing
    // constant instead of on the algorithm's own splitting contract.
    let client_rngs: Vec<SplitMix> = {
        let mut parent = SplitMix::new(cfg.seed);
        (0..cfg.clients).map(|_| parent.split()).collect()
    };
    let acked: Vec<AtomicU64> = (0..cfg.clients).map(|_| AtomicU64::new(0)).collect();
    let undrained = AtomicU64::new(0);
    let recovered_after: AtomicU64 = AtomicU64::new(u64::MAX);

    crate::serve(stm, workload, svc_cfg, |front| {
        let start = Instant::now();
        // Clients still generating; the chaos thread reads 0 as "the run
        // is over" (an idle service trivially meets its SLO).
        let live = AtomicU64::new(cfg.clients);
        std::thread::scope(|s| {
            // Chaos controller + recovery monitor.
            if let Some(chaos) = &cfg.chaos {
                let live = &live;
                let recovered = &recovered_after;
                let slo_ns = svc_cfg.slo_p99.as_nanos() as u64;
                let weps = write_endpoints.clone();
                s.spawn(move || {
                    let sleep_until = |t: Duration| {
                        let now = start.elapsed();
                        if t > now {
                            std::thread::sleep(t - now);
                        }
                    };
                    sleep_until(chaos.arm_at);
                    if !chaos.spec.is_empty() {
                        stm.faults().arm_from_spec(&chaos.spec);
                    }
                    if chaos.kill_inval_server {
                        stm.faults()
                            .arm(site::SERVER_INVAL_DEATH, FaultAction::Exit, Some(1));
                    }
                    sleep_until(chaos.disarm_at);
                    for idx in 0..site::COUNT {
                        stm.faults().disarm(idx);
                    }
                    // Recovery watch: sample the write-endpoint latency
                    // deltas until their p99 dips under the SLO.
                    let disarmed = Instant::now();
                    let mut prev: Vec<[u64; 32]> =
                        weps.iter().map(|&e| front.endpoint_latency(e).0).collect();
                    while disarmed.elapsed() <= chaos.recovery_window {
                        std::thread::sleep(Duration::from_millis(20));
                        let mut delta = [0u64; 32];
                        for (j, &e) in weps.iter().enumerate() {
                            let cur = front.endpoint_latency(e).0;
                            for i in 0..32 {
                                delta[i] += cur[i] - prev[j][i];
                            }
                            prev[j] = cur;
                        }
                        match log2_quantile_ns(&delta, 0.99) {
                            Some(p99) if p99 <= slo_ns => {
                                recovered
                                    .store(disarmed.elapsed().as_nanos() as u64, Ordering::SeqCst);
                                return;
                            }
                            None if live.load(Ordering::SeqCst) == 0 => {
                                // No writes left to measure: the run ended
                                // and the idle service meets its SLO.
                                recovered
                                    .store(disarmed.elapsed().as_nanos() as u64, Ordering::SeqCst);
                                return;
                            }
                            _ => {}
                        }
                    }
                });
            }

            // Closed-loop clients.
            for c in 0..cfg.clients {
                let acked = &acked[c as usize];
                let undrained = &undrained;
                let zipf = &zipf;
                let weps = &write_endpoints;
                let live = &live;
                let mut rng = client_rngs[c as usize].clone();
                s.spawn(move || {
                    // Whatever path exits this thread, the chaos monitor
                    // must learn the generator population shrank.
                    struct Depart<'a>(&'a AtomicU64);
                    impl Drop for Depart<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    let _depart = Depart(live);
                    let mut next_key = 1u64;
                    let mut issued = 0u64;
                    loop {
                        match cfg.ops_per_client {
                            Some(n) if issued >= n => break,
                            None if start.elapsed() >= cfg.duration => break,
                            _ => {}
                        }
                        issued += 1;
                        if let Some(b) = cfg.burst.filter(|_| cfg.ops_per_client.is_none()) {
                            let period = b.busy + b.idle;
                            let phase = Duration::from_nanos(
                                (start.elapsed().as_nanos() % period.as_nanos()) as u64,
                            );
                            if phase >= b.busy {
                                std::thread::sleep(period - phase);
                                continue;
                            }
                        }
                        let write = rng.below(100) < cfg.write_pct;
                        let hot = zipf.sample(&mut rng);
                        let (endpoint, args) = if write {
                            plan(c, &mut rng, hot, true)
                        } else {
                            plan(c, &mut rng, hot, false)
                        };
                        debug_assert_eq!(weps.contains(&endpoint), write);
                        let key = if write {
                            let k = next_key;
                            next_key += 1;
                            k
                        } else {
                            0
                        };
                        let req = Request {
                            client: c,
                            key,
                            endpoint,
                            args,
                        };
                        // Writes retry-with-backoff until acknowledged: the
                        // ledger needs every issued key resolved. Reads are
                        // fire-and-forget after a few tries.
                        let mut backoff = Duration::from_micros(50);
                        let mut tries = 0u32;
                        loop {
                            match front.call(req, cfg.timeout) {
                                Ok(_) => {
                                    if write {
                                        acked.fetch_add(1, Ordering::Relaxed);
                                    }
                                    break;
                                }
                                Err(SvcError::Shutdown) => return,
                                Err(_) => {
                                    tries += 1;
                                    if !write && tries >= 3 {
                                        break;
                                    }
                                    if write && tries >= cfg.max_write_tries {
                                        // Inconclusive ledger: report it
                                        // loudly instead of spinning forever.
                                        undrained.fetch_add(1, Ordering::Relaxed);
                                        return;
                                    }
                                    std::thread::sleep(backoff);
                                    backoff = (backoff * 2).min(Duration::from_millis(5));
                                }
                            }
                        }
                    }
                });
            }
        });

        // Assemble the report while the service is still up (front-end
        // telemetry) — ledger sums are quiescent: all clients joined.
        let endpoints: Vec<EndpointReport> = workload
            .endpoints()
            .iter()
            .enumerate()
            .map(|(i, ep)| {
                let (hist, count) = front.endpoint_latency(i as u8);
                EndpointReport {
                    name: ep.name,
                    executed: count,
                    p50_ns: log2_quantile_ns(&hist, 0.50).unwrap_or(0),
                    p99_ns: log2_quantile_ns(&hist, 0.99).unwrap_or(0),
                }
            })
            .collect();
        let acked_writes: u64 = acked.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        let mut lost = 0u64;
        let mut duplicated = 0u64;
        let mut applied_writes = 0u64;
        for c in 0..cfg.clients {
            let a = acked[c as usize].load(Ordering::Relaxed);
            let applied = front.applied_ops(c);
            applied_writes += applied;
            lost += a.saturating_sub(applied);
            duplicated += applied.saturating_sub(a);
        }
        let rec = recovered_after.load(Ordering::SeqCst);
        LoadReport {
            endpoints,
            acked_writes,
            applied_writes,
            lost,
            duplicated,
            undrained: undrained.load(Ordering::Relaxed),
            svc: front.stats(),
            server: stm.server_stats(),
            degraded: stm.is_degraded(),
            recovered_after: (rec != u64::MAX).then(|| Duration::from_nanos(rec)),
            chaos_ran: cfg.chaos.is_some(),
            fault_fires: stm.faults().journal_fires(),
            fault_digest: stm.faults().journal_digest(),
        }
    })
}
