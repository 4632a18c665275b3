//! Deterministic chaos episodes: plan sampling, repro tokens, episode
//! execution and fault-plan shrinking (the library behind `chaos_search`
//! and `svc_loadgen --replay`).
//!
//! An [`Episode`] pins *everything* a chaos run depends on — engine,
//! workload, episode seed, client/op counts, and the structured fault
//! [`PlanSpec`] — so the run is a pure function of the episode (up to
//! thread interleaving; see DESIGN.md §17 for the exact determinism
//! contract). Episodes serialize to one-line repro tokens:
//!
//! ```text
//! CHAOS1,algo=rinval-mv:2:2,wl=bank,seed=1f2e,cli=4,ops=200,wr=60,
//!        keys=128,zipf=1000,workers=2,slo=50,to=100,tries=64,dedup=1,
//!        plan=7376632e…           (one line; plan is the hex-coded spec)
//! ```
//!
//! [`Episode::run`] executes the episode ops-bounded (never timed — the
//! issued request set must not depend on host speed), evaluates the
//! [`crate::oracle`], and returns the violations plus the fault-journal
//! digest. [`shrink`] delta-debugs a failing episode: drop sites, halve
//! budgets and probabilities, halve clients and ops — accepting a
//! candidate only if the violation still reproduces — until no smaller
//! episode fails.
//!
//! Everything here compiles without the `failpoints` feature (tokens and
//! plans are just data); arming is then a no-op, so episodes simply run
//! fault-free and `chaos_search` refuses to start.

use crate::loadgen::{self, LoadConfig, LoadReport};
use crate::oracle::{self, Allowances};
use crate::{bank, travel, SvcConfig};
use rinval::faults::{self, site, FaultAction, ProbFault, SITE_NAMES};
use rinval::AlgorithmKind;
use stamp::SplitMix;
use std::time::Duration;

/// Token format tag (first comma-separated field of every token).
pub const TOKEN_PREFIX: &str = "CHAOS1";

/// Which service workload an episode drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// [`bank::BankService`]: transfers/balances/audits, conserved total.
    Bank,
    /// [`travel::TravelService`]: vacation reservations over the stamp DB.
    Travel,
}

impl WorkloadKind {
    /// Stable token name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Bank => "bank",
            WorkloadKind::Travel => "travel",
        }
    }

    /// Inverse of [`WorkloadKind::name`].
    pub fn from_name(s: &str) -> Result<WorkloadKind, String> {
        match s {
            "bank" => Ok(WorkloadKind::Bank),
            "travel" => Ok(WorkloadKind::Travel),
            other => Err(format!("unknown workload '{other}' (bank|travel)")),
        }
    }
}

/// The bank request shape shared by `svc_loadgen` and the search episodes.
pub fn bank_plan(_c: u64, rng: &mut SplitMix, hot: u64, write: bool) -> (u8, [u64; 4]) {
    if write {
        (
            bank::EP_TRANSFER,
            [hot, rng.below(256), 1 + rng.below(50), 0],
        )
    } else if rng.below(10) == 0 {
        (bank::EP_AUDIT, [0; 4])
    } else {
        (bank::EP_BALANCE, [hot, 0, 0, 0])
    }
}

/// The travel request shape shared by `svc_loadgen` and the search
/// episodes.
pub fn travel_plan(_c: u64, rng: &mut SplitMix, hot: u64, write: bool) -> (u8, [u64; 4]) {
    if write {
        match rng.below(10) {
            0 => (travel::EP_RELEASE, [rng.below(128), 0, 0, 0]),
            1 => (travel::EP_REPRICE, [rng.below(3), hot, rng.below(450), 0]),
            _ => (travel::EP_RESERVE, [rng.below(3), rng.below(128), hot, 0]),
        }
    } else {
        (travel::EP_QUOTE, [rng.below(3), hot, 0, 0])
    }
}

/// One armed site of a fault plan, structured so the shrinker can
/// manipulate it (the string spec is derived, never edited).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanEntry {
    /// Site index into [`SITE_NAMES`].
    pub site: usize,
    /// What the site does when it fires.
    pub action: FaultAction,
    /// Hit budget (`None` = unlimited).
    pub times: Option<u32>,
}

/// A structured fault plan: the armed entries of one episode.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PlanSpec {
    /// Armed sites, at most one entry per site.
    pub entries: Vec<PlanEntry>,
}

fn render_action(a: FaultAction) -> String {
    match a {
        FaultAction::Panic => "panic".into(),
        FaultAction::Exit => "exit".into(),
        FaultAction::Fail => "fail".into(),
        FaultAction::Stall => "stall".into(),
        FaultAction::Delay(d) => format!("delay({})", d.as_millis()),
        FaultAction::Prob(p, inner) => {
            // f64 Display prints the shortest roundtripping decimal, and
            // FaultAction::prob rounds it back to exactly `p`.
            format!(
                "prob({},{})",
                p as f64 / 65536.0,
                render_action(inner.into())
            )
        }
    }
}

impl PlanSpec {
    /// Renders the plan in `RINVAL_FAILPOINTS` syntax (the arming and
    /// token wire format).
    pub fn render(&self) -> String {
        self.entries
            .iter()
            .map(|e| {
                let mut s = format!("{}={}", SITE_NAMES[e.site], render_action(e.action));
                if let Some(t) = e.times {
                    s.push_str(&format!(":{t}"));
                }
                s
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Parses an `RINVAL_FAILPOINTS`-syntax spec into a structured plan
    /// (`off` entries are dropped — an episode plan has no use for them).
    ///
    /// # Panics
    /// Like arming does: on unknown sites, malformed actions or duplicate
    /// entries.
    pub fn parse(spec: &str) -> PlanSpec {
        PlanSpec {
            entries: faults::parse_spec(spec)
                .into_iter()
                .filter_map(|(site, action, times)| {
                    action.map(|action| PlanEntry {
                        site,
                        action,
                        times,
                    })
                })
                .collect(),
        }
    }
}

/// A fully pinned chaos episode: everything its outcome is a function of.
#[derive(Clone, Debug, PartialEq)]
pub struct Episode {
    /// Engine under test.
    pub algo: AlgorithmKind,
    /// Service workload.
    pub workload: WorkloadKind,
    /// Episode seed: seeds the fault plan's draw streams *and* the
    /// loadgen's client streams.
    pub seed: u64,
    /// Closed-loop clients.
    pub clients: u64,
    /// Operations per client (episodes are always ops-bounded).
    pub ops_per_client: u64,
    /// Write percentage.
    pub write_pct: u64,
    /// Hot-key space.
    pub keys: u64,
    /// Zipf exponent in milli-units (1000 = s of 1.0) — kept integral so
    /// tokens never round-trip through decimal floats.
    pub zipf_milli: u64,
    /// Service worker threads.
    pub workers: usize,
    /// Write-p99 SLO in ms.
    pub slo_ms: u64,
    /// Per-request deadline in ms.
    pub timeout_ms: u64,
    /// Write retry budget before a client gives up (undrained).
    pub max_write_tries: u32,
    /// Exactly-once dedup enabled (`false` = the canary hook
    /// [`SvcConfig::disable_dedup`]).
    pub dedup: bool,
    /// The fault plan, armed at build time (before any thread spawns).
    pub plan: PlanSpec,
}

impl Default for Episode {
    fn default() -> Episode {
        Episode {
            algo: AlgorithmKind::RInvalMV {
                invalidators: 2,
                steps_ahead: 2,
            },
            workload: WorkloadKind::Bank,
            seed: 0xC405,
            clients: 4,
            ops_per_client: 200,
            write_pct: 60,
            keys: 128,
            zipf_milli: 1000,
            workers: 2,
            slo_ms: 50,
            timeout_ms: 100,
            max_write_tries: 200,
            dedup: true,
            plan: PlanSpec::default(),
        }
    }
}

/// Parameterized engine name that round-trips through `AlgorithmKind`'s
/// `FromStr` impl (`rinval-mv:2:2`, not just `rinval-mv`).
fn algo_token(k: AlgorithmKind) -> String {
    match k {
        AlgorithmKind::RInvalV2 { invalidators } => format!("rinval-v2:{invalidators}"),
        AlgorithmKind::RInvalMV {
            invalidators,
            steps_ahead,
        } => format!("rinval-mv:{invalidators}:{steps_ahead}"),
        other => other.name().into(),
    }
}

fn hex_encode(s: &str) -> String {
    s.bytes().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<String, String> {
    if !s.len().is_multiple_of(2) {
        return Err("plan hex has odd length".into());
    }
    let bytes: Result<Vec<u8>, _> = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16))
        .collect();
    String::from_utf8(bytes.map_err(|e| format!("plan hex: {e}"))?)
        .map_err(|e| format!("plan hex: {e}"))
}

impl Episode {
    /// The one-line repro token (see the module docs for the format).
    pub fn token(&self) -> String {
        format!(
            "{TOKEN_PREFIX},algo={},wl={},seed={:x},cli={},ops={},wr={},keys={},\
             zipf={},workers={},slo={},to={},tries={},dedup={},plan={}",
            algo_token(self.algo),
            self.workload.name(),
            self.seed,
            self.clients,
            self.ops_per_client,
            self.write_pct,
            self.keys,
            self.zipf_milli,
            self.workers,
            self.slo_ms,
            self.timeout_ms,
            self.max_write_tries,
            self.dedup as u8,
            hex_encode(&self.plan.render()),
        )
    }

    /// Parses a repro token back into the episode it came from.
    pub fn parse_token(token: &str) -> Result<Episode, String> {
        let mut fields = token.trim().split(',');
        if fields.next() != Some(TOKEN_PREFIX) {
            return Err(format!("not a {TOKEN_PREFIX} token"));
        }
        let mut ep = Episode::default();
        let mut plan_seen = false;
        for field in fields {
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed token field '{field}'"))?;
            let num = || v.parse::<u64>().map_err(|e| format!("{k}: {e}"));
            match k {
                "algo" => ep.algo = v.parse().map_err(|e| format!("algo: {e}"))?,
                "wl" => ep.workload = WorkloadKind::from_name(v)?,
                "seed" => ep.seed = u64::from_str_radix(v, 16).map_err(|e| format!("seed: {e}"))?,
                "cli" => ep.clients = num()?,
                "ops" => ep.ops_per_client = num()?,
                "wr" => ep.write_pct = num()?,
                "keys" => ep.keys = num()?,
                "zipf" => ep.zipf_milli = num()?,
                "workers" => ep.workers = num()? as usize,
                "slo" => ep.slo_ms = num()?,
                "to" => ep.timeout_ms = num()?,
                "tries" => ep.max_write_tries = num()? as u32,
                "dedup" => ep.dedup = num()? != 0,
                "plan" => {
                    ep.plan = PlanSpec::parse(&hex_decode(v)?);
                    plan_seen = true;
                }
                other => return Err(format!("unknown token field '{other}'")),
            }
        }
        if !plan_seen {
            return Err("token has no plan field".into());
        }
        Ok(ep)
    }

    /// Executes the episode from scratch: fresh STM (fault plan seeded and
    /// armed before any thread spawns), fresh service, ops-bounded load,
    /// then the full oracle at quiescence.
    pub fn run(&self) -> EpisodeOutcome {
        let spec = self.plan.render();
        let stm = rinval::Stm::builder(self.algo)
            .heap_words(1 << 18)
            .fault_seed(self.seed)
            .build();
        let svc_cfg = SvcConfig {
            workers: self.workers.max(1),
            clients: self.clients.max(64),
            slo_p99: Duration::from_millis(self.slo_ms),
            disable_dedup: !self.dedup,
            ..SvcConfig::default()
        };
        let cfg = LoadConfig {
            clients: self.clients,
            timeout: Duration::from_millis(self.timeout_ms),
            write_pct: self.write_pct,
            keys: self.keys,
            zipf_s: self.zipf_milli as f64 / 1000.0,
            seed: self.seed,
            ops_per_client: Some(self.ops_per_client),
            max_write_tries: self.max_write_tries,
            ..LoadConfig::default()
        };
        // Arm only after workload setup: setup runs its own transactions
        // (on the episode's main thread, where a `txn.body.panic` would be
        // fatal rather than a drill), and keeping the hit counters scoped
        // to the load phase is what makes their counts replayable.
        let allow = Allowances::from_spec(&spec, false);
        let (report, workload_violations) = match self.workload {
            WorkloadKind::Bank => {
                let svc = bank::BankService::setup(&stm, 256, 10_000);
                stm.faults().arm_from_spec(&spec);
                let report = loadgen::run(&stm, &svc, &svc_cfg, &cfg, &bank_plan);
                let v = oracle::check_all(&stm, &svc, &report, &allow);
                (report, v)
            }
            WorkloadKind::Travel => {
                let svc = travel::TravelService::setup(&stm, stamp::vacation::Config::default());
                stm.faults().arm_from_spec(&spec);
                let report = loadgen::run(&stm, &svc, &svc_cfg, &cfg, &travel_plan);
                let v = oracle::check_all(&stm, &svc, &report, &allow);
                (report, v)
            }
        };
        EpisodeOutcome {
            violations: workload_violations,
            digest: report.fault_digest,
            fires: report.fault_fires,
            report,
        }
    }
}

/// What one episode run produced.
#[derive(Clone, Debug)]
pub struct EpisodeOutcome {
    /// Oracle violations (empty = the episode passed).
    pub violations: Vec<String>,
    /// Fault-journal digest ([`rinval::FaultPlan::journal_digest`]).
    pub digest: u64,
    /// Fault-journal fire count.
    pub fires: u64,
    /// The full load report.
    pub report: LoadReport,
}

impl EpisodeOutcome {
    /// True when the oracle found nothing.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The per-site menu of sampleable faults. Stall is excluded (it never
/// self-disarms, and search episodes have no disarm schedule), as is
/// anything unbounded — every sampled entry carries a finite budget so an
/// episode always drains.
fn site_menu(s: usize) -> &'static [FaultAction] {
    const MS2: Duration = Duration::from_millis(2);
    match s {
        site::SERVER_COMMIT_STALL | site::SERVER_INVAL_LAG | site::CLIENT_PUBLISH_DELAY => {
            &[FaultAction::Delay(MS2)]
        }
        site::SERVER_COMMIT_DEATH | site::SERVER_INVAL_DEATH | site::SVC_WORKER_DEATH => {
            &[FaultAction::Exit, FaultAction::Panic]
        }
        site::TXN_BODY_PANIC | site::TXN_COMMIT_PANIC => &[FaultAction::Panic],
        site::HEAP_ALLOC_FAIL => &[FaultAction::Fail],
        site::SVC_ENQUEUE => &[
            FaultAction::Fail,
            FaultAction::Exit,
            FaultAction::Delay(MS2),
        ],
        site::SVC_REPLY_PRE | site::SVC_MAILBOX_POP => &[
            FaultAction::Panic,
            FaultAction::Exit,
            FaultAction::Delay(MS2),
        ],
        site::SVC_DEDUP_ROTATE => &[FaultAction::Panic, FaultAction::Delay(MS2)],
        site::SERVER_WATCHDOG_SKIP => &[FaultAction::Fail, FaultAction::Delay(MS2)],
        _ => &[],
    }
}

/// Samples a random fault plan over the full site table: 1–3 distinct
/// sites, each armed with a menu action under a finite budget, sometimes
/// wrapped in a probabilistic draw.
pub fn sample_plan(rng: &mut SplitMix) -> PlanSpec {
    let mut sites: Vec<usize> = (0..site::COUNT)
        .filter(|&s| !site_menu(s).is_empty())
        .collect();
    rng.shuffle(&mut sites);
    let n = 1 + rng.below(3) as usize;
    let mut entries = Vec::new();
    for &s in sites.iter().take(n) {
        let menu = site_menu(s);
        let base = menu[rng.below(menu.len() as u64) as usize];
        // Probabilistic wrapper on roughly a third of the fireable picks:
        // a wider hit window drawn down to a comparable expected count.
        let (action, times) = if rng.below(3) == 0 && !matches!(base, FaultAction::Stall) {
            let inner = match base {
                FaultAction::Panic => ProbFault::Panic,
                FaultAction::Exit => ProbFault::Exit,
                FaultAction::Fail => ProbFault::Fail,
                FaultAction::Delay(d) => ProbFault::Delay(d),
                _ => unreachable!("menu never yields Stall/Prob"),
            };
            let p = 0.05 + rng.unit_f64() * 0.45;
            (FaultAction::prob(p, inner), Some(16 + rng.below(49) as u32))
        } else {
            (base, Some(1 + rng.below(8) as u32))
        };
        entries.push(PlanEntry {
            site: s,
            action,
            times,
        });
    }
    PlanSpec { entries }
}

/// One shrink-lattice neighbor: a strictly smaller episode candidate.
fn shrink_candidates(ep: &Episode) -> Vec<Episode> {
    let mut out = Vec::new();
    // Drop each armed site (the classic ddmin step).
    if ep.plan.entries.len() > 1 {
        for i in 0..ep.plan.entries.len() {
            let mut e = ep.clone();
            e.plan.entries.remove(i);
            out.push(e);
        }
    }
    // Halve each budget and each probability.
    for i in 0..ep.plan.entries.len() {
        let entry = ep.plan.entries[i];
        if let Some(t) = entry.times {
            if t > 1 {
                let mut e = ep.clone();
                e.plan.entries[i].times = Some(t / 2);
                out.push(e);
            }
        }
        if let FaultAction::Prob(p, inner) = entry.action {
            if p > 1 {
                let mut e = ep.clone();
                e.plan.entries[i].action = FaultAction::Prob(p / 2, inner);
                out.push(e);
            }
        }
    }
    // Shrink the workload: fewer clients, fewer ops.
    if ep.clients > 1 {
        let mut e = ep.clone();
        e.clients /= 2;
        out.push(e);
    }
    if ep.ops_per_client > 25 {
        let mut e = ep.clone();
        e.ops_per_client /= 2;
        out.push(e);
    }
    out
}

/// Greedy delta-debugging: repeatedly try every shrink-lattice neighbor
/// of the failing episode, moving to the first neighbor that *still
/// fails* (re-run from scratch), until none does or `budget` re-runs are
/// spent. Returns the minimal failing episode and its outcome.
pub fn shrink(
    failing: &Episode,
    budget: usize,
    mut progress: impl FnMut(&Episode, &EpisodeOutcome, bool),
) -> (Episode, EpisodeOutcome) {
    let mut current = failing.clone();
    let mut outcome = current.run();
    assert!(
        !outcome.passed(),
        "shrink() needs a failing episode (it passed on re-run)"
    );
    let mut runs = 1usize;
    'outer: loop {
        for cand in shrink_candidates(&current) {
            if runs >= budget {
                break 'outer;
            }
            runs += 1;
            let o = cand.run();
            let still_fails = !o.passed();
            progress(&cand, &o, still_fails);
            if still_fails {
                current = cand;
                outcome = o;
                continue 'outer; // restart from the smaller episode
            }
        }
        break; // no neighbor still fails: minimal
    }
    (current, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_spec_renders_and_parses_roundtrip() {
        let plan = PlanSpec {
            entries: vec![
                PlanEntry {
                    site: site::SVC_REPLY_PRE,
                    action: FaultAction::Exit,
                    times: None,
                },
                PlanEntry {
                    site: site::SVC_MAILBOX_POP,
                    action: FaultAction::prob(0.25, ProbFault::Delay(Duration::from_millis(2))),
                    times: Some(32),
                },
                PlanEntry {
                    site: site::SERVER_WATCHDOG_SKIP,
                    action: FaultAction::Fail,
                    times: Some(3),
                },
            ],
        };
        let spec = plan.render();
        assert_eq!(
            spec,
            "svc.reply.pre=exit;svc.mailbox.pop=prob(0.25,delay(2)):32;\
             server.watchdog.skip=fail:3"
                .replace('\n', "")
        );
        assert_eq!(PlanSpec::parse(&spec), plan);
    }

    #[test]
    fn token_roundtrips_exactly() {
        let ep = Episode {
            algo: AlgorithmKind::RInvalV2 { invalidators: 3 },
            workload: WorkloadKind::Travel,
            seed: 0xDEAD_BEEF,
            clients: 7,
            ops_per_client: 123,
            write_pct: 35,
            keys: 99,
            zipf_milli: 750,
            workers: 3,
            slo_ms: 40,
            timeout_ms: 80,
            max_write_tries: 55,
            dedup: false,
            plan: PlanSpec::parse("svc.enqueue=prob(0.1,fail):64;txn.body.panic=panic:2"),
        };
        let token = ep.token();
        assert!(token.starts_with("CHAOS1,"));
        assert_eq!(Episode::parse_token(&token).unwrap(), ep);
        // Every engine name round-trips, parameterized or not.
        for algo in AlgorithmKind::all(2, 2) {
            let mut e = ep.clone();
            e.algo = algo;
            assert_eq!(Episode::parse_token(&e.token()).unwrap().algo, algo);
        }
    }

    #[test]
    fn parse_token_rejects_garbage() {
        assert!(Episode::parse_token("").is_err());
        assert!(Episode::parse_token("NOPE,algo=norec").is_err());
        assert!(Episode::parse_token("CHAOS1,algo=norec").is_err()); // no plan
        assert!(Episode::parse_token("CHAOS1,plan=zz").is_err()); // bad hex
        assert!(Episode::parse_token("CHAOS1,bogus=1,plan=").is_err());
    }

    #[test]
    fn sampled_plans_are_finite_and_deterministic() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        for _ in 0..50 {
            let p1 = sample_plan(&mut a);
            let p2 = sample_plan(&mut b);
            assert_eq!(p1, p2, "sampling is not a pure function of the rng");
            assert!(!p1.entries.is_empty() && p1.entries.len() <= 3);
            for e in &p1.entries {
                assert!(e.times.is_some(), "sampled unbounded budget: {e:?}");
                assert!(
                    !matches!(e.action, FaultAction::Stall),
                    "sampled a stall: {e:?}"
                );
                // No duplicate sites within a plan.
                assert_eq!(p1.entries.iter().filter(|o| o.site == e.site).count(), 1);
            }
            // The rendered spec must survive the duplicate-checking parser.
            let _ = PlanSpec::parse(&p1.render());
        }
    }

    #[test]
    fn shrink_candidates_cover_the_lattice() {
        let ep = Episode {
            clients: 4,
            ops_per_client: 200,
            plan: PlanSpec::parse(
                "svc.reply.pre=exit:8;svc.enqueue=prob(0.5,fail):32;server.inval.lag=delay(2):4",
            ),
            ..Episode::default()
        };
        let cands = shrink_candidates(&ep);
        // 3 drops + 3 budget halvings + 1 prob halving + clients + ops.
        assert_eq!(cands.len(), 9);
        assert!(cands.iter().all(|c| c != &ep), "no-op candidate");
        // Dropping a site keeps the others intact.
        assert!(cands.iter().any(|c| c.plan.entries.len() == 2));
        // The single-entry plan cannot drop its last site.
        let solo = Episode {
            plan: PlanSpec::parse("svc.reply.pre=exit"),
            ..Episode::default()
        };
        assert!(shrink_candidates(&solo)
            .iter()
            .all(|c| !c.plan.entries.is_empty()));
    }
}
