//! Deterministic failpoint injection for the fault-containment test matrix
//! and the chaos-search subsystem.
//!
//! A [`FaultPlan`] is a fixed table of named *sites* (places in the
//! protocol where a failure can be injected) each of which can be armed
//! with a [`FaultAction`] and a hit budget. The plan is per-[`crate::Stm`]
//! (held in the shared inner state), so concurrent tests in one process
//! never interfere; the `RINVAL_FAILPOINTS` environment variable seeds the
//! plan of every newly built `Stm` for whole-binary permutation runs.
//!
//! With the `failpoints` cargo feature **disabled** (the default) the plan
//! is a zero-sized type, [`FaultPlan::hit`] is a constant `None` and every
//! site check folds away — the production binary carries no trace of the
//! framework (the micro-bench dispatch gate enforces this at ≤1.05×).
//!
//! ## Determinism contract (DESIGN.md §17)
//!
//! Each site owns a *hit counter* and a SplitMix64 draw stream derived
//! from the plan's episode seed ([`FaultPlan::set_seed`]). Whether the
//! `i`-th hit of a site fires is a pure function of `(seed, plan, i)`:
//!
//! * a plain action armed with budget `n` fires on hits `0..n` exactly;
//! * [`FaultAction::Prob`] fires on hit `i` iff the `i`-th draw of the
//!   site's stream lands under `p` — the budget still bounds the *hit
//!   index* range considered, so the fired set is `{i < n : draw_i < p}`.
//!
//! Because firing is keyed to the hit index (not to a racy decrement),
//! the fired set is deterministic even when multiple threads hit a site
//! concurrently. Every fire is recorded in a bounded atomic journal and
//! folded (order-insensitively) into [`FaultPlan::journal_digest`]; two
//! runs that hit every armed site the same number of times produce equal
//! digests, which is what the replay gate checks.
//!
//! ## Sites
//!
//! | name | where it fires | meaningful actions |
//! |---|---|---|
//! | `server.commit.stall` | commit-server, top of a scan pass | `stall`, `delay(ms)` |
//! | `server.commit.death` | commit-server, top of a scan pass | `exit`, `panic` |
//! | `server.inval.death` | invalidation-server, top of a pass | `exit`, `panic` |
//! | `server.inval.lag` | invalidation-server, top of a pass | `delay(ms)` |
//! | `client.publish.delay` | between the client's `REQ_PENDING` store and its summary-bit set | `delay(ms)` |
//! | `txn.body.panic` | start of every transaction attempt's body | `panic` |
//! | `txn.commit.panic` | inside commit, after the engine acquired the seqlock (NOrec/InvalSTM) or posted its request (RInval) | `panic` |
//! | `heap.alloc.fail` | [`crate::Txn::alloc`], before touching the heap | `fail` |
//! | `svc.enqueue` | service front-end, in the client submit path before the slot post | `fail` (reject), `exit` (accept-then-drop), `delay(ms)` |
//! | `svc.reply.pre` | service worker, after a fresh write applied (committed) but before the reply is delivered | `panic` (worker dies), `exit` (reply dropped), `delay(ms)` |
//! | `svc.worker.death` | service worker, top of its loop, before it claims the next posted slot | `exit`, `panic` |
//! | `svc.mailbox.pop` | service worker, after claiming a posted slot and before processing the request (the site keeps its pre-slot name: repro tokens spell it) | `exit` (request lost with the worker), `panic`, `delay(ms)` |
//! | `svc.dedup.rotate` | inside the dedup transaction, at the window-rotation write of a fresh apply | `panic` (mid-transaction crash), `delay(ms)` |
//! | `server.watchdog.skip` | watchdog, top of each supervision round | `fail` (skip the round), `delay(ms)`, `panic` |
//!
//! The `svc.*` sites are placed by the `svc` service crate (the `rinval`
//! protocol itself never hits them); they live in this table so one
//! `RINVAL_FAILPOINTS` spec can drive transaction-, server- and
//! service-layer chaos together.
//!
//! ## Environment syntax
//!
//! `RINVAL_FAILPOINTS="site=action[:times][;site=action[:times]...]"`,
//! where `action` is one of `off`, `panic`, `exit`, `fail`, `stall`,
//! `delay(<millis>)`, `prob(<p>,<action>)` and `times` bounds how many
//! hits are considered (default: unlimited). Example:
//!
//! ```text
//! RINVAL_FAILPOINTS="server.commit.death=exit:1;svc.reply.pre=prob(0.25,exit):64"
//! ```
//!
//! Unknown site names, malformed actions, or the same site named twice
//! panic at [`crate::StmBuilder::build`] time (a silently ignored — or
//! silently overwritten — failpoint would make a fault test vacuous).

use std::time::Duration;

/// Failpoint site identifiers; index into [`SITE_NAMES`].
pub mod site {
    /// Commit-server stalls at the top of a scan pass.
    pub const SERVER_COMMIT_STALL: usize = 0;
    /// Commit-server thread dies at the top of a scan pass.
    pub const SERVER_COMMIT_DEATH: usize = 1;
    /// Invalidation-server thread dies at the top of a pass.
    pub const SERVER_INVAL_DEATH: usize = 2;
    /// Invalidation-server delays each pass (a lagging partition).
    pub const SERVER_INVAL_LAG: usize = 3;
    /// Client delays between `REQ_PENDING` and the summary-bit publish.
    pub const CLIENT_PUBLISH_DELAY: usize = 4;
    /// Panic at the start of the transaction body.
    pub const TXN_BODY_PANIC: usize = 5;
    /// Panic inside commit while protocol state is exposed.
    pub const TXN_COMMIT_PANIC: usize = 6;
    /// Transactional allocation reports heap exhaustion.
    pub const HEAP_ALLOC_FAIL: usize = 7;
    /// Service front-end: client submit path, before the slot post.
    pub const SVC_ENQUEUE: usize = 8;
    /// Service worker: fresh write applied, reply not yet delivered.
    pub const SVC_REPLY_PRE: usize = 9;
    /// Service worker: top of its loop, before the next claim.
    pub const SVC_WORKER_DEATH: usize = 10;
    /// Service worker: request claimed, not yet processed.
    pub const SVC_MAILBOX_POP: usize = 11;
    /// Dedup window rotation write, inside the apply transaction.
    pub const SVC_DEDUP_ROTATE: usize = 12;
    /// Watchdog skips (or delays) one supervision round.
    pub const SERVER_WATCHDOG_SKIP: usize = 13;
    /// Number of sites.
    pub const COUNT: usize = 14;
}

/// Canonical site names, indexed by the constants in [`site`].
pub const SITE_NAMES: [&str; site::COUNT] = [
    "server.commit.stall",
    "server.commit.death",
    "server.inval.death",
    "server.inval.lag",
    "client.publish.delay",
    "txn.body.panic",
    "txn.commit.panic",
    "heap.alloc.fail",
    "svc.enqueue",
    "svc.reply.pre",
    "svc.worker.death",
    "svc.mailbox.pop",
    "svc.dedup.rotate",
    "server.watchdog.skip",
];

/// The action a [`FaultAction::Prob`] wrapper fires — every base action
/// except `Stall` (a probabilistic stall would be indistinguishable from a
/// plain one: stall sites poll [`FaultPlan::armed`], not the draw stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbFault {
    /// Panic at the site.
    Panic,
    /// The surrounding loop returns.
    Exit,
    /// The operation reports failure.
    Fail,
    /// The thread sleeps this long.
    Delay(Duration),
}

impl From<ProbFault> for FaultAction {
    fn from(p: ProbFault) -> FaultAction {
        match p {
            ProbFault::Panic => FaultAction::Panic,
            ProbFault::Exit => FaultAction::Exit,
            ProbFault::Fail => FaultAction::Fail,
            ProbFault::Delay(d) => FaultAction::Delay(d),
        }
    }
}

/// What an armed failpoint does when hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the site (exercises unwind paths).
    Panic,
    /// The surrounding server loop returns (thread death without unwind).
    Exit,
    /// The operation reports failure (e.g. allocation returns no memory).
    Fail,
    /// The thread blocks at the site until the site is disarmed, the STM
    /// shuts down or the engine degrades (whichever the site polls).
    Stall,
    /// The thread sleeps this long at the site, once per hit.
    Delay(Duration),
    /// Probabilistic wrapper: on the site's `i`-th hit, fire the inner
    /// action iff the `i`-th draw of the site's seeded SplitMix64 stream
    /// lands under `p` (fixed-point, in units of 1/65536 — see
    /// [`FaultAction::prob`]). [`FaultPlan::hit`] resolves the wrapper and
    /// returns the *inner* action, so call sites never see `Prob`.
    Prob(u16, ProbFault),
}

impl FaultAction {
    /// Builds a [`FaultAction::Prob`] from a probability in `[0, 1]`
    /// (clamped to the representable `1/65536 ..= 65535/65536` so an armed
    /// probabilistic site neither never- nor always-misfires by rounding).
    pub fn prob(p: f64, inner: ProbFault) -> FaultAction {
        let bits = (p.clamp(0.0, 1.0) * 65536.0).round() as u32;
        FaultAction::Prob(bits.clamp(1, u16::MAX as u32) as u16, inner)
    }
}

/// One parsed entry of an `RINVAL_FAILPOINTS`-syntax spec: the site index,
/// the action (`None` = `off`, i.e. disarm), and the hit budget.
pub type SpecEntry = (usize, Option<FaultAction>, Option<u32>);

/// Parses an `RINVAL_FAILPOINTS`-syntax spec into structured entries.
///
/// Always compiled (the chaos-search tooling manipulates plan specs even
/// in builds where arming them is a no-op).
///
/// # Panics
/// On unknown site names, malformed actions, or — the typo that silently
/// dropped a fault before — the same site appearing twice: both entries
/// are named in the panic message.
pub fn parse_spec(spec: &str) -> Vec<SpecEntry> {
    let mut out: Vec<SpecEntry> = Vec::new();
    let mut seen: [Option<&str>; site::COUNT] = [None; site::COUNT];
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let (name, rest) = entry
            .split_once('=')
            .unwrap_or_else(|| panic!("RINVAL_FAILPOINTS: missing '=' in '{entry}'"));
        let name = name.trim();
        let idx = SITE_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| {
                panic!(
                    "RINVAL_FAILPOINTS: unknown site '{name}' in '{entry}' \
                 (valid sites: {})",
                    SITE_NAMES.join(", ")
                )
            });
        if let Some(prev) = seen[idx] {
            panic!(
                "RINVAL_FAILPOINTS: site '{name}' armed twice ('{prev}' and \
                 '{entry}') — a duplicate entry would silently drop the \
                 earlier fault; merge or remove one"
            );
        }
        seen[idx] = Some(entry);
        let (action_s, times) = match rest.rsplit_once(':') {
            // `delay(5):3` splits on the last ':'; a non-numeric tail
            // means the ':' belonged to nothing and the whole rest is
            // the action.
            Some((a, t)) => match t.trim().parse::<u32>() {
                Ok(n) => (a.trim(), Some(n)),
                Err(_) => (rest.trim(), None),
            },
            None => (rest.trim(), None),
        };
        out.push((idx, parse_action(action_s, entry), times));
    }
    out
}

/// Parses one action token (`None` = `off`). Panics on malformed input.
fn parse_action(action_s: &str, entry: &str) -> Option<FaultAction> {
    Some(match action_s {
        "off" => return None,
        "panic" => FaultAction::Panic,
        "exit" => FaultAction::Exit,
        "fail" => FaultAction::Fail,
        "stall" => FaultAction::Stall,
        a if a.starts_with("delay(") && a.ends_with(')') => {
            let ms: u64 = a["delay(".len()..a.len() - 1]
                .parse()
                .unwrap_or_else(|_| panic!("RINVAL_FAILPOINTS: bad delay in '{entry}'"));
            FaultAction::Delay(Duration::from_millis(ms))
        }
        a if a.starts_with("prob(") && a.ends_with(')') => {
            let body = &a["prob(".len()..a.len() - 1];
            let (p_s, inner_s) = body.split_once(',').unwrap_or_else(|| {
                panic!("RINVAL_FAILPOINTS: prob needs '(p,action)' in '{entry}'")
            });
            let p: f64 = p_s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("RINVAL_FAILPOINTS: bad probability in '{entry}'"));
            let inner = match parse_action(inner_s.trim(), entry) {
                Some(FaultAction::Panic) => ProbFault::Panic,
                Some(FaultAction::Exit) => ProbFault::Exit,
                Some(FaultAction::Fail) => ProbFault::Fail,
                Some(FaultAction::Delay(d)) => ProbFault::Delay(d),
                _ => panic!(
                    "RINVAL_FAILPOINTS: prob inner action in '{entry}' must be \
                     panic, exit, fail or delay(<millis>)"
                ),
            };
            FaultAction::prob(p, inner)
        }
        _ => panic!(
            "RINVAL_FAILPOINTS: unknown action '{action_s}' in '{entry}' \
             (valid actions: off, panic, exit, fail, stall, delay(<millis>), \
             prob(<p>,<action>))"
        ),
    })
}

/// One recorded fire from the fault journal (triage surface; the replay
/// gate compares [`FaultPlan::journal_digest`], not these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FiredHit {
    /// Site index (into [`SITE_NAMES`]).
    pub site: usize,
    /// The site-local hit index that fired.
    pub hit: u64,
    /// Short action name (`"panic"`, `"exit"`, `"fail"`, `"delay"`).
    pub action: &'static str,
    /// 16-bit tag of the firing thread (debugging only: thread identity is
    /// scheduling-dependent and excluded from the digest).
    pub thread: u16,
}

/// SplitMix64 golden-ratio increment.
#[cfg(feature = "failpoints")]
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[cfg(feature = "failpoints")]
mod imp {
    use super::{site, FaultAction, FiredHit, GAMMA, SITE_NAMES};
    use crate::sync::mix64;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::time::Duration;

    const ACT_OFF: u32 = 0;
    const ACT_PANIC: u32 = 1;
    const ACT_EXIT: u32 = 2;
    const ACT_FAIL: u32 = 3;
    const ACT_STALL: u32 = 4;
    const ACT_DELAY: u32 = 5;
    const ACT_PROB: u32 = 6;

    /// Journal ring capacity (the digest covers *every* fire regardless;
    /// the ring only bounds what [`FaultPlan::journal`] can show).
    const JOURNAL_CAP: usize = 1024;

    /// One site's armed state (lock-free; `action` doubles as the armed
    /// flag so the unarmed fast path is a single relaxed load).
    #[derive(Default)]
    struct SiteState {
        action: AtomicU32,
        /// Delay length in microseconds (for `ACT_DELAY` or a prob-wrapped
        /// delay).
        arg_us: AtomicU64,
        /// Hit-index budget: hits `>= limit` are ignored and self-disarm
        /// the site; `u32::MAX` means unlimited. Keying the budget to the
        /// hit *index* (not a racy decrement) keeps the fired set
        /// deterministic under concurrent hits.
        limit: AtomicU32,
        /// Hits observed while armed (the per-site hit counter).
        hits: AtomicU64,
        /// Per-site SplitMix64 stream seed (set by [`FaultPlan::set_seed`]).
        seed: AtomicU64,
        /// `ACT_PROB` only: fire threshold in 1/65536 units.
        prob: AtomicU32,
        /// `ACT_PROB` only: the wrapped action's code.
        prob_inner: AtomicU32,
    }

    /// The real failpoint table plus the fault journal (see module docs).
    pub struct FaultPlan {
        sites: [SiteState; site::COUNT],
        /// Ring of packed fire records (`pack_entry`).
        ring: Box<[AtomicU64]>,
        /// Total fires ever; `ring[head % JOURNAL_CAP]` is the next slot.
        head: AtomicU64,
        /// Order-insensitive XOR-fold of `mix64(site, action, hit)` over
        /// every fire ever (thread tag excluded: scheduling-dependent).
        digest: AtomicU64,
    }

    impl Default for FaultPlan {
        fn default() -> FaultPlan {
            FaultPlan {
                sites: Default::default(),
                ring: (0..JOURNAL_CAP).map(|_| AtomicU64::new(0)).collect(),
                head: AtomicU64::new(0),
                digest: AtomicU64::new(0),
            }
        }
    }

    impl std::fmt::Debug for FaultPlan {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let armed: Vec<&str> = (0..site::COUNT)
                .filter(|&s| self.sites[s].action.load(Ordering::Relaxed) != ACT_OFF)
                .map(|s| SITE_NAMES[s])
                .collect();
            f.debug_struct("FaultPlan")
                .field("armed", &armed)
                .field("fires", &self.head.load(Ordering::Relaxed))
                .finish()
        }
    }

    fn action_code(a: FaultAction) -> (u32, u64, u32, u32) {
        match a {
            FaultAction::Panic => (ACT_PANIC, 0, 0, 0),
            FaultAction::Exit => (ACT_EXIT, 0, 0, 0),
            FaultAction::Fail => (ACT_FAIL, 0, 0, 0),
            FaultAction::Stall => (ACT_STALL, 0, 0, 0),
            FaultAction::Delay(d) => (ACT_DELAY, d.as_micros() as u64, 0, 0),
            FaultAction::Prob(p, inner) => {
                let (code, arg, _, _) = action_code(inner.into());
                (ACT_PROB, arg, p as u32, code)
            }
        }
    }

    fn action_name(code: u32) -> &'static str {
        match code {
            ACT_PANIC => "panic",
            ACT_EXIT => "exit",
            ACT_FAIL => "fail",
            ACT_DELAY => "delay",
            _ => "?",
        }
    }

    /// Packs one fire: site (6 bits) | action (4) | hit index (38) |
    /// thread tag (16).
    fn pack_entry(site_idx: usize, code: u32, hit: u64, thread: u16) -> u64 {
        ((site_idx as u64) << 58)
            | ((code as u64) << 54)
            | ((hit & ((1 << 38) - 1)) << 16)
            | thread as u64
    }

    fn thread_tag() -> u16 {
        use std::hash::{Hash, Hasher};
        let mut h = std::hash::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish() as u16
    }

    impl FaultPlan {
        /// An empty plan: every site disarmed.
        pub(crate) fn new() -> FaultPlan {
            FaultPlan::default()
        }

        /// Seeds every site's draw stream from one episode seed and resets
        /// the hit counters and the journal — the start of a reproducible
        /// chaos episode. Armed actions are left armed.
        pub fn set_seed(&self, seed: u64) {
            for (i, s) in self.sites.iter().enumerate() {
                s.seed
                    .store(mix64(seed ^ mix64(i as u64 + 0x5EED)), Ordering::Relaxed);
                s.hits.store(0, Ordering::Relaxed);
            }
            self.head.store(0, Ordering::SeqCst);
            self.digest.store(0, Ordering::SeqCst);
        }

        /// Arms `site_idx` with `action` for `times` hits (`None` =
        /// unlimited). Re-arming resets the site's hit counter, so the
        /// budget window starts fresh.
        pub fn arm(&self, site_idx: usize, action: FaultAction, times: Option<u32>) {
            let s = &self.sites[site_idx];
            let (code, arg, p, inner) = action_code(action);
            s.arg_us.store(arg, Ordering::Relaxed);
            s.prob.store(p, Ordering::Relaxed);
            s.prob_inner.store(inner, Ordering::Relaxed);
            s.hits.store(0, Ordering::Relaxed);
            s.limit.store(times.unwrap_or(u32::MAX), Ordering::Relaxed);
            // Action last: a concurrent hit that observes the action also
            // observes a budget (SeqCst orders it after the stores above).
            s.action.store(code, Ordering::SeqCst);
        }

        /// Disarms `site_idx` (armed [`FaultAction::Stall`] loops observe
        /// this and resume).
        pub fn disarm(&self, site_idx: usize) {
            self.sites[site_idx].action.store(ACT_OFF, Ordering::SeqCst);
        }

        /// True if the site is currently armed (stall loops poll this).
        pub fn armed(&self, site_idx: usize) -> bool {
            self.sites[site_idx].action.load(Ordering::SeqCst) != ACT_OFF
        }

        /// Consumes one hit of `site_idx`, returning the action to perform.
        ///
        /// `None` when the site is unarmed, its hit budget is exhausted, or
        /// a [`FaultAction::Prob`] draw came up empty. Never returns
        /// `Prob` itself — the wrapper is resolved here and the *inner*
        /// action comes back. [`FaultAction::Stall`] does not consume
        /// budget — the call site loops on [`FaultPlan::armed`] instead.
        #[inline]
        pub fn hit(&self, site_idx: usize) -> Option<FaultAction> {
            let s = &self.sites[site_idx];
            let code = s.action.load(Ordering::Relaxed);
            if code == ACT_OFF {
                return None;
            }
            if code == ACT_STALL {
                return Some(FaultAction::Stall);
            }
            let hit = s.hits.fetch_add(1, Ordering::Relaxed);
            let limit = s.limit.load(Ordering::Relaxed);
            if limit != u32::MAX && hit >= limit as u64 {
                s.action.store(ACT_OFF, Ordering::SeqCst);
                return None;
            }
            let fire_code = if code == ACT_PROB {
                // The i-th hit's draw is a pure function of (seed, i).
                let draw = mix64(
                    s.seed
                        .load(Ordering::Relaxed)
                        .wrapping_add(hit.wrapping_add(1).wrapping_mul(GAMMA)),
                );
                if (draw >> 48) as u32 >= s.prob.load(Ordering::Relaxed) {
                    return None;
                }
                s.prob_inner.load(Ordering::Relaxed)
            } else {
                code
            };
            self.record(site_idx, fire_code, hit);
            Some(match fire_code {
                ACT_PANIC => FaultAction::Panic,
                ACT_EXIT => FaultAction::Exit,
                ACT_FAIL => FaultAction::Fail,
                ACT_DELAY => {
                    FaultAction::Delay(Duration::from_micros(s.arg_us.load(Ordering::Relaxed)))
                }
                _ => return None,
            })
        }

        /// Appends one fire to the journal and folds it into the digest.
        fn record(&self, site_idx: usize, code: u32, hit: u64) {
            let order = self.head.fetch_add(1, Ordering::Relaxed);
            self.ring[(order % JOURNAL_CAP as u64) as usize].store(
                pack_entry(site_idx, code, hit, thread_tag()),
                Ordering::Relaxed,
            );
            // Thread tag excluded: which thread lands on a hit index is
            // scheduling-dependent, the (site, action, index) triple is not.
            self.digest
                .fetch_xor(mix64(pack_entry(site_idx, code, hit, 0)), Ordering::Relaxed);
        }

        /// Total fires recorded since the last [`FaultPlan::set_seed`].
        pub fn journal_fires(&self) -> u64 {
            self.head.load(Ordering::SeqCst)
        }

        /// Order-insensitive digest over every recorded fire: equal across
        /// two runs iff they fired the same (site, action, hit-index)
        /// multiset. The replay gate's equality surface.
        pub fn journal_digest(&self) -> u64 {
            self.digest.load(Ordering::SeqCst)
        }

        /// The most recent fires (up to the ring capacity), oldest first —
        /// the human triage view of an episode.
        pub fn journal(&self) -> Vec<FiredHit> {
            let head = self.head.load(Ordering::SeqCst);
            let start = head.saturating_sub(JOURNAL_CAP as u64);
            (start..head)
                .map(|o| {
                    let e = self.ring[(o % JOURNAL_CAP as u64) as usize].load(Ordering::Relaxed);
                    FiredHit {
                        site: (e >> 58) as usize,
                        action: action_name(((e >> 54) & 0xF) as u32),
                        hit: (e >> 16) & ((1 << 38) - 1),
                        thread: e as u16,
                    }
                })
                .collect()
        }

        /// Arms sites from an `RINVAL_FAILPOINTS`-syntax spec string.
        ///
        /// # Panics
        /// On unknown site names, malformed actions, or duplicate site
        /// entries — a typo must not silently disable a fault test (see
        /// [`super::parse_spec`]).
        pub fn arm_from_spec(&self, spec: &str) {
            for (idx, action, times) in super::parse_spec(spec) {
                match action {
                    Some(a) => self.arm(idx, a, times),
                    None => self.disarm(idx),
                }
            }
        }

        /// Seeds the plan from the `RINVAL_FAILPOINTS` environment variable
        /// (no-op when unset).
        pub fn arm_from_env(&self) {
            if let Ok(spec) = std::env::var("RINVAL_FAILPOINTS") {
                self.arm_from_spec(&spec);
            }
        }
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::{FaultAction, FiredHit};

    /// Zero-sized stand-in when the `failpoints` feature is off: every
    /// method is a no-op and [`FaultPlan::hit`] is a constant `None`, so
    /// site checks (and the journal/token plumbing) fold away entirely.
    #[derive(Debug, Default)]
    pub struct FaultPlan;

    impl FaultPlan {
        /// The (only) plan value without the `failpoints` feature.
        pub(crate) fn new() -> FaultPlan {
            FaultPlan
        }

        /// No-op without the `failpoints` feature.
        pub fn set_seed(&self, _seed: u64) {}

        /// No-op without the `failpoints` feature.
        pub fn arm(&self, _site_idx: usize, _action: FaultAction, _times: Option<u32>) {}

        /// No-op without the `failpoints` feature.
        pub fn disarm(&self, _site_idx: usize) {}

        /// Always `false` without the `failpoints` feature.
        pub fn armed(&self, _site_idx: usize) -> bool {
            false
        }

        /// Always `None` without the `failpoints` feature.
        #[inline(always)]
        pub fn hit(&self, _site_idx: usize) -> Option<FaultAction> {
            None
        }

        /// Always 0 without the `failpoints` feature.
        pub fn journal_fires(&self) -> u64 {
            0
        }

        /// Always 0 without the `failpoints` feature.
        pub fn journal_digest(&self) -> u64 {
            0
        }

        /// Always empty without the `failpoints` feature.
        pub fn journal(&self) -> Vec<FiredHit> {
            Vec::new()
        }

        /// No-op without the `failpoints` feature.
        pub fn arm_from_spec(&self, _spec: &str) {}

        /// No-op without the `failpoints` feature.
        pub fn arm_from_env(&self) {}
    }
}

pub use imp::FaultPlan;

impl FaultPlan {
    /// [`FaultPlan::hit`] plus the one interpreter for the actions that
    /// mean the same at every site: a [`FaultAction::Panic`] panics here
    /// (`failpoint <site name>`), a [`FaultAction::Delay`] sleeps here.
    /// What comes back is only what the site itself must decide —
    /// [`FaultAction::Exit`], [`FaultAction::Fail`] or
    /// [`FaultAction::Stall`] — so a site with nothing to decide ignores
    /// the result. Exactly one `hit` (one journal entry) per call; a
    /// constant `None` without the `failpoints` feature.
    #[inline]
    pub fn fire(&self, site_idx: usize) -> Option<FaultAction> {
        match self.hit(site_idx)? {
            FaultAction::Panic => panic!("failpoint {}", SITE_NAMES[site_idx]),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                None
            }
            decide => Some(decide),
        }
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_site_hits_nothing() {
        let p = FaultPlan::default();
        assert_eq!(p.hit(site::TXN_BODY_PANIC), None);
        assert!(!p.armed(site::TXN_BODY_PANIC));
        assert_eq!(p.journal_fires(), 0);
        assert_eq!(p.journal_digest(), 0);
    }

    #[test]
    fn budget_counts_down_and_disarms() {
        let p = FaultPlan::default();
        p.arm(site::HEAP_ALLOC_FAIL, FaultAction::Fail, Some(2));
        assert_eq!(p.hit(site::HEAP_ALLOC_FAIL), Some(FaultAction::Fail));
        assert_eq!(p.hit(site::HEAP_ALLOC_FAIL), Some(FaultAction::Fail));
        assert_eq!(p.hit(site::HEAP_ALLOC_FAIL), None);
        assert!(!p.armed(site::HEAP_ALLOC_FAIL));
        assert_eq!(p.journal_fires(), 2);
    }

    #[test]
    fn unlimited_budget_never_disarms() {
        let p = FaultPlan::default();
        p.arm(site::SERVER_INVAL_LAG, FaultAction::Exit, None);
        for _ in 0..1000 {
            assert_eq!(p.hit(site::SERVER_INVAL_LAG), Some(FaultAction::Exit));
        }
        assert_eq!(p.journal_fires(), 1000);
    }

    #[test]
    fn stall_does_not_consume_budget() {
        let p = FaultPlan::default();
        p.arm(site::SERVER_COMMIT_STALL, FaultAction::Stall, Some(1));
        assert_eq!(p.hit(site::SERVER_COMMIT_STALL), Some(FaultAction::Stall));
        assert_eq!(p.hit(site::SERVER_COMMIT_STALL), Some(FaultAction::Stall));
        assert!(p.armed(site::SERVER_COMMIT_STALL));
        p.disarm(site::SERVER_COMMIT_STALL);
        assert_eq!(p.hit(site::SERVER_COMMIT_STALL), None);
    }

    #[test]
    fn spec_parsing_arms_sites() {
        let p = FaultPlan::default();
        p.arm_from_spec(
            "server.commit.death=exit:1; server.inval.lag=delay(7) ;txn.body.panic=panic",
        );
        assert_eq!(p.hit(site::SERVER_COMMIT_DEATH), Some(FaultAction::Exit));
        assert_eq!(p.hit(site::SERVER_COMMIT_DEATH), None);
        assert_eq!(
            p.hit(site::SERVER_INVAL_LAG),
            Some(FaultAction::Delay(std::time::Duration::from_millis(7)))
        );
        assert_eq!(p.hit(site::TXN_BODY_PANIC), Some(FaultAction::Panic));
        assert_eq!(p.hit(site::TXN_BODY_PANIC), Some(FaultAction::Panic));
    }

    #[test]
    fn spec_off_disarms() {
        let p = FaultPlan::default();
        p.arm(site::TXN_BODY_PANIC, FaultAction::Panic, None);
        p.arm_from_spec("txn.body.panic=off");
        assert_eq!(p.hit(site::TXN_BODY_PANIC), None);
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn spec_unknown_site_panics() {
        FaultPlan::default().arm_from_spec("no.such.site=panic");
    }

    #[test]
    fn spec_unknown_site_panic_lists_valid_sites_and_token() {
        let err = std::panic::catch_unwind(|| {
            FaultPlan::default().arm_from_spec("no.such.site=panic");
        })
        .expect_err("unknown site must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a formatted string");
        assert!(
            msg.contains("'no.such.site'"),
            "offending token missing: {msg}"
        );
        for name in SITE_NAMES {
            assert!(
                msg.contains(name),
                "valid site '{name}' missing from: {msg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown action")]
    fn spec_unknown_action_panics() {
        FaultPlan::default().arm_from_spec("txn.body.panic=explode");
    }

    #[test]
    #[should_panic(expected = "armed twice")]
    fn spec_duplicate_site_panics() {
        FaultPlan::default().arm_from_spec("txn.body.panic=panic;txn.body.panic=exit:1");
    }

    #[test]
    fn spec_duplicate_site_panic_names_both_entries() {
        let err = std::panic::catch_unwind(|| {
            parse_spec("svc.reply.pre=exit:3;heap.alloc.fail=fail;svc.reply.pre=panic");
        })
        .expect_err("duplicate site must panic");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("'svc.reply.pre=exit:3'"),
            "first entry missing: {msg}"
        );
        assert!(
            msg.contains("'svc.reply.pre=panic'"),
            "second entry missing: {msg}"
        );
    }

    #[test]
    fn spec_duplicate_with_off_still_panics() {
        // `off` is an entry like any other: naming a site twice is a typo
        // even when one half disarms.
        let err = std::panic::catch_unwind(|| {
            parse_spec("txn.body.panic=off;txn.body.panic=panic");
        });
        assert!(err.is_err());
    }

    #[test]
    fn prob_spec_parses_and_draws_deterministically() {
        let entries = parse_spec("svc.reply.pre=prob(0.5,exit):64");
        assert_eq!(entries.len(), 1);
        let (idx, action, times) = entries[0];
        assert_eq!(idx, site::SVC_REPLY_PRE);
        assert_eq!(action, Some(FaultAction::Prob(32768, ProbFault::Exit)));
        assert_eq!(times, Some(64));

        // Same seed, same plan: identical fire pattern and digest.
        let run = |seed: u64| {
            let p = FaultPlan::default();
            p.set_seed(seed);
            p.arm(idx, action.unwrap(), times);
            let fired: Vec<bool> = (0..64).map(|_| p.hit(idx).is_some()).collect();
            (fired, p.journal_digest(), p.journal_fires())
        };
        let (f1, d1, n1) = run(0xABCD);
        let (f2, d2, n2) = run(0xABCD);
        assert_eq!(f1, f2);
        assert_eq!(d1, d2);
        assert_eq!(n1, n2);
        assert!(n1 > 8 && n1 < 56, "p=0.5 over 64 hits fired {n1} times");
        // A different seed fires a different subset.
        let (f3, d3, _) = run(0xEF01);
        assert!(f1 != f3 || d1 != d3, "seed did not influence the stream");
    }

    #[test]
    fn prob_budget_bounds_hit_indexes_not_fires() {
        let p = FaultPlan::default();
        p.set_seed(7);
        p.arm(
            site::SVC_ENQUEUE,
            FaultAction::prob(0.5, ProbFault::Fail),
            Some(8),
        );
        let mut fires = 0;
        for _ in 0..8 {
            if p.hit(site::SVC_ENQUEUE).is_some() {
                fires += 1;
            }
        }
        assert!(fires < 8, "p=0.5 fired every hit");
        assert_eq!(p.hit(site::SVC_ENQUEUE), None, "budget window closed");
        assert!(!p.armed(site::SVC_ENQUEUE));
        assert_eq!(p.journal_fires(), fires);
    }

    #[test]
    fn prob_resolves_inner_action_and_never_leaks_prob() {
        let p = FaultPlan::default();
        p.set_seed(3);
        p.arm(
            site::SVC_MAILBOX_POP,
            FaultAction::prob(1.0, ProbFault::Delay(Duration::from_millis(2))),
            Some(4),
        );
        for _ in 0..4 {
            assert_eq!(
                p.hit(site::SVC_MAILBOX_POP),
                Some(FaultAction::Delay(Duration::from_millis(2)))
            );
        }
    }

    #[test]
    fn journal_records_site_hit_action() {
        let p = FaultPlan::default();
        p.set_seed(0);
        p.arm(site::SVC_REPLY_PRE, FaultAction::Exit, Some(3));
        p.arm(site::HEAP_ALLOC_FAIL, FaultAction::Fail, Some(1));
        for _ in 0..5 {
            p.hit(site::SVC_REPLY_PRE);
        }
        p.hit(site::HEAP_ALLOC_FAIL);
        let j = p.journal();
        assert_eq!(j.len(), 4);
        assert_eq!(j[0].site, site::SVC_REPLY_PRE);
        assert_eq!(j[0].hit, 0);
        assert_eq!(j[0].action, "exit");
        assert_eq!(j[2].hit, 2);
        assert_eq!(j[3].site, site::HEAP_ALLOC_FAIL);
        assert_eq!(j[3].action, "fail");
        // Digest is order-insensitive: re-firing the same multiset in a
        // different interleaving yields the same digest.
        let q = FaultPlan::default();
        q.set_seed(0);
        q.arm(site::HEAP_ALLOC_FAIL, FaultAction::Fail, Some(1));
        q.arm(site::SVC_REPLY_PRE, FaultAction::Exit, Some(3));
        q.hit(site::HEAP_ALLOC_FAIL);
        for _ in 0..5 {
            q.hit(site::SVC_REPLY_PRE);
        }
        assert_eq!(p.journal_digest(), q.journal_digest());
        assert_ne!(p.journal_digest(), 0);
    }

    #[test]
    fn set_seed_resets_journal_and_hit_counters() {
        let p = FaultPlan::default();
        p.arm(site::SVC_REPLY_PRE, FaultAction::Exit, Some(2));
        p.hit(site::SVC_REPLY_PRE);
        assert_eq!(p.journal_fires(), 1);
        p.set_seed(42);
        assert_eq!(p.journal_fires(), 0);
        assert_eq!(p.journal_digest(), 0);
        // Hit counter reset: the budget window restarts.
        assert_eq!(p.hit(site::SVC_REPLY_PRE), Some(FaultAction::Exit));
        assert_eq!(p.hit(site::SVC_REPLY_PRE), Some(FaultAction::Exit));
        assert_eq!(p.hit(site::SVC_REPLY_PRE), None);
    }

    #[test]
    fn rearming_resets_the_budget_window() {
        let p = FaultPlan::default();
        p.arm(site::SVC_WORKER_DEATH, FaultAction::Exit, Some(1));
        assert_eq!(p.hit(site::SVC_WORKER_DEATH), Some(FaultAction::Exit));
        assert_eq!(p.hit(site::SVC_WORKER_DEATH), None);
        p.arm(site::SVC_WORKER_DEATH, FaultAction::Exit, Some(1));
        assert_eq!(p.hit(site::SVC_WORKER_DEATH), Some(FaultAction::Exit));
    }

    #[test]
    fn site_names_match_count() {
        assert_eq!(SITE_NAMES.len(), site::COUNT);
    }
}
