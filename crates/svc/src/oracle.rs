//! The invariant oracle: every end-of-run safety check the soak, chaos
//! and search harnesses share, in one place.
//!
//! Before this module each harness carried its own copy-pasted subset of
//! the checks (`soak.rs` checked the registry but not the ledger,
//! `chaos.rs` the ledger but not the registry, the service drills
//! neither), which meant a fault that corrupted an unchecked surface in
//! one harness slipped through. The oracle closes that: a harness hands
//! over whatever it has — the quiescent [`Stm`], the [`Workload`], the
//! [`LoadReport`] — plus an [`Allowances`] describing what its fault plan
//! *permitted*, and gets back the full list of violations.
//!
//! Returning the list (instead of asserting) is what makes the oracle
//! reusable by the chaos search: the search treats a non-empty list as a
//! failing episode to shrink, while the test harnesses simply assert
//! emptiness with the list as the message.

use crate::loadgen::LoadReport;
use crate::Workload;
use rinval::faults::{self, site};
use rinval::Stm;

/// What the armed fault plan permitted, so the oracle can tell *injected*
/// damage (a commit-server killed on purpose may legitimately end in
/// degradation) from *spontaneous* damage (a quiet run must not degrade).
#[derive(Clone, Copy, Debug, Default)]
pub struct Allowances {
    /// Engine degradation is acceptable: the plan armed a server-level
    /// fault (death/stall/lag/watchdog) or killed an invalidation server.
    pub degraded: bool,
    /// Any fault site was armed at any point (suppresses the quiet-run
    /// checks that only hold when nothing was injected).
    pub faults_armed: bool,
}

impl Allowances {
    /// Derives the allowances from an `RINVAL_FAILPOINTS`-syntax spec
    /// (plus whether the schedule additionally killed an invalidation
    /// server). Panics on malformed specs, like arming does.
    pub fn from_spec(spec: &str, kill_inval_server: bool) -> Allowances {
        let entries = faults::parse_spec(spec);
        let armed = entries.iter().any(|(_, a, _)| a.is_some()) || kill_inval_server;
        // Any server-side site can end in degradation: deaths drain the
        // respawn budget, stalls/lags trip the stall detector, and a
        // blinded watchdog lets either outcome land late.
        let server_sites = [
            site::SERVER_COMMIT_STALL,
            site::SERVER_COMMIT_DEATH,
            site::SERVER_INVAL_DEATH,
            site::SERVER_INVAL_LAG,
            site::SERVER_WATCHDOG_SKIP,
        ];
        let degraded = kill_inval_server
            || entries
                .iter()
                .any(|(s, a, _)| a.is_some() && server_sites.contains(s));
        Allowances {
            degraded,
            faults_armed: armed,
        }
    }
}

/// Engine-level invariants at quiescence (no transactions in flight, all
/// client threads deregistered): no leaked irrevocable token, a quiescent
/// registry, degradation only when the plan permits it (and agreeing with
/// its counter), and sane heap occupancy accounting.
pub fn check_engine(stm: &Stm, allow: &Allowances, out: &mut Vec<String>) {
    if let Some(slot) = stm.irrevocable_holder() {
        out.push(format!("engine: irrevocable token leaked (slot {slot})"));
    }
    let reg = stm.registry();
    for i in 0..reg.len() {
        if reg.live().get(i) || reg.pending().get(i) {
            out.push(format!("engine: registry not quiescent at slot {i}"));
        }
    }
    let st = stm.server_stats();
    if stm.is_degraded() && !allow.degraded {
        out.push(format!(
            "engine: degraded without a server-level fault armed: {st:?}"
        ));
    }
    if stm.is_degraded() && st.degradations == 0 {
        out.push("engine: degraded flag set but degradations counter is 0".into());
    }
    let hs = stm.heap_stats();
    if hs.freed_words > hs.allocated_words {
        out.push(format!(
            "heap: freed {} words but only {} ever allocated",
            hs.freed_words, hs.allocated_words
        ));
    }
    if hs.in_use_words() > hs.capacity_words as u64 {
        out.push(format!(
            "heap: occupancy {} exceeds capacity {}",
            hs.in_use_words(),
            hs.capacity_words
        ));
    }
}

/// The exactly-once ledger: nothing lost, nothing duplicated, every key
/// resolved — and when a chaos schedule ran, recovery observed.
pub fn check_ledger(report: &LoadReport, out: &mut Vec<String>) {
    if report.lost != 0 {
        out.push(format!("ledger: {} operations lost", report.lost));
    }
    if report.duplicated != 0 {
        out.push(format!(
            "ledger: {} operations duplicated",
            report.duplicated
        ));
    }
    if report.undrained != 0 {
        out.push(format!(
            "ledger: {} clients undrained (inconclusive)",
            report.undrained
        ));
    }
    if report.chaos_ran && report.recovered_after.is_none() {
        out.push("slo: write p99 never returned under the SLO after disarm".into());
    }
}

/// Cross-layer accounting: engine-level deadline escapes (timeout
/// withdrawals) and recovery activity must be visible as *some*
/// client-observable pressure on a run where nothing was injected — a
/// counter ticking on a perfectly quiet run means an accounting leak.
pub fn check_accounting(report: &LoadReport, allow: &Allowances, out: &mut Vec<String>) {
    if allow.faults_armed {
        return; // injected faults legitimately produce all of the below
    }
    let client_pressure = report.svc.client_timeouts > 0
        || report.svc.shed_writes > 0
        || report.undrained > 0
        || report.degraded;
    if report.server.timeout_withdrawals > 0 && !client_pressure {
        out.push(format!(
            "accounting: {} timeout withdrawals on a run with no \
             client-visible pressure",
            report.server.timeout_withdrawals
        ));
    }
    if report.server.respawns > 0 {
        out.push(format!(
            "accounting: {} server respawns with no fault armed",
            report.server.respawns
        ));
    }
    if report.svc.worker_deaths > 0 {
        out.push(format!(
            "accounting: {} worker deaths with no fault armed",
            report.svc.worker_deaths
        ));
    }
}

/// Workload conservation ([`Workload::verify`]), quiescent.
pub fn check_conservation(stm: &Stm, workload: &dyn Workload, out: &mut Vec<String>) {
    if let Err(e) = workload.verify(stm) {
        out.push(format!("conservation: {e}"));
    }
}

/// Runs every check the harness has inputs for and returns the violation
/// list (empty = the episode passed). This is the single verdict surface
/// shared by the soak/chaos tests, `svc_loadgen` and the chaos search.
pub fn check_all(
    stm: &Stm,
    workload: &dyn Workload,
    report: &LoadReport,
    allow: &Allowances,
) -> Vec<String> {
    let mut out = Vec::new();
    check_ledger(report, &mut out);
    check_conservation(stm, workload, &mut out);
    check_engine(stm, allow, &mut out);
    check_accounting(report, allow, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    #[test]
    fn allowances_from_spec_classifies_sites() {
        let a = Allowances::from_spec("", false);
        assert!(!a.degraded && !a.faults_armed);
        let a = Allowances::from_spec("", true);
        assert!(a.degraded && a.faults_armed);
        let a = Allowances::from_spec("svc.reply.pre=exit:3", false);
        assert!(!a.degraded && a.faults_armed);
        let a = Allowances::from_spec("server.commit.death=exit", false);
        assert!(a.degraded && a.faults_armed);
        let a = Allowances::from_spec("server.watchdog.skip=fail:4", false);
        assert!(a.degraded && a.faults_armed);
        // Disarm-only entries arm nothing.
        let a = Allowances::from_spec("server.commit.death=off", false);
        assert!(!a.degraded && !a.faults_armed);
    }

    #[test]
    fn quiescent_engine_passes_and_checks_fire() {
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 12)
            .build();
        let mut out = Vec::new();
        check_engine(&stm, &Allowances::default(), &mut out);
        assert!(out.is_empty(), "{out:?}");
        // A leaked live bit (a slot that died without clearing its
        // summary) makes the registry non-quiescent.
        stm.registry().live().set(0);
        let mut out = Vec::new();
        check_engine(&stm, &Allowances::default(), &mut out);
        assert!(
            out.iter().any(|v| v.contains("registry not quiescent")),
            "{out:?}"
        );
        stm.registry().live().clear(0);
    }

    #[test]
    fn conservation_check_reports_workload_violation() {
        use crate::{EndpointDesc, Request};
        use rinval::{TxResult, Txn};
        let stm = Stm::builder(AlgorithmKind::NOrec)
            .heap_words(1 << 12)
            .build();
        let bank = crate::bank::BankService::setup(&stm, 4, 100);
        let mut out = Vec::new();
        check_conservation(&stm, &bank, &mut out);
        assert!(out.is_empty(), "{out:?}");

        struct Broken;
        impl Workload for Broken {
            fn endpoints(&self) -> &'static [EndpointDesc] {
                &[]
            }
            fn apply(&self, _tx: &mut Txn<'_>, _req: &Request) -> TxResult<u64> {
                unreachable!()
            }
            fn query(&self, _tx: &mut Txn<'_>, _req: &Request) -> TxResult<u64> {
                unreachable!()
            }
            fn verify(&self, _stm: &Stm) -> Result<(), String> {
                Err("synthetic breakage".into())
            }
        }
        let mut out = Vec::new();
        check_conservation(&stm, &Broken, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("synthetic breakage"), "{out:?}");
    }
}
