//! Replay-determinism gate: the same `CHAOS1` repro token run twice must
//! produce bit-identical fault journals (equal digests and fire counts)
//! and the same oracle verdict — across every engine.
//!
//! This is the property the whole record/replay design rests on: budgets
//! are keyed to hit *indexes* (not racy decrements) and the journal digest
//! is an order-insensitive fold, so determinism holds even with concurrent
//! clients and workers as long as the run is ops-bounded. Probabilistic
//! sites additionally need stable per-site hit *counts*, which the
//! single-client/single-worker case pins down (DESIGN.md §17).

#![cfg(feature = "failpoints")]

use rinval::AlgorithmKind;
use svc::chaos::{Episode, PlanSpec, WorkloadKind};

/// Runs the episode twice (each time from a fresh STM and service) and
/// asserts identical journals and verdicts.
fn assert_replays(ep: &Episode) {
    // The token is the actual replay surface: round-trip through it, the
    // way `svc_loadgen --replay` would.
    let parsed = Episode::parse_token(&ep.token()).expect("token round-trip");
    assert_eq!(&parsed, ep, "token did not reproduce the episode");
    let a = parsed.run();
    let b = parsed.run();
    assert_eq!(
        (a.fires, a.digest),
        (b.fires, b.digest),
        "journals diverged for {}:\n  first  : {:?}\n  second : {:?}",
        ep.token(),
        a.report,
        b.report
    );
    assert_eq!(
        a.passed(),
        b.passed(),
        "verdicts diverged for {}: {:?} vs {:?}",
        ep.token(),
        a.violations,
        b.violations
    );
    assert!(
        a.passed(),
        "budget-bounded drill should pass the oracle: {:?}",
        a.violations
    );
    assert!(a.fires > 0, "the plan never fired — the gate is vacuous");
}

#[test]
fn replay_is_deterministic_across_all_engines() {
    for kind in AlgorithmKind::all(2, 2) {
        let ep = Episode {
            algo: kind,
            workload: WorkloadKind::Bank,
            seed: 0x9E37 ^ kind.name().len() as u64,
            clients: 2,
            ops_per_client: 30,
            write_pct: 70,
            workers: 2,
            timeout_ms: 100,
            plan: PlanSpec::parse("svc.reply.pre=exit:2;svc.worker.death=exit:1"),
            ..Episode::default()
        };
        assert_replays(&ep);
    }
}

#[test]
fn replay_is_deterministic_with_probabilistic_sites() {
    // Prob sites fire on draws keyed to hit indexes, so determinism needs
    // stable hit counts: one client, one worker (no concurrent attempts).
    let ep = Episode {
        algo: AlgorithmKind::RInvalMV {
            invalidators: 2,
            steps_ahead: 2,
        },
        workload: WorkloadKind::Bank,
        seed: 0xD1CE,
        clients: 1,
        ops_per_client: 40,
        write_pct: 100,
        workers: 1,
        timeout_ms: 100,
        plan: PlanSpec::parse("svc.reply.pre=prob(0.35,exit):16"),
        ..Episode::default()
    };
    let first = ep.run();
    assert_replays(&ep);
    // And the digest is a pure function of the seed: a different episode
    // seed draws a different fired set.
    let reseeded = Episode {
        seed: 0xD1CF,
        ..ep.clone()
    };
    let other = reseeded.run();
    assert_ne!(
        first.digest, other.digest,
        "independent seeds produced identical journals (digest stuck?)"
    );
}

#[test]
fn travel_workload_replays_too() {
    let ep = Episode {
        algo: AlgorithmKind::NOrec,
        workload: WorkloadKind::Travel,
        seed: 0x7EAE,
        clients: 2,
        ops_per_client: 25,
        write_pct: 60,
        workers: 2,
        timeout_ms: 100,
        plan: PlanSpec::parse("svc.mailbox.pop=exit:2"),
        ..Episode::default()
    };
    assert_replays(&ep);
}

#[test]
fn canary_episode_fails_and_shrinks_to_at_most_two_sites() {
    use rinval::faults::{site, FaultAction};
    use std::time::Duration;
    use svc::chaos::{shrink, PlanEntry};

    // The inverted gate the CI canary runs: an unbounded reply-eating
    // fault with the dedup window disabled must violate the ledger, and
    // the shrinker must strip the decoy sites from the plan.
    let fatal = Episode {
        algo: AlgorithmKind::RInvalMV {
            invalidators: 2,
            steps_ahead: 2,
        },
        workload: WorkloadKind::Bank,
        seed: 0xBAD,
        clients: 2,
        ops_per_client: 10,
        write_pct: 100,
        workers: 2,
        timeout_ms: 25,
        max_write_tries: 4,
        dedup: false,
        plan: PlanSpec {
            entries: vec![
                PlanEntry {
                    site: site::SVC_REPLY_PRE,
                    action: FaultAction::Exit,
                    times: None,
                },
                PlanEntry {
                    site: site::SVC_ENQUEUE,
                    action: FaultAction::Delay(Duration::from_millis(1)),
                    times: Some(2),
                },
            ],
        },
        ..Episode::default()
    };
    let outcome = fatal.run();
    assert!(
        !outcome.passed(),
        "the dedup-disabled canary must violate the ledger"
    );
    assert!(
        outcome.violations.iter().any(|v| v.starts_with("ledger:")),
        "{:?}",
        outcome.violations
    );
    let (min_ep, min_out) = shrink(&fatal, 30, |_, _, _| {});
    assert!(!min_out.passed());
    assert!(
        min_ep.plan.entries.len() <= 2,
        "shrink left {} armed sites: {}",
        min_ep.plan.entries.len(),
        min_ep.plan.render()
    );
    // The minimal episode still names the actual culprit.
    assert!(
        min_ep
            .plan
            .entries
            .iter()
            .any(|e| e.site == site::SVC_REPLY_PRE),
        "shrink dropped the fatal site: {}",
        min_ep.plan.render()
    );
    // And its token replays to the same verdict.
    let replayed = Episode::parse_token(&min_ep.token()).unwrap().run();
    assert!(!replayed.passed());
    assert_eq!(replayed.digest, min_out.digest, "minimal token diverged");
}
