//! Chaos soak: the closed-loop generator under a composite fault plan —
//! service-layer worker deaths and lost replies, plus an engine-level
//! invalidation-server kill — must end with a clean ledger (zero lost,
//! zero duplicated), intact conservation invariants, and the write p99
//! back under the SLO within the recovery window.
//!
//! `SVC_SOAK_SECS` scales the run (default 2 s — long enough for the
//! arm/disarm/recover phases, short enough for the tier-1 suite). CI's
//! service-chaos job additionally drives the `svc_loadgen` binary under
//! env-seeded fault plans.

#![cfg(feature = "failpoints")]

use rinval::AlgorithmKind;
use std::time::Duration;
use svc::loadgen::{self, Burst, ChaosConfig, LoadConfig};
use svc::oracle::{self, Allowances};
use svc::{bank, SvcConfig};

#[test]
fn chaos_soak_recovers_ledger_and_slo() {
    let secs: f64 = std::env::var("SVC_SOAK_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    let duration = Duration::from_secs_f64(secs);
    let stm = rinval::Stm::builder(AlgorithmKind::RInvalMV {
        invalidators: 2,
        steps_ahead: 2,
    })
    .heap_words(1 << 18)
    .build();
    let service = bank::BankService::setup(&stm, 128, 10_000);
    let svc_cfg = SvcConfig {
        workers: 4,
        clients: 64,
        slo_p99: Duration::from_millis(250),
        ..SvcConfig::default()
    };
    let cfg = LoadConfig {
        clients: 8,
        duration,
        timeout: Duration::from_millis(200),
        write_pct: 60,
        keys: 128,
        zipf_s: 1.0,
        burst: Some(Burst {
            busy: Duration::from_millis(120),
            idle: Duration::from_millis(30),
        }),
        seed: 0xC405,
        chaos: Some(ChaosConfig {
            arm_at: duration.mul_f64(0.25),
            disarm_at: duration.mul_f64(0.60),
            spec: "svc.worker.death=exit:2;svc.reply.pre=panic:3".into(),
            kill_inval_server: true,
            recovery_window: duration + Duration::from_secs(10),
        }),
        ..LoadConfig::default()
    };
    let report = loadgen::run(&stm, &service, &svc_cfg, &cfg, &|_c, rng, hot, write| {
        if write {
            (
                bank::EP_TRANSFER,
                [hot, rng.below(128), 1 + rng.below(20), 0],
            )
        } else if rng.below(8) == 0 {
            (bank::EP_AUDIT, [0; 4])
        } else {
            (bank::EP_BALANCE, [hot, 0, 0, 0])
        }
    });
    report.print();
    // The full oracle: ledger, conservation, engine quiescence, SLO
    // recovery — with the allowances this fault plan actually grants.
    let allow = Allowances::from_spec(
        &cfg.chaos.as_ref().unwrap().spec,
        /* kill_inval_server = */ true,
    );
    let violations = oracle::check_all(&stm, &service, &report, &allow);
    assert!(violations.is_empty(), "oracle violations: {violations:#?}");
    // The drills actually fired: deaths were injected and survived.
    assert!(report.svc.worker_deaths >= 1, "no worker death injected");
    assert!(report.svc.worker_respawns >= 1, "no worker respawned");
    // The engine-level kill composes: the invalidation-server death was
    // absorbed (respawn or degradation) without corrupting the ledger.
    assert!(
        report.server.any_recovery_activity(),
        "engine-level fault left no trace"
    );
}
