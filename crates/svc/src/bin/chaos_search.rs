//! Seeded chaos exploration over the service stack.
//!
//! ```text
//! chaos_search [--episodes N] [--seed S] [--algo <kind>]
//!              [--workload bank|travel|mix] [--clients N] [--ops N]
//!              [--shrink-budget N]
//! chaos_search --canary
//! ```
//!
//! Runs `N` deterministic episodes: each derives its own seed and fault
//! plan from the search seed (1–3 sites over the full failpoint table,
//! finite budgets, sometimes probabilistic), executes ops-bounded, and
//! checks the full [`svc::oracle`]. On the first failing episode the
//! search delta-debugs the plan — dropping sites, halving budgets,
//! probabilities, clients and ops, re-running from scratch at every step —
//! and prints the minimal failing episode as a `CHAOS1` repro token for
//! `svc_loadgen --replay`.
//!
//! `--canary` inverts the gate: it runs a plan that *must* fail (an
//! unbounded reply-eating fault with the dedup window disabled via the
//! [`svc::SvcConfig::disable_dedup`] test hook, plus two decoy sites) and
//! exits `0` only if the search catches the violation and shrinks the
//! plan to at most two armed sites that round-trip through a valid token.
//! CI runs it to prove the searcher can still detect anything at all.
//!
//! Exit codes: `0` all episodes passed (or canary caught+shrunk) · `1` a
//! failure was found and shrunk (token printed) · `2` the canary was
//! missed (the search is blind) · `64` bad usage / `failpoints` disabled.

#[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
fn arg_val(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(not(feature = "failpoints"))]
fn main() {
    eprintln!(
        "chaos_search: built without the `failpoints` feature — no faults \
         can be injected, so a search would be vacuous.\n\
         rebuild with: cargo build -p svc --features failpoints"
    );
    std::process::exit(64);
}

#[cfg(feature = "failpoints")]
fn main() {
    use rinval::faults::{site, FaultAction};
    use rinval::AlgorithmKind;
    use stamp::SplitMix;
    use std::time::Duration;
    use svc::chaos::{sample_plan, shrink, Episode, PlanEntry, PlanSpec, WorkloadKind};

    let args: Vec<String> = std::env::args().collect();
    let episodes: u64 = arg_val(&args, "--episodes").map_or(20, |v| v.parse().unwrap());
    let seed: u64 = arg_val(&args, "--seed").map_or(0x5EA2C4, |v| v.parse().unwrap());
    let algo: AlgorithmKind = arg_val(&args, "--algo")
        .unwrap_or_else(|| "rinval-mv:2:2".into())
        .parse()
        .unwrap_or_else(|e| panic!("--algo: {e}"));
    let workload = arg_val(&args, "--workload").unwrap_or_else(|| "mix".into());
    let clients: u64 = arg_val(&args, "--clients").map_or(4, |v| v.parse().unwrap());
    let ops: u64 = arg_val(&args, "--ops").map_or(150, |v| v.parse().unwrap());
    let shrink_budget: usize = arg_val(&args, "--shrink-budget").map_or(40, |v| v.parse().unwrap());

    let report_failure = |ep: &Episode| -> ! {
        println!("shrinking (budget {shrink_budget} re-runs)…");
        let (min_ep, min_out) = shrink(ep, shrink_budget, |cand, _o, still_fails| {
            println!(
                "  candidate plan='{}' cli={} ops={} → {}",
                cand.plan.render(),
                cand.clients,
                cand.ops_per_client,
                if still_fails { "still fails" } else { "passes" }
            );
        });
        println!(
            "minimal failing episode ({} armed sites):",
            min_ep.plan.entries.len()
        );
        for v in &min_out.violations {
            println!("  violation: {v}");
        }
        println!("repro: {}", min_ep.token());
        std::process::exit(1);
    };

    if args.iter().any(|a| a == "--canary") {
        // A plan that must fail: unbounded reply loss with dedup disabled
        // (duplicates + undrained clients guaranteed), plus two decoy
        // delay sites the shrinker should eliminate.
        let fatal = Episode {
            algo,
            workload: WorkloadKind::Bank,
            seed,
            clients: 2,
            ops_per_client: 20,
            write_pct: 100,
            timeout_ms: 50,
            max_write_tries: 6,
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
                        times: Some(4),
                    },
                    PlanEntry {
                        site: site::SERVER_INVAL_LAG,
                        action: FaultAction::Delay(Duration::from_millis(1)),
                        times: Some(4),
                    },
                ],
            },
            ..Episode::default()
        };
        println!("canary: {}", fatal.token());
        let outcome = fatal.run();
        if outcome.passed() {
            eprintln!("CANARY MISSED: the searcher saw no violation in a fatal plan");
            std::process::exit(2);
        }
        for v in &outcome.violations {
            println!("  violation: {v}");
        }
        let (min_ep, min_out) = shrink(&fatal, shrink_budget, |cand, _o, still_fails| {
            println!(
                "  candidate plan='{}' cli={} ops={} → {}",
                cand.plan.render(),
                cand.clients,
                cand.ops_per_client,
                if still_fails { "still fails" } else { "passes" }
            );
        });
        let armed = min_ep.plan.entries.len();
        let token = min_ep.token();
        println!("minimal failing episode ({armed} armed sites):");
        for v in &min_out.violations {
            println!("  violation: {v}");
        }
        println!("repro: {token}");
        // The gate: detected, shrunk to ≤2 sites, and the token is valid.
        if armed > 2 {
            eprintln!("CANARY MISSED: shrink stopped at {armed} armed sites (> 2)");
            std::process::exit(2);
        }
        match Episode::parse_token(&token) {
            Ok(parsed) if parsed == min_ep => {
                println!("canary OK: caught, shrunk to {armed} site(s), token round-trips");
            }
            other => {
                eprintln!("CANARY MISSED: token does not round-trip ({other:?})");
                std::process::exit(2);
            }
        }
        return;
    }

    println!(
        "chaos_search: episodes={episodes} seed={seed:#x} algo={} workload={workload} \
         clients={clients} ops={ops}",
        algo.name()
    );
    let mut rng = SplitMix::new(seed);
    for i in 0..episodes {
        let ep_seed = rng.next_u64();
        let plan = sample_plan(&mut rng);
        let wl = match workload.as_str() {
            "bank" => WorkloadKind::Bank,
            "travel" => WorkloadKind::Travel,
            "mix" => {
                if i % 2 == 0 {
                    WorkloadKind::Bank
                } else {
                    WorkloadKind::Travel
                }
            }
            other => panic!("unknown --workload '{other}' (bank|travel|mix)"),
        };
        let ep = Episode {
            algo,
            workload: wl,
            seed: ep_seed,
            clients,
            ops_per_client: ops,
            plan,
            ..Episode::default()
        };
        let outcome = ep.run();
        println!(
            "episode {i:>3} wl={} plan='{}' → {} (fires={} digest={:#018x})",
            wl.name(),
            ep.plan.render(),
            if outcome.passed() { "ok" } else { "FAIL" },
            outcome.fires,
            outcome.digest
        );
        if !outcome.passed() {
            for v in &outcome.violations {
                println!("  violation: {v}");
            }
            println!("failing token: {}", ep.token());
            report_failure(&ep);
        }
    }
    println!("chaos_search: all {episodes} episodes passed");
}
