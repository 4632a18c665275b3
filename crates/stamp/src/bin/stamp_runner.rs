//! Command-line runner for the STAMP-like applications.
//!
//! ```sh
//! cargo run --release -p stamp --bin stamp_runner -- <app> [algorithm] [threads] [--latency] [--phases]
//! cargo run --release -p stamp --bin stamp_runner -- all rinval-v2 4
//! ```
//!
//! Runs the chosen application with its default configuration, verifies
//! the result where the app exposes a checker, and prints the wall time,
//! throughput and abort rate — the same columns the paper's Figure 8
//! discussion cares about. `--latency` additionally enables the opt-in
//! commit-latency histogram and prints the p50/p99 commit latency.
//! `--phases` enables the opt-in phase profiler and prints where the
//! transactions' time went — the validation/commit/other split of the
//! paper's Figure 2, with the commit share being the critical-path
//! fraction the scan-kernel work targets.

use rinval::{AlgorithmKind, Stm};
use stamp::App;

fn parse_app(name: &str) -> Option<App> {
    App::ALL.into_iter().find(|a| a.name() == name)
}

fn run_one(app: App, algo: AlgorithmKind, threads: usize, latency: bool, phases: bool) {
    let stm = Stm::builder(algo)
        .heap_words(app.default_heap_words())
        .latency_histogram(latency)
        .profile(phases)
        .build();
    let (report, verdict) = app.run_small(&stm, threads);
    let status = match verdict {
        Ok(()) => "verified",
        Err(ref e) => e.as_str(),
    };
    // A run that exercised the fault-recovery machinery is not a clean
    // measurement of the nominal algorithm; say so on the line.
    let health = if report.degraded() {
        " [DEGRADED]"
    } else if report.recovery_activity() {
        " [recovered]"
    } else {
        ""
    };
    println!(
        "{:>10} {:>10} t={threads} wall={:>8.1}ms commits={:>7} aborts={:>6} rate={:>5.1}% \
         heap[peak={}w freed={}w recycled={}w segs={}] [{status}]{health}",
        app.name(),
        algo.name(),
        report.wall.as_secs_f64() * 1000.0,
        report.stats.commits,
        report.stats.aborts,
        report.stats.abort_rate() * 100.0,
        report.heap_peak_words(),
        report.heap.freed_words,
        report.heap.recycled_words,
        report.heap.live_segments,
    );
    // Multi-version runs get a second line: version-ring occupancy and
    // the snapshot-path counters (a zero ring depth means the engine ran
    // without versions and the line would be all noise).
    if report.heap.version_ring_depth > 0 {
        println!(
            "{:>10} {:>10} ring[depth={} entries={} appends={}] \
             ro[snap-commits={} misses={} promotions={}]",
            app.name(),
            algo.name(),
            report.heap.version_ring_depth,
            report.heap.version_entries,
            report.heap.version_appends,
            report.server.ro_snapshot_commits,
            report.server.ring_misses,
            report.server.ro_promotions,
        );
    }
    if phases {
        // Per-thread shares: the wall clock ran once for each of the
        // `threads` workers, so the phase durations are normalized
        // against `wall × threads`.
        let (validation, commit, other) = report.stats.breakdown(report.wall * threads as u32);
        println!(
            "{:>10} {:>10} phases[validation={:.1}% commit={:.1}% other={:.1}%]",
            app.name(),
            algo.name(),
            validation * 100.0,
            commit * 100.0,
            other * 100.0,
        );
    }
    if latency {
        let st = stm.server_stats();
        let fmt = |q: f64| {
            st.latency_quantile_ns(q)
                .map_or_else(|| "-".to_string(), |ns| format!("{:.1}us", ns as f64 / 1e3))
        };
        println!(
            "{:>10} {:>10} commit-latency p50={} p99={} server_parks={} client_parks={} wakes_sent={} \
             quiet_retirements={} ro_promotions={} stale_refusals={}",
            app.name(),
            algo.name(),
            fmt(0.5),
            fmt(0.99),
            st.server_parks,
            st.client_parks,
            st.wakes_sent,
            st.quiet_retirements,
            st.ro_promotions,
            st.stale_refusals,
        );
    }
    if verdict.is_err() {
        std::process::exit(2);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let latency = args.iter().any(|a| a == "--latency");
    args.retain(|a| a != "--latency");
    let phases = args.iter().any(|a| a == "--phases");
    args.retain(|a| a != "--phases");
    let app_arg = args.get(1).map(String::as_str).unwrap_or("all");
    // The canonical parser lives on AlgorithmKind (FromStr); its error
    // already lists AlgorithmKind::NAMES and the parameter syntax.
    let algo: AlgorithmKind = match args
        .get(2)
        .map(String::as_str)
        .unwrap_or("rinval-v2")
        .parse()
    {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let threads: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2);

    if app_arg == "all" {
        for app in App::ALL {
            run_one(app, algo, threads, latency, phases);
        }
    } else if let Some(app) = parse_app(app_arg) {
        run_one(app, algo, threads, latency, phases);
    } else {
        eprintln!(
            "unknown app '{app_arg}'; choose from all, {}",
            App::ALL.map(|a| a.name()).join(", ")
        );
        std::process::exit(1);
    }
}
