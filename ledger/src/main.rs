//! `ledger` — the repo's benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <file>]
//! ledger diff <a> <b>
//! ```
//!
//! `--trace 0` runs one workload end to end over the fixed five-engine
//! lineup and reports the end-to-end metrics; `--trace 1` runs the layer
//! probes and short traced passes and reports the per-layer metrics. Every
//! run checks its outputs and, if a check fails, exits non-zero without
//! printing a result line. See `README.md` beside this package.

mod diff;
mod harness;
mod host;
mod json;
mod metrics;
mod probes;
mod report;
mod run;
mod span;
mod stats;
mod svc_bank;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use workloads::WorkloadId;

/// Where the ledger writes (trace files): under the build directory, which
/// `.gitignore` names, whether cargo was pointed elsewhere or not.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
            PathBuf::from,
        )
        .join("ledger")
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

const USAGE: &str = "usage: ledger --workload <rbtree_w50|rbtree_ro|stamp_vacation|svc_bank> --seed <n> \
                     --seconds <1..60> --trace <0|1> [--quick] [--out <results file>]\n       ledger diff <a> <b>";

/// The run length `--quick` stands for: 0.1 s end-to-end windows.
const QUICK_SECONDS: f64 = 6.0;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadId::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(0.5..=600.0).contains(&s) {
                    return Err(format!("seconds {value} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if quick {
            QUICK_SECONDS
        } else {
            seconds.ok_or("--seconds (or --quick) is required")?
        },
        trace: trace.unwrap_or(false),
        out,
    })
}

/// Runs one benchmark invocation; the report is complete and checked, or
/// the error says which gate failed.
fn measure(args: &Args) -> Result<report::Report, String> {
    let host = host::Host::capture();
    println!(
        "ledger: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    harness::check_lineup_fits(host.nproc)?;
    let mut report = if args.trace {
        run::traced(args.workload, args.seed, args.seconds)?
    } else {
        if !WorkloadId::GATED.contains(&args.workload) {
            println!(
                "note: {} is not listed in BENCHMARK.json: its end-to-end numbers are bimodal on a \
                 2-core host and are gated as per-layer svc.* metrics instead",
                args.workload.name()
            );
        }
        let plan = harness::Plan::end_to_end(args.seconds);
        run::end_to_end(args.workload, args.seed, &plan)?
    };
    report.host = host.describe(args.seed);
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("diff") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        match diff::run(a, b) {
            Ok(clean) => std::process::exit(i32::from(!clean)),
            Err(e) => {
                eprintln!("ledger diff: {e}");
                std::process::exit(2);
            }
        }
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("ledger: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let report = measure(&args).unwrap_or_else(|e| {
        eprintln!("ledger: FAILED: {e}");
        std::process::exit(1);
    });
    println!("host {}", report.host.render());
    report.print_table();
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", report.record().render()));
        if let Err(e) = appended {
            eprintln!("ledger: {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", report.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload svc_bank --seed 7 --seconds 24 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: WorkloadId::SvcBank,
                seed: 7,
                seconds: 24.0,
                trace: true,
                out: None
            }
        );
        assert_eq!(
            parse_args(&argv("--workload rbtree_ro --seed 1 --quick"))
                .unwrap()
                .seconds,
            QUICK_SECONDS
        );
        for bad in [
            "--workload nope --seed 1 --seconds 5",
            "--workload rbtree_ro --seconds 5",
            "--workload rbtree_ro --seed 1 --seconds 0",
            "--workload rbtree_ro --seed 1 --seconds 5 --trace 2",
            "--workload rbtree_ro --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .unwrap()
    }

    fn declared(doc: &Json, section: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` and the catalogue agree, name for name, with units,
    /// directions and bounds — in both directions, since both are lists of
    /// the same length compared in order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        for (section, catalogue) in [
            ("end_to_end", metrics::end_to_end()),
            ("per_layer", metrics::per_layer()),
        ] {
            let want: Vec<_> = catalogue
                .iter()
                .map(|d| {
                    (
                        d.name.clone(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                        d.bound,
                    )
                })
                .collect();
            assert_eq!(declared(&doc, section), want, "{section}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WorkloadId::GATED.map(WorkloadId::name));
        let setup = declared(&doc, "end_to_end")
            .into_iter()
            .find(|m| m.0 == "setup_s")
            .unwrap();
        assert_eq!((setup.1.as_str(), setup.2.as_str()), ("s", "lower"));
        let widest = declared(&doc, "end_to_end")
            .iter()
            .filter_map(|m| m.3)
            .fold(0.0, f64::max);
        assert_eq!(setup.3, Some(widest), "setup_s carries the largest bound");
    }

    /// A `--quick` pass of every workload, end to end and traced: the
    /// result line carries exactly the names `BENCHMARK.json` declares,
    /// and every gate passes on all five engines. One test, because only
    /// one `Stm` may be alive at a time.
    #[test]
    fn quick_pass_prints_exactly_the_declared_names() {
        if host::nproc() < 2 {
            eprintln!("skipped: the lineup needs 2 cores");
            return;
        }
        let doc = benchmark_json();
        let names = |section: &str| {
            declared(&doc, section)
                .into_iter()
                .map(|m| m.0)
                .collect::<BTreeSet<_>>()
        };
        let mut runs: Vec<(WorkloadId, bool)> =
            WorkloadId::ALL.iter().map(|w| (*w, false)).collect();
        runs.push((WorkloadId::SvcBank, true));
        for (workload, trace) in runs {
            let args = Args {
                workload,
                seed: 11,
                seconds: QUICK_SECONDS,
                trace,
                out: None,
            };
            let report =
                measure(&args).unwrap_or_else(|e| panic!("{} trace {trace}: {e}", workload.name()));
            let line = json::parse(&report.result_line()).unwrap();
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            let printed: BTreeSet<String> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(
                printed,
                names(if trace { "per_layer" } else { "end_to_end" })
            );
            for (def, v) in report.values() {
                assert!(stats::valid_name(&def.name));
                if !trace {
                    assert!(v.value > 0.0, "{} must never read 0", def.name);
                }
            }
        }
    }
}
