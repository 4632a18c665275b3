//! `ledger diff <a> <b>`: two results files in, one row per metric ×
//! workload out — both values, the ratio with its base, the bound and a
//! verdict.
//!
//! A results file holds one run record per line (`--out` appends). With
//! several runs of a workload in a file, a row's value is the median of the
//! runs' values and its spread the distance between their quartiles as a
//! share of that median; with a single run, the spread is that of the run's
//! own windows.

use crate::json::{parse, Json};
use crate::stats::Summary;
use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The spread of either side is wider than the bound, so a change of
    /// the bound's size could not be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(&self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Metrics without a bound of their own (per-layer) are judged against
/// this one, so the table still says which rows moved.
const NOMINAL_BOUND: f64 = 0.10;

/// One side of a comparison: a value and how far its repeats lie apart.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
    pub runs: usize,
}

/// `a` is the base. `higher_is_better` orients the change; a metric is
/// unresolved when either side's spread exceeds `bound`.
pub fn verdict(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> Verdict {
    if a.spread > bound || b.spread > bound {
        return Verdict::Unresolved;
    }
    if a.value == 0.0 {
        return if b.value == 0.0 {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    let change = (b.value - a.value) / a.value.abs();
    let gain = if higher_is_better { change } else { -change };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

struct Row {
    unit: String,
    higher_is_better: bool,
    bound: Option<f64>,
    /// Per run in the file: the reported value and the spread of the
    /// windows it was chosen from.
    runs: Vec<(f64, f64)>,
}

impl Row {
    fn side(&self) -> Side {
        match self.runs.as_slice() {
            [(value, spread)] => Side {
                value: *value,
                spread: *spread,
                runs: 1,
            },
            many => {
                let s = Summary::of(&many.iter().map(|r| r.0).collect::<Vec<_>>());
                Side {
                    value: s.median,
                    spread: s.spread(),
                    runs: many.len(),
                }
            }
        }
    }
}

/// `(workload, traced, metric)` → row, in a stable order.
type Table = BTreeMap<(String, bool, String), Row>;

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut table = Table::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let run = parse(line).map_err(|e| bad(&e))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let traced = matches!(run.get("trace"), Some(Json::Bool(true)));
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, m) in metrics {
            let num = |k: &str| m.get(k).and_then(Json::as_f64);
            let value = num("value").ok_or_else(|| bad("metric without a value"))?;
            let windows = Summary {
                q1: num("q1").unwrap_or(value),
                median: num("median").unwrap_or(value),
                q3: num("q3").unwrap_or(value),
                n: num("n").unwrap_or(1.0) as usize,
            };
            table
                .entry((workload.to_string(), traced, name.clone()))
                .or_insert_with(|| Row {
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: num("bound"),
                    runs: Vec::new(),
                })
                .runs
                .push((value, windows.spread()));
        }
    }
    if table.is_empty() {
        return Err(format!("{path}: no run records"));
    }
    Ok(table)
}

/// Prints the comparison; `Ok(true)` when no end-to-end row is worse.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<15} {:<40} {:>14} {:>14} {:<9} {:>26} {:>6}  verdict",
        "workload", "metric", "a", "b", "unit", "b/a (base a)", "bound"
    );
    let mut clean = true;
    for (key, row_a) in &a {
        let Some(row_b) = b.get(key) else {
            println!("{:<15} {:<40} only in {path_a}", key.0, key.2);
            continue;
        };
        let (sa, sb) = (row_a.side(), row_b.side());
        let v = verdict(
            &sa,
            &sb,
            row_a.higher_is_better,
            row_a.bound.unwrap_or(NOMINAL_BOUND),
        );
        clean &= !(v == Verdict::Worse && row_a.bound.is_some());
        println!(
            "{:<15} {:<40} {:>14.4} {:>14.4} {:<9} {:>26} {:>6}  {} ({} is better; spread a {:.1}% over {} run(s), b {:.1}% over {})",
            key.0,
            key.2,
            sa.value,
            sb.value,
            row_a.unit,
            format!("{:.4} of {:.4}", sb.value / sa.value, sa.value),
            row_a.bound.map_or("-".into(), |b| format!("{b:.2}")),
            v.as_str(),
            if row_a.higher_is_better { "higher" } else { "lower" },
            sa.spread * 100.0,
            sa.runs,
            sb.spread * 100.0,
            sb.runs,
        );
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{:<15} {:<40} only in {path_b}", key.0, key.2);
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Side {
        Side {
            value,
            spread: 0.02,
            runs: 10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = tight(100.0);
        assert_eq!(verdict(&base, &tight(105.0), true, 0.10), Verdict::Within);
        assert_eq!(verdict(&base, &tight(85.0), true, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &tight(120.0), true, 0.10), Verdict::Better);
        // Lower-is-better flips the sign.
        assert_eq!(verdict(&base, &tight(120.0), false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &tight(85.0), false, 0.10), Verdict::Better);
        // A side whose repeats lie further apart than the bound resolves
        // nothing, however large the change.
        let noisy = Side {
            value: 50.0,
            spread: 0.4,
            runs: 10,
        };
        assert_eq!(verdict(&base, &noisy, true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &base, true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn several_runs_collapse_to_the_median_of_their_values() {
        let row = |runs: &[(f64, f64)]| Row {
            unit: "1/s".into(),
            higher_is_better: true,
            bound: Some(0.1),
            runs: runs.to_vec(),
        };
        let s = row(&[(90.0, 0.5), (100.0, 0.5), (130.0, 0.5)]).side();
        assert_eq!((s.value, s.runs), (100.0, 3));
        assert!(
            (s.spread - 0.2).abs() < 1e-12,
            "quartiles 95 and 115 over median 100"
        );
        // A single run keeps its own windows' spread.
        let s = row(&[(90.0, 0.07)]).side();
        assert_eq!((s.value, s.spread, s.runs), (90.0, 0.07, 1));
    }
}
