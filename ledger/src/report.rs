//! What one run reports: named values checked against the catalogue, the
//! result line the driver reads, and the full record `ledger diff` reads.

use crate::json::{obj, Json};
use crate::metrics::{Better, Def};
use crate::stats::Summary;

/// One reported number, with the windows it was chosen from.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    /// Median and quartiles of the per-window values behind `value`; a
    /// point summary for numbers that were computed once.
    pub windows: Summary,
}

pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Values as measured, by name.
    raw: Vec<(String, Value)>,
    /// Every per-window value of the metrics chosen from windows.
    windows: Vec<(String, Vec<f64>)>,
    /// The measured values in catalogue order, once [`Report::finish`] ran.
    values: Vec<(Def, Value)>,
    pub host: Json,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Report {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            raw: Vec::new(),
            windows: Vec::new(),
            values: Vec::new(),
            host: Json::Null,
        }
    }

    /// Records a number that was computed once; the name is resolved
    /// against the catalogue in [`Report::finish`].
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let windows = Summary::point(value);
        self.raw.push((name.into(), Value { value, windows }));
    }

    /// Records a metric measured once per window as its **best** window —
    /// the highest throughput, the lowest latency — and keeps every window
    /// for the run record.
    ///
    /// Why the best and not the median: on the shared 2-vCPU hosts this
    /// runs on, interference from outside the guest is one-sided (it only
    /// ever slows a window down), lasts from one window to minutes, and
    /// shows up neither as steal time nor as runnable-wait. Over ten seeds
    /// the best window repeated two to three times more tightly than the
    /// median of the same windows (README, "Steadiness").
    pub fn set_best_window(&mut self, name: impl Into<String>, windows: &[f64], better: Better) {
        let best = match better {
            Better::Higher => f64::max,
            Better::Lower => f64::min,
        };
        let value = Value {
            value: windows
                .iter()
                .copied()
                .reduce(best)
                .expect("at least one window"),
            windows: Summary::of(windows),
        };
        let name = name.into();
        self.windows.push((name.clone(), windows.to_vec()));
        self.raw.push((name, value));
    }

    /// Checks the recorded names against `catalogue` — every catalogue
    /// name exactly once, nothing else, every value finite — and puts them
    /// in catalogue order with their units.
    pub fn finish(&mut self, catalogue: Vec<Def>) -> Result<(), String> {
        let mut ordered = Vec::with_capacity(catalogue.len());
        for def in catalogue {
            let mut hits = self.raw.iter().filter(|(n, _)| *n == def.name);
            let value = match (hits.next(), hits.next()) {
                (Some((_, v)), None) => *v,
                (None, _) => return Err(format!("metric {} was never measured", def.name)),
                _ => return Err(format!("metric {} was measured twice", def.name)),
            };
            if !crate::stats::valid_name(&def.name) {
                return Err(format!(
                    "metric name {:?} is outside the name grammar",
                    def.name
                ));
            }
            if !value.value.is_finite() {
                return Err(format!("metric {} is not a finite number", def.name));
            }
            ordered.push((def, value));
        }
        if let Some((stray, _)) = self
            .raw
            .iter()
            .find(|(n, _)| !ordered.iter().any(|(o, _)| o.name == *n))
        {
            return Err(format!("metric {stray} is not in the catalogue"));
        }
        self.values = ordered;
        Ok(())
    }

    #[cfg(test)]
    pub fn values(&self) -> &[(Def, Value)] {
        &self.values
    }

    /// One aligned line per metric: name, value, unit, and the windows'
    /// quartiles where there were windows.
    pub fn print_table(&self) {
        for (def, v) in &self.values {
            print!("{:<44} {:>16.6} {:<10}", def.name, v.value, def.unit);
            if v.windows.n > 1 {
                let w = &v.windows;
                print!(
                    " windows: q1 {:.6} median {:.6} q3 {:.6} n {}",
                    w.q1, w.median, w.q3, w.n
                );
            }
            println!();
        }
    }

    /// The last line of standard output, in the driver's shape.
    pub fn result_line(&self) -> String {
        let metrics = self
            .values
            .iter()
            .map(|(def, v)| {
                (
                    def.name.clone(),
                    obj(vec![
                        ("value", Json::Num(v.value)),
                        ("unit", Json::Str(def.unit.into())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The full record of this run, one line of a results file.
    pub fn record(&self) -> Json {
        let metrics = self
            .values
            .iter()
            .map(|(def, v)| {
                (
                    def.name.clone(),
                    obj(vec![
                        ("value", Json::Num(v.value)),
                        ("q1", Json::Num(v.windows.q1)),
                        ("median", Json::Num(v.windows.median)),
                        ("q3", Json::Num(v.windows.q3)),
                        ("n", Json::Num(v.windows.n as f64)),
                        ("unit", Json::Str(def.unit.into())),
                        ("better", Json::Str(def.better.as_str().into())),
                        ("bound", def.bound.map_or(Json::Null, Json::Num)),
                    ]),
                )
            })
            .collect();
        let windows = self
            .windows
            .iter()
            .map(|(n, w)| {
                (
                    n.clone(),
                    Json::Arr(w.iter().map(|v| Json::Num(*v)).collect()),
                )
            })
            .collect();
        obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("trace", Json::Bool(self.traced)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("host", self.host.clone()),
            ("metrics", Json::Obj(metrics)),
            ("windows", Json::Obj(windows)),
        ])
    }
}
