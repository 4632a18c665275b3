//! Host descriptor and process-level gauges: what the numbers were taken
//! on, and how busy it was.

use crate::json::{obj, Json};
use std::fs;
use std::path::Path;

/// 1-minute load average, or `None` where `/proc` is absent.
pub fn loadavg_1m() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    // `output()` waits for the child, so nothing outlives this call.
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// HEAD of the repository this package sits in, read from `.git` directly;
/// "unknown" in an exported checkout.
fn git_sha() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = match fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU seconds this process has consumed so far, summed over its *live*
/// threads from `/proc/self/task/*/schedstat` (nanosecond resolution;
/// `/proc/self/stat` only counts 10 ms ticks). A thread that has exited
/// drops out of the sum, so take both readings of a difference while the
/// threads of interest are alive. `None` where schedstat is unavailable.
pub fn process_cpu_seconds() -> Option<f64> {
    let mut ns = 0u64;
    for task in fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        if let Ok(s) = fs::read_to_string(path) {
            ns += s.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(ns as f64 / 1e9)
}

pub struct Host {
    pub nproc: usize,
    cpu_model: String,
    rustc: String,
    git_sha: String,
    load_start: Option<f64>,
}

impl Host {
    pub fn capture() -> Host {
        Host {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: rustc_version(),
            git_sha: git_sha(),
            load_start: loadavg_1m(),
        }
    }

    /// The descriptor as JSON, closing it with the end-of-run load. The
    /// host counts as busy when the load *before* the run exceeds half the
    /// cores: the lineup occupies all of them, so a foreign half-core is
    /// enough to move the remote engines' numbers. The end-of-run load is
    /// mostly the ledger's own threads and is recorded, not judged.
    pub fn describe(&self, seed: u64) -> Json {
        let load_end = loadavg_1m();
        let busy = self.load_start.is_some_and(|l| l > 0.5 * self.nproc as f64);
        let load = |l: Option<f64>| l.map_or(Json::Null, Json::Num);
        obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_sha", Json::Str(self.git_sha.clone())),
            ("features", Json::Str("default".into())),
            ("seed", Json::Num(seed as f64)),
            ("loadavg_1m_start", load(self.load_start)),
            ("loadavg_1m_end", load(load_end)),
            ("host.busy", Json::Bool(busy)),
        ])
    }
}
