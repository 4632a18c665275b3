//! The metric catalogue: every name the ledger prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` lists the
//! same names; a self-test holds the two together in both directions.

use crate::harness::E5;
use crate::workloads::WorkloadId;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// Bound on `tx_per_s.*` and `op_p50_us.*`: the widest the benchmark
/// contract allows. The sandbox hosts go through phases, minutes long and
/// invisible to the guest, that move a whole run by 10–20 % (README,
/// "Steadiness"); a tighter bound would reject changes for the host's
/// mood. Tighten it on a host that is quieter.
pub const RATE_BOUND: f64 = 0.25;
/// Bound on `setup_s`; no metric's is wider.
pub const SETUP_BOUND: f64 = 0.25;

/// The end-to-end metrics, reported by every workload with tracing off.
pub fn end_to_end() -> Vec<Def> {
    let mut v = Vec::new();
    for e in &E5 {
        v.push(Def {
            bound: Some(RATE_BOUND),
            ..def(format!("tx_per_s.{}", e.name()), "1/s", Better::Higher)
        });
    }
    for e in &E5 {
        v.push(Def {
            bound: Some(RATE_BOUND),
            ..def(format!("op_p50_us.{}", e.name()), "us", Better::Lower)
        });
    }
    v.push(Def {
        bound: Some(SETUP_BOUND),
        ..def("setup_s", "s", Better::Lower)
    });
    v
}

/// The remote engines `R`.
pub const R: [&str; 3] = ["rinval-v1", "rinval-v2", "rinval-mv"];
/// The engines `S` the service budget is taken on.
pub const S: [&str; 3] = ["norec", "rinval-v1", "rinval-v2"];
/// The engines whose commits scan live transactions.
pub const SCANNING: [&str; 3] = ["invalstm", "rinval-v1", "rinval-v2"];

/// The per-layer metrics, reported by the traced run.
pub fn per_layer() -> Vec<Def> {
    use Better::{Higher, Lower};
    let mut v = vec![
        def("bloom.insert_ns", "ns", Lower),
        def("bloom.intersect_dense_ns", "ns", Lower),
        def("bloom.intersect_sparse_ns", "ns", Lower),
        def("bloom.snapshot_intersect2_ns", "ns", Lower),
        def("bloom.false_conflict_share", "share", Lower),
    ];
    for part in ["empty_ns", "read_ns", "write_ns", "commit1_ns"] {
        for e in &E5 {
            v.push(def(format!("txn.{part}.{}", e.name()), "ns", Lower));
        }
    }
    for e in SCANNING {
        v.push(def(format!("inval.ns_per_live_tx.{e}"), "ns", Lower));
    }
    for r in R {
        v.push(def(format!("server.idle_cpu_share.{r}"), "cpu_s/s", Lower));
    }
    for r in R {
        v.push(def(format!("server.empty_pass_share.{r}"), "share", Lower));
    }
    for r in R {
        v.push(def(format!("server.commit_hist_p50_ns.{r}"), "ns", Lower));
    }
    for e in &E5 {
        v.push(def(
            format!("cpu_s_per_mtx.{}", e.name()),
            "cpu_s/Mtx",
            Lower,
        ));
    }
    v.push(def("mv.snapshot_read_ns", "ns", Lower));
    v.push(def("mv.ring_walk_read_ns", "ns", Lower));
    v.push(def("heap.alloc_free_ns", "ns", Lower));
    v.push(def("heap.recycled_share", "share", Higher));
    v.push(def("heap.peak_words", "words", Lower));
    v.push(def("txds.rbtree_lookup_ns", "ns", Lower));
    v.push(def("txds.rbtree_update_ns", "ns", Lower));
    v.push(def("txds.rbtree_reads_per_lookup", "count", Lower));
    for part in [
        "phase.validation_share",
        "phase.commit_share",
        "abort_share",
    ] {
        for e in &E5 {
            v.push(def(format!("{part}.{}", e.name()), "share", Lower));
        }
    }
    for s in S {
        v.push(def(format!("svc.tx_per_s.{s}"), "1/s", Higher));
    }
    for part in [
        "transfer_p50_us",
        "hop_in_us",
        "apply_us",
        "hop_out_us",
        "direct_transfer_us",
        "transfer_p99_us",
        "balance_p50_us",
    ] {
        for s in S {
            v.push(def(format!("svc.{part}.{s}"), "us", Lower));
        }
    }
    v.push(def("svc.dedup_surcharge_us", "us", Lower));
    v.push(def("svc.attempts_per_request", "count", Lower));
    v.push(def("svc.retry_after_share", "share", Lower));
    v.push(def("svc.timeout_share", "share", Lower));
    v.push(def("svc.budget_gap_share.rinval-v2", "share", Lower));
    v.push(def("simcore.mcycles_per_s", "Mcycle/s", Higher));
    for w in WorkloadId::ALL {
        v.push(def(
            format!("trace.overhead_share.{}", w.name()),
            "share",
            Lower,
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<Def> = end_to_end().into_iter().chain(per_layer()).collect();
        assert_eq!(end_to_end().len(), 11);
        assert_eq!(per_layer().len(), 99);
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for d in &all {
            assert!(d.unit.len() <= 16, "{}", d.unit);
        }
    }
}
