//! The two kinds of run: end to end (tracing off, one workload, the five
//! engines in turn) and traced (the layer probes, then short traced passes
//! over all four workloads).

use crate::harness::{entry, Entry, Plan, Windows, E5};
use crate::metrics::{self, Better, R, S, SCANNING};
use crate::probes;
use crate::report::Report;
use crate::span::{self_times, Name, Recorder, Span};
use crate::stats::{highest_supported_percentile, median, quantile_sorted};
use crate::workloads::{run_engine, Mode, Outcome, WorkloadId};
use std::cell::Cell;
use std::collections::HashMap;
use std::time::Duration;

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// One workload, tracing off: the numbers a user of the system would see.
pub fn end_to_end(workload: WorkloadId, seed: u64, plan: &Plan) -> Result<Report, String> {
    let mut report = Report::new(workload.name(), false);
    // Round-robin over the lineup: round r of every engine runs before
    // round r+1 of any, so each engine is sampled across the whole run.
    let mut per_engine: Vec<Option<(Windows, Vec<f64>)>> = E5.iter().map(|_| None).collect();
    for _ in 0..plan.rounds {
        for (e, slot) in E5.iter().zip(&mut per_engine) {
            let out = run_engine(workload, e, plan, seed, Mode::PLAIN)?;
            report.attempted += out.attempted;
            report.failed += out.failed;
            match slot {
                None => *slot = Some((out.win, vec![out.setup_s])),
                Some((win, setups)) => {
                    win.absorb(out.win);
                    setups.push(out.setup_s);
                }
            }
        }
    }
    let mut setup_s = 0.0;
    for (e, slot) in E5.iter().zip(per_engine) {
        let (win, setups) = slot.expect("every engine ran at least one round");
        let all = sorted(win.op_ns.concat());
        if all.is_empty() {
            return Err(format!(
                "{}: no latency sample of the headline operation was taken",
                e.name()
            ));
        }
        let (tx, p50) = (win.tx_summary(), win.op_p50_us());
        let tail = highest_supported_percentile(&all).map_or(String::new(), |(p, v)| {
            format!(", p{} {:.3} us", p * 100.0, v / 1e3)
        });
        println!(
            "{:<10} {} client(s): {:.0} tx/s (windows {:?}); headline op p50 {:.3} us{tail} over {} samples; set-up {:.4} s",
            e.name(),
            e.clients,
            tx.median,
            win.tx_per_s.iter().map(|t| t.round() as u64).collect::<Vec<_>>(),
            p50.median,
            all.len(),
            median(&setups),
        );
        report.set_best_window(
            format!("tx_per_s.{}", e.name()),
            &win.tx_per_s,
            Better::Higher,
        );
        report.set_best_window(
            format!("op_p50_us.{}", e.name()),
            &win.op_p50_us_per_window(),
            Better::Lower,
        );
        setup_s += median(&setups);
    }
    report.set("setup_s", setup_s);
    report.finish(metrics::end_to_end())?;
    Ok(report)
}

fn spans_named(recs: &[(String, Recorder)], name: Name) -> impl Iterator<Item = &Span> {
    recs.iter()
        .flat_map(|(_, r)| r.spans.iter())
        .filter(move |s| s.name == name)
}

fn median_dur_ns(recs: &[(String, Recorder)], name: Name) -> f64 {
    let d: Vec<f64> = spans_named(recs, name).map(|s| s.dur() as f64).collect();
    if d.is_empty() {
        f64::NAN
    } else {
        median(&d)
    }
}

/// `1 − traced ÷ untraced` throughput of `rinval-v1`: what tracing costs.
fn overhead_share(traced: &Outcome, untraced: &Outcome) -> f64 {
    1.0 - traced.win.tx_summary().median / untraced.win.tx_summary().median
}

/// Prints attempts per commit and the `txn.run` self time from span counts.
fn print_span_shape(engine: &str, out: &Outcome) {
    let runs = spans_named(&out.recorders, Name::TxnRun).count();
    if runs == 0 {
        return;
    }
    let bodies: usize = out
        .recorders
        .iter()
        .map(|(_, r)| {
            r.spans
                .iter()
                .filter(|s| s.parent != crate::span::NO_PARENT)
                .count()
        })
        .sum();
    let own: Vec<f64> = out
        .recorders
        .iter()
        .flat_map(|(_, r)| {
            let own = self_times(&r.spans);
            r.spans
                .iter()
                .zip(own)
                .filter(|(s, _)| s.name == Name::TxnRun)
                .map(|(_, o)| o as f64)
                .collect::<Vec<_>>()
        })
        .collect();
    let dropped: u64 = out.recorders.iter().map(|(_, r)| r.dropped).sum();
    println!(
        "  {engine:<10} spans: {runs} txn.run, {:.4} attempts per commit, txn.run self time p50 {:.0} ns ({dropped} spans not kept)",
        bodies as f64 / runs as f64,
        median(&own),
    );
}

/// The hops of one `transfer`, from the caller's `svc.call.transfer` span
/// and the worker's `svc.apply` spans that share its request id.
struct Hops {
    hop_in: Vec<f64>,
    apply: Vec<f64>,
    hop_out: Vec<f64>,
    total: Vec<f64>,
    applies: usize,
}

fn transfer_hops(out: &Outcome) -> Hops {
    // request id → (first apply start, last apply end, executions)
    let mut worker: HashMap<u64, (u64, u64, usize)> = HashMap::new();
    for s in spans_named(&out.recorders, Name::SvcApply) {
        let e = worker.entry(s.req).or_insert((s.start, s.end, 0));
        *e = (e.0.min(s.start), e.1.max(s.end), e.2 + 1);
    }
    let mut h = Hops {
        hop_in: Vec::new(),
        apply: Vec::new(),
        hop_out: Vec::new(),
        total: Vec::new(),
        applies: 0,
    };
    for call in spans_named(&out.recorders, Name::SvcCallTransfer) {
        // A call whose worker span fell outside the recording window (the
        // window opened mid-request) has no split.
        let Some(&(first, last, n)) = worker.get(&call.req) else {
            continue;
        };
        if first < call.start || last > call.end {
            continue;
        }
        h.hop_in.push((first - call.start) as f64 / 1e3);
        h.apply.push((last - first) as f64 / 1e3);
        h.hop_out.push((call.end - last) as f64 / 1e3);
        h.total.push(call.dur() as f64 / 1e3);
        h.applies += n;
    }
    h
}

/// The traced run: every per-layer metric, the `transfer` latency budget
/// and a Perfetto file of `focus`'s spans. `seconds` is cut into 96 units:
/// a window is one unit, a probe batch a fifth of one.
pub fn traced(focus: WorkloadId, seed: u64, seconds: f64) -> Result<Report, String> {
    let unit = Duration::from_secs_f64(seconds / 96.0);
    let budget = unit / 5;
    let plan = Plan {
        window: unit,
        measured: 2,
        rounds: 1,
    };
    let mut report = Report::new(focus.name(), true);
    let (attempted, failed) = (Cell::new(0u64), Cell::new(0u64));
    let count = |out: Result<Outcome, String>| {
        let out = out?;
        attempted.set(attempted.get() + out.attempted);
        failed.set(failed.get() + out.failed);
        Ok::<Outcome, String>(out)
    };
    let engine = |w: WorkloadId, e: &Entry, mode: Mode| count(run_engine(w, e, &plan, seed, mode));
    let mut set = |name: &str, v: f64| report.set(name, v);
    let mut focus_spans: Vec<(String, Recorder)> = Vec::new();
    let mut keep_spans = |w: WorkloadId, out: Outcome| {
        if w == focus {
            focus_spans.extend(out.recorders);
        }
    };

    println!("-- layer probes");
    let b = probes::bloom(seed, budget);
    set("bloom.insert_ns", b.insert_ns);
    set("bloom.intersect_dense_ns", b.intersect_dense_ns);
    set("bloom.intersect_sparse_ns", b.intersect_sparse_ns);
    set("bloom.snapshot_intersect2_ns", b.snapshot_intersect2_ns);
    set("bloom.false_conflict_share", b.false_conflict_share);
    let mut commit1_ns = HashMap::new();
    for e in &E5 {
        let t = probes::txn(e.kind, budget);
        set(&format!("txn.empty_ns.{}", e.name()), t.empty_ns);
        set(&format!("txn.read_ns.{}", e.name()), t.read_ns);
        set(&format!("txn.write_ns.{}", e.name()), t.write_ns);
        set(&format!("txn.commit1_ns.{}", e.name()), t.commit1_ns);
        commit1_ns.insert(e.name(), t.commit1_ns);
    }
    for name in SCANNING {
        let ns = probes::inval_ns_per_live_tx(entry(name).kind, budget);
        set(&format!("inval.ns_per_live_tx.{name}"), ns);
    }
    for name in R {
        let share = probes::idle_cpu_share(entry(name).kind, unit)
            .ok_or("per-thread CPU time (/proc/self/task/*/schedstat) is unavailable")?;
        set(&format!("server.idle_cpu_share.{name}"), share);
        let p50 = probes::commit_hist_p50_ns(entry(name).kind, budget)
            .ok_or("the commit-latency histogram stayed empty")?;
        set(&format!("server.commit_hist_p50_ns.{name}"), p50);
    }
    let mv = entry("rinval-mv").kind;
    set("mv.snapshot_read_ns", probes::mv_read_ns(mv, 0, budget));
    set("mv.ring_walk_read_ns", probes::mv_read_ns(mv, 4, budget));
    set("heap.alloc_free_ns", probes::heap_alloc_free_ns(budget));
    let sim_cycles = (seconds * 250_000.0) as u64;
    set(
        "simcore.mcycles_per_s",
        probes::simcore_mcycles_per_s(seed, sim_cycles.max(100_000)),
    );

    println!("-- rbtree_w50, traced");
    let v1 = entry("rinval-v1");
    for e in &E5 {
        let out = engine(WorkloadId::RbtreeW50, e, Mode::SPANS)?;
        print_span_shape(e.name(), &out);
        let cpu = out.win.cpu_s.ok_or("per-thread CPU time is unavailable")?;
        set(
            &format!("cpu_s_per_mtx.{}", e.name()),
            cpu / (out.win.measured_ops as f64 / 1e6),
        );
        if R.contains(&e.name()) {
            set(
                &format!("server.empty_pass_share.{}", e.name()),
                out.server.empty_passes as f64 / out.server.scan_passes.max(1) as f64,
            );
        }
        if e.name() == "norec" {
            set(
                "txds.rbtree_lookup_ns",
                median_dur_ns(&out.recorders, Name::TxdsLookup),
            );
            set(
                "txds.rbtree_update_ns",
                median_dur_ns(&out.recorders, Name::TxdsUpdate),
            );
            let recycled = (out.heap.1.recycled_words - out.heap.0.recycled_words) as f64;
            let fresh = (out.heap.1.allocated_words - out.heap.0.allocated_words) as f64;
            set(
                "heap.recycled_share",
                recycled / (recycled + fresh).max(1.0),
            );
            set("heap.peak_words", out.heap.1.allocated_words as f64);
        }
        if e.name() == "rinval-v1" {
            let plain = engine(WorkloadId::RbtreeW50, e, Mode::PLAIN)?;
            set(
                "trace.overhead_share.rbtree_w50",
                overhead_share(&out, &plain),
            );
        }
        keep_spans(WorkloadId::RbtreeW50, out);
    }

    println!("-- rbtree_ro, traced");
    {
        let out = engine(WorkloadId::RbtreeRo, &v1, Mode::SPANS)?;
        print_span_shape(v1.name(), &out);
        let plain = engine(WorkloadId::RbtreeRo, &v1, Mode::PLAIN)?;
        set(
            "trace.overhead_share.rbtree_ro",
            overhead_share(&out, &plain),
        );
        keep_spans(WorkloadId::RbtreeRo, out);
        set(
            "txds.rbtree_reads_per_lookup",
            crate::workloads::rbtree_reads_per_lookup(seed),
        );
    }

    println!("-- stamp_vacation, traced with the engine's phase timers on");
    for e in &E5 {
        let out = engine(WorkloadId::StampVacation, e, Mode::PROFILED)?;
        print_span_shape(e.name(), &out);
        let in_tx = out.stats.total_tx.as_secs_f64();
        set(
            &format!("phase.validation_share.{}", e.name()),
            out.stats.validation.as_secs_f64() / in_tx,
        );
        set(
            &format!("phase.commit_share.{}", e.name()),
            out.stats.commit.as_secs_f64() / in_tx,
        );
        set(&format!("abort_share.{}", e.name()), out.stats.abort_rate());
        if e.name() == "rinval-v1" {
            // Spans on, phase timers off: the same instrumentation whose
            // cost the other three overhead rows state.
            let spans = engine(WorkloadId::StampVacation, e, Mode::SPANS)?;
            let plain = engine(WorkloadId::StampVacation, e, Mode::PLAIN)?;
            set(
                "trace.overhead_share.stamp_vacation",
                overhead_share(&spans, &plain),
            );
        }
        keep_spans(WorkloadId::StampVacation, out);
    }

    println!("-- svc_bank, traced");
    let (mut calls, mut retry_after, mut timeouts, mut applies, mut transfers) = (0, 0, 0, 0, 0);
    for name in S {
        let e = entry(name);
        let out = engine(WorkloadId::SvcBank, &e, Mode::SPANS)?;
        let tally = out.svc.as_ref().expect("svc_bank leaves a client tally");
        let hops = transfer_hops(&out);
        if hops.total.is_empty() {
            return Err(format!("{name}: no transfer was traced end to end"));
        }
        let (hop_in, apply, hop_out) = (
            median(&hops.hop_in),
            median(&hops.apply),
            median(&hops.hop_out),
        );
        let direct = median(&tally.direct_transfer_ns) / 1e3;
        let all = sorted(out.win.op_ns.concat());
        set(&format!("svc.hop_in_us.{name}"), hop_in);
        set(&format!("svc.apply_us.{name}"), apply);
        set(&format!("svc.hop_out_us.{name}"), hop_out);
        set(&format!("svc.direct_transfer_us.{name}"), direct);
        set(
            &format!("svc.transfer_p99_us.{name}"),
            quantile_sorted(&all, 0.99) / 1e3,
        );
        set(
            &format!("svc.balance_p50_us.{name}"),
            median(&tally.balance_ns) / 1e3,
        );
        calls += tally.calls;
        retry_after += tally.retry_after;
        timeouts += tally.timeouts;
        applies += hops.applies;
        transfers += hops.total.len();

        // The outside-in budget: do the layer numbers add up to what the
        // caller waited? Once from this run's own spans, once with the
        // transaction replaced by its direct-call cost from the probes.
        let p50 = median(&hops.total);
        let from_spans = hop_in + apply + hop_out;
        let from_layers = direct + hop_in + hop_out - commit1_ns[name] / 1e3;
        println!(
            "  {name:<10} transfer p50 {p50:.2} us = hop_in {hop_in:.2} + apply {apply:.2} + hop_out {hop_out:.2} = {from_spans:.2} us \
             ({:+.1}%); direct_transfer {direct:.2} + hop_in + hop_out - commit1 {:.2} = {from_layers:.2} us ({:+.1}%), {} transfers",
            (from_spans / p50 - 1.0) * 100.0,
            commit1_ns[name] / 1e3,
            (from_layers / p50 - 1.0) * 100.0,
            hops.total.len(),
        );
        if name == "rinval-v2" {
            set(
                "svc.budget_gap_share.rinval-v2",
                (1.0 - from_layers / p50).abs(),
            );
        }
        // What the caller sees with tracing off. These are per-layer, not
        // end-to-end, because on a 2-core host the service flips between a
        // mode where its worker never sleeps and one where every request
        // pays a Condvar wake, and no estimator steadied them (README).
        let plain = engine(WorkloadId::SvcBank, &e, Mode::PLAIN)?;
        set(
            &format!("svc.tx_per_s.{name}"),
            plain.win.tx_summary().median,
        );
        set(
            &format!("svc.transfer_p50_us.{name}"),
            plain.win.op_p50_us().median,
        );
        if name == "rinval-v1" {
            set(
                "trace.overhead_share.svc_bank",
                overhead_share(&out, &plain),
            );
            let bare = count(crate::svc_bank::run_engine(
                &e,
                &plan,
                seed,
                Mode::PLAIN,
                true,
            ))?;
            set(
                "svc.dedup_surcharge_us",
                plain.win.op_p50_us().median - bare.win.op_p50_us().median,
            );
        }
        keep_spans(WorkloadId::SvcBank, out);
    }
    set(
        "svc.attempts_per_request",
        applies as f64 / transfers as f64,
    );
    set("svc.retry_after_share", retry_after as f64 / calls as f64);
    set("svc.timeout_share", timeouts as f64 / calls as f64);

    let path = crate::out_dir().join(format!("trace-{}.json", focus.name()));
    let threads: Vec<(String, &Recorder)> =
        focus_spans.iter().map(|(l, r)| (l.clone(), r)).collect();
    crate::span::write_perfetto(&path, &threads).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "-- spans of {} written to {} (open in ui.perfetto.dev)",
        focus.name(),
        path.display()
    );

    report.attempted = attempted.get();
    report.failed = failed.get();
    report.finish(metrics::per_layer())?;
    Ok(report)
}
