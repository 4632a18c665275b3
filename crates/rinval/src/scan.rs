//! The shared scan kernel: one summary-map walk for every server- and
//! committer-side registry scan.
//!
//! Before this layer, the `iter_set_bits → load slot → is_live →
//! read_bf.intersects_plain(wbf)` loop was hand-rolled at each call site —
//! the commit-server's admission pass, the V2/MV invalidation scans and
//! the InvalSTM committer's doom pass — each with its own slot accounting
//! (and each accounting slightly differently). [`scan`] is the one walk
//! they all call now (the InvalSTM committer through the commit-server's
//! own invalidation helper):
//!
//! * **Word cursor with lookahead prefetch.** The kernel walks the map's
//!   words via [`AtomicBitmap::load_word`] and, while processing word
//!   `w`, loads word `w + 1` and issues [`Registry::prefetch_slot`] hints
//!   for its set bits — so by the time the cursor reaches those slots
//!   their first cache-line pair (`tx_status`) is already in flight.
//!   The signature test each visit performs loads only the reader's
//!   words the writer's summary names (`bloom.rs`) — a handful
//!   of scattered lines no hint could name in advance — so the prefetch
//!   distance is covered by the previous word's visits, not by one long
//!   sweep.
//! * **Caller-supplied predicate split.** `filter` handles *uncounted*
//!   index-level skips (a skip mask, a server partition, the scanner's
//!   own slot); everything it admits is delivered to `visit` and counted
//!   as an examined slot. This pins down exactly which skips are visible
//!   in the counters — previously each site made that call on its own.
//! * **Uniform counter recording.** [`ScanKind`] names the accounting
//!   contract; the kernel records the scan and its visited slots into
//!   [`ServerCounters`] on exit (early [`ControlFlow::Break`] included).
//!   Every scan walks the whole map, so word traffic is derivable
//!   (`scans × words_len`) and not counted.
//!
//! The walk has the same per-word snapshot semantics as
//! [`AtomicBitmap::iter_set_bits`]: each word is loaded exactly once
//! (one word ahead of the cursor), so bits set after that load are picked
//! up by the caller's next pass and bits cleared after it may still be
//! delivered — visitors re-check slot state (`is_live`, status CASes), as
//! they always have.

use crate::registry::{Registry, TxSlot};
use crate::stats::ServerCounters;
use crate::sync::AtomicBitmap;
use std::ops::ControlFlow;

/// The counter contract of a kernel walk — which [`ServerCounters`] the
/// scan records itself and its visited slots into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanKind {
    /// A commit-server pass over the `pending` map: delivered slots count
    /// as `slots_visited`. Passes themselves (`scan_passes`) are counted
    /// by the server loop, which may make several kernel calls per pass.
    Admission,
    /// An invalidation scan over the `live` map: one `inval_scans`,
    /// delivered slots into `inval_slots_visited`.
    Inval,
    /// A bookkeeping walk (token-request discovery, request drains) that
    /// records nothing.
    Quiet,
}

/// Walks the set bits of `map`, delivering each admitted slot to `visit`
/// and recording scan counters per `kind`.
///
/// For every set bit `i` (ascending): if `filter(i)` is false the slot is
/// skipped without being counted; otherwise it counts as examined and
/// `visit(i, slot)` runs. A [`ControlFlow::Break`] from `visit` stops the
/// walk immediately — counters for the work done so far are still
/// recorded — and is returned to the caller (the slot that broke *was*
/// delivered and is included in the visit count).
///
/// `map` must be a summary map of `registry` (its capacity must not
/// exceed [`Registry::len`], which holds for [`Registry::pending`] /
/// [`Registry::live`]).
pub fn scan<F, V>(
    registry: &Registry,
    counters: &ServerCounters,
    map: &AtomicBitmap,
    kind: ScanKind,
    mut filter: F,
    mut visit: V,
) -> ControlFlow<()>
where
    F: FnMut(usize) -> bool,
    V: FnMut(usize, &TxSlot) -> ControlFlow<()>,
{
    let end = map.words_len();
    let mut delivered = 0u64;
    let mut flow = ControlFlow::Continue(());
    // One word of lookahead: word `w + 1`'s snapshot is loaded, and its set
    // bits' slots prefetched, before word `w`'s slots are visited.
    let mut cur = map.load_word(0);
    'words: for w in 0..end {
        let ahead = if w + 1 < end { map.load_word(w + 1) } else { 0 };
        let mut pf = ahead;
        while pf != 0 {
            let b = pf.trailing_zeros() as usize;
            pf &= pf - 1;
            registry.prefetch_slot((w + 1) * 64 + b);
        }
        while cur != 0 {
            let b = cur.trailing_zeros() as usize;
            cur &= cur - 1;
            let i = w * 64 + b;
            if !filter(i) {
                continue;
            }
            delivered += 1;
            if visit(i, registry.slot(i)).is_break() {
                flow = ControlFlow::Break(());
                break 'words;
            }
        }
        cur = ahead;
    }
    match kind {
        ScanKind::Admission => {
            ServerCounters::add(&counters.slots_visited, delivered);
        }
        ScanKind::Inval => {
            ServerCounters::add(&counters.inval_scans, 1);
            ServerCounters::add(&counters.inval_slots_visited, delivered);
        }
        ScanKind::Quiet => {}
    }
    flow
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_set_bits_ascending_and_counts_them() {
        let reg = Registry::new(200);
        let c = ServerCounters::default();
        for i in [0usize, 5, 63, 64, 130, 199] {
            reg.live().set(i);
        }
        let mut seen = Vec::new();
        let flow = scan(
            &reg,
            &c,
            reg.live(),
            ScanKind::Inval,
            |_| true,
            |i, slot| {
                assert!(!slot.is_live(), "no transaction was begun");
                seen.push(i);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(flow, ControlFlow::Continue(()));
        assert_eq!(seen, vec![0, 5, 63, 64, 130, 199]);
        let s = c.snapshot();
        assert_eq!(s.inval_scans, 1);
        assert_eq!(s.inval_slots_visited, 6);
    }

    #[test]
    fn filtered_slots_are_not_counted() {
        let reg = Registry::new(64);
        let c = ServerCounters::default();
        for i in 0..10 {
            reg.pending().set(i);
        }
        let mut seen = 0u64;
        let _ = scan(
            &reg,
            &c,
            reg.pending(),
            ScanKind::Admission,
            |i| i % 2 == 0,
            |_, _| {
                seen += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(seen, 5);
        let s = c.snapshot();
        assert_eq!(s.slots_visited, 5, "filtered skips must stay uncounted");
        assert_eq!(s.inval_scans, 0);
    }

    #[test]
    fn break_stops_early_but_still_records() {
        let reg = Registry::new(128);
        let c = ServerCounters::default();
        for i in [1usize, 2, 3, 100] {
            reg.live().set(i);
        }
        let mut seen = Vec::new();
        let flow = scan(
            &reg,
            &c,
            reg.live(),
            ScanKind::Inval,
            |_| true,
            |i, _| {
                seen.push(i);
                if i >= 2 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(seen, vec![1, 2], "walk must stop at the break");
        let s = c.snapshot();
        assert_eq!(s.inval_scans, 1);
        assert_eq!(s.inval_slots_visited, 2, "the breaking slot counts");
    }

    #[test]
    fn quiet_kind_records_nothing() {
        let reg = Registry::new(64);
        let c = ServerCounters::default();
        reg.pending().set(9);
        let mut seen = 0;
        let _ = scan(
            &reg,
            &c,
            reg.pending(),
            ScanKind::Quiet,
            |_| true,
            |_, _| {
                seen += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(seen, 1);
        assert_eq!(c.snapshot(), Default::default());
    }

    #[test]
    fn matches_iter_set_bits_at_every_size() {
        // The kernel's word walk must deliver exactly what the reference
        // iterator yields, including across word boundaries.
        for threads in [1, 5, 64, 65, 128, 300] {
            let reg = Registry::new(threads);
            for i in (0..reg.len()).step_by(7) {
                reg.live().set(i);
            }
            let c = ServerCounters::default();
            let expect: Vec<usize> = reg.live().iter_set_bits().collect();
            let mut got = Vec::new();
            let _ = scan(
                &reg,
                &c,
                reg.live(),
                ScanKind::Quiet,
                |_| true,
                |i, _| {
                    got.push(i);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(got, expect, "{threads} slots");
        }
    }
}
