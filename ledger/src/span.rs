//! Spans recorded *around* calls into each layer's public functions.
//!
//! A span is `{name, start, end, parent, request}`. Each thread appends to
//! its own pre-allocated [`Recorder`]; nothing is written until the run
//! ends, when the kept spans go out as Chrome/Perfetto trace JSON.
//! Timestamps are nanoseconds since a process-wide epoch, so spans of one
//! request recorded on different threads line up.

use std::io::{self, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Span names, fixed so a span is 32 bytes and naming costs nothing on the
/// recording path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One `ThreadHandle::run`/`run_ro` call: begin + body + commit +
    /// every retry.
    TxnRun,
    /// One execution of a lookup closure body inside a `TxnRun`.
    TxdsLookup,
    /// One execution of an update closure body inside a `TxnRun`.
    TxdsUpdate,
    /// One execution of a STAMP application body inside a `TxnRun`.
    StampOp,
    /// One request as its caller waits for it — `Frontend::call`, retried
    /// on failure — on the caller's thread, by endpoint.
    SvcCallTransfer,
    SvcCallBalance,
    SvcCallAudit,
    /// One `Workload::apply`, on the worker's thread.
    SvcApply,
    /// One `Workload::query`, on the worker's thread.
    SvcQuery,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::TxnRun => "txn.run",
            Name::TxdsLookup => "txds.lookup",
            Name::TxdsUpdate => "txds.update",
            Name::StampOp => "stamp.op",
            Name::SvcCallTransfer => "svc.call.transfer",
            Name::SvcCallBalance => "svc.call.balance",
            Name::SvcCallAudit => "svc.call.audit",
            Name::SvcApply => "svc.apply",
            Name::SvcQuery => "svc.query",
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start: u64,
    pub end: u64,
    /// Request identifier shared by every span one request causes.
    pub req: u64,
    /// Index of the causing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    pub name: Name,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// One thread's span buffer. It never reallocates: once `cap` spans are
/// held, further spans are counted in `dropped` and not stored, so a long
/// window costs bounded memory and the recording path never calls the
/// allocator.
pub struct Recorder {
    pub spans: Vec<Span>,
    pub dropped: u64,
    cap: usize,
}

/// Handle to a span that has begun; `None` once the buffer is full.
pub type Open = Option<u32>;

impl Recorder {
    pub fn with_capacity(cap: usize) -> Recorder {
        Recorder {
            spans: Vec::with_capacity(cap),
            dropped: 0,
            cap,
        }
    }

    #[inline]
    pub fn begin(&mut self, name: Name, req: u64, parent: Open) -> Open {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let start = now_ns();
        self.spans.push(Span {
            start,
            end: start,
            req,
            parent: parent.unwrap_or(NO_PARENT),
            name,
        });
        Some((self.spans.len() - 1) as u32)
    }

    #[inline]
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open {
            self.spans[i as usize].end = now_ns();
        }
    }
}

/// Self time of every span of one recorder: its duration minus the part of
/// that interval its direct children cover. Children of one parent never
/// overlap here (they are sequential retries or sequential calls), so
/// subtraction is exact.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let covered = s.end.min(p.end).saturating_sub(s.start.max(p.start));
            own[s.parent as usize] = own[s.parent as usize].saturating_sub(covered);
        }
    }
    own
}

/// How many spans per thread go into the trace file; the metrics use every
/// recorded span, the file is for looking at.
const EXPORT_PER_THREAD: usize = 20_000;

/// Writes the recorders as Chrome trace-event JSON (`ph: "X"` complete
/// events, microsecond timestamps), loadable in Perfetto or
/// `chrome://tracing`. One `tid` per recorder, named by its label.
pub fn write_perfetto(path: &Path, threads: &[(String, &Recorder)]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n")?;
    let mut first = true;
    for (tid, (label, rec)) in threads.iter().enumerate() {
        let mut sep = |w: &mut io::BufWriter<std::fs::File>| -> io::Result<()> {
            if !std::mem::take(&mut first) {
                w.write_all(b",\n")?;
            }
            Ok(())
        };
        sep(&mut w)?;
        write!(
            w,
            "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"{label}\"}}}}"
        )?;
        for (i, s) in rec.spans.iter().take(EXPORT_PER_THREAD).enumerate() {
            sep(&mut w)?;
            write!(
                w,
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"name\": \"{}\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {}, \"request\": {}}}}}",
                s.name.as_str(),
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                if s.parent == NO_PARENT { -1 } else { s.parent as i64 },
                s.req,
            )?;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start: u64, end: u64, parent: u32) -> Span {
        Span {
            start,
            end,
            req: 0,
            parent,
            name,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) ⊃ body [10,30) and a retried body [40,90).
        let spans = [
            span(Name::TxnRun, 0, 100, NO_PARENT),
            span(Name::TxdsUpdate, 10, 30, 0),
            span(Name::TxdsUpdate, 40, 90, 0),
            span(Name::TxnRun, 200, 250, NO_PARENT),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50, 50]);
    }

    #[test]
    fn self_time_clips_a_child_that_overruns_its_parent() {
        let spans = [
            span(Name::SvcCallTransfer, 10, 50, NO_PARENT),
            span(Name::SvcApply, 40, 70, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 30]);
    }

    #[test]
    fn recorder_stops_at_capacity_without_reallocating() {
        let mut r = Recorder::with_capacity(2);
        let p = r.begin(Name::TxnRun, 7, None);
        let c = r.begin(Name::StampOp, 7, p);
        r.end(c);
        r.end(p);
        let full = r.begin(Name::TxnRun, 8, None);
        assert!(full.is_none());
        r.end(full);
        assert_eq!((r.spans.len(), r.dropped, r.spans.capacity()), (2, 1, 2));
        assert_eq!(r.spans[1].parent, 0);
        assert!(r.spans[0].end >= r.spans[1].end);
    }

    #[test]
    fn perfetto_file_is_valid_json() {
        let mut r = Recorder::with_capacity(4);
        let p = r.begin(Name::SvcCallAudit, 3, None);
        r.end(p);
        let path = crate::out_dir().join("span-selftest.json");
        write_perfetto(&path, &[("client".into(), &r)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v = crate::json::parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("svc.call.audit")
        );
    }
}
