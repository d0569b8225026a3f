//! Driver-side tracing: spans the benchmark records around each call it
//! makes into a layer's public API. The program's own journal
//! (`EngineConfig::trace`) stays off in every pass.
//!
//! Spans are appended to a preallocated per-client list during the traced
//! window and written to `trace-<workload>.jsonl` when the run ends.

use crate::stats::{self_times, Recorder, Span};
use std::io::Write;
use std::time::Instant;

/// What a span is a call of. `Txn` is the parent of the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Call {
    Txn,
    Begin,
    Read,
    ReadForUpdate,
    Update,
    Scan,
    Commit,
    Abort,
}

impl Call {
    pub const ALL: [Call; 8] = [
        Call::Txn,
        Call::Begin,
        Call::Read,
        Call::ReadForUpdate,
        Call::Update,
        Call::Scan,
        Call::Commit,
        Call::Abort,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Txn => "txn",
            Call::Begin => "begin",
            Call::Read => "read",
            Call::ReadForUpdate => "read_for_update",
            Call::Update => "update",
            Call::Scan => "scan",
            Call::Commit => "commit",
            Call::Abort => "abort",
        }
    }
}

/// Spans one client may hold. The fastest traced window (`read-hot`: 13
/// spans per transaction, ~85k txn/s, 4.5 s) fills about 60% of it;
/// anything beyond is counted, not recorded.
const SPANS_PER_CLIENT: usize = 8 << 20;
/// Spans per client written to the trace file (the statistics use all).
const SPANS_WRITTEN_PER_CLIENT: usize = 100_000;

/// The span list of one client.
pub struct ClientSpans {
    origin: Instant,
    spans: Vec<Span>,
    open_txn: Option<u32>,
    txns: u32,
    pub dropped: u64,
}

impl ClientSpans {
    /// `origin` is shared by all clients so their timestamps line up.
    pub fn new(origin: Instant) -> ClientSpans {
        ClientSpans {
            origin,
            spans: Vec::with_capacity(SPANS_PER_CLIENT),
            open_txn: None,
            txns: 0,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() == SPANS_PER_CLIENT {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    pub fn open_txn(&mut self) {
        self.txns += 1;
        let now = self.now_ns();
        self.open_txn = self.push(Span {
            name: Call::Txn as u8,
            parent: None,
            txn: self.txns,
            start_ns: now,
            end_ns: now,
        });
    }

    pub fn close_txn(&mut self) {
        let now = self.now_ns();
        if let Some(i) = self.open_txn.take() {
            self.spans[i as usize].end_ns = now;
        }
    }

    /// Run `f` as a child span of the open transaction.
    pub fn call<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name: call as u8,
            parent: self.open_txn,
            txn: self.txns,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Run `f`, as a span when tracing.
pub fn traced<T>(spans: &mut Option<ClientSpans>, call: Call, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.call(call, f),
        None => f(),
    }
}

/// The spans of all clients of one traced window.
pub struct Trace {
    /// The layer the clients' calls went into: `core` or `server`.
    pub layer: &'static str,
    pub clients: Vec<ClientSpans>,
}

impl Trace {
    pub fn dropped(&self) -> u64 {
        self.clients.iter().map(|c| c.dropped).sum()
    }

    /// Durations of every span of `call`, over all clients.
    pub fn durations(&self, call: Call) -> Recorder {
        let mut r = Recorder::default();
        for c in &self.clients {
            for s in c.spans.iter().filter(|s| s.name == call as u8) {
                r.record_ns(s.duration_ns());
            }
        }
        r
    }

    /// Self time of the transaction spans: what a transaction spends in
    /// the driver between its calls (generation of values, the retry loop).
    pub fn txn_self_times(&self) -> Recorder {
        let mut r = Recorder::default();
        for c in &self.clients {
            let selfs = self_times(&c.spans);
            for (s, own) in c.spans.iter().zip(selfs) {
                if s.name == Call::Txn as u8 {
                    r.record_ns(own);
                }
            }
        }
        r
    }

    /// One JSON object per line: a header, then the first spans of each
    /// client with their self time.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let total: usize = self.clients.iter().map(|c| c.spans.len()).sum();
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"layer\":\"{}\",\"clients\":{},\"spans_recorded\":{total},\
             \"spans_dropped\":{},\"spans_written_per_client\":{SPANS_WRITTEN_PER_CLIENT},\"clock\":\"ns since the traced window's origin\"}}",
            self.layer,
            self.clients.len(),
            self.dropped(),
        )?;
        for (client, c) in self.clients.iter().enumerate() {
            let written = &c.spans[..c.spans.len().min(SPANS_WRITTEN_PER_CLIENT)];
            let selfs = self_times(written);
            for (id, (s, own)) in written.iter().zip(selfs).enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    w,
                    "{{\"client\":{client},\"id\":{id},\"parent\":{parent},\"txn\":{},\"span\":\"{}.{}\",\
                     \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                    s.txn,
                    if s.name == Call::Txn as u8 { "driver" } else { self.layer },
                    Call::ALL[s.name as usize].name(),
                    s.start_ns,
                    s.end_ns,
                )?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_nest_under_the_open_transaction() {
        let mut c = ClientSpans::new(Instant::now());
        c.open_txn();
        let seven = c.call(Call::Update, || 7);
        c.call(Call::Commit, || ());
        c.close_txn();
        c.open_txn();
        c.close_txn();
        assert_eq!(seven, 7);
        assert_eq!(c.spans.len(), 4);
        assert_eq!(c.spans[1].parent, Some(0));
        assert_eq!(c.spans[2].parent, Some(0));
        assert_eq!((c.spans[0].txn, c.spans[1].txn, c.spans[3].txn), (1, 1, 2));
        assert!(c.spans[0].end_ns >= c.spans[2].end_ns);
        let trace = Trace { layer: "core", clients: vec![c] };
        assert_eq!(trace.durations(Call::Update).sorted().len(), 1);
        assert_eq!(trace.durations(Call::Txn).sorted().len(), 2);
        assert_eq!(trace.txn_self_times().sorted().len(), 2);
    }

    #[test]
    fn untraced_calls_just_run() {
        assert_eq!(traced(&mut None, Call::Read, || 3), 3);
    }
}
