//! Structured trace journal: lock-free rings of fixed-size typed events.
//!
//! Emission is wait-free for the producer: an event is stamped with a
//! globally monotonic sequence number, a small per-thread id and a
//! microsecond timestamp, then pushed into one of a fixed set of bounded
//! lock-free rings (threads hash to a ring, so one thread's events stay
//! FIFO within its ring). A full ring **drops** the event and counts it
//! in [`TraceSink::dropped_events`] — tracing never blocks the engine.
//!
//! [`TraceSink::drain`] merges all rings into one globally ordered
//! timeline (sorted by sequence number); [`TraceSink::drain_json`]
//! renders it as JSON lines for offline analysis.

use crate::json::{self, Json};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Recovery phases that appear in [`EventKind::RecoveryPhaseStart`] /
/// [`EventKind::RecoveryPhaseEnd`] span events. The TC journals
/// `Analysis` and `Undo`; the data component journals the four phases of
/// its one recovery call (`DcApi::redo`) between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryPhase {
    /// Analysis pass (DPT construction; "DC redo" for logical methods).
    Analysis,
    /// Structure-modification redo (serialized SMO barrier when parallel).
    SmoRedo,
    /// Index-page preload (Log2 only).
    IndexPreload,
    /// The redo pass proper — emitted once per redo worker when parallel.
    Redo,
    /// Post-redo volatile-structure rebuild, the last phase of `DcApi::redo`.
    IndexRebuild,
    /// Transactional undo of loser transactions.
    Undo,
}

impl RecoveryPhase {
    /// Stable lower-case name used in the JSON rendering.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhase::Analysis => "analysis",
            RecoveryPhase::SmoRedo => "smo_redo",
            RecoveryPhase::IndexPreload => "index_preload",
            RecoveryPhase::Redo => "redo",
            RecoveryPhase::IndexRebuild => "index_rebuild",
            RecoveryPhase::Undo => "undo",
        }
    }
}

/// One fixed-size typed journal event. All payloads are plain scalars so
/// events are `Copy` and ring slots never own heap memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction began.
    TxnBegin {
        /// Transaction id.
        txn: u64,
    },
    /// A transaction committed (its commit record is stable).
    TxnCommit {
        /// Transaction id.
        txn: u64,
    },
    /// A transaction aborted (rollback complete).
    TxnAbort {
        /// Transaction id.
        txn: u64,
    },
    /// A lock request lost under the no-wait policy.
    LockConflict {
        /// Requesting transaction.
        txn: u64,
        /// Table holding the contended key.
        table: u64,
        /// The contended key.
        key: u64,
    },
    /// A group-commit leader forced the log.
    GroupCommitForce {
        /// Commits covered by this force (leader + piggybacked).
        batch: u64,
        /// Highest LSN made stable.
        lsn: u64,
    },
    /// A committer found its LSN already stable (piggybacked on an
    /// earlier force).
    GroupCommitPiggyback {
        /// The commit LSN that was already covered.
        lsn: u64,
    },
    /// A page was fetched into the buffer pool (miss path).
    PageFetch {
        /// Page id.
        pid: u64,
        /// Simulated microseconds the caller stalled for the fetch.
        stall_us: u64,
    },
    /// A frame was evicted.
    PageEvict {
        /// Page id.
        pid: u64,
        /// Whether the frame required a flush first.
        dirty: bool,
    },
    /// A dirty page was written back.
    PageFlush {
        /// Page id.
        pid: u64,
    },
    /// A retired frame's memory was recycled after its epoch drained.
    FrameRecycle {
        /// Page id the frame last held.
        pid: u64,
    },
    /// An optimistic (OLC) read or write attempt restarted after
    /// version validation failed.
    OlcRestart {
        /// Page whose version check failed.
        pid: u64,
        /// True for the write-prepare path, false for reads.
        write: bool,
    },
    /// An optimistic attempt gave up and fell back to the latched path.
    OlcFallback {
        /// True for the write-prepare path, false for reads.
        write: bool,
    },
    /// The global frame-reclamation epoch advanced.
    EpochAdvance {
        /// New epoch value.
        epoch: u64,
        /// True when advanced eagerly to unblock reclamation.
        forced: bool,
    },
    /// A checkpoint began.
    CheckpointBegin {
        /// Begin-checkpoint LSN.
        lsn: u64,
    },
    /// A checkpoint completed.
    CheckpointEnd {
        /// Begin-checkpoint LSN of the completed checkpoint.
        lsn: u64,
    },
    /// One background cleaner (lazywriter) sweep finished.
    CleanerTick {
        /// Pages flushed by this sweep.
        pages_flushed: u64,
    },
    /// One background log-compactor sweep finished (log-structured
    /// backend).
    CompactorTick {
        /// Cold log segments reclaimed by this sweep.
        segments: u64,
    },
    /// A recovery phase started on one worker (worker 0 = the serial
    /// pipeline or the coordinating thread).
    RecoveryPhaseStart {
        /// Which phase.
        phase: RecoveryPhase,
        /// Worker index within the phase.
        worker: u64,
    },
    /// A recovery phase finished on one worker.
    RecoveryPhaseEnd {
        /// Which phase.
        phase: RecoveryPhase,
        /// Worker index within the phase.
        worker: u64,
        /// Simulated microseconds of busy time for this worker/phase.
        busy_us: u64,
    },
    /// A request frame arrived at the DC server.
    WireRequest {
        /// Client-stamped request id.
        req_id: u64,
        /// Request opcode (wire tag).
        op: u64,
        /// Framed request size in bytes.
        bytes: u64,
    },
    /// A reply frame left the DC server.
    WireReply {
        /// Request id this reply answers.
        req_id: u64,
        /// Request opcode (wire tag).
        op: u64,
        /// Framed reply size in bytes.
        bytes: u64,
        /// Server-side dispatch latency in real microseconds.
        lat_us: u64,
        /// False when the reply carries a wire error.
        ok: bool,
    },
    /// A transport disconnect reached the DC server.
    WireDisconnect {
        /// Parked guards released by the disconnect cleanup.
        tokens_released: u64,
    },
    /// One parked guard token was released (drop, explicit release, or
    /// disconnect cleanup).
    TokenRelease {
        /// The released token.
        token: u64,
    },
    /// A client connection was admitted by the session server and mapped
    /// to an engine session.
    ClientConnect {
        /// Server-assigned connection id.
        conn: u64,
        /// Sessions active after this admit (this one included).
        active: u64,
    },
    /// A client connection ended (clean close or vanished socket).
    ClientDisconnect {
        /// Server-assigned connection id.
        conn: u64,
        /// True when teardown had to abort an open transaction.
        aborted_txn: bool,
    },
}

/// Every event name that can appear in a journal's `event` field, for
/// schema validation of drained output.
pub const EVENT_NAMES: &[&str] = &[
    "txn_begin",
    "txn_commit",
    "txn_abort",
    "lock_conflict",
    "group_commit_force",
    "group_commit_piggyback",
    "page_fetch",
    "page_evict",
    "page_flush",
    "frame_recycle",
    "olc_restart",
    "olc_fallback",
    "epoch_advance",
    "checkpoint_begin",
    "checkpoint_end",
    "cleaner_tick",
    "compactor_tick",
    "recovery_phase_start",
    "recovery_phase_end",
    "wire_request",
    "wire_reply",
    "wire_disconnect",
    "token_release",
    "client_connect",
    "client_disconnect",
];

impl EventKind {
    /// Stable snake-case name used as the `event` field of the JSON
    /// rendering (always a member of [`EVENT_NAMES`]).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TxnBegin { .. } => "txn_begin",
            EventKind::TxnCommit { .. } => "txn_commit",
            EventKind::TxnAbort { .. } => "txn_abort",
            EventKind::LockConflict { .. } => "lock_conflict",
            EventKind::GroupCommitForce { .. } => "group_commit_force",
            EventKind::GroupCommitPiggyback { .. } => "group_commit_piggyback",
            EventKind::PageFetch { .. } => "page_fetch",
            EventKind::PageEvict { .. } => "page_evict",
            EventKind::PageFlush { .. } => "page_flush",
            EventKind::FrameRecycle { .. } => "frame_recycle",
            EventKind::OlcRestart { .. } => "olc_restart",
            EventKind::OlcFallback { .. } => "olc_fallback",
            EventKind::EpochAdvance { .. } => "epoch_advance",
            EventKind::CheckpointBegin { .. } => "checkpoint_begin",
            EventKind::CheckpointEnd { .. } => "checkpoint_end",
            EventKind::CleanerTick { .. } => "cleaner_tick",
            EventKind::CompactorTick { .. } => "compactor_tick",
            EventKind::RecoveryPhaseStart { .. } => "recovery_phase_start",
            EventKind::RecoveryPhaseEnd { .. } => "recovery_phase_end",
            EventKind::WireRequest { .. } => "wire_request",
            EventKind::WireReply { .. } => "wire_reply",
            EventKind::WireDisconnect { .. } => "wire_disconnect",
            EventKind::TokenRelease { .. } => "token_release",
            EventKind::ClientConnect { .. } => "client_connect",
            EventKind::ClientDisconnect { .. } => "client_disconnect",
        }
    }

    /// Payload fields as `(name, value)` pairs, in declaration order.
    pub fn fields(&self) -> Vec<(&'static str, Json)> {
        match *self {
            EventKind::TxnBegin { txn }
            | EventKind::TxnCommit { txn }
            | EventKind::TxnAbort { txn } => vec![("txn", txn.into())],
            EventKind::LockConflict { txn, table, key } => {
                vec![("txn", txn.into()), ("table", table.into()), ("key", key.into())]
            }
            EventKind::GroupCommitForce { batch, lsn } => {
                vec![("batch", batch.into()), ("lsn", lsn.into())]
            }
            EventKind::GroupCommitPiggyback { lsn } => vec![("lsn", lsn.into())],
            EventKind::PageFetch { pid, stall_us } => {
                vec![("pid", pid.into()), ("stall_us", stall_us.into())]
            }
            EventKind::PageEvict { pid, dirty } => {
                vec![("pid", pid.into()), ("dirty", dirty.into())]
            }
            EventKind::PageFlush { pid } | EventKind::FrameRecycle { pid } => {
                vec![("pid", pid.into())]
            }
            EventKind::OlcRestart { pid, write } => {
                vec![("pid", pid.into()), ("write", write.into())]
            }
            EventKind::OlcFallback { write } => vec![("write", write.into())],
            EventKind::EpochAdvance { epoch, forced } => {
                vec![("epoch", epoch.into()), ("forced", forced.into())]
            }
            EventKind::CheckpointBegin { lsn } | EventKind::CheckpointEnd { lsn } => {
                vec![("lsn", lsn.into())]
            }
            EventKind::CleanerTick { pages_flushed } => {
                vec![("pages_flushed", pages_flushed.into())]
            }
            EventKind::CompactorTick { segments } => vec![("segments", segments.into())],
            EventKind::RecoveryPhaseStart { phase, worker } => {
                vec![("phase", phase.name().into()), ("worker", worker.into())]
            }
            EventKind::RecoveryPhaseEnd { phase, worker, busy_us } => vec![
                ("phase", phase.name().into()),
                ("worker", worker.into()),
                ("busy_us", busy_us.into()),
            ],
            EventKind::WireRequest { req_id, op, bytes } => {
                vec![("req_id", req_id.into()), ("op", op.into()), ("bytes", bytes.into())]
            }
            EventKind::WireReply { req_id, op, bytes, lat_us, ok } => vec![
                ("req_id", req_id.into()),
                ("op", op.into()),
                ("bytes", bytes.into()),
                ("lat_us", lat_us.into()),
                ("ok", ok.into()),
            ],
            EventKind::WireDisconnect { tokens_released } => {
                vec![("tokens_released", tokens_released.into())]
            }
            EventKind::TokenRelease { token } => vec![("token", token.into())],
            EventKind::ClientConnect { conn, active } => {
                vec![("conn", conn.into()), ("active", active.into())]
            }
            EventKind::ClientDisconnect { conn, aborted_txn } => {
                vec![("conn", conn.into()), ("aborted_txn", aborted_txn.into())]
            }
        }
    }
}

/// One stamped journal entry: the payload plus its global ordering keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Globally unique, monotonically assigned sequence number.
    pub seq: u64,
    /// Small dense id of the emitting thread (assigned on first emit).
    pub tid: u64,
    /// Microseconds since the journal was created.
    pub t_us: u64,
    /// The typed payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Render as a single-line JSON object:
    /// `{"seq":..,"tid":..,"t_us":..,"event":"<name>", ...payload}`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .with("seq", self.seq.into())
            .with("tid", self.tid.into())
            .with("t_us", self.t_us.into())
            .with("event", self.kind.name().into());
        for (k, v) in self.kind.fields() {
            obj.push(k, v);
        }
        obj
    }
}

/// Validate one drained JSON line against the journal schema: it must
/// parse, carry numeric `seq`/`tid`/`t_us`, and name a catalogued event.
pub fn validate_journal_line(line: &str) -> Result<(), String> {
    let v = json::parse(line)?;
    for key in ["seq", "tid", "t_us"] {
        v.get(key).and_then(Json::as_u64).ok_or(format!("missing numeric field {key:?}"))?;
    }
    let name = v.get("event").and_then(Json::as_str).ok_or("missing string field \"event\"")?;
    if !EVENT_NAMES.contains(&name) {
        return Err(format!("unknown event name {name:?}"));
    }
    Ok(())
}

const SHARDS: usize = 16;

/// Bounded MPMC ring (Vyukov-style): each slot carries a sequence word
/// that encodes whether it is free for the current producer lap or holds
/// a value for the current consumer lap. Producers never wait — a full
/// ring rejects the push.
struct Ring {
    slots: Box<[Slot]>,
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
}

struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<TraceEvent>>,
}

// Slots are only read after the slot's `seq` word publishes them
// (acquire/release pairs below), so sharing across threads is sound.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(8);
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Push without blocking; a full ring drops the event.
    fn push(&self, ev: TraceEvent) -> bool {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { (*slot.value.get()).write(ev) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                // The slot still holds an unconsumed event from a full
                // lap ago: the ring is full. Count and drop.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest event, if any.
    fn pop(&self) -> Option<TraceEvent> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let ev = unsafe { (*slot.value.get()).assume_init() };
                        slot.seq.store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(ev);
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }
}

struct Shared {
    rings: [Ring; SHARDS],
    seq: AtomicU64,
    epoch: Instant,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Handle to the trace journal. Cloning is cheap (an `Arc` clone); a
/// disabled sink ([`TraceSink::disabled`], also `Default`) makes
/// [`TraceSink::emit`] a branch-and-return no-op, so instrumented code
/// paths pay nothing when tracing is off.
#[derive(Clone, Default)]
pub struct TraceSink(Option<Arc<Shared>>);

impl TraceSink {
    /// A no-op sink: every emit returns immediately, drains are empty.
    pub fn disabled() -> TraceSink {
        TraceSink(None)
    }

    /// An enabled journal holding roughly `capacity` events across its
    /// internal rings (rounded up; minimum a few hundred).
    pub fn enabled(capacity: usize) -> TraceSink {
        let per_shard = (capacity / SHARDS).max(32);
        let rings = std::array::from_fn(|_| Ring::new(per_shard));
        TraceSink(Some(Arc::new(Shared { rings, seq: AtomicU64::new(0), epoch: Instant::now() })))
    }

    /// Whether events are being journaled.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one event. Wait-free; drops (and counts) on ring overflow.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if let Some(shared) = &self.0 {
            let tid = TID.with(|t| *t);
            let ev = TraceEvent {
                seq: shared.seq.fetch_add(1, Ordering::Relaxed),
                tid,
                t_us: shared.epoch.elapsed().as_micros() as u64,
                kind,
            };
            shared.rings[(tid as usize) % SHARDS].push(ev);
        }
    }

    /// Events dropped so far because a ring was full.
    pub fn dropped_events(&self) -> u64 {
        match &self.0 {
            Some(shared) => shared.rings.iter().map(|r| r.dropped.load(Ordering::Relaxed)).sum(),
            None => 0,
        }
    }

    /// Drain every ring and merge into one globally ordered timeline
    /// (ascending sequence number). Emitters may keep running; events
    /// emitted during the drain land in the next one.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        if let Some(shared) = &self.0 {
            for ring in &shared.rings {
                while let Some(ev) = ring.pop() {
                    events.push(ev);
                }
            }
            events.sort_unstable_by_key(|e| e.seq);
        }
        events
    }

    /// [`TraceSink::drain`] rendered as JSON lines (one event per line).
    pub fn drain_json(&self) -> String {
        let mut out = String::new();
        for ev in self.drain() {
            out.push_str(&ev.to_json().render());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").field("enabled", &self.is_enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_noop() {
        let sink = TraceSink::disabled();
        sink.emit(EventKind::TxnBegin { txn: 1 });
        assert!(!sink.is_enabled());
        assert!(sink.drain().is_empty());
        assert_eq!(sink.dropped_events(), 0);
        assert_eq!(sink.drain_json(), "");
    }

    #[test]
    fn concurrent_emitters_preserve_per_thread_order() {
        let sink = TraceSink::enabled(1 << 16);
        let threads = 4;
        let per_thread = 2_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let sink = sink.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        sink.emit(EventKind::TxnBegin { txn: t * per_thread + i });
                    }
                });
            }
        });
        let events = sink.drain();
        assert_eq!(events.len(), (threads * per_thread) as usize);
        assert_eq!(sink.dropped_events(), 0);

        // Globally merged and monotonically sequenced.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "drain must be sorted by seq");
        }

        // Per-thread payloads appear in emission order.
        let mut last_payload: std::collections::HashMap<u64, u64> = Default::default();
        for ev in &events {
            let EventKind::TxnBegin { txn } = ev.kind else { panic!("unexpected kind") };
            if let Some(prev) = last_payload.insert(txn / per_thread, txn) {
                assert!(prev < txn, "thread {} out of order: {prev} then {txn}", txn / per_thread);
            }
        }
    }

    #[test]
    fn overflow_drops_instead_of_blocking() {
        // Tiny journal: SHARDS rings of the minimum size.
        let sink = TraceSink::enabled(1);
        for i in 0..100_000 {
            sink.emit(EventKind::PageFlush { pid: i });
        }
        assert!(sink.dropped_events() > 0, "overflow must count drops");
        let drained = sink.drain();
        assert!(!drained.is_empty());
        assert!(drained.len() < 100_000);
        // The ring recovered its capacity: new events land again.
        sink.emit(EventKind::PageFlush { pid: 7 });
        assert_eq!(sink.drain().len(), 1);
    }

    #[test]
    fn drain_json_lines_validate_against_schema() {
        let sink = TraceSink::enabled(1024);
        sink.emit(EventKind::TxnBegin { txn: 9 });
        sink.emit(EventKind::GroupCommitForce { batch: 3, lsn: 40 });
        sink.emit(EventKind::RecoveryPhaseEnd {
            phase: RecoveryPhase::Redo,
            worker: 1,
            busy_us: 5,
        });
        sink.emit(EventKind::WireReply { req_id: 1, op: 3, bytes: 64, lat_us: 12, ok: true });
        let text = sink.drain_json();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in lines {
            validate_journal_line(line).unwrap();
        }
        assert!(validate_journal_line("{\"seq\":0}").is_err());
        assert!(
            validate_journal_line("{\"seq\":0,\"tid\":0,\"t_us\":0,\"event\":\"nope\"}").is_err()
        );
    }

    #[test]
    fn every_event_name_is_catalogued() {
        let samples = [
            EventKind::TxnBegin { txn: 0 },
            EventKind::TxnCommit { txn: 0 },
            EventKind::TxnAbort { txn: 0 },
            EventKind::LockConflict { txn: 0, table: 0, key: 0 },
            EventKind::GroupCommitForce { batch: 0, lsn: 0 },
            EventKind::GroupCommitPiggyback { lsn: 0 },
            EventKind::PageFetch { pid: 0, stall_us: 0 },
            EventKind::PageEvict { pid: 0, dirty: false },
            EventKind::PageFlush { pid: 0 },
            EventKind::FrameRecycle { pid: 0 },
            EventKind::OlcRestart { pid: 0, write: false },
            EventKind::OlcFallback { write: true },
            EventKind::EpochAdvance { epoch: 0, forced: false },
            EventKind::CheckpointBegin { lsn: 0 },
            EventKind::CheckpointEnd { lsn: 0 },
            EventKind::CleanerTick { pages_flushed: 0 },
            EventKind::CompactorTick { segments: 0 },
            EventKind::RecoveryPhaseStart { phase: RecoveryPhase::Analysis, worker: 0 },
            EventKind::RecoveryPhaseEnd { phase: RecoveryPhase::Undo, worker: 0, busy_us: 0 },
            EventKind::WireRequest { req_id: 0, op: 0, bytes: 0 },
            EventKind::WireReply { req_id: 0, op: 0, bytes: 0, lat_us: 0, ok: false },
            EventKind::WireDisconnect { tokens_released: 0 },
            EventKind::TokenRelease { token: 0 },
            EventKind::ClientConnect { conn: 0, active: 0 },
            EventKind::ClientDisconnect { conn: 0, aborted_txn: false },
        ];
        assert_eq!(samples.len(), EVENT_NAMES.len());
        for ev in samples {
            assert!(EVENT_NAMES.contains(&ev.name()), "{} missing from catalogue", ev.name());
        }
    }
}
