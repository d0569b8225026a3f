//! The log manager.
//!
//! An append-only byte buffer of framed records. LSNs are byte offsets
//! (starting at [`LOG_ORIGIN`], so [`lr_common::Lsn::NULL`] never collides
//! with a record). The manager tracks the **stable LSN** — the paper's
//! "end of stable log" that the TC advertises to the DC via EOSL — and the
//! **checkpoint anchor** restart begins at, and supports crash truncation,
//! forward scans, random access for undo chains, and log-page arithmetic
//! for the recovery I/O model.

use crate::record::{LogPayload, LogRecord};
use crate::shared::SharedWal;
use lr_common::codec::FRAME_HEADER;
use lr_common::{crc32, Error, Lsn, Result, TxnId};

/// LSN of the first record: the log begins with an 8-byte magic header.
pub const LOG_ORIGIN: Lsn = Lsn(8);

const MAGIC: &[u8; 8] = b"LRWAL\0\0\x01";

/// In-memory append-only log with explicit stability tracking.
pub struct Wal {
    buf: Vec<u8>,
    /// Sorted record start offsets, for random access and scans.
    index: Vec<u64>,
    stable: Lsn,
    /// Bytes per simulated log page (I/O accounting granularity).
    log_page_size: usize,
    /// Checkpoint anchor (ARIES's master record): bCkpt LSN of the last
    /// completed checkpoint published or found by a restart, null before
    /// the first. A durable cell *beside* the log body: truncation and
    /// tearing leave it alone, [`Wal::restart`] validates it instead.
    anchor: Lsn,
}

/// What [`Wal::restart`]'s pass over the log found.
#[derive(Debug)]
pub struct RestartScan {
    /// Records lost to the torn / corrupt tail.
    pub dropped: usize,
    /// Redo scan start: the bCkpt of the newest completed checkpoint
    /// (§3.2), or [`LOG_ORIGIN`] when there is none.
    pub scan_start: Lsn,
    /// The newest durable RSSP note at or after `scan_start` (null if none).
    pub rssp_lsn: Lsn,
    /// The active-transaction list of that checkpoint's eCkpt record.
    pub ckpt_active: Vec<(TxnId, Lsn)>,
    /// Every record from `scan_start` to the usable end, decoded once.
    pub window: Vec<LogRecord>,
    /// Bytes / frames the pass length- and CRC-validated.
    pub scanned_bytes: u64,
    pub scanned_records: u64,
}

impl Wal {
    /// An empty log. `log_page_size` is used only for page-count accounting.
    pub fn new(log_page_size: usize) -> Wal {
        assert!(log_page_size >= 512, "log page size unreasonably small");
        Wal::over(MAGIC.to_vec(), log_page_size)
    }

    /// A log over `buf` with nothing indexed yet.
    fn over(buf: Vec<u8>, log_page_size: usize) -> Wal {
        Wal { buf, index: Vec::new(), stable: LOG_ORIGIN, log_page_size, anchor: Lsn::NULL }
    }

    /// A shareable handle.
    pub fn new_shared(log_page_size: usize) -> SharedWal {
        SharedWal::new(Wal::new(log_page_size))
    }

    /// Append a record; returns its LSN. The record is *not* stable until
    /// [`Wal::make_stable`] (or [`Wal::make_all_stable`]) covers it.
    pub fn append(&mut self, payload: &LogPayload) -> Lsn {
        self.append_frame(&payload.encode_frame())
    }

    /// Append a frame built by [`LogPayload::encode_frame`] (the buffered
    /// append path: callers serialize and checksum the payload *outside*
    /// the log latch and pay only one memcpy inside it).
    pub fn append_frame(&mut self, frame: &[u8]) -> Lsn {
        debug_assert_eq!(frame[..4], ((frame.len() - FRAME_HEADER) as u32).to_le_bytes());
        let lsn = Lsn(self.buf.len() as u64);
        self.buf.extend_from_slice(frame);
        self.index.push(lsn.0);
        lsn
    }

    /// First LSN past the end of the log (the next record's LSN).
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.buf.len() as u64)
    }

    /// Number of records currently in the log.
    pub fn record_count(&self) -> usize {
        self.index.len()
    }

    /// Total log size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.buf.len() as u64
    }

    /// The stable LSN: every record with `lsn < stable_lsn` survives a crash.
    pub fn stable_lsn(&self) -> Lsn {
        self.stable
    }

    /// Advance the stable LSN to `lsn` (monotonic; clamped to the log end).
    pub fn make_stable(&mut self, lsn: Lsn) {
        let end = self.end_lsn();
        self.stable = self.stable.max(lsn.min(end));
    }

    /// Force the whole log stable (e.g. a commit that flushes the tail).
    pub fn make_all_stable(&mut self) {
        self.stable = self.end_lsn();
    }

    /// The checkpoint anchor (null until a checkpoint completes).
    pub fn checkpoint_anchor(&self) -> Lsn {
        self.anchor
    }

    /// Publish `bckpt` as the checkpoint anchor — the checkpointer's last
    /// step, under the log latch, once the eCkpt record is forced.
    /// Monotone, and ignored unless `bckpt` is the start of a stable
    /// `BeginCheckpoint` frame.
    pub fn set_checkpoint_anchor(&mut self, bckpt: Lsn) {
        if bckpt > self.anchor
            && bckpt < self.stable
            && matches!(self.read_at(bckpt), Ok(r) if r.payload == LogPayload::BeginCheckpoint)
        {
            self.anchor = bckpt;
        }
    }

    /// Crash: discard every record not covered by the stable LSN.
    ///
    /// Returns the number of records lost. After truncation the stable LSN
    /// equals the log end.
    pub fn truncate_to_stable(&mut self) -> usize {
        let cut = self.index.partition_point(|&off| off < self.stable.0);
        let lost = self.index.len() - cut;
        if lost > 0 {
            let new_len = self.index[cut] as usize;
            self.buf.truncate(new_len);
            self.index.truncate(cut);
        }
        self.stable = self.end_lsn();
        lost
    }

    /// The frame starting at byte `off` as `(body, stored CRC)`; `None`
    /// when its header or body runs past the physical end of the log.
    fn frame_at(&self, off: usize) -> Option<(&[u8], u32)> {
        let header = self.buf.get(off..off.checked_add(FRAME_HEADER)?)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("length")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("crc"));
        let body_start = off + FRAME_HEADER;
        Some((self.buf.get(body_start..body_start.checked_add(len)?)?, crc))
    }

    fn decode_at_index(&self, i: usize) -> Result<LogRecord> {
        let lsn = Lsn(self.index[i]);
        let corrupt = |reason: String| Error::LogCorrupt { lsn, reason };
        let (body, crc) =
            self.frame_at(lsn.0 as usize).ok_or_else(|| corrupt("torn frame".to_string()))?;
        if crc32(body) != crc {
            return Err(corrupt("CRC mismatch".to_string()));
        }
        let payload = LogPayload::decode(body).map_err(|e| corrupt(e.to_string()))?;
        Ok(LogRecord { lsn, payload })
    }

    /// Random-access read of the record at exactly `lsn`.
    pub fn read_at(&self, lsn: Lsn) -> Result<LogRecord> {
        match self.index.binary_search(&lsn.0) {
            Ok(i) => self.decode_at_index(i),
            Err(_) => {
                Err(Error::LogCorrupt { lsn, reason: "no record starts at this LSN".to_string() })
            }
        }
    }

    /// Borrowing forward cursor over all records with `lsn >= from`, in
    /// log order, decoding lazily — one record materialized at a time.
    ///
    /// Single forward passes over a live log (index rebuilds, log
    /// shipping) use this instead of [`Wal::scan_from`], which clones every
    /// decoded record into a `Vec` up front.
    pub fn records_from(&self, from: Lsn) -> RecordCursor<'_> {
        let start = self.index.partition_point(|&off| off < from.0);
        RecordCursor { wal: self, next: start }
    }

    /// All records with `lsn >= from`, in log order, decoded eagerly — for
    /// inspecting a live log (tests, replicas, log shipping).
    ///
    /// Recovery does not come through here: [`Wal::restart`] materializes
    /// the redo window in the same single pass that validates the frames,
    /// and analysis, redo and undo all work off that one decoded copy.
    pub fn scan_from(&self, from: Lsn) -> Result<Vec<LogRecord>> {
        self.records_from(from).collect()
    }

    /// Number of log pages spanned by the byte range `[from, to)` — the
    /// sequential-read cost of a recovery scan.
    pub fn log_pages_between(&self, from: Lsn, to: Lsn) -> u64 {
        if to <= from {
            return 0;
        }
        let first_page = from.0 / self.log_page_size as u64;
        let last_page = (to.0.saturating_sub(1)) / self.log_page_size as u64;
        last_page - first_page + 1
    }

    /// Restart: **one pass** over `[checkpoint anchor, physical end)` that
    /// checks each frame's length and CRC once and decodes it once. The
    /// log is cut at the first torn or corrupt frame (records past it
    /// never happened; the stable LSN becomes the new end), and the same
    /// pass yields the newest *completed* checkpoint at or after the
    /// anchor (§3.2; the anchor lags by one if the crash fell between the
    /// eCkpt force and its publication), the window from its bCkpt, the
    /// RSSP note and the eCkpt's active transactions. The anchor then
    /// names that checkpoint.
    ///
    /// A null anchor, one that is not a frame start physically there, or
    /// one whose eCkpt did not survive a deep tear falls back to the same
    /// pass from [`LOG_ORIGIN`]. Frames below the anchor are not re-read:
    /// the checkpoint flushed their pages, and [`Wal::read_at`] still
    /// checks the CRC of any an undo chain reaches. A frame whose CRC
    /// holds but whose body does not decode is no torn tail: `LogCorrupt`.
    pub fn restart(&mut self) -> Result<RestartScan> {
        let records_before = self.index.len();
        let anchored = self.index.binary_search(&self.anchor.0).is_ok();
        let start = if anchored { self.anchor } else { LOG_ORIGIN };
        let (mut window, mut eckpt) = self.scan_pass(start)?;
        let mut scanned_bytes = self.end_lsn().0 - start.0;
        let mut scanned_records = window.len() as u64;
        if start != LOG_ORIGIN && eckpt.is_none() {
            (window, eckpt) = self.scan_pass(LOG_ORIGIN)?;
            scanned_bytes += self.end_lsn().0 - LOG_ORIGIN.0;
            scanned_records += window.len() as u64;
        }
        let (scan_start, ckpt_active) = match eckpt.map(|i| &window[i].payload) {
            Some(LogPayload::EndCheckpoint { bckpt_lsn, active_txns }) => {
                (*bckpt_lsn, active_txns.clone())
            }
            _ => (LOG_ORIGIN, Vec::new()),
        };
        self.anchor = if eckpt.is_some() { scan_start } else { Lsn::NULL };
        window.drain(..window.partition_point(|r| r.lsn < scan_start));
        let rssp_lsn = window
            .iter()
            .filter_map(|r| match r.payload {
                LogPayload::Rssp { rssp_lsn } => Some(rssp_lsn),
                _ => None,
            })
            .max()
            .unwrap_or(Lsn::NULL);
        Ok(RestartScan {
            dropped: records_before.saturating_sub(self.index.len()),
            scan_start,
            rssp_lsn,
            ckpt_active,
            window,
            scanned_bytes,
            scanned_records,
        })
    }

    /// Validate and decode every frame from `start` to the first bad one,
    /// cut the log there and rebuild the index from `start` up. Returns
    /// the records and the position among them of the last eCkpt whose
    /// checkpoint began at or after `start`.
    fn scan_pass(&mut self, start: Lsn) -> Result<(Vec<LogRecord>, Option<usize>)> {
        let keep = self.index.partition_point(|&o| o < start.0);
        let mut off = start.0 as usize;
        let mut records = Vec::with_capacity(self.index.len() - keep);
        let mut eckpt = None;
        while let Some((body, crc)) = self.frame_at(off) {
            if crc32(body) != crc {
                break;
            }
            let lsn = Lsn(off as u64);
            let payload = LogPayload::decode(body)
                .map_err(|e| Error::LogCorrupt { lsn, reason: e.to_string() })?;
            if matches!(payload, LogPayload::EndCheckpoint { bckpt_lsn, .. } if bckpt_lsn >= start)
            {
                eckpt = Some(records.len());
            }
            off += FRAME_HEADER + body.len();
            records.push(LogRecord { lsn, payload });
        }
        self.buf.truncate(off);
        self.index.truncate(keep);
        self.index.extend(records.iter().map(|r| r.lsn.0));
        self.stable = self.end_lsn();
        Ok((records, eckpt))
    }

    /// Persist the log's bytes to a file (durability point for a
    /// process-restart; see `Wal::load`).
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        std::fs::write(path, &self.buf).map_err(Error::Io)
    }

    /// Load a log file written by [`Wal::save`] — or torn by a crash.
    /// Validates the magic header, then [`Wal::restart`]s from the origin:
    /// rebuilds the record index, drops any torn tail and re-derives the
    /// checkpoint anchor (the file carries none).
    pub fn load(path: &std::path::Path, log_page_size: usize) -> Result<Wal> {
        let buf = std::fs::read(path).map_err(Error::Io)?;
        if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
            return Err(Error::LogCorrupt {
                lsn: Lsn::NULL,
                reason: "bad or missing log magic header".to_string(),
            });
        }
        let mut wal = Wal::over(buf, log_page_size);
        wal.restart()?;
        Ok(wal)
    }

    /// Tear the physical tail of the log: drop the last `bytes` bytes
    /// regardless of frame boundaries — what a crash mid-write does to a
    /// real log file. Follow with [`Wal::restart`].
    pub fn tear(&mut self, bytes: u64) {
        let keep = self.buf.len().saturating_sub(bytes as usize).max(MAGIC.len());
        self.buf.truncate(keep);
        self.index.retain(|&off| off < keep as u64);
        self.stable = self.stable.min(self.end_lsn());
    }

    /// Deliberately flip a byte (tests of torn-tail handling only).
    #[doc(hidden)]
    pub fn corrupt_byte_for_testing(&mut self, offset: usize) {
        if offset < self.buf.len() {
            self.buf[offset] ^= 0xFF;
        }
    }

    /// Clone the log's durable contents into an independent `Wal` (harness
    /// forking; see `Disk::fork`).
    pub fn fork_data(&self) -> Wal {
        Wal {
            buf: self.buf.clone(),
            index: self.index.clone(),
            stable: self.stable,
            log_page_size: self.log_page_size,
            anchor: self.anchor,
        }
    }
}

/// Borrowing forward iterator over a [`Wal`]'s records; see
/// [`Wal::records_from`]. Each `next()` decodes exactly one frame; nothing
/// is buffered or cloned ahead of the cursor.
pub struct RecordCursor<'a> {
    wal: &'a Wal,
    next: usize,
}

impl RecordCursor<'_> {
    /// Records remaining ahead of the cursor.
    pub fn remaining(&self) -> usize {
        self.wal.index.len() - self.next
    }
}

impl Iterator for RecordCursor<'_> {
    type Item = Result<LogRecord>;

    fn next(&mut self) -> Option<Result<LogRecord>> {
        if self.next >= self.wal.index.len() {
            return None;
        }
        let rec = self.wal.decode_at_index(self.next);
        self.next += 1;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(t: u64) -> LogPayload {
        LogPayload::TxnBegin { txn: TxnId(t) }
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let mut wal = Wal::new(4096);
        let a = wal.append(&begin(1));
        let b = wal.append(&begin(2));
        assert_eq!(a, LOG_ORIGIN);
        assert!(b > a);
        assert_eq!(wal.record_count(), 2);
    }

    #[test]
    fn read_at_and_scan() {
        let mut wal = Wal::new(4096);
        let a = wal.append(&begin(1));
        let b = wal.append(&LogPayload::BeginCheckpoint);
        let c = wal.append(&begin(3));
        assert_eq!(wal.read_at(b).unwrap().payload, LogPayload::BeginCheckpoint);
        assert!(wal.read_at(Lsn(a.0 + 1)).is_err(), "misaligned LSN rejected");
        let recs = wal.scan_from(b).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].lsn, b);
        assert_eq!(recs[1].lsn, c);
        assert_eq!(wal.scan_from(Lsn::NULL).unwrap().len(), 3);
        assert_eq!(wal.scan_from(wal.end_lsn()).unwrap().len(), 0);
    }

    #[test]
    fn cursor_matches_eager_scan_and_decodes_lazily() {
        let mut wal = Wal::new(4096);
        let lsns: Vec<Lsn> = (0..10).map(|t| wal.append(&begin(t))).collect();
        // Full scan parity.
        let eager = wal.scan_from(Lsn::NULL).unwrap();
        let lazy: Vec<_> = wal.records_from(Lsn::NULL).map(|r| r.unwrap()).collect();
        assert_eq!(eager, lazy);
        // Mid-log start, size hints, and partial consumption.
        let mut cur = wal.records_from(lsns[7]);
        assert_eq!(cur.remaining(), 3);
        assert_eq!(cur.size_hint(), (3, Some(3)));
        assert_eq!(cur.next().unwrap().unwrap().lsn, lsns[7]);
        assert_eq!(cur.remaining(), 2);
        // A corrupt frame surfaces as an Err item, not a panic.
        wal.corrupt_byte_for_testing(lsns[9].0 as usize + 9);
        let tail: Vec<_> = wal.records_from(lsns[9]).collect();
        assert_eq!(tail.len(), 1);
        assert!(tail[0].is_err());
    }

    #[test]
    fn stability_and_crash_truncation() {
        let mut wal = Wal::new(4096);
        let _a = wal.append(&begin(1));
        let b = wal.append(&begin(2));
        wal.make_stable(b); // covers record a only (b starts at offset b)
        let _c = wal.append(&begin(3));
        let lost = wal.truncate_to_stable();
        assert_eq!(lost, 2, "records b and c were volatile");
        assert_eq!(wal.record_count(), 1);
        assert_eq!(wal.stable_lsn(), wal.end_lsn());
    }

    #[test]
    fn make_all_stable_preserves_everything() {
        let mut wal = Wal::new(4096);
        for t in 0..10 {
            wal.append(&begin(t));
        }
        wal.make_all_stable();
        assert_eq!(wal.truncate_to_stable(), 0);
        assert_eq!(wal.record_count(), 10);
    }

    #[test]
    fn stable_lsn_is_monotonic_and_clamped() {
        let mut wal = Wal::new(4096);
        wal.append(&begin(1));
        wal.make_stable(Lsn(1_000_000));
        assert_eq!(wal.stable_lsn(), wal.end_lsn());
        wal.make_stable(Lsn(5));
        assert_eq!(wal.stable_lsn(), wal.end_lsn(), "never regresses");
    }

    #[test]
    fn log_page_accounting() {
        let wal = Wal::new(1024);
        assert_eq!(wal.log_pages_between(Lsn(0), Lsn(1)), 1);
        assert_eq!(wal.log_pages_between(Lsn(0), Lsn(1024)), 1);
        assert_eq!(wal.log_pages_between(Lsn(0), Lsn(1025)), 2);
        assert_eq!(wal.log_pages_between(Lsn(1023), Lsn(1025)), 2);
        assert_eq!(wal.log_pages_between(Lsn(2048), Lsn(2048)), 0);
        assert_eq!(wal.log_pages_between(Lsn(10), Lsn(5)), 0);
    }

    /// Append a completed checkpoint bracket (bCkpt, RSSP note, eCkpt),
    /// forced like the checkpointer forces it; returns `(bckpt, eckpt)`.
    fn checkpoint(wal: &mut Wal, publish: bool) -> (Lsn, Lsn) {
        let b = wal.append(&LogPayload::BeginCheckpoint);
        wal.append(&LogPayload::Rssp { rssp_lsn: b });
        let e = wal.append(&LogPayload::EndCheckpoint { bckpt_lsn: b, active_txns: vec![] });
        wal.make_all_stable();
        if publish {
            wal.set_checkpoint_anchor(b);
        }
        (b, e)
    }

    #[test]
    fn checkpoint_discovery() {
        let mut wal = Wal::new(4096);
        assert_eq!(wal.restart().unwrap().scan_start, LOG_ORIGIN, "no checkpoint yet");
        let b1 = wal.append(&LogPayload::BeginCheckpoint);
        wal.append(&LogPayload::EndCheckpoint { bckpt_lsn: b1, active_txns: vec![] });
        let b2 = wal.append(&LogPayload::BeginCheckpoint);
        // b2 has no eCkpt yet: the last *completed* checkpoint is b1.
        assert_eq!(wal.restart().unwrap().scan_start, b1);
        let active = vec![(TxnId(7), Lsn(99))];
        wal.append(&LogPayload::EndCheckpoint { bckpt_lsn: b2, active_txns: active.clone() });
        let scan = wal.restart().unwrap();
        assert_eq!(scan.scan_start, b2);
        assert_eq!(scan.ckpt_active, active, "the completed checkpoint's own eCkpt");
        assert_eq!(scan.window.len(), 2);
        assert_eq!(wal.checkpoint_anchor(), b2, "restart re-derives the anchor");
    }

    #[test]
    fn truncation_respects_partial_checkpoint() {
        // A bCkpt whose eCkpt was lost in the crash must not count.
        let mut wal = Wal::new(4096);
        let b1 = wal.append(&LogPayload::BeginCheckpoint);
        wal.append(&LogPayload::EndCheckpoint { bckpt_lsn: b1, active_txns: vec![] });
        wal.make_all_stable();
        let b2 = wal.append(&LogPayload::BeginCheckpoint);
        let e2 = wal.append(&LogPayload::EndCheckpoint { bckpt_lsn: b2, active_txns: vec![] });
        wal.make_stable(e2); // eCkpt record itself NOT stable (starts at e2)
        wal.truncate_to_stable();
        assert_eq!(wal.restart().unwrap().scan_start, b1);
    }

    #[test]
    fn anchor_is_checked_and_monotone() {
        let mut wal = Wal::new(4096);
        let a = wal.append(&begin(1));
        let b1 = wal.append(&LogPayload::BeginCheckpoint);
        wal.append(&LogPayload::EndCheckpoint { bckpt_lsn: b1, active_txns: vec![] });
        // Not stable yet, not a bCkpt, not a frame start: all ignored.
        wal.set_checkpoint_anchor(b1);
        assert!(wal.checkpoint_anchor().is_null(), "unstable bCkpt refused");
        wal.make_all_stable();
        wal.set_checkpoint_anchor(a);
        wal.set_checkpoint_anchor(Lsn(b1.0 + 1));
        wal.set_checkpoint_anchor(wal.end_lsn());
        assert!(wal.checkpoint_anchor().is_null());
        wal.set_checkpoint_anchor(b1);
        assert_eq!(wal.checkpoint_anchor(), b1);
        let (b2, _) = checkpoint(&mut wal, true);
        assert_eq!(wal.checkpoint_anchor(), b2);
        wal.set_checkpoint_anchor(b1);
        assert_eq!(wal.checkpoint_anchor(), b2, "never moves back");
    }

    #[test]
    fn anchor_survives_truncation_fork_and_reload() {
        let mut wal = Wal::new(4096);
        wal.append(&begin(1));
        let (b, _) = checkpoint(&mut wal, true);
        wal.append(&begin(2)); // volatile
        assert_eq!(wal.truncate_to_stable(), 1);
        assert_eq!(wal.checkpoint_anchor(), b);
        assert_eq!(wal.fork_data().checkpoint_anchor(), b);
        // The file format carries no anchor; load derives it.
        let path = std::env::temp_dir().join(format!("lr-anchor-{}.wal", std::process::id()));
        wal.save(&path).unwrap();
        let mut loaded = Wal::load(&path, 4096).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.checkpoint_anchor(), b);
        assert_eq!(loaded.record_count(), wal.record_count());
        // ... so the restart after a load reads the window, not the log.
        let scan = loaded.restart().unwrap();
        assert_eq!(scan.scan_start, b);
        assert_eq!(scan.scanned_bytes, loaded.end_lsn().0 - b.0);
    }

    #[test]
    fn anchored_restart_scans_only_the_window() {
        let mut wal = Wal::new(4096);
        for t in 0..50 {
            wal.append(&begin(t));
        }
        let (b, _) = checkpoint(&mut wal, true);
        let tail: Vec<Lsn> = (50..55).map(|t| wal.append(&begin(t))).collect();
        let count = wal.record_count();
        let scan = wal.restart().unwrap();
        assert_eq!((scan.dropped, scan.scan_start, scan.rssp_lsn), (0, b, b));
        assert_eq!(scan.window.len(), 3 + tail.len());
        assert_eq!(scan.scanned_records, scan.window.len() as u64);
        assert_eq!(scan.scanned_bytes, wal.end_lsn().0 - b.0);
        assert_eq!(wal.record_count(), count, "entries below the anchor kept");
        assert_eq!(wal.read_at(LOG_ORIGIN).unwrap().payload, begin(0));
    }

    #[test]
    fn unset_anchor_makes_whole_log_the_window() {
        // No checkpoint ever completed (crash before the first one).
        let mut wal = Wal::new(4096);
        for t in 0..6 {
            wal.append(&begin(t));
        }
        wal.append(&LogPayload::BeginCheckpoint);
        let scan = wal.restart().unwrap();
        assert_eq!(scan.scan_start, LOG_ORIGIN);
        assert!(scan.rssp_lsn.is_null() && scan.ckpt_active.is_empty());
        assert_eq!(scan.window.len(), 7);
        assert_eq!(scan.scanned_bytes, wal.end_lsn().0 - LOG_ORIGIN.0);
        assert!(wal.checkpoint_anchor().is_null());
    }

    #[test]
    fn lagging_anchor_finds_newest_completed_checkpoint() {
        // Crash between the eCkpt force and the anchor's publication.
        let mut wal = Wal::new(4096);
        let (b1, _) = checkpoint(&mut wal, true);
        wal.append(&begin(1));
        let (b2, _) = checkpoint(&mut wal, false);
        wal.append(&begin(2));
        assert_eq!(wal.checkpoint_anchor(), b1);
        let scan = wal.restart().unwrap();
        assert_eq!((scan.scan_start, scan.rssp_lsn), (b2, b2));
        assert_eq!(scan.window.len(), 4, "bracket of 3 + one record");
        assert_eq!(scan.scanned_bytes, wal.end_lsn().0 - b1.0, "read from the old anchor");
        assert_eq!(wal.checkpoint_anchor(), b2);
    }

    #[test]
    fn tear_below_anchored_eckpt_falls_back_to_previous_checkpoint() {
        let mut wal = Wal::new(4096);
        wal.append(&begin(1));
        let (b1, _) = checkpoint(&mut wal, true);
        let t2 = wal.append(&begin(2));
        let (b2, e2) = checkpoint(&mut wal, true);
        wal.append(&begin(3));
        // The tear takes the tail and all but 3 bytes of the anchored eCkpt.
        wal.tear(wal.end_lsn().0 - e2.0 - 3);
        assert_eq!(wal.checkpoint_anchor(), b2, "the master record is not in the log body");
        let scan = wal.restart().unwrap();
        assert_eq!(scan.scan_start, b1, "previous completed checkpoint");
        assert_eq!(scan.rssp_lsn, b2, "b2's RSSP note did survive");
        assert_eq!(scan.window.first().unwrap().lsn, b1);
        assert_eq!(scan.window.last().unwrap().payload, LogPayload::Rssp { rssp_lsn: b2 });
        assert_eq!(scan.dropped, 1, "the torn eCkpt");
        assert!(scan.window.iter().any(|r| r.lsn == t2));
        assert_eq!(wal.checkpoint_anchor(), b1, "anchor follows what is on the log");
        assert_eq!(wal.end_lsn(), wal.stable_lsn());

        // A tear that takes the anchored bCkpt itself leaves the anchor
        // past the physical end: same fallback.
        let mut wal = Wal::new(4096);
        let (b1, _) = checkpoint(&mut wal, true);
        let t = wal.append(&begin(2));
        let (b2, _) = checkpoint(&mut wal, true);
        wal.tear(wal.end_lsn().0 - b2.0 + 3);
        let scan = wal.restart().unwrap();
        assert_eq!((scan.scan_start, scan.dropped), (b1, 1));
        assert_eq!(wal.end_lsn(), t, "cut at the torn frame");
    }

    #[test]
    fn anchor_off_a_frame_boundary_falls_back_to_origin() {
        let mut wal = Wal::new(4096);
        let (b1, _) = checkpoint(&mut wal, true);
        wal.append(&begin(1));
        wal.anchor = Lsn(b1.0 + 3);
        let scan = wal.restart().unwrap();
        assert_eq!(scan.scan_start, b1);
        assert_eq!(scan.scanned_bytes, wal.end_lsn().0 - LOG_ORIGIN.0);
        assert_eq!(wal.checkpoint_anchor(), b1);
    }

    #[test]
    fn corruption_below_anchor_survives_restart_but_fails_read_at() {
        let mut wal = Wal::new(4096);
        let lsns: Vec<Lsn> = (0..5).map(|t| wal.append(&begin(t))).collect();
        let (b, _) = checkpoint(&mut wal, true);
        wal.append(&begin(9));
        let count = wal.record_count();
        wal.corrupt_byte_for_testing(lsns[2].0 as usize + 9);
        let scan = wal.restart().unwrap();
        assert_eq!((scan.dropped, scan.scan_start), (0, b));
        assert_eq!(wal.record_count(), count, "restart does not reread below the anchor");
        // ... but whoever reads that frame (an undo chain) is told.
        assert!(matches!(wal.read_at(lsns[2]), Err(Error::LogCorrupt { .. })));
        assert_eq!(wal.read_at(lsns[3]).unwrap().payload, begin(3));
    }

    #[test]
    fn corruption_above_anchor_truncates_exactly_there() {
        let mut wal = Wal::new(4096);
        wal.append(&begin(0));
        let (b, _) = checkpoint(&mut wal, true);
        let lsns: Vec<Lsn> = (1..6).map(|t| wal.append(&begin(t))).collect();
        wal.corrupt_byte_for_testing(lsns[3].0 as usize + 9);
        let scan = wal.restart().unwrap();
        assert_eq!((scan.dropped, scan.scan_start), (2, b));
        assert_eq!(wal.end_lsn(), lsns[3]);
        assert_eq!(scan.window.last().unwrap().lsn, lsns[2]);
        assert_eq!(scan.scanned_bytes, lsns[3].0 - b.0);
    }
}

#[cfg(test)]
mod torn_tail_tests {
    use super::*;

    fn begin(t: u64) -> LogPayload {
        LogPayload::TxnBegin { txn: TxnId(t) }
    }

    #[test]
    fn crc_detects_corrupt_body() {
        let mut wal = Wal::new(4096);
        let a = wal.append(&begin(1));
        // Flip a byte inside record a's body.
        wal.corrupt_byte_for_testing(a.0 as usize + 9);
        assert!(matches!(wal.read_at(a), Err(Error::LogCorrupt { .. })));
    }

    #[test]
    fn torn_tail_scan_keeps_valid_prefix() {
        let mut wal = Wal::new(4096);
        let lsns: Vec<Lsn> = (0..10).map(|t| wal.append(&begin(t))).collect();
        // Corrupt record 7's body: records 7, 8, 9 become unreachable (a
        // torn frame ends the scan).
        wal.corrupt_byte_for_testing(lsns[7].0 as usize + 9);
        let scan = wal.restart().unwrap();
        assert_eq!(scan.dropped, 3);
        assert_eq!(wal.record_count(), 7);
        assert_eq!(scan.window.len(), 7);
        assert_eq!(scan.window, wal.scan_from(Lsn::NULL).unwrap());
        assert_eq!(scan.window.last().unwrap().payload, begin(6));
        // The log is append-able again after the repair.
        let new = wal.append(&begin(99));
        assert_eq!(wal.read_at(new).unwrap().payload, begin(99));
    }

    #[test]
    fn torn_mid_frame_length_is_handled() {
        let mut wal = Wal::new(4096);
        wal.append(&begin(1));
        let b = wal.append(&begin(2));
        // Simulate a torn final sector: chop bytes off the last frame.
        let cut = b.0 as usize + 5;
        wal.buf.truncate(cut);
        // Until the restart repairs it, reading the torn frame is an
        // error, not a panic.
        assert!(matches!(wal.read_at(b), Err(Error::LogCorrupt { .. })));
        assert_eq!(wal.restart().unwrap().dropped, 1);
        assert_eq!(wal.record_count(), 1);
    }

    #[test]
    fn clean_log_survives_scan_unchanged() {
        let mut wal = Wal::new(4096);
        for t in 0..20 {
            wal.append(&begin(t));
        }
        let before = wal.scan_from(Lsn::NULL).unwrap();
        assert_eq!(wal.restart().unwrap().dropped, 0);
        assert_eq!(wal.scan_from(Lsn::NULL).unwrap(), before);
    }

    #[test]
    fn undecodable_frame_with_good_crc_fails_restart() {
        // Not a torn tail: the checksum vouches for bytes no version of
        // this code wrote. Dropping what follows would lose commits.
        let mut wal = Wal::new(4096);
        wal.append(&begin(1));
        let body = [0xEEu8, 1, 2, 3];
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        let bad = wal.append_frame(&frame);
        wal.append(&begin(2));
        assert!(matches!(wal.restart(), Err(Error::LogCorrupt { lsn, .. }) if lsn == bad));
        assert_eq!(wal.record_count(), 3, "a failed restart leaves the log as it was");
    }
}
