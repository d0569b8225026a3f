//! The buffer pool proper — safe for concurrent sessions.
//!
//! Layout: the page table is sharded (one mutex per shard of the
//! `PageId → frame` map), and every frame carries its own reader-writer
//! latch, so page reads from different sessions share and writes to
//! *different* pages never serialize on a pool-wide lock. The disk sits
//! behind its own mutex (device access is short and simulated); counters
//! are atomics. Lock order everywhere: clock → shard → frame latch →
//! device/WAL, with the reclamation limbo list as a leaf below the shard
//! locks (taken with either a shard lock or nothing held, and it acquires
//! nothing itself) — no path acquires a shard lock while holding a
//! *published* frame's latch or the log, and nothing blocks on a frame
//! latch while holding the clock (the evictor only ever `try_write`s).
//! (The miss paths in `cell` and `install_page` hold the write latch of a
//! not-yet-published placeholder across the shard lock; that latch is
//! unreachable by any other thread until the insert, so it cannot
//! participate in a cycle.)
//!
//! Eviction is a **clock / second-chance** sweep over a fixed ring of
//! resident-page slots: each frame carries a ref bit set on every hit, the
//! hand clears bits as it passes, and the first unreferenced, unpinned,
//! unlatched frame it reaches is the victim. A miss therefore costs
//! amortized O(1) slot examinations instead of the full resident-page
//! min-scan the LRU approximation used to do — the property that makes
//! larger-than-cache workloads viable (ROADMAP: bigger-than-memory).
//!
//! ## Version-counter (seqlock) discipline
//!
//! Every frame additionally carries a **version counter** for the
//! latch-free read path ([`BufferPool::try_read_optimistic`]):
//!
//! * the version is **odd while a writer that can change the image holds
//!   the write latch** — image-mutating acquisitions go through
//!   [`FrameWrite`], which bumps the counter to odd on acquire and back
//!   to even on release. The one image-preserving exception is the flush
//!   sweep (`flush_cell`): it write-latches but only reads the page
//!   bytes, so it skips the bump and optimistic readers validate across
//!   background checkpoint/lazywriter activity;
//! * **invalidation leaves it odd forever**: the evictor (and a failed
//!   load, and crash teardown) sets `Frame::evicted` under the write latch
//!   and the guard then skips the release bump, so an optimistic reader
//!   can never validate against an evicted frame. The evictor performs
//!   this bump *before* the shard-table removal becomes visible (it holds
//!   the shard lock across both), closing the window where a reader could
//!   look up a frame that is mid-eviction;
//! * optimistic readers never lock anything per frame: they load the
//!   version (reject odd), run a torn-tolerant closure over the raw image
//!   ([`lr_storage::RawPageView`]), and re-load the version — any change
//!   discards the result. Frame image buffers are therefore **overwritten
//!   in place** ([`lr_storage::Page::overwrite_from`]) and never
//!   reallocated for the life of the frame cell.
//!
//! The version counter participates in no lock order: it is only ever
//! touched while holding the frame's write latch (writers) or nothing at
//! all (optimistic readers).
//!
//! ## Epoch-based frame reclamation
//!
//! Invalidated cells are not leaked: the evictor **retires** each one onto
//! a limbo list stamped with the current global epoch
//! ([`BufferPool::retire_cell`]), and the next placeholder allocation
//! **recycles** a retired cell's page buffer once it is provably
//! unreachable ([`BufferPool::try_recycle_page`]). Optimistic operations
//! pin the global epoch for their duration ([`BufferPool::pin_epoch`]);
//! a retired cell is eligible for recycling only when its retire epoch is
//! below every pinned epoch *and* below the (since-advanced) global epoch.
//! Two independent guarantees make reuse safe:
//!
//! * **epoch gate** — a reader pinned before the cell left the shard table
//!   holds an epoch ≤ the retire epoch, so the cell stays in limbo until
//!   that reader unpins;
//! * **unique-ownership gate** — recycling takes `Arc::try_unwrap` on the
//!   cell, which fails while *any* clone of the cell's `Arc` exists (a
//!   latched reader in its evicted-retry loop, an unpinned optimistic
//!   reader mid-validation). Only the page allocation of a provably
//!   unreferenced cell is reused — and it is reborn as a **fresh cell
//!   identity**, so a stale reader can never validate old version state
//!   against new page bytes.

use crate::events::CacheEvent;
use lr_common::{Error, Histogram, Lsn, PageId, Result};
use lr_obs::{EventKind, TraceSink};
use lr_storage::{Disk, Page, PageType, RawPageView};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Supplies an eLSN at least as large as the requested LSN — the on-demand
/// EOSL path. The engine wires this to "TC: ensure the log is stable through
/// `lsn`, tell me the new end-of-stable-log". Called with a frame latch
/// held, so implementations must not re-enter the pool.
pub type EoslProvider = Box<dyn Fn(Lsn) -> Lsn + Send + Sync>;

/// Page-table shards. A power of two well above typical thread counts keeps
/// shard collisions rare without bloating the pool struct.
const SHARDS: usize = 64;

/// Why an optimistic read could not validate (see
/// [`BufferPool::try_read_optimistic`]). The distinction drives the
/// caller's retry policy: contention is transient, residency is not —
/// only the latched path performs fetches, so retrying a `NotResident`
/// failure optimistically is pure wasted work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptReadFail {
    /// The page is not cached; a latched read must fetch it.
    NotResident,
    /// The frame was write-latched/invalidated, or its version moved
    /// under the read — an immediate optimistic retry may succeed.
    Contended,
    /// A multi-hop caller (OLC descent, leaf-chain scan) ran out of its
    /// hop budget. Deterministic for the given operation shape (e.g. a
    /// scan wider than the budget), so retrying is wasted work.
    BudgetExhausted,
}

/// Outcome of ensuring a page is cached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchInfo {
    /// Simulated µs the caller stalled on the device (0 on a cache hit).
    pub stall_us: u64,
    /// True if a prefetch satisfied the read.
    pub prefetched: bool,
    /// True if the page was already cached.
    pub hit: bool,
    /// The page's type (valid whether hit or miss).
    pub page_type: PageType,
}

lr_common::counter_struct! {
    /// Aggregate pool counters for a measurement window. Defined through
    /// [`lr_common::counter_struct!`], which also generates
    /// `delta_since`/`merge_from` and the field enumeration the metrics
    /// registry exports.
    pub struct PoolStats {
        counters {
            pub hits: u64,
            pub misses: u64,
            pub evictions: u64,
            pub dirty_evictions: u64,
            pub flushes: u64,
            pub eosl_demands: u64,
            /// Misses broken out by what was fetched.
            pub data_page_misses: u64,
            pub index_page_misses: u64,
            /// Stall time broken out the same way (simulated µs).
            pub data_stall_us: u64,
            pub index_stall_us: u64,
            pub data_stall_events: u64,
            pub index_stall_events: u64,
            /// Clock-hand slot examinations across all evictions — divided by
            /// `evictions` this is the amortized per-miss sweep cost, which must
            /// stay O(1) regardless of pool size (the whole point of the clock).
            pub clock_examinations: u64,
            /// Optimistic page reads that validated (no latch was taken).
            pub optimistic_reads: u64,
            /// Optimistic reads rejected by the seqlock: the version was odd
            /// (write-latched or invalidated) or changed under the read.
            pub optimistic_validation_failures: u64,
            /// Optimistic reads that found the page not resident (the latched
            /// fallback performs the fetch).
            pub optimistic_misses: u64,
            /// Global-epoch advances (each one a proven quiescent point: every
            /// in-flight optimistic operation began at the current epoch).
            pub epochs_advanced: u64,
            /// Invalidated frame cells parked on the limbo list by the evictor /
            /// failed loads.
            pub frames_retired: u64,
            /// Retired cells whose page allocation was actually reused for a new
            /// frame (epoch horizon passed and no stale reference survived).
            pub frames_recycled: u64,
            /// Optimistic write attempts that restarted after a version conflict
            /// (recorded by the DC's restart loop via
            /// [`BufferPool::record_write_restart`]).
            pub write_restarts: u64,
            /// Leaf write-latch upgrades that failed validation (frame latched,
            /// evicted, or its version moved since the optimistic descent).
            pub leaf_upgrades_failed: u64,
            /// Epoch advances forced by the limbo high-water mark: the retired
            /// backlog crossed 3/4 of pool capacity, so the retirer pushed the
            /// horizon and pruned eagerly instead of waiting for the hard cap to
            /// drop reusable allocations on the floor.
            pub forced_epoch_advances: u64,
        }
        histograms {
            /// Distribution of per-fetch stall times (µs) for data pages — the
            /// §5.3 prefetching discussion is about reshaping this histogram.
            pub data_stall_hist: Histogram,
        }
    }
}

#[derive(Default)]
struct PoolCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    dirty_evictions: AtomicU64,
    flushes: AtomicU64,
    eosl_demands: AtomicU64,
    data_page_misses: AtomicU64,
    index_page_misses: AtomicU64,
    data_stall_us: AtomicU64,
    index_stall_us: AtomicU64,
    data_stall_events: AtomicU64,
    index_stall_events: AtomicU64,
    clock_examinations: AtomicU64,
    optimistic_reads: AtomicU64,
    optimistic_validation_failures: AtomicU64,
    optimistic_misses: AtomicU64,
    epochs_advanced: AtomicU64,
    frames_retired: AtomicU64,
    frames_recycled: AtomicU64,
    write_restarts: AtomicU64,
    leaf_upgrades_failed: AtomicU64,
    forced_epoch_advances: AtomicU64,
}

/// Frame state guarded by the per-frame latch.
struct Frame {
    page: Page,
    dirty: bool,
    /// Checkpoint generation in which the frame was first dirtied
    /// (penultimate-checkpoint scheme; see [`BufferPool::begin_checkpoint`]).
    dirty_gen: u64,
    /// LSN of the operation that first dirtied this frame (runtime rLSN).
    first_dirty_lsn: Lsn,
    /// Set when the evictor has removed this frame from the table; holders
    /// of a stale `Arc` must retry their lookup.
    evicted: bool,
}

struct FrameCell {
    latch: RwLock<Frame>,
    pins: AtomicU32,
    last_used: AtomicU64,
    /// Second-chance bit: set on every hit, cleared by the clock hand.
    /// Fresh loads start unreferenced, so a page must be *re*-used after
    /// insertion to earn its second chance.
    ref_bit: AtomicBool,
    /// Seqlock version: **odd** while the frame is write-latched or has
    /// been invalidated (evicted, failed load, crash teardown); even and
    /// stable otherwise. Mutated only under the write latch, via
    /// [`FrameWrite`]. Invalidation skips the release bump, leaving the
    /// counter odd forever.
    version: AtomicU64,
    /// Stable pointer to the frame's page image, captured at cell
    /// creation. Valid for the cell's lifetime: images are overwritten in
    /// place ([`Page::overwrite_from`]) and never reallocated. Optimistic
    /// readers scan through it under the seqlock protocol.
    buf: *const u8,
    buf_len: usize,
}

// SAFETY: `buf` points into the page image owned by `latch`'s Frame; the
// allocation lives exactly as long as the cell (in-place overwrite
// discipline), and every access through it is seqlock-validated.
unsafe impl Send for FrameCell {}
unsafe impl Sync for FrameCell {}

impl FrameCell {
    /// Acquire the frame's write latch under the seqlock protocol.
    fn lock_write(&self) -> FrameWrite<'_> {
        let guard = self.latch.write();
        self.mark_writing();
        FrameWrite { cell: self, guard }
    }

    /// Non-blocking [`FrameCell::lock_write`] (the evictor's only mode).
    fn try_lock_write(&self) -> Option<FrameWrite<'_>> {
        let guard = self.latch.try_write()?;
        self.mark_writing();
        Some(FrameWrite { cell: self, guard })
    }

    /// Seqlock write-begin; caller holds the write latch. An
    /// already-odd version belongs to an invalidated frame and stays
    /// as-is (the guard's release bump is skipped for those too).
    fn mark_writing(&self) {
        let v = self.version.load(Ordering::Relaxed);
        if v & 1 == 0 {
            self.version.store(v + 1, Ordering::Relaxed);
            // Write-begin fence: the odd version must become visible
            // before any image byte changes.
            fence(Ordering::Release);
        }
    }
}

/// Exclusive frame access under the seqlock protocol: construction bumps
/// the version to odd, drop bumps it back to even — **unless** the frame
/// is (or became) `evicted`, which leaves the version odd so optimistic
/// readers can never validate against an invalidated frame.
struct FrameWrite<'a> {
    cell: &'a FrameCell,
    guard: RwLockWriteGuard<'a, Frame>,
}

impl std::ops::Deref for FrameWrite<'_> {
    type Target = Frame;
    fn deref(&self) -> &Frame {
        &self.guard
    }
}

impl std::ops::DerefMut for FrameWrite<'_> {
    fn deref_mut(&mut self) -> &mut Frame {
        &mut self.guard
    }
}

impl Drop for FrameWrite<'_> {
    fn drop(&mut self) {
        // Invalidated frames keep an odd version forever; everything else
        // returns to even before the latch is released (still holding it
        // here, so no competing version writer exists).
        if !self.guard.evicted {
            let v = self.cell.version.load(Ordering::Relaxed);
            debug_assert_eq!(v & 1, 1, "seqlock release of an even version");
            self.cell.version.store(v + 1, Ordering::Release);
        }
    }
}

/// Back off before optimistic retry `attempt` (1-based) — the shared
/// policy for OLC read re-descents and write restarts. The first few
/// attempts just yield (the conflicting writer is likely one quantum from
/// releasing); persistent conflicts sleep exponentially longer, capped at
/// 640 µs, so a contended descent stops burning the scheduling quantum
/// of the very writer it is waiting on.
///
/// Tuned against the measured restart distributions
/// (`EngineStats::{read,write}_restart_hist`): observed restart depth
/// never exceeds 3 even at 8 threads over a 2k-key table, and the p50
/// write critical section is
/// ~4 µs — so the yield tier covers the entire observed depth and the
/// sleep tier, which only the pathological tail reaches, starts near the
/// critical-section scale (5 µs) instead of 2.5× above it.
pub fn olc_backoff(attempt: usize) {
    const YIELD_ATTEMPTS: usize = 4;
    if attempt <= YIELD_ATTEMPTS {
        std::thread::yield_now();
    } else {
        let exp = (attempt - YIELD_ATTEMPTS).min(7) as u32;
        std::thread::sleep(std::time::Duration::from_micros(5u64 << exp));
    }
}

/// Pin slots for epoch-based reclamation. Far above typical thread
/// counts; overflow degrades to an unpinned guard, which is still safe
/// (the `Arc::try_unwrap` gate in [`BufferPool::try_recycle_page`] never
/// frees a buffer any thread can reach).
const EPOCH_SLOTS: usize = 64;

/// Epoch-based reclamation state: the global epoch, one pin slot per
/// concurrent optimistic operation, and the limbo list of retired cells.
struct EpochState {
    /// Monotonic global epoch; starts at 1 (0 is the idle-slot sentinel).
    global: AtomicU64,
    /// 0 = idle; otherwise the epoch the slot's owner pinned on entry.
    pins: [AtomicU64; EPOCH_SLOTS],
    /// Retired cells, each stamped with the global epoch at retire time.
    /// Leaf lock: taken under a shard lock (retire) or with no pool lock
    /// held (recycle), and never acquires anything itself.
    limbo: Mutex<Vec<(u64, Arc<FrameCell>)>>,
}

impl EpochState {
    fn new() -> EpochState {
        EpochState {
            global: AtomicU64::new(1),
            pins: std::array::from_fn(|_| AtomicU64::new(0)),
            limbo: Mutex::new(Vec::new()),
        }
    }

    /// The oldest epoch any in-flight optimistic operation holds
    /// (`u64::MAX` when none is pinned).
    fn min_pinned(&self) -> u64 {
        self.pins
            .iter()
            .map(|p| p.load(Ordering::Acquire))
            .filter(|&e| e != 0)
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// RAII epoch pin (see [`BufferPool::pin_epoch`]): while alive, no frame
/// cell retired at or after the pinned epoch is recycled. Dropping it
/// releases the slot.
pub struct EpochGuard<'a> {
    epochs: &'a EpochState,
    slot: Option<usize>,
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            self.epochs.pins[slot].store(0, Ordering::Release);
        }
    }
}

type Shard = Mutex<HashMap<PageId, Arc<FrameCell>>>;

/// One ring slot: the resident page it currently tracks, or empty.
type ClockSlot = Option<(PageId, Arc<FrameCell>)>;

/// The eviction policy state: a fixed ring of resident-page slots (one per
/// frame of capacity), the sweep hand, and the free-slot stack. A frame's
/// slot index is assigned at reservation and returned on eviction, so the
/// ring never grows and the hand never chases a moving structure.
struct ClockState {
    slots: Box<[ClockSlot]>,
    free: Vec<usize>,
    hand: usize,
}

impl ClockState {
    fn new(capacity: usize) -> ClockState {
        ClockState {
            slots: (0..capacity).map(|_| None).collect::<Vec<_>>().into_boxed_slice(),
            // Popped from the back: slots hand out in ascending order from
            // a fresh pool, which keeps single-threaded tests deterministic.
            free: (0..capacity).rev().collect(),
            hand: 0,
        }
    }
}

/// Guard-based access to the pool's disk; derefs to `Box<dyn Disk>` so call
/// sites read exactly like direct access (`pool.disk().page_size()`).
pub struct DiskRef<'a> {
    guard: MutexGuard<'a, Box<dyn Disk>>,
}

impl std::ops::Deref for DiskRef<'_> {
    type Target = Box<dyn Disk>;
    fn deref(&self) -> &Box<dyn Disk> {
        &self.guard
    }
}

impl std::ops::DerefMut for DiskRef<'_> {
    fn deref_mut(&mut self) -> &mut Box<dyn Disk> {
        &mut self.guard
    }
}

/// A sharded, frame-latched page cache over a [`Disk`], with dirty/flush
/// bookkeeping. All methods take `&self`; the pool is `Sync`.
pub struct BufferPool {
    shards: Box<[Shard]>,
    disk: Mutex<Box<dyn Disk>>,
    page_size: usize,
    capacity: usize,
    len: AtomicUsize,
    dirty: AtomicUsize,
    tick: AtomicU64,
    clock: Mutex<ClockState>,
    ckpt_gen: AtomicU64,
    elsn: AtomicU64,
    eosl: EoslProvider,
    events: Mutex<Vec<CacheEvent>>,
    stats: PoolCounters,
    data_stall_hist: Mutex<Histogram>,
    epochs: EpochState,
    trace: std::sync::OnceLock<TraceSink>,
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`. `eosl` services on-demand
    /// write-ahead-log advances (see [`EoslProvider`]).
    pub fn new(disk: Box<dyn Disk>, capacity: usize, eosl: EoslProvider) -> BufferPool {
        assert!(capacity >= 4, "pool needs at least 4 frames (got {capacity})");
        let shards = (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect::<Vec<_>>();
        let page_size = disk.page_size();
        BufferPool {
            shards: shards.into_boxed_slice(),
            disk: Mutex::new(disk),
            page_size,
            capacity,
            len: AtomicUsize::new(0),
            dirty: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            clock: Mutex::new(ClockState::new(capacity)),
            ckpt_gen: AtomicU64::new(0),
            elsn: AtomicU64::new(Lsn::NULL.0),
            eosl,
            events: Mutex::new(Vec::new()),
            stats: PoolCounters::default(),
            data_stall_hist: Mutex::new(Histogram::default()),
            epochs: EpochState::new(),
            trace: std::sync::OnceLock::new(),
        }
    }

    /// Attach the trace journal (set once, at engine build). Page
    /// fetch/evict/flush/recycle, epoch advances and OLC restarts are
    /// journaled through it.
    pub fn set_trace(&self, sink: TraceSink) {
        let _ = self.trace.set(sink);
    }

    /// The attached journal, if tracing is on (the DC's recovery passes
    /// journal their spans through it too).
    #[inline]
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.get().filter(|s| s.is_enabled())
    }

    #[inline]
    fn shard(&self, pid: PageId) -> &Shard {
        &self.shards[lr_common::shard_index(pid.0, SHARDS)]
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cached page count.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of dirty frames right now (the paper's Figure 2(b) numerator
    /// at crash time).
    pub fn dirty_count(&self) -> usize {
        self.dirty.load(Ordering::Acquire)
    }

    /// Whether `pid` is currently cached.
    pub fn contains(&self, pid: PageId) -> bool {
        self.shard(pid).lock().contains_key(&pid)
    }

    /// Exclusive device access (allocation, recovery-time raw reads). Do
    /// not hold the returned guard across other pool calls.
    pub fn disk_mut(&self) -> DiskRef<'_> {
        DiskRef { guard: self.disk.lock() }
    }

    /// Device access for read-style use; same guard as [`Self::disk_mut`].
    pub fn disk(&self) -> DiskRef<'_> {
        DiskRef { guard: self.disk.lock() }
    }

    /// Latest eLSN delivered by EOSL (regular or on-demand).
    pub fn current_elsn(&self) -> Lsn {
        Lsn(self.elsn.load(Ordering::Acquire))
    }

    /// Regular EOSL delivery from the TC (monotonic).
    pub fn set_elsn(&self, elsn: Lsn) {
        self.elsn.fetch_max(elsn.0, Ordering::AcqRel);
    }

    /// Drain the pending cache events (dirty transitions, flushes).
    pub fn take_events(&self) -> Vec<CacheEvent> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Window counters.
    pub fn stats(&self) -> PoolStats {
        let s = &self.stats;
        PoolStats {
            data_stall_hist: self.data_stall_hist.lock().clone(),
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
            dirty_evictions: s.dirty_evictions.load(Ordering::Relaxed),
            flushes: s.flushes.load(Ordering::Relaxed),
            eosl_demands: s.eosl_demands.load(Ordering::Relaxed),
            data_page_misses: s.data_page_misses.load(Ordering::Relaxed),
            index_page_misses: s.index_page_misses.load(Ordering::Relaxed),
            data_stall_us: s.data_stall_us.load(Ordering::Relaxed),
            index_stall_us: s.index_stall_us.load(Ordering::Relaxed),
            data_stall_events: s.data_stall_events.load(Ordering::Relaxed),
            index_stall_events: s.index_stall_events.load(Ordering::Relaxed),
            clock_examinations: s.clock_examinations.load(Ordering::Relaxed),
            optimistic_reads: s.optimistic_reads.load(Ordering::Relaxed),
            optimistic_validation_failures: s
                .optimistic_validation_failures
                .load(Ordering::Relaxed),
            optimistic_misses: s.optimistic_misses.load(Ordering::Relaxed),
            epochs_advanced: s.epochs_advanced.load(Ordering::Relaxed),
            frames_retired: s.frames_retired.load(Ordering::Relaxed),
            frames_recycled: s.frames_recycled.load(Ordering::Relaxed),
            write_restarts: s.write_restarts.load(Ordering::Relaxed),
            leaf_upgrades_failed: s.leaf_upgrades_failed.load(Ordering::Relaxed),
            forced_epoch_advances: s.forced_epoch_advances.load(Ordering::Relaxed),
        }
    }

    pub fn reset_stats(&self) {
        let s = &self.stats;
        for c in [
            &s.hits,
            &s.misses,
            &s.evictions,
            &s.dirty_evictions,
            &s.flushes,
            &s.eosl_demands,
            &s.data_page_misses,
            &s.index_page_misses,
            &s.data_stall_us,
            &s.index_stall_us,
            &s.data_stall_events,
            &s.index_stall_events,
            &s.clock_examinations,
            &s.optimistic_reads,
            &s.optimistic_validation_failures,
            &s.optimistic_misses,
            &s.epochs_advanced,
            &s.frames_retired,
            &s.frames_recycled,
            &s.write_restarts,
            &s.leaf_upgrades_failed,
            &s.forced_epoch_advances,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        *self.data_stall_hist.lock() = Histogram::default();
        self.disk.lock().reset_stats();
    }

    // ------------------------------------------------------------------
    // epoch-based frame reclamation
    // ------------------------------------------------------------------

    /// Pin the global epoch for the duration of an optimistic operation
    /// (read or write descent). While the guard lives, no frame cell
    /// retired at or after the pinned epoch is recycled, so a raw page
    /// view obtained inside the operation stays backed by live memory.
    /// If every pin slot is busy the guard degrades to unpinned — still
    /// safe, because the per-lookup `Arc` clone each optimistic access
    /// holds makes `Arc::try_unwrap` in [`Self::try_recycle_page`] fail.
    pub fn pin_epoch(&self) -> EpochGuard<'_> {
        let e = self.epochs.global.load(Ordering::Acquire);
        for (i, slot) in self.epochs.pins.iter().enumerate() {
            if slot.compare_exchange(0, e, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
                return EpochGuard { epochs: &self.epochs, slot: Some(i) };
            }
        }
        EpochGuard { epochs: &self.epochs, slot: None }
    }

    /// Advance the global epoch if the pool is quiescent: every pin slot
    /// is idle or pinned at the current epoch, i.e. no in-flight
    /// optimistic operation predates it. Each successful advance is a
    /// proof point the recycler's horizon can move past.
    fn try_advance_epoch(&self, forced: bool) {
        let global = self.epochs.global.load(Ordering::Acquire);
        let quiescent = self.epochs.pins.iter().all(|p| {
            let v = p.load(Ordering::Acquire);
            v == 0 || v == global
        });
        if quiescent
            && self
                .epochs
                .global
                .compare_exchange(global, global + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.stats.epochs_advanced.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.trace() {
                t.emit(EventKind::EpochAdvance { epoch: global + 1, forced });
            }
        }
    }

    /// Park an invalidated cell on the limbo list, stamped with the
    /// current epoch. Called with the cell's shard lock held (the limbo
    /// mutex is a leaf below it). The list is capped at pool capacity:
    /// overflow drops the oldest entries outright — dropping an `Arc` is
    /// always safe (the allocation is freed when the last stale reference
    /// goes away); only *reuse* needs the epoch/ownership gates.
    ///
    /// Before the hard cap bites, a high-water mark at 3/4 capacity makes
    /// reclamation adaptive: crossing it *forces* an epoch-advance attempt
    /// and an eager prune of entries behind the horizon, so a retire-heavy
    /// burst (mass eviction, crash teardown) converts its backlog into
    /// reusable allocations instead of eventually dropping them on the
    /// floor at the cap.
    fn retire_cell(&self, cell: Arc<FrameCell>) {
        let epoch = self.epochs.global.load(Ordering::Acquire);
        let high_water = self.capacity - self.capacity / 4;
        let over_high_water;
        {
            let mut limbo = self.epochs.limbo.lock();
            if limbo.len() >= self.capacity {
                let excess = limbo.len() + 1 - self.capacity;
                limbo.drain(..excess);
            }
            limbo.push((epoch, cell));
            over_high_water = limbo.len() >= high_water;
        }
        self.stats.frames_retired.fetch_add(1, Ordering::Relaxed);
        self.try_advance_epoch(false);
        if over_high_water {
            self.stats.forced_epoch_advances.fetch_add(1, Ordering::Relaxed);
            // A second advance attempt: the first one may itself have been
            // the quiescent point the prune's horizon needs to move past.
            self.try_advance_epoch(true);
            self.prune_limbo();
        }
    }

    /// Drop every limbo entry strictly behind the reclamation horizon.
    /// Unlike [`Self::try_recycle_page`] this does not salvage the page
    /// allocation — it exists to shed backlog under pressure, and dropping
    /// the `Arc` is always safe.
    fn prune_limbo(&self) {
        let global = self.epochs.global.load(Ordering::Acquire);
        let horizon = self.epochs.min_pinned().min(global);
        self.epochs.limbo.lock().retain(|(epoch, _)| *epoch >= horizon);
    }

    /// Reclaim the page allocation of one retired cell, if any has passed
    /// the epoch horizon **and** has no surviving reference. The caller
    /// rebuilds it into a fresh cell ([`Self::new_placeholder`]); the
    /// retired cell's identity (version counter, latch) dies here, so no
    /// stale optimistic reader can ever validate against the reused
    /// buffer.
    fn try_recycle_page(&self) -> Option<Page> {
        self.try_advance_epoch(false);
        let mut limbo = self.epochs.limbo.lock();
        if limbo.is_empty() {
            return None;
        }
        let global = self.epochs.global.load(Ordering::Acquire);
        // Safe horizon: strictly older than every pinned epoch (no
        // in-flight optimistic operation can still look the cell up) and
        // than the global epoch (at least one quiescent advance happened
        // since the retire).
        let horizon = self.epochs.min_pinned().min(global);
        let mut recycled = None;
        let entries = std::mem::take(&mut *limbo);
        for (epoch, cell) in entries {
            if recycled.is_none() && epoch < horizon {
                match Arc::try_unwrap(cell) {
                    Ok(cell) => {
                        self.stats.frames_recycled.fetch_add(1, Ordering::Relaxed);
                        let page = cell.latch.into_inner().page;
                        if let Some(t) = self.trace() {
                            t.emit(EventKind::FrameRecycle { pid: page.pid().0 });
                        }
                        recycled = Some(page);
                    }
                    // A stale `Arc` holder survives (latched retry loop,
                    // optimistic reader mid-validation); keep waiting.
                    Err(cell) => limbo.push((epoch, cell)),
                }
            } else {
                limbo.push((epoch, cell));
            }
        }
        recycled
    }

    /// Count one optimistic-write restart (the DC's descent/upgrade loop
    /// hit a version conflict and is re-descending after backoff).
    pub fn record_write_restart(&self) {
        self.stats.write_restarts.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // fetch / pin
    // ------------------------------------------------------------------

    /// Hit-path recency: stamp the use tick (the lazywriter's cold-first
    /// ordering) and grant the frame its second chance.
    #[inline]
    fn touch(&self, cell: &FrameCell) {
        let t = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        cell.last_used.store(t, Ordering::Relaxed);
        cell.ref_bit.store(true, Ordering::Relaxed);
    }

    /// Claim one frame slot, running the clock hand until one is free.
    /// Returns the slot index; pair with [`Self::register_slot`] once the
    /// frame is published, or [`Self::release_slot`] on abandonment.
    ///
    /// The clock latch covers only free-stack pops and hand sweeps; the
    /// eviction itself — possibly a dirty flush, i.e. a device write plus
    /// an EOSL round-trip through the WAL — runs *outside* it, so
    /// concurrent misses evicting different victims never serialize on
    /// the policy lock. A successfully evicted victim's slot is handed
    /// straight to this caller (occupancy is unchanged: one page out, the
    /// caller's placeholder in).
    fn reserve_slot(&self) -> Result<usize> {
        // Bounded victim-slip retries, like the old min-scan's attempt
        // cap: each pass either returns, errors, or lost a race.
        for _ in 0..self.capacity.max(8) {
            let (slot, pid, cell) = {
                let mut clock = self.clock.lock();
                if let Some(i) = clock.free.pop() {
                    self.len.fetch_add(1, Ordering::AcqRel);
                    return Ok(i);
                }
                self.clock_candidate(&mut clock)?
            };
            if self.try_evict_entry(pid, &cell)? {
                let mut clock = self.clock.lock();
                debug_assert!(
                    matches!(&clock.slots[slot], Some((p, c)) if *p == pid && Arc::ptr_eq(c, &cell)),
                    "evicted entry vanished from its slot"
                );
                clock.slots[slot] = None;
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                return Ok(slot);
            }
            // Victim slipped (pinned, latched, re-published, or taken by a
            // peer evictor); sweep on from the advanced hand.
        }
        Err(Error::PoolExhausted { capacity: self.capacity })
    }

    /// Enter a claimed slot into the ring. Called *before* the frame is
    /// latched or published (the caller must hold no shard or frame lock:
    /// clock precedes both in the lock order) — until the shard insert
    /// happens, the hand sees the entry, fails its shard/ptr_eq
    /// validation, and skips it.
    fn register_slot(&self, slot: usize, pid: PageId, cell: &Arc<FrameCell>) {
        let mut clock = self.clock.lock();
        debug_assert!(clock.slots[slot].is_none(), "slot {slot} double-registered");
        clock.slots[slot] = Some((pid, cell.clone()));
    }

    /// Return a claimed slot (lost publication race, failed device read).
    fn release_slot(&self, slot: usize) {
        let mut clock = self.clock.lock();
        clock.slots[slot] = None;
        clock.free.push(slot);
        self.len.fetch_sub(1, Ordering::AcqRel);
    }

    /// A fresh, unpublished frame cell for `pid` (caller owns a slot from
    /// [`Self::reserve_slot`] and publishes the cell into the shard map).
    /// Reuses a reclaimed page allocation when one has cleared the epoch
    /// horizon; either way the cell identity (latch, version, pins) is
    /// brand new.
    fn new_placeholder(&self, pid: PageId) -> Arc<FrameCell> {
        let page = match self.try_recycle_page() {
            Some(mut page) => {
                page.reformat(pid, PageType::Free);
                page
            }
            None => Page::new(self.page_size, pid, PageType::Free),
        };
        // The image's heap allocation survives moves of the `Page` value
        // and is never reallocated afterwards (in-place overwrites only),
        // so this pointer stays valid for the cell's lifetime.
        let buf = page.as_bytes().as_ptr();
        let buf_len = page.size();
        Arc::new(FrameCell {
            latch: RwLock::new(Frame {
                page,
                dirty: false,
                dirty_gen: 0,
                first_dirty_lsn: Lsn::NULL,
                evicted: false,
            }),
            pins: AtomicU32::new(0),
            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed) + 1),
            // No second chance until the page is actually re-used.
            ref_bit: AtomicBool::new(false),
            // Even (readable) — but the loader write-latches the cell
            // before publishing it, so readers only ever see it odd until
            // the image is real.
            version: AtomicU64::new(0),
            buf,
            buf_len,
        })
    }

    /// Get the cached frame for `pid`, loading it from the device on a
    /// miss. The returned cell may have been concurrently evicted; callers
    /// that latch it must check `Frame::evicted` and retry.
    fn cell(&self, pid: PageId) -> Result<(Arc<FrameCell>, FetchInfo)> {
        // The shard lock is released before the frame latch is touched: a
        // flush holding the frame's write latch (device write + EOSL
        // round-trip) must not stall every hit on the same shard.
        let hit = self.shard(pid).lock().get(&pid).cloned();
        if let Some(cell) = hit {
            let ty = cell.latch.read().page.page_type();
            self.touch(&cell);
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((
                cell,
                FetchInfo { stall_us: 0, prefetched: false, hit: true, page_type: ty },
            ));
        }
        // ---- miss: claim a frame slot (the pool never exceeds its
        // configured capacity, even under concurrent misses) ----
        let slot = self.reserve_slot()?;
        // ---- publish a loading placeholder, then read outside the shard
        // lock. Holding the frame's *write latch* across the device read is
        // what makes the stale-image race impossible (a concurrent
        // load→write→flush→evict cycle cannot touch this frame), while
        // hits on other pages of the shard proceed immediately.
        let cell = self.new_placeholder(pid);
        // Ring entry first (no other lock held — clock precedes shard and
        // frame in the lock order); the hand skips it until the insert
        // below makes the shard lookup validate.
        self.register_slot(slot, pid, &cell);
        // Latching an unpublished cell cannot contend or deadlock; the
        // evictor only ever try_writes (it skips loading frames). The
        // seqlock guard keeps the version odd across the publication +
        // device read, so optimistic readers reject the half-loaded frame.
        let mut frame = cell.lock_write();
        {
            let mut shard = self.shard(pid).lock();
            if let Some(existing) = shard.get(&pid).cloned() {
                // A concurrent loader won the race; give the slot back.
                drop(shard);
                drop(frame);
                self.release_slot(slot);
                let ty = existing.latch.read().page.page_type();
                self.touch(&existing);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((
                    existing,
                    FetchInfo { stall_us: 0, prefetched: false, hit: true, page_type: ty },
                ));
            }
            shard.insert(pid, cell.clone());
        }
        let (page, outcome) = match self.disk.lock().read(pid) {
            Ok(v) => v,
            Err(e) => {
                // Unpublish the placeholder; waiters blocked on the latch
                // see `evicted` and retry (and fail their own reads). The
                // guard leaves the version odd: invalidated forever.
                frame.evicted = true;
                drop(frame);
                {
                    let mut map = self.shard(pid).lock();
                    map.remove(&pid);
                    // Same retire-under-shard-lock rule as the evictor.
                    self.retire_cell(cell.clone());
                }
                self.release_slot(slot);
                return Err(e);
            }
        };
        let ty = page.page_type();
        frame.page.overwrite_from(&page);
        drop(frame);

        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.trace() {
            t.emit(EventKind::PageFetch { pid: pid.0, stall_us: outcome.stall_us });
        }
        match ty {
            PageType::Internal | PageType::Meta => {
                self.stats.index_page_misses.fetch_add(1, Ordering::Relaxed);
                if outcome.stall_us > 0 {
                    self.stats.index_stall_events.fetch_add(1, Ordering::Relaxed);
                    self.stats.index_stall_us.fetch_add(outcome.stall_us, Ordering::Relaxed);
                }
            }
            _ => {
                self.stats.data_page_misses.fetch_add(1, Ordering::Relaxed);
                if outcome.stall_us > 0 {
                    self.stats.data_stall_events.fetch_add(1, Ordering::Relaxed);
                    self.stats.data_stall_us.fetch_add(outcome.stall_us, Ordering::Relaxed);
                }
                self.data_stall_hist.lock().record(outcome.stall_us);
            }
        }
        Ok((
            cell,
            FetchInfo {
                stall_us: outcome.stall_us,
                prefetched: outcome.prefetched,
                hit: false,
                page_type: ty,
            },
        ))
    }

    /// Ensure `pid` is cached, evicting if necessary. Returns how the fetch
    /// was satisfied.
    pub fn fetch(&self, pid: PageId) -> Result<FetchInfo> {
        Ok(self.cell(pid)?.1)
    }

    /// Pin `pid` (fetching if absent): pinned frames are never evicted.
    pub fn pin(&self, pid: PageId) -> Result<FetchInfo> {
        loop {
            let (cell, info) = self.cell(pid)?;
            // Pins are taken under the frame latch: the evictor holds the
            // write latch while it checks the pin count, so a pin taken
            // here can never race past it.
            let guard = cell.latch.read();
            if guard.evicted {
                continue;
            }
            cell.pins.fetch_add(1, Ordering::AcqRel);
            return Ok(info);
        }
    }

    /// Release one pin.
    pub fn unpin(&self, pid: PageId) {
        if let Some(cell) = self.shard(pid).lock().get(&pid) {
            let prev = cell.pins.fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev > 0, "unpin of unpinned page {pid}");
            if prev == 0 {
                cell.pins.fetch_add(1, Ordering::AcqRel); // repair underflow
            }
        }
    }

    /// Read access to a cached-or-fetched page (shared frame latch).
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        Ok(self.with_page_info(pid, f)?.0)
    }

    /// [`BufferPool::with_page`] that also reports how the page access was
    /// satisfied — one table lookup, so callers keeping their own stall
    /// accounting (the parallel recovery dispatcher) need no extra
    /// `fetch` round-trip.
    pub fn with_page_info<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<(R, FetchInfo)> {
        // Stall time accumulates across evicted-retry iterations: a miss
        // whose freshly loaded frame is evicted before we latch it was
        // still charged to the device, and dropping it would understate
        // the caller's accounting.
        let mut prior_stall_us = 0;
        loop {
            let (cell, mut info) = self.cell(pid)?;
            let guard = cell.latch.read();
            if guard.evicted {
                prior_stall_us += info.stall_us;
                continue;
            }
            info.stall_us += prior_stall_us;
            return Ok((f(&guard.page), info));
        }
    }

    /// Latch-free optimistic read: run `f` over a torn-tolerant raw view
    /// of `pid`'s cached image and validate the frame's seqlock version
    /// afterwards. On failure the caller must fall back to the latched
    /// path ([`BufferPool::with_page`]); the error says whether retrying
    /// optimistically can ever help — [`OptReadFail::NotResident`] means
    /// the page needs a fetch (only the latched path loads pages), while
    /// [`OptReadFail::Contended`] means a writer/evictor raced this read
    /// and an immediate retry may validate.
    ///
    /// `f` may observe bytes mid-update: it must go through the
    /// [`RawPageView`] accessors (bounds-clamped, panic-free) and its
    /// result is returned only when validation proves the view was stable.
    /// No frame latch, no pin and no table-wide lock is taken — the only
    /// shared write this path performs is the recency touch on success.
    pub fn try_read_optimistic<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&RawPageView) -> R,
    ) -> std::result::Result<R, OptReadFail> {
        self.try_read_optimistic_versioned(pid, f).map(|(r, _)| r)
    }

    /// [`BufferPool::try_read_optimistic`] that also returns the frame
    /// version the result validated against. The OLC write descent hands
    /// that version to [`BufferPool::try_write_upgrade`]: version still
    /// unchanged under the leaf's write latch proves the image is exactly
    /// the one the descent saw.
    pub fn try_read_optimistic_versioned<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&RawPageView) -> R,
    ) -> std::result::Result<(R, u64), OptReadFail> {
        let Some(cell) = self.shard(pid).lock().get(&pid).cloned() else {
            self.stats.optimistic_misses.fetch_add(1, Ordering::Relaxed);
            return Err(OptReadFail::NotResident);
        };
        let v1 = cell.version.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            self.stats.optimistic_validation_failures.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.trace() {
                t.emit(EventKind::OlcRestart { pid: pid.0, write: false });
            }
            return Err(OptReadFail::Contended);
        }
        // SAFETY: `buf` stays allocated for the cell's lifetime (we hold
        // an Arc) and the view's accessors tolerate concurrent mutation.
        let view = unsafe { RawPageView::new(cell.buf, cell.buf_len) };
        let r = f(&view);
        // Read-end fence: all of `f`'s loads complete before the version
        // re-check below can observe "unchanged".
        fence(Ordering::Acquire);
        if cell.version.load(Ordering::Relaxed) != v1 {
            self.stats.optimistic_validation_failures.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.trace() {
                t.emit(EventKind::OlcRestart { pid: pid.0, write: false });
            }
            return Err(OptReadFail::Contended);
        }
        // Recency: grant the second chance (what the clock evictor
        // actually consults) but skip the full `touch` — its pool-global
        // tick counter would put one contended cache line back on a path
        // whose whole point is to share nothing. The load-then-store keeps
        // the frame's own line in shared state when the bit is already
        // set, which on hot pages is almost always.
        if !cell.ref_bit.load(Ordering::Relaxed) {
            cell.ref_bit.store(true, Ordering::Relaxed);
        }
        self.stats.optimistic_reads.fetch_add(1, Ordering::Relaxed);
        Ok((r, v1))
    }

    /// Upgrade-in-place for the OLC write path: take the frame's write
    /// latch **without blocking**, validate that the frame is live and its
    /// version still equals `expected_version` (the value an optimistic
    /// descent validated), then run `f` over the page image. Like
    /// `flush_cell` this is an image-*preserving* acquisition — `f` only
    /// reads, so the seqlock is not bumped and concurrent optimistic
    /// readers keep validating across it.
    ///
    /// A successful return proves the image is byte-identical to what the
    /// descent saw; the caller still holds its own higher-level latches
    /// (table, page-op) that keep the leaf's state authoritative until the
    /// operation applies. Failure means a writer or the evictor raced the
    /// descent ([`OptReadFail::Contended`] — restart) or the frame is gone
    /// ([`OptReadFail::NotResident`] — only the latched path fetches).
    pub fn try_write_upgrade<R>(
        &self,
        pid: PageId,
        expected_version: u64,
        f: impl FnOnce(&Page) -> R,
    ) -> std::result::Result<R, OptReadFail> {
        let fail = |kind: OptReadFail| {
            self.stats.leaf_upgrades_failed.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.trace() {
                t.emit(EventKind::OlcRestart { pid: pid.0, write: true });
            }
            Err(kind)
        };
        let Some(cell) = self.shard(pid).lock().get(&pid).cloned() else {
            return fail(OptReadFail::NotResident);
        };
        let Some(frame) = cell.latch.try_write() else {
            return fail(OptReadFail::Contended);
        };
        if frame.evicted || cell.version.load(Ordering::Acquire) != expected_version {
            return fail(OptReadFail::Contended);
        }
        Ok(f(&frame.page))
    }

    /// Mutate a page under operation LSN `lsn` (exclusive frame latch):
    /// fetches, emits a [`CacheEvent::Dirtied`] on the clean→dirty
    /// transition, applies `f`, then advances the pLSN (if `lsn` is
    /// non-null — SMO installs stamp their own). The pLSN advance is
    /// monotonic: concurrent same-page operations may reach the latch out
    /// of LSN order, and a pLSN regression would break the redo test.
    pub fn with_page_mut<R>(
        &self,
        pid: PageId,
        lsn: Lsn,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R> {
        loop {
            let (cell, _) = self.cell(pid)?;
            let mut guard = cell.lock_write();
            if guard.evicted {
                continue;
            }
            self.mark_dirty_locked(&mut guard, pid, lsn);
            let r = f(&mut guard.page);
            if !lsn.is_null() && lsn > guard.page.plsn() {
                guard.page.set_plsn(lsn);
            }
            return Ok(r);
        }
    }

    /// Replace a page's entire image (SMO application) under `lsn`.
    ///
    /// On a miss this does **not** read the device: the caller's image
    /// replaces whatever the disk holds wholesale, so a frame is reserved
    /// and the image published directly — no modeled device read, no
    /// miss/stall accounting. SMO installs of freshly allocated pages and
    /// recovery-time installs would otherwise pay a spurious IO each.
    pub fn install_page(&self, pid: PageId, mut page: Page, lsn: Lsn) -> Result<()> {
        if !lsn.is_null() {
            page.set_plsn(lsn);
        }
        loop {
            // Cached: overwrite in place under the frame's write latch.
            let hit = self.shard(pid).lock().get(&pid).cloned();
            if let Some(cell) = hit {
                let mut guard = cell.lock_write();
                if guard.evicted {
                    continue;
                }
                self.touch(&cell);
                self.mark_dirty_locked(&mut guard, pid, lsn);
                guard.page.overwrite_from(&page);
                return Ok(());
            }
            // Miss: claim a slot and publish the provided image directly.
            let slot = self.reserve_slot()?;
            let cell = self.new_placeholder(pid);
            self.register_slot(slot, pid, &cell);
            let mut frame = cell.lock_write();
            {
                let mut shard = self.shard(pid).lock();
                if shard.contains_key(&pid) {
                    // A concurrent loader published first; give the slot
                    // back and overwrite its frame via the hit path.
                    drop(shard);
                    drop(frame);
                    self.release_slot(slot);
                    continue;
                }
                shard.insert(pid, cell.clone());
            }
            self.mark_dirty_locked(&mut frame, pid, lsn);
            frame.page.overwrite_from(&page);
            return Ok(());
        }
    }

    /// Clean→dirty bookkeeping; caller holds the frame's write latch.
    fn mark_dirty_locked(&self, frame: &mut Frame, pid: PageId, lsn: Lsn) {
        if !frame.dirty {
            frame.dirty = true;
            frame.dirty_gen = self.ckpt_gen.load(Ordering::Acquire);
            frame.first_dirty_lsn = lsn;
            self.dirty.fetch_add(1, Ordering::AcqRel);
            self.events.lock().push(CacheEvent::Dirtied { pid, lsn });
        }
    }

    // ------------------------------------------------------------------
    // eviction / flushing
    // ------------------------------------------------------------------

    /// Advance the clock hand to the next eviction candidate. Second-chance
    /// policy per slot: a set ref bit is cleared and the frame spared;
    /// pinned or empty slots are skipped; the first fully cold frame is the
    /// candidate (eviction itself happens outside the clock latch and
    /// re-validates under the shard lock).
    ///
    /// Each slot is examined at most twice per call (once to clear its
    /// bit, once to take it), so the sweep terminates in ≤ 2·capacity
    /// steps with no rescans; a sweep that finds nothing means every frame
    /// is pinned or mid-load.
    fn clock_candidate(&self, clock: &mut ClockState) -> Result<(usize, PageId, Arc<FrameCell>)> {
        let cap = clock.slots.len();
        for _ in 0..2 * cap {
            let i = clock.hand;
            clock.hand = (clock.hand + 1) % cap;
            self.stats.clock_examinations.fetch_add(1, Ordering::Relaxed);
            let Some((pid, cell)) = clock.slots[i].clone() else { continue };
            if cell.ref_bit.swap(false, Ordering::AcqRel) {
                continue; // second chance
            }
            if cell.pins.load(Ordering::Acquire) != 0 {
                continue;
            }
            return Ok((i, pid, cell));
        }
        Err(Error::PoolExhausted { capacity: self.capacity })
    }

    /// Evict `cell` if it is still the published frame for `pid`, unpinned
    /// and unlatched. `Ok(true)` on eviction (caller owns the ring slot).
    fn try_evict_entry(&self, pid: PageId, cell: &Arc<FrameCell>) -> Result<bool> {
        let shard = self.shard(pid);
        let mut map = shard.lock();
        match map.get(&pid) {
            // Ring entries are registered before publication and may
            // briefly outlive a failed-load unpublish; in both windows the
            // shard lookup refutes the entry and the hand skips it — the
            // loader releases the slot itself.
            Some(cur) if Arc::ptr_eq(cur, cell) => {}
            _ => return Ok(false),
        }
        if cell.pins.load(Ordering::Acquire) != 0 {
            return Ok(false);
        }
        let Some(mut frame) = cell.try_lock_write() else { return Ok(false) };
        if frame.evicted || cell.pins.load(Ordering::Acquire) != 0 {
            return Ok(false);
        }
        let was_dirty = frame.dirty;
        if frame.dirty {
            self.flush_frame_locked(&mut frame, pid)?;
            self.stats.dirty_evictions.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t) = self.trace() {
            t.emit(EventKind::PageEvict { pid: pid.0, dirty: was_dirty });
        }
        // Invalidate *before* the shard-table removal below is visible:
        // the guard acquired the frame with an odd version and — because
        // `evicted` is now set — leaves it odd forever, and the shard lock
        // is held across both steps. An optimistic reader that looked the
        // cell up just before the removal therefore always fails its
        // version validation; it can never validate against a frame whose
        // slot the next loader is about to recycle.
        frame.evicted = true;
        drop(frame);
        map.remove(&pid);
        // Retire under the same shard lock: the removal and the limbo
        // entry become visible together, so an epoch pinned *after* this
        // point can no longer find the cell — exactly what lets the
        // recycler treat `retire epoch < min pinned epoch` as proof of
        // unreachability.
        self.retire_cell(cell.clone());
        Ok(true)
    }

    /// Write one dirty frame to stable storage, enforcing the WAL rule.
    /// Caller holds the frame's write latch.
    fn flush_frame_locked(&self, frame: &mut Frame, pid: PageId) -> Result<()> {
        let plsn = frame.page.plsn();
        if plsn > self.current_elsn() {
            // WAL rule would be violated: demand an EOSL advance.
            let new_elsn = (self.eosl)(plsn);
            self.stats.eosl_demands.fetch_add(1, Ordering::Relaxed);
            self.events.lock().push(CacheEvent::EoslDemanded { pid, plsn });
            self.elsn.fetch_max(new_elsn.0, Ordering::AcqRel);
            if plsn > self.current_elsn() {
                return Err(Error::WalViolation { pid, plsn, elsn: self.current_elsn() });
            }
        }
        self.disk.lock().write(pid, &frame.page)?;
        frame.dirty = false;
        frame.first_dirty_lsn = Lsn::NULL;
        self.dirty.fetch_sub(1, Ordering::AcqRel);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.trace() {
            t.emit(EventKind::PageFlush { pid: pid.0 });
        }
        let elsn = self.current_elsn();
        self.events.lock().push(CacheEvent::Flushed { pid, plsn, elsn });
        Ok(())
    }

    /// Flush one dirty page to stable storage, enforcing the WAL rule.
    /// Emits [`CacheEvent::Flushed`]; the frame becomes clean but stays
    /// cached. Flushing a page that is not cached at all is an invariant
    /// violation — use this for pages the caller *knows* are resident.
    pub fn flush_page(&self, pid: PageId) -> Result<()> {
        let cell = self
            .shard(pid)
            .lock()
            .get(&pid)
            .cloned()
            .ok_or_else(|| Error::RecoveryInvariant(format!("flush of uncached page {pid}")))?;
        self.flush_cell(&cell, pid)
    }

    /// Sweep-tolerant flush: the checkpoint/cleaner sweeps snapshot dirty
    /// PIDs first and flush second, so a concurrent cache-miss eviction may
    /// remove a victim in between. An evicted dirty page was flushed on the
    /// way out — a missing entry is success, not an error.
    fn flush_if_cached(&self, pid: PageId) -> Result<()> {
        let Some(cell) = self.shard(pid).lock().get(&pid).cloned() else {
            return Ok(());
        };
        self.flush_cell(&cell, pid)
    }

    fn flush_cell(&self, cell: &FrameCell, pid: PageId) -> Result<()> {
        // Image-preserving write latch, deliberately NOT the seqlock
        // guard: flushing reads the page bytes and mutates only frame
        // metadata (dirty bookkeeping), so optimistic readers may keep
        // validating across it. Bumping here would make every
        // checkpoint/lazywriter sweep spuriously invalidate concurrent
        // reads of exactly the hot pages the latch-free path serves.
        let mut frame = cell.latch.write();
        if frame.evicted {
            // Evicted concurrently — it was flushed (if dirty) on the way out.
            return Ok(());
        }
        if !frame.dirty {
            return Ok(());
        }
        self.flush_frame_locked(&mut frame, pid)
    }

    /// Begin a checkpoint: flip the generation "bit". Pages dirtied from now
    /// on belong to the new generation and will *not* be flushed by
    /// [`BufferPool::checkpoint_flush`] — exactly SQL Server's scheme
    /// (§3.2).
    pub fn begin_checkpoint(&self) -> u64 {
        self.ckpt_gen.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Snapshot dirty PIDs matching `pred`, sorted for deterministic order.
    fn dirty_matching(&self, pred: impl Fn(&Frame) -> bool) -> Vec<PageId> {
        let mut v = Vec::new();
        for shard in self.shards.iter() {
            for (pid, cell) in shard.lock().iter() {
                let frame = cell.latch.read();
                if frame.dirty && !frame.evicted && pred(&frame) {
                    v.push(*pid);
                }
            }
        }
        v.sort_unstable();
        v
    }

    /// Flush every page dirtied in a generation **before** the current one.
    /// Returns the number of pages flushed.
    pub fn checkpoint_flush(&self) -> Result<usize> {
        let gen = self.ckpt_gen.load(Ordering::Acquire);
        let victims = self.dirty_matching(|f| f.dirty_gen < gen);
        for pid in &victims {
            self.flush_if_cached(*pid)?;
        }
        Ok(victims.len())
    }

    /// Flush up to `max` of the coldest (least-recently-used) dirty,
    /// unpinned pages without evicting them — the background-writer
    /// ("lazywriter") behaviour of the modelled engine: it keeps the dirty
    /// fraction of the cache bounded during normal execution, which is what
    /// keeps the DPT small (§5.3 / Figure 2(b)). Returns pages flushed.
    pub fn clean_coldest(&self, max: usize) -> Result<usize> {
        if max == 0 {
            return Ok(0);
        }
        let mut victims: Vec<(u64, PageId)> = Vec::new();
        for shard in self.shards.iter() {
            for (pid, cell) in shard.lock().iter() {
                if cell.pins.load(Ordering::Acquire) != 0 {
                    continue;
                }
                let frame = cell.latch.read();
                if frame.dirty && !frame.evicted {
                    victims.push((cell.last_used.load(Ordering::Relaxed), *pid));
                }
            }
        }
        victims.sort_unstable();
        victims.truncate(max);
        for (_, pid) in &victims {
            self.flush_if_cached(*pid)?;
        }
        Ok(victims.len())
    }

    /// Flush everything dirty (clean shutdown; not used by crash paths).
    pub fn flush_all(&self) -> Result<usize> {
        let victims = self.dirty_matching(|_| true);
        for pid in &victims {
            self.flush_if_cached(*pid)?;
        }
        Ok(victims.len())
    }

    /// The runtime dirty-page table: `(pid, first-dirty LSN)` for every
    /// dirty frame. This is what ARIES checkpointing snapshots into its
    /// checkpoint record (§3.1 ablation).
    pub fn runtime_dpt(&self) -> Vec<(PageId, Lsn)> {
        let mut v = Vec::new();
        for shard in self.shards.iter() {
            for (pid, cell) in shard.lock().iter() {
                let frame = cell.latch.read();
                if frame.dirty && !frame.evicted {
                    v.push((*pid, frame.first_dirty_lsn));
                }
            }
        }
        v.sort_unstable_by_key(|(pid, _)| *pid);
        v
    }

    /// PIDs of all dirty frames (ground truth for DPT-safety tests).
    pub fn dirty_pids(&self) -> Vec<PageId> {
        self.dirty_matching(|_| true)
    }

    /// Issue read-ahead for pages neither cached nor already in flight.
    ///
    /// Issue order follows request order — prefetch lists are built in the
    /// order redo will need the pages (log order / PF-list order), and
    /// reordering would make arrivals race ahead of or behind the scan.
    /// Runs that are *already* contiguous in the request are coalesced into
    /// block reads. Returns (device ops, pages requested).
    pub fn prefetch(&self, pids: &[PageId]) -> (usize, usize) {
        // Cache-residency screening happens before the device lock: the
        // evictor acquires shard → device, so touching shards while holding
        // the device here would invert the order (deadlock).
        let mut wanted: Vec<PageId> = Vec::with_capacity(pids.len());
        let mut seen = std::collections::HashSet::with_capacity(pids.len());
        for pid in pids {
            if !self.contains(*pid) && seen.insert(*pid) {
                wanted.push(*pid);
            }
        }
        let mut disk = self.disk.lock();
        wanted.retain(|pid| !disk.is_inflight(*pid));
        if wanted.is_empty() {
            return (0, 0);
        }
        let mut ios = 0;
        let pages = wanted.len();
        // Split into contiguous runs (in request order) for block coalescing.
        let mut run_start = 0;
        for i in 1..=wanted.len() {
            let run_ends = i == wanted.len() || wanted[i].0 != wanted[i - 1].0 + 1;
            if run_ends {
                ios += disk.prefetch(&wanted[run_start..i]);
                run_start = i;
            }
        }
        (ios, pages)
    }

    /// Crash: drop every frame and all pending events; power-cycle the
    /// device model. Stable storage (the disk) is untouched.
    pub fn crash(&self) {
        for shard in self.shards.iter() {
            for (_, cell) in shard.lock().drain() {
                // Invalidate under the seqlock guard: the version stays
                // odd, so optimistic readers racing the teardown can never
                // validate a torn-down frame.
                cell.lock_write().evicted = true;
            }
        }
        *self.clock.lock() = ClockState::new(self.capacity);
        // Dropping limbo entries (not recycling them) is always safe; any
        // straggling optimistic reader still holds its own `Arc` and fails
        // version validation against the odd counter.
        self.epochs.limbo.lock().clear();
        self.len.store(0, Ordering::Release);
        self.dirty.store(0, Ordering::Release);
        self.events.lock().clear();
        self.disk.lock().reset_device();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::{IoModel, SimClock};
    use lr_storage::SimDisk;

    fn pool(capacity: usize, pages: u64) -> BufferPool {
        let disk = SimDisk::new(256, pages, SimClock::new(), IoModel::zero());
        BufferPool::new(Box::new(disk), capacity, Box::new(|lsn| lsn))
    }

    fn write_leaf(pool: &BufferPool, pid: PageId) {
        // Format the page as a leaf so page-type stats see data pages.
        pool.with_page_mut(pid, Lsn::NULL, |p| {
            p.set_page_type(PageType::Leaf);
            p.set_pid(pid);
        })
        .unwrap();
    }

    #[test]
    fn hit_and_miss_accounting() {
        let p = pool(4, 8);
        p.fetch(PageId(0)).unwrap();
        let info = p.fetch(PageId(0)).unwrap();
        assert!(info.hit);
        let s = p.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn second_chance_spares_reused_pages() {
        let p = pool(4, 16);
        for i in 0..4 {
            p.fetch(PageId(i)).unwrap();
        }
        p.fetch(PageId(0)).unwrap(); // re-use 0: its ref bit is set
        p.fetch(PageId(10)).unwrap(); // hand clears 0's bit, evicts cold 1
        assert!(p.contains(PageId(0)));
        assert!(!p.contains(PageId(1)));
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn victim_slip_terminates_without_rescans() {
        // The coldest frames are pinned (the old min-scan's worst case:
        // every scan re-found a pinned victim and rescanned). The clock
        // must keep terminating, evicting only ever the unpinned frame,
        // with a per-eviction examination cost bounded by the ring size —
        // not attempts × frames².
        let p = pool(8, 4096);
        for i in 0..8 {
            p.fetch(PageId(i)).unwrap();
        }
        for i in 0..7 {
            p.pin(PageId(i)).unwrap();
        }
        let evictions = 200u64;
        for n in 0..evictions {
            p.fetch(PageId(100 + n)).unwrap();
            for i in 0..7 {
                assert!(p.contains(PageId(i)), "pinned frame {i} must survive");
            }
        }
        let s = p.stats();
        assert_eq!(s.evictions, evictions);
        // Each eviction sweeps past the 7 pinned slots at most twice.
        assert!(
            s.clock_examinations <= evictions * 2 * 8 + 2 * 8,
            "sweep cost blew up: {} examinations for {} evictions",
            s.clock_examinations,
            s.evictions
        );
    }

    #[test]
    fn eviction_cost_is_independent_of_pool_size() {
        // A sequential larger-than-cache scan: every miss evicts. The
        // amortized slot examinations per eviction must stay O(1) whether
        // the pool holds 64 or 1024 frames (the old LRU min-scan walked
        // every resident frame per miss, so its cost scaled with capacity).
        let per_eviction = |capacity: u64| {
            let p = pool(capacity as usize, 8192);
            for i in 0..capacity + 2_000 {
                p.fetch(PageId(i)).unwrap();
            }
            let s = p.stats();
            assert_eq!(s.evictions, 2_000);
            s.clock_examinations as f64 / s.evictions as f64
        };
        let small = per_eviction(64);
        let large = per_eviction(1024);
        assert!(small < 4.0, "small pool sweeps {small:.2} slots/eviction");
        assert!(large < 4.0, "large pool sweeps {large:.2} slots/eviction");
    }

    #[test]
    fn pinned_frames_survive_eviction() {
        let p = pool(4, 16);
        p.pin(PageId(0)).unwrap();
        for i in 1..8 {
            p.fetch(PageId(i)).unwrap();
        }
        assert!(p.contains(PageId(0)), "pinned page never evicted");
        p.unpin(PageId(0));
        for i in 8..12 {
            p.fetch(PageId(i)).unwrap();
        }
        assert!(!p.contains(PageId(0)), "unpinned page evictable again");
    }

    #[test]
    fn all_pinned_pool_errors() {
        let p = pool(4, 16);
        for i in 0..4 {
            p.pin(PageId(i)).unwrap();
        }
        assert!(matches!(p.fetch(PageId(5)), Err(Error::PoolExhausted { .. })));
    }

    #[test]
    fn dirty_transition_emits_event_once() {
        let p = pool(4, 8);
        write_leaf(&p, PageId(2));
        p.take_events();
        p.with_page_mut(PageId(2), Lsn(100), |pg| pg.insert_record(0, b"x").unwrap()).unwrap();
        p.with_page_mut(PageId(2), Lsn(101), |pg| pg.update_record(0, b"y").unwrap()).unwrap();
        let dirtied: Vec<_> = p
            .take_events()
            .into_iter()
            .filter(|e| matches!(e, CacheEvent::Dirtied { .. }))
            .collect();
        // write_leaf already dirtied it once with NULL lsn... we took those
        // events; page is still dirty, so the next mutations add nothing.
        assert!(dirtied.is_empty(), "no second Dirtied while already dirty: {dirtied:?}");
        // After a flush, the next write is a fresh transition.
        p.set_elsn(Lsn(1000));
        p.flush_page(PageId(2)).unwrap();
        p.take_events();
        p.with_page_mut(PageId(2), Lsn(102), |pg| pg.update_record(0, b"z").unwrap()).unwrap();
        let ev = p.take_events();
        assert_eq!(ev, vec![CacheEvent::Dirtied { pid: PageId(2), lsn: Lsn(102) }]);
    }

    #[test]
    fn flush_respects_wal_rule_via_eosl() {
        let disk = SimDisk::new(256, 8, SimClock::new(), IoModel::zero());
        // Provider grants stability exactly as requested.
        let p = BufferPool::new(Box::new(disk), 4, Box::new(|lsn| lsn));
        write_leaf(&p, PageId(1));
        p.with_page_mut(PageId(1), Lsn(500), |pg| pg.insert_record(0, b"w").unwrap()).unwrap();
        assert_eq!(p.current_elsn(), Lsn::NULL);
        p.flush_page(PageId(1)).unwrap();
        assert_eq!(p.stats().eosl_demands, 1);
        assert_eq!(p.current_elsn(), Lsn(500));
        let ev = p.take_events();
        assert!(ev.contains(&CacheEvent::EoslDemanded { pid: PageId(1), plsn: Lsn(500) }));
        assert!(ev.contains(&CacheEvent::Flushed {
            pid: PageId(1),
            plsn: Lsn(500),
            elsn: Lsn(500)
        }));
    }

    #[test]
    fn flush_fails_if_eosl_cannot_advance() {
        let disk = SimDisk::new(256, 8, SimClock::new(), IoModel::zero());
        let p = BufferPool::new(Box::new(disk), 4, Box::new(|_| Lsn::NULL));
        write_leaf(&p, PageId(1));
        p.with_page_mut(PageId(1), Lsn(500), |pg| pg.insert_record(0, b"w").unwrap()).unwrap();
        assert!(matches!(p.flush_page(PageId(1)), Err(Error::WalViolation { .. })));
    }

    #[test]
    fn penultimate_checkpoint_scheme() {
        let p = pool(8, 16);
        p.set_elsn(Lsn::MAX);
        write_leaf(&p, PageId(1));
        write_leaf(&p, PageId(2));
        p.with_page_mut(PageId(1), Lsn(10), |pg| pg.insert_record(0, b"a").unwrap()).unwrap();
        p.with_page_mut(PageId(2), Lsn(11), |pg| pg.insert_record(0, b"b").unwrap()).unwrap();
        p.begin_checkpoint();
        // Page 3 dirtied DURING the checkpoint: must not be flushed by it.
        write_leaf(&p, PageId(3));
        p.with_page_mut(PageId(3), Lsn(12), |pg| pg.insert_record(0, b"c").unwrap()).unwrap();
        let flushed = p.checkpoint_flush().unwrap();
        assert_eq!(flushed, 2);
        assert_eq!(p.dirty_pids(), vec![PageId(3)]);
    }

    #[test]
    fn runtime_dpt_tracks_first_dirty_lsn() {
        let p = pool(8, 16);
        p.set_elsn(Lsn::MAX);
        write_leaf(&p, PageId(4));
        p.flush_page(PageId(4)).unwrap();
        p.with_page_mut(PageId(4), Lsn(40), |pg| pg.insert_record(0, b"x").unwrap()).unwrap();
        p.with_page_mut(PageId(4), Lsn(44), |pg| pg.update_record(0, b"y").unwrap()).unwrap();
        assert_eq!(p.runtime_dpt(), vec![(PageId(4), Lsn(40))]);
    }

    #[test]
    fn crash_clears_cache_but_not_disk() {
        let p = pool(4, 8);
        p.set_elsn(Lsn::MAX);
        write_leaf(&p, PageId(1));
        p.with_page_mut(PageId(1), Lsn(9), |pg| pg.insert_record(0, b"keep").unwrap()).unwrap();
        p.flush_page(PageId(1)).unwrap();
        p.with_page_mut(PageId(1), Lsn(10), |pg| pg.update_record(0, b"lost").unwrap()).unwrap();
        p.crash();
        assert_eq!(p.len(), 0);
        let rec = p.with_page(PageId(1), |pg| pg.record(0).to_vec()).unwrap();
        assert_eq!(rec, b"keep", "stable image survives, volatile update lost");
    }

    #[test]
    fn prefetch_skips_cached_and_dedups() {
        let p = pool(4, 16);
        p.fetch(PageId(3)).unwrap();
        let (_ios, pages) = p.prefetch(&[PageId(3), PageId(5), PageId(5), PageId(6)]);
        assert_eq!(pages, 2, "cached and duplicate PIDs filtered");
        // Re-requesting in-flight pages is also filtered. SimDisk with zero
        // model is untimed so nothing is actually inflight; just ensure no
        // panic and stable behaviour.
        let (_, pages2) = p.prefetch(&[PageId(5)]);
        assert!(pages2 <= 1);
    }

    #[test]
    fn flush_all_cleans_everything() {
        let p = pool(8, 16);
        p.set_elsn(Lsn::MAX);
        for i in 0..5 {
            write_leaf(&p, PageId(i));
            p.with_page_mut(PageId(i), Lsn(20 + i), |pg| pg.insert_record(0, b"d").unwrap())
                .unwrap();
        }
        assert_eq!(p.dirty_count(), 5);
        assert_eq!(p.flush_all().unwrap(), 5);
        assert_eq!(p.dirty_count(), 0);
    }

    #[test]
    fn plsn_never_regresses_under_out_of_order_applies() {
        let p = pool(4, 8);
        p.set_elsn(Lsn::MAX);
        write_leaf(&p, PageId(1));
        p.with_page_mut(PageId(1), Lsn(100), |pg| pg.insert_record(0, b"a").unwrap()).unwrap();
        // A lower-LSN apply arriving later must not move the pLSN backward.
        p.with_page_mut(PageId(1), Lsn(90), |pg| pg.insert_record(1, b"b").unwrap()).unwrap();
        let plsn = p.with_page(PageId(1), |pg| pg.plsn()).unwrap();
        assert_eq!(plsn, Lsn(100));
    }

    #[test]
    fn optimistic_read_returns_committed_image() {
        let p = pool(4, 8);
        write_leaf(&p, PageId(2));
        // Leaf record layout is [key: 8 bytes][value]; mirror it.
        let mut rec = 42u64.to_le_bytes().to_vec();
        rec.extend_from_slice(b"payload");
        p.with_page_mut(PageId(2), Lsn(10), |pg| pg.insert_record(0, &rec).unwrap()).unwrap();
        let got = p
            .try_read_optimistic(PageId(2), |v| {
                assert_eq!(v.page_type(), Some(PageType::Leaf));
                assert_eq!(v.pid(), PageId(2));
                assert_eq!(v.slot_key(0), 42);
                v.value_at(0)
            })
            .expect("cached, unlatched frame validates");
        assert_eq!(got, Some(b"payload".to_vec()));
        let s = p.stats();
        assert_eq!(s.optimistic_reads, 1);
        assert_eq!(s.optimistic_validation_failures, 0);
    }

    #[test]
    fn optimistic_read_misses_uncached_pages() {
        let p = pool(4, 8);
        assert_eq!(p.try_read_optimistic(PageId(5), |_| ()), Err(OptReadFail::NotResident));
        assert_eq!(p.stats().optimistic_misses, 1);
    }

    #[test]
    fn optimistic_read_fails_while_write_latched() {
        let p = pool(4, 8);
        p.fetch(PageId(1)).unwrap();
        let cell = p.shard(PageId(1)).lock().get(&PageId(1)).cloned().unwrap();
        let guard = cell.lock_write();
        assert_eq!(
            p.try_read_optimistic(PageId(1), |_| ()),
            Err(OptReadFail::Contended),
            "odd version rejected as contention, not a miss"
        );
        assert_eq!(p.stats().optimistic_validation_failures, 1);
        drop(guard);
        assert!(p.try_read_optimistic(PageId(1), |_| ()).is_ok(), "release restores even");
    }

    #[test]
    fn flush_sweeps_do_not_invalidate_optimistic_readers() {
        let p = pool(4, 8);
        p.set_elsn(Lsn::MAX);
        write_leaf(&p, PageId(1));
        let before = p.stats().optimistic_reads;
        assert!(p.try_read_optimistic(PageId(1), |v| v.plsn()).is_ok());
        // A flush write-latches the frame but preserves the image: the
        // version must not move, so readers validate across the sweep.
        p.flush_page(PageId(1)).unwrap();
        assert!(p.try_read_optimistic(PageId(1), |v| v.plsn()).is_ok());
        assert_eq!(p.stats().optimistic_reads, before + 2);
        assert_eq!(p.stats().optimistic_validation_failures, 0);
    }

    #[test]
    fn evicted_frames_stay_invalidated_forever() {
        let p = pool(4, 64);
        p.fetch(PageId(0)).unwrap();
        let cell = p.shard(PageId(0)).lock().get(&PageId(0)).cloned().unwrap();
        assert_eq!(cell.version.load(Ordering::Acquire) & 1, 0, "resident frame is even");
        // Evict page 0 by filling the pool with colder-by-recency pages.
        for i in 1..16 {
            p.fetch(PageId(i)).unwrap();
        }
        assert!(!p.contains(PageId(0)), "page 0 evicted");
        assert_eq!(
            cell.version.load(Ordering::Acquire) & 1,
            1,
            "evictor left the version odd before removing the shard entry"
        );
        // Crash teardown invalidates every surviving frame the same way.
        let survivor = {
            let mut found = None;
            for i in 1..16 {
                if let Some(c) = p.shard(PageId(i)).lock().get(&PageId(i)).cloned() {
                    found = Some(c);
                    break;
                }
            }
            found.expect("some page resident")
        };
        p.crash();
        assert_eq!(survivor.version.load(Ordering::Acquire) & 1, 1, "crash invalidates");
    }

    /// Satellite regression: optimistic readers racing the lazywriter's
    /// `clean_coldest` sweeps *and* cache-miss evictions must only ever
    /// validate consistent images — the evictor bumps the version before
    /// the shard-table removal is visible, so a recycled frame can never
    /// pass validation.
    #[test]
    fn optimistic_readers_race_cleaner_and_eviction() {
        use std::sync::atomic::AtomicBool as StopFlag;
        let p = Arc::new(pool(8, 4096));
        p.set_elsn(Lsn::MAX);
        // Hot pages 0..4 hold one record each: [key=pid][value=pid bytes].
        for i in 0..4u64 {
            write_leaf(&p, PageId(i));
            p.with_page_mut(PageId(i), Lsn(i + 1), |pg| {
                let mut rec = i.to_le_bytes().to_vec();
                rec.extend_from_slice(&i.to_le_bytes());
                pg.insert_record(0, &rec).unwrap();
            })
            .unwrap();
        }
        let stop = Arc::new(StopFlag::new(false));
        let reader = {
            let p = p.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut validated = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..4u64 {
                        let Ok((pid, val)) =
                            p.try_read_optimistic(PageId(i), |v| (v.pid(), v.value_at(0)))
                        else {
                            continue;
                        };
                        // A validated read is a consistent snapshot: the
                        // self-PID matches and the record is the exact
                        // image a writer (or the loader) installed.
                        assert_eq!(pid, PageId(i), "validated read of a recycled frame");
                        if let Some(val) = val {
                            assert_eq!(val, i.to_le_bytes().to_vec(), "torn record validated");
                        }
                        validated += 1;
                    }
                }
                validated
            })
        };
        // Churn: dirty the hot pages, sweep them with clean_coldest, and
        // force evictions by streaming cold pages through the 8-frame pool.
        for round in 0..300u64 {
            for i in 0..4u64 {
                // Same-length update keeps the record comparable.
                let _ = p.with_page_mut(PageId(i), Lsn(1_000 + round), |pg| {
                    let mut rec = i.to_le_bytes().to_vec();
                    rec.extend_from_slice(&i.to_le_bytes());
                    pg.update_record(0, &rec).unwrap();
                });
            }
            p.clean_coldest(2).unwrap();
            for c in 0..4u64 {
                let _ = p.fetch(PageId(100 + (round * 4 + c) % 1_000));
            }
        }
        stop.store(true, Ordering::Relaxed);
        let validated = reader.join().unwrap();
        // The reader must have made real progress (hot pages mostly stay
        // resident between eviction storms).
        assert!(validated > 0, "reader never validated a single optimistic read");
    }

    #[test]
    fn concurrent_readers_and_writers_distinct_pages() {
        use std::sync::Arc;
        let p = Arc::new(pool(64, 64));
        p.set_elsn(Lsn::MAX);
        for i in 0..8 {
            write_leaf(&p, PageId(i));
        }
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                let pid = PageId(t);
                for i in 0..200u64 {
                    p.with_page_mut(pid, Lsn(1000 + i), |pg| {
                        if pg.slot_count() == 0 {
                            pg.insert_record(0, b"v").unwrap();
                        } else {
                            pg.update_record(0, b"w").unwrap();
                        }
                    })
                    .unwrap();
                    let n = p.with_page(pid, |pg| pg.slot_count()).unwrap();
                    assert_eq!(n, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.dirty_count(), 8);
    }

    /// Satellite: churn through a small pool must actually *reuse* frame
    /// cells — retires feed the limbo list, quiescent epoch advances move
    /// the horizon, and placeholders recycle the freed page allocations
    /// (the "version stays odd forever" scheme used to leak them all).
    #[test]
    fn churn_recycles_retired_frames() {
        let p = pool(8, 4096);
        for i in 0..200u64 {
            p.fetch(PageId(i)).unwrap();
        }
        let s = p.stats();
        assert!(s.evictions > 0, "stream through a small pool must evict");
        assert_eq!(s.frames_retired, s.evictions, "every eviction retires its cell");
        assert!(s.epochs_advanced > 0, "idle pins must let the epoch advance");
        assert!(
            s.frames_recycled > 0,
            "no retired frame was ever recycled: retired {} advanced {}",
            s.frames_retired,
            s.epochs_advanced
        );
    }

    /// A pinned epoch is a hard gate: cells retired while it is held stay
    /// in limbo (even though no thread references them), and recycling
    /// resumes once the pin drops.
    #[test]
    fn pinned_epoch_defers_recycling() {
        let p = pool(4, 256);
        let pin = p.pin_epoch();
        for i in 0..32u64 {
            p.fetch(PageId(i)).unwrap();
        }
        let s = p.stats();
        assert!(s.frames_retired > 0);
        assert_eq!(s.frames_recycled, 0, "recycled a frame retired at or after the pinned epoch");
        drop(pin);
        for i in 32..64u64 {
            p.fetch(PageId(i)).unwrap();
        }
        assert!(p.stats().frames_recycled > 0, "recycling never resumed after unpin");
    }

    /// The `Arc::try_unwrap` gate: a stale reference to a retired cell
    /// (e.g. a latched reader parked in its evicted-retry loop) blocks
    /// that cell's reuse for exactly as long as the reference lives.
    #[test]
    fn stale_reference_blocks_recycling_of_that_cell() {
        let p = pool(4, 256);
        p.fetch(PageId(0)).unwrap();
        let held = p.shard(PageId(0)).lock().get(&PageId(0)).cloned().unwrap();
        for i in 1..40u64 {
            p.fetch(PageId(i)).unwrap();
        }
        assert!(!p.contains(PageId(0)), "page 0 evicted");
        // Other cells recycle fine; the held one must still be parked in
        // limbo (or dropped by the cap) — never reused while `held` lives.
        assert!(p.stats().frames_recycled > 0);
        assert_eq!(held.version.load(Ordering::Acquire) & 1, 1, "held cell stays invalidated");
        drop(held);
    }

    /// Satellite: the limbo high-water mark (3/4 capacity) forces epoch
    /// advances and an eager prune *before* the hard cap starts dropping
    /// entries. A pinned epoch inflates the backlog past the mark —
    /// forcing attempts that cannot yet move the horizon — and the first
    /// retire after the pin drops sheds the whole backlog at once.
    #[test]
    fn limbo_high_water_forces_advance_and_prune() {
        let p = pool(8, 4096);
        let high_water = p.capacity - p.capacity / 4;
        let pin = p.pin_epoch();
        for i in 0..40u64 {
            p.fetch(PageId(i)).unwrap();
        }
        let s = p.stats();
        assert!(s.forced_epoch_advances > 0, "backlog past high water must force advances");
        assert_eq!(s.frames_recycled, 0, "the pin still holds the horizon");
        assert!(
            p.epochs.limbo.lock().len() >= high_water,
            "pinned backlog must sit at/above the high-water mark"
        );
        drop(pin);
        p.fetch(PageId(100)).unwrap();
        assert!(
            p.epochs.limbo.lock().len() < high_water,
            "post-pin retire must prune the backlog below the mark"
        );
    }

    #[test]
    fn write_upgrade_validates_version() {
        let p = pool(4, 8);
        write_leaf(&p, PageId(1));
        let (slots, version) =
            p.try_read_optimistic_versioned(PageId(1), |v| v.slot_count()).unwrap();
        assert_eq!(slots, 0);
        // Unchanged image: the upgrade validates and sees the same page.
        let n = p.try_write_upgrade(PageId(1), version, |pg| pg.slot_count()).unwrap();
        assert_eq!(n, 0);
        // A writer moves the version; the stale expectation must fail.
        p.with_page_mut(PageId(1), Lsn(5), |pg| pg.insert_record(0, b"x").unwrap()).unwrap();
        assert_eq!(p.try_write_upgrade(PageId(1), version, |_| ()), Err(OptReadFail::Contended));
        assert_eq!(p.stats().leaf_upgrades_failed, 1);
        // Upgrades are image-preserving: no seqlock bump, so the reader's
        // next validation still succeeds against the new version.
        let (_, v2) = p.try_read_optimistic_versioned(PageId(1), |v| v.slot_count()).unwrap();
        p.try_write_upgrade(PageId(1), v2, |_| ()).unwrap();
        let (_, v3) = p.try_read_optimistic_versioned(PageId(1), |v| v.slot_count()).unwrap();
        assert_eq!(v2, v3, "image-preserving upgrade must not move the version");
    }

    #[test]
    fn write_upgrade_fails_on_uncached_and_latched_frames() {
        let p = pool(4, 8);
        assert_eq!(p.try_write_upgrade(PageId(7), 0, |_| ()), Err(OptReadFail::NotResident));
        p.fetch(PageId(1)).unwrap();
        let cell = p.shard(PageId(1)).lock().get(&PageId(1)).cloned().unwrap();
        let version = cell.version.load(Ordering::Acquire);
        let guard = cell.latch.read();
        // Reader-held latch: try_write fails without blocking.
        assert_eq!(p.try_write_upgrade(PageId(1), version, |_| ()), Err(OptReadFail::Contended));
        drop(guard);
        assert!(p.try_write_upgrade(PageId(1), version, |_| ()).is_ok());
    }

    #[test]
    fn epoch_pins_overflow_to_unpinned_guards() {
        let p = pool(4, 8);
        let pins: Vec<_> = (0..EPOCH_SLOTS).map(|_| p.pin_epoch()).collect();
        // Slot exhaustion must not fail — the extra guard is just unpinned.
        let extra = p.pin_epoch();
        drop(extra);
        drop(pins);
        // All slots idle again: a fresh pin lands in a slot.
        let pin = p.pin_epoch();
        assert_eq!(p.epochs.min_pinned(), p.epochs.global.load(Ordering::Acquire));
        drop(pin);
    }
}
