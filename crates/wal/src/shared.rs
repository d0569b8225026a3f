//! The shared handle to the common log: buffered appends plus group commit.
//!
//! Under a single-owner engine the log was `Arc<Mutex<Wal>>`; with
//! concurrent sessions every commit forcing the log under that one mutex
//! would serialize the whole write path. This handle keeps one latch over
//! the log *buffer* but splits the expensive part — the commit-time force —
//! into a leader/follower protocol (LogBase-style group commit):
//!
//! * **append** encodes and checksums the record's frame outside the latch,
//!   so the critical section is an LSN assignment plus a memcpy;
//! * **force_covering(lsn)** first checks the published stable-LSN hint
//!   (lock-free). If a force is already in flight, the caller *waits* for
//!   its publication instead of queueing on the log latch; whoever arrives
//!   first becomes the leader and stabilizes every record appended so far —
//!   one latch acquisition publishes stability for the whole batch.
//!
//! The hint is republished every time a direct-access guard drops, so
//! maintenance paths (crash truncation, torn-tail repair, checkpoints) keep
//! it honest.

use crate::log::Wal;
use crate::record::LogPayload;
use lr_common::Lsn;
use lr_obs::{EventKind, TraceSink};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Group-commit counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Log forces actually performed (leader path).
    pub forces: u64,
    /// Commits whose force was satisfied by another session's force.
    pub piggybacked: u64,
}

#[derive(Default)]
struct GroupState {
    /// A leader is inside the force path right now.
    forcing: bool,
}

struct WalShared {
    log: Mutex<Wal>,
    /// Published stable LSN — read lock-free on the commit fast path.
    stable_hint: AtomicU64,
    group: std::sync::Mutex<GroupState>,
    cond: std::sync::Condvar,
    forces: AtomicU64,
    piggybacked: AtomicU64,
    /// Modelled device latency of one log force, in real µs (0 = instant).
    /// Only the group-commit leader pays it; piggybacked commits share it.
    force_latency_us: AtomicU64,
    /// Commits awaiting the next force — swapped to 0 by the leader so
    /// each `group_commit_force` trace event carries its batch size.
    commit_batch: AtomicU64,
    trace: std::sync::OnceLock<TraceSink>,
}

impl WalShared {
    #[inline]
    fn trace(&self) -> Option<&TraceSink> {
        self.trace.get().filter(|s| s.is_enabled())
    }
}

/// Cloneable handle to the common log (TC and DC both append).
#[derive(Clone)]
pub struct SharedWal {
    inner: Arc<WalShared>,
}

/// Group-commit leadership token. Clears `forcing` and wakes waiters on
/// drop — including an unwind — so a panicking leader (e.g. a failed
/// assertion inside the force path) releases leadership instead of leaving
/// every later `force_covering` caller spinning with no electable leader.
struct LeaderGuard<'a> {
    shared: &'a WalShared,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        let mut g = self.shared.group.lock().unwrap_or_else(|e| e.into_inner());
        g.forcing = false;
        drop(g);
        self.shared.cond.notify_all();
    }
}

/// Direct-access guard. Derefs to [`Wal`]; on drop, republishes the stable
/// hint and wakes force waiters (the guarded section may have changed
/// stability arbitrarily — truncation, tearing, `make_all_stable`, ...).
pub struct WalGuard<'a> {
    guard: MutexGuard<'a, Wal>,
    shared: &'a WalShared,
}

impl std::ops::Deref for WalGuard<'_> {
    type Target = Wal;
    fn deref(&self) -> &Wal {
        &self.guard
    }
}

impl std::ops::DerefMut for WalGuard<'_> {
    fn deref_mut(&mut self) -> &mut Wal {
        &mut self.guard
    }
}

impl Drop for WalGuard<'_> {
    fn drop(&mut self) {
        // Keep the hint honest but never *raise* it here: publication of
        // new stability is the force path's job (the modelled device
        // latency must elapse first). Lowering matters after sections that
        // regressed stability — tears, crash truncation, reloads. The
        // lowering is a single atomic `fetch_min`, not a load-then-store:
        // racing publishers (another guard's drop, a leader's post-force
        // publication) interleaving between a separate load and store
        // could leave the hint above the true stable LSN, and an
        // over-published hint lets `force_covering` skip a force the
        // caller actually needed. `fetch_min` can only ever lower the
        // hint, which is the safe direction (a too-low hint merely costs
        // a redundant no-op force).
        let s = self.guard.stable_lsn().0;
        self.shared.stable_hint.fetch_min(s, Ordering::AcqRel);
        self.shared.cond.notify_all();
    }
}

impl SharedWal {
    pub fn new(wal: Wal) -> SharedWal {
        let stable = wal.stable_lsn().0;
        SharedWal {
            inner: Arc::new(WalShared {
                log: Mutex::new(wal),
                stable_hint: AtomicU64::new(stable),
                group: std::sync::Mutex::new(GroupState::default()),
                cond: std::sync::Condvar::new(),
                forces: AtomicU64::new(0),
                piggybacked: AtomicU64::new(0),
                force_latency_us: AtomicU64::new(0),
                commit_batch: AtomicU64::new(0),
                trace: std::sync::OnceLock::new(),
            }),
        }
    }

    /// Attach the trace journal (set once, at engine build). Group-commit
    /// forces and piggybacked commits are journaled through it.
    pub fn set_trace(&self, sink: TraceSink) {
        let _ = self.inner.trace.set(sink);
    }

    /// Model a per-force device latency (real time), which concurrent
    /// committers share through group commit; 0 (the default) is instant.
    pub fn set_force_latency_us(&self, us: u64) {
        self.inner.force_latency_us.store(us, Ordering::Relaxed);
    }

    /// Lock the log for direct access (scans, recovery repair, tests).
    pub fn lock(&self) -> WalGuard<'_> {
        WalGuard { guard: self.inner.log.lock(), shared: &self.inner }
    }

    /// Buffered append: encode and checksum outside the latch, take it only
    /// for the LSN assignment + memcpy. Returns the record's LSN.
    pub fn append(&self, payload: &LogPayload) -> Lsn {
        let frame = payload.encode_frame();
        self.inner.log.lock().append_frame(&frame)
    }

    /// The last published stable LSN (may lag the true value by one
    /// in-flight force; never ahead of it outside a crashed/teared window).
    pub fn stable_hint(&self) -> Lsn {
        Lsn(self.inner.stable_hint.load(Ordering::Acquire))
    }

    /// Group commit: ensure the record **starting** at `lsn` is stable
    /// (i.e. `stable_lsn > lsn`), forcing the log at most once per batch of
    /// concurrent committers. Returns the stable LSN that covers it.
    pub fn force_covering(&self, lsn: Lsn) -> Lsn {
        let s = self.stable_hint();
        if s > lsn {
            self.inner.piggybacked.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.inner.trace() {
                t.emit(EventKind::GroupCommitPiggyback { lsn: lsn.0 });
            }
            return s;
        }
        // This commit needs the upcoming force; count it into that
        // force's batch.
        self.inner.commit_batch.fetch_add(1, Ordering::Relaxed);
        let mut g = self.inner.group.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let s = self.stable_hint();
            if s > lsn {
                self.inner.piggybacked.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = self.inner.trace() {
                    t.emit(EventKind::GroupCommitPiggyback { lsn: lsn.0 });
                }
                return s;
            }
            if !g.forcing {
                g.forcing = true;
                drop(g);
                let _lead = LeaderGuard { shared: &self.inner };
                let stable = {
                    let mut log = self.inner.log.lock();
                    log.make_all_stable();
                    log.stable_lsn()
                };
                debug_assert!(stable > lsn, "leader force covers its own record");
                // Device time of the force, paid outside every latch so
                // appenders keep filling the next batch while "the disk"
                // works — this is what group commit amortizes.
                let lat = self.inner.force_latency_us.load(Ordering::Relaxed);
                if lat > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(lat));
                }
                // Publish the *current* truth, not the pre-sleep value: a
                // crash/tear during the sleep may have regressed stability,
                // and republishing the stale-high LSN would let later
                // commits piggyback on a force that no longer covers them.
                let published = {
                    let log = self.inner.log.lock();
                    let s = log.stable_lsn();
                    self.inner.stable_hint.store(s.0, Ordering::Release);
                    s
                };
                self.inner.forces.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = self.inner.trace() {
                    let batch = self.inner.commit_batch.swap(0, Ordering::Relaxed);
                    t.emit(EventKind::GroupCommitForce { batch, lsn: published.0 });
                } else {
                    self.inner.commit_batch.store(0, Ordering::Relaxed);
                }
                // `_lead` drops here: forcing is cleared and waiters woken.
                return published;
            }
            // A leader is in flight; it will stabilize everything appended
            // so far (including our record) and wake us.
            let (g2, _timeout) = self
                .inner
                .cond
                .wait_timeout(g, std::time::Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            g = g2;
        }
    }

    /// Force everything currently appended (checkpoint brackets, crash
    /// capture). Returns the new stable LSN.
    pub fn force_all(&self) -> Lsn {
        let mut log = self.inner.log.lock();
        log.make_all_stable();
        let stable = log.stable_lsn();
        self.inner.stable_hint.store(stable.0, Ordering::Release);
        drop(log);
        self.inner.forces.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.inner.trace() {
            let batch = self.inner.commit_batch.swap(0, Ordering::Relaxed);
            t.emit(EventKind::GroupCommitForce { batch, lsn: stable.0 });
        } else {
            self.inner.commit_batch.store(0, Ordering::Relaxed);
        }
        self.inner.cond.notify_all();
        stable
    }

    /// Group-commit counters since construction.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            forces: self.inner.forces.load(Ordering::Relaxed),
            piggybacked: self.inner.piggybacked.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::TxnId;

    fn begin(t: u64) -> LogPayload {
        LogPayload::TxnBegin { txn: TxnId(t) }
    }

    #[test]
    fn append_and_force_covering() {
        let wal = Wal::new_shared(4096);
        let a = wal.append(&begin(1));
        assert!(wal.stable_hint() <= a);
        let s = wal.force_covering(a);
        assert!(s > a, "record covered");
        assert_eq!(wal.lock().stable_lsn(), s);
        // Second force over the same record piggybacks on the hint.
        let before = wal.group_commit_stats();
        wal.force_covering(a);
        let after = wal.group_commit_stats();
        assert_eq!(after.forces, before.forces);
        assert_eq!(after.piggybacked, before.piggybacked + 1);
    }

    #[test]
    fn guard_drop_republishes_hint() {
        let wal = Wal::new_shared(4096);
        let a = wal.append(&begin(1));
        {
            let mut g = wal.lock();
            g.make_all_stable();
        }
        // Drops never raise the hint (that is the force path's job), so a
        // force after direct stabilization is a cheap no-op force.
        assert!(wal.stable_hint() <= a);
        assert!(wal.force_covering(a) > a);
        // Tearing regresses stability; the hint must track the true value.
        wal.append(&begin(2));
        let pre_tear = {
            let mut g = wal.lock();
            g.make_all_stable();
            let s = g.stable_lsn();
            g.tear(12);
            s
        };
        let true_stable = wal.lock().stable_lsn();
        assert!(true_stable < pre_tear, "tear regressed stability");
        // The hint is a conservative lower bound of true stability — the
        // safe direction for force_covering (it may force redundantly,
        // never skip a needed force).
        assert!(wal.stable_hint() <= true_stable, "hint never exceeds true stability");
    }

    #[test]
    fn racing_guard_drops_publish_hint_atomically() {
        // Regression: WalGuard's drop used a separate load + store to
        // republish the stable hint; publishers interleaving between the
        // two could strand the hint *above* the true stable LSN, letting a
        // later force_covering piggyback on a force that no longer covered
        // its record. The republish is now a single fetch_min, which can
        // only lower the hint. The invariant — `hint <= stable` whenever
        // the log latch is held (publication is quiescent under it) — must
        // survive arbitrary stabilize/tear interleavings across threads.
        let wal = Wal::new_shared(4096);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let wal = wal.clone();
                s.spawn(move || {
                    for i in 0..300u64 {
                        wal.append(&begin(t * 1_000 + i));
                        {
                            let mut g = wal.lock();
                            g.make_all_stable();
                            if i % 2 == 0 {
                                g.tear(6); // regress stability under the guard
                            }
                        }
                        let g = wal.lock();
                        let (hint, stable) = (wal.stable_hint(), g.stable_lsn());
                        assert!(hint <= stable, "hint {hint:?} above true stable {stable:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_commits_share_forces() {
        let wal = Wal::new_shared(4096);
        let threads = 8;
        let per = 50;
        std::thread::scope(|s| {
            for t in 0..threads {
                let wal = wal.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let lsn = wal.append(&begin(t * 1000 + i));
                        let stable = wal.force_covering(lsn);
                        assert!(stable > lsn);
                    }
                });
            }
        });
        let stats = wal.group_commit_stats();
        let total = threads * per;
        assert_eq!(wal.lock().record_count() as u64, total, "all appends present");
        assert!(
            stats.forces + stats.piggybacked >= total,
            "every commit observed covered stability: {stats:?}"
        );
        // The whole point: under contention, forces < commits.
        assert!(stats.forces <= total, "{stats:?}");
    }
}
