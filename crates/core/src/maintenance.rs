//! The engine maintenance service: background checkpointer + lazywriter.
//!
//! During normal execution the paper's fast-recovery story depends on two
//! maintenance duties running *continuously*, not whenever a foreground
//! thread happens to trip a threshold (§5.3, Figure 2(b)): periodic
//! checkpoints bound the redo scan window, and lazywriter sweeps bound the
//! dirty fraction of the cache — which is what keeps the DPT small. This
//! module moves both duties onto dedicated background threads owned by the
//! engine (the modelled SQL Server engine's checkpoint and lazywriter
//! threads; LogBase decouples its log/page maintenance the same way):
//!
//! * **lr-checkpointer** runs the bCkpt → RSSP → eCkpt bracket on a policy
//!   of elapsed time ([`crate::EngineConfig::ckpt_interval_ms`]) or log
//!   growth ([`crate::EngineConfig::ckpt_log_bytes`]);
//! * **lr-lazywriter** sweeps cold dirty pages whenever the dirty fraction
//!   exceeds the watermark ([`crate::EngineConfig::dirty_watermark`]),
//!   [`crate::EngineConfig::cleaner_batch`] pages at a time;
//! * **lr-metrics** (only when
//!   [`crate::EngineConfig::metrics_sample_ms`] is non-zero) samples
//!   [`crate::Engine::metrics`] into the in-memory time series behind
//!   [`crate::Engine::metrics_history`].
//!
//! ## Lifecycle and crash interplay
//!
//! The threads hold only a `Weak<Engine>`: they can never keep the engine
//! alive, and they exit on their own once the last real handle drops.
//! Every piece of work re-enters the engine through the existing latches —
//! `checkpoint()` takes the lifecycle lock and checks the crashed flag
//! under it; the lazywriter enters the data plane exactly like a session.
//! A crashed engine therefore *quiesces* the service (ticks counted, no
//! work, and provably no append to the post-crash log) until `recover()`
//! clears the flag, at which point the policy loop resumes by itself.
//! [`Engine::stop_maintenance`] (also run on drop) signals shutdown and
//! joins both threads.

use crate::engine::Engine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maintenance counters, surfaced through [`crate::engine::EngineStats`].
#[derive(Default)]
pub(crate) struct MaintCounters {
    /// Policy-loop iterations across both threads.
    pub(crate) ticks: AtomicU64,
    /// Iterations skipped because the engine was crashed.
    pub(crate) quiesced_ticks: AtomicU64,
    /// Checkpoints completed by the background checkpointer.
    pub(crate) bg_checkpoints: AtomicU64,
    /// Lazywriter sweeps that flushed at least one page.
    pub(crate) cleaner_sweeps: AtomicU64,
    /// Pages flushed by the lazywriter.
    pub(crate) cleaner_pages: AtomicU64,
    /// Compactor sweeps that reclaimed at least one log segment.
    pub(crate) compactor_sweeps: AtomicU64,
    /// Cold log segments reclaimed by the compactor.
    pub(crate) compactor_segments: AtomicU64,
}

/// Adaptive tick pacing for the lazywriter/compactor thread: the park
/// interval halves (toward the configured floor) while sweeps find work
/// and doubles (toward 64× the floor) while they find none — bursts get
/// serviced at full rate, idle engines stop paying a fixed polling tax.
pub(crate) struct Pacing {
    min: Duration,
    max: Duration,
    cur: Duration,
}

impl Pacing {
    pub(crate) fn new(min: Duration) -> Pacing {
        let min = min.max(Duration::from_millis(1));
        Pacing { min, max: min * 64, cur: min }
    }

    /// The interval to park for before the next sweep.
    pub(crate) fn tick(&self) -> Duration {
        self.cur
    }

    /// Feed back whether the last sweep found work.
    pub(crate) fn observe(&mut self, did_work: bool) {
        self.cur =
            if did_work { (self.cur / 2).max(self.min) } else { (self.cur * 2).min(self.max) };
    }
}

/// Shutdown flag + wakeup channel shared by the service threads.
struct Signal {
    stop: Mutex<bool>,
    cond: Condvar,
}

impl Signal {
    fn new() -> Signal {
        Signal { stop: Mutex::new(false), cond: Condvar::new() }
    }

    /// Park for `timeout` (or until shutdown). Returns true on shutdown.
    fn park(&self, timeout: Duration) -> bool {
        let guard = self.stop.lock().unwrap_or_else(|e| e.into_inner());
        if *guard {
            return true;
        }
        let (guard, _) = self.cond.wait_timeout(guard, timeout).unwrap_or_else(|e| e.into_inner());
        *guard
    }

    fn shutdown(&self) {
        *self.stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cond.notify_all();
    }

    fn stopped(&self) -> bool {
        *self.stop.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Handle to a running maintenance service (stored inside the engine).
pub(crate) struct MaintenanceHandle {
    signal: Arc<Signal>,
    threads: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Start the background maintenance service (idempotent). Called
    /// automatically by [`Engine::into_shared`] when
    /// [`crate::EngineConfig::background_maintenance`] is set; callers who
    /// built the `Arc` themselves can start it explicitly.
    pub fn start_maintenance(self: &Arc<Engine>) {
        let mut slot = self.maintenance.lock();
        if slot.is_some() {
            return;
        }
        let signal = Arc::new(Signal::new());
        let tick = Duration::from_millis(self.cfg.maint_tick_ms.max(1));
        let mut threads = Vec::with_capacity(2);
        {
            let weak = Arc::downgrade(self);
            let signal = signal.clone();
            let interval_ms = self.cfg.ckpt_interval_ms;
            let log_bytes = self.cfg.ckpt_log_bytes;
            threads.push(
                std::thread::Builder::new()
                    .name("lr-checkpointer".into())
                    .spawn(move || checkpointer_loop(weak, signal, tick, interval_ms, log_bytes))
                    .expect("spawn checkpointer"),
            );
        }
        {
            let weak = Arc::downgrade(self);
            let signal = signal.clone();
            let pacing = Pacing::new(tick);
            threads.push(
                std::thread::Builder::new()
                    .name("lr-lazywriter".into())
                    .spawn(move || lazywriter_loop(weak, signal, pacing))
                    .expect("spawn lazywriter"),
            );
        }
        if self.cfg.metrics_sample_ms > 0 {
            let weak = Arc::downgrade(self);
            let signal = signal.clone();
            let sample_ms = self.cfg.metrics_sample_ms;
            threads.push(
                std::thread::Builder::new()
                    .name("lr-metrics".into())
                    .spawn(move || metrics_loop(weak, signal, sample_ms))
                    .expect("spawn metrics sampler"),
            );
        }
        *slot = Some(MaintenanceHandle { signal, threads });
    }

    /// Signal the maintenance threads and join them (idempotent; also run
    /// on engine drop, so tests and short-lived processes never leak a
    /// parked thread).
    pub fn stop_maintenance(&self) {
        let Some(handle) = self.maintenance.lock().take() else { return };
        handle.signal.shutdown();
        let me = std::thread::current().id();
        for t in handle.threads {
            // If the last `Arc` died on a service thread, the engine drop
            // (and this call) runs *on* that thread — joining it would
            // self-deadlock; it is already past its upgrade and exiting.
            if t.thread().id() == me {
                continue;
            }
            let _ = t.join();
        }
    }

    /// Is the maintenance service currently attached?
    pub fn maintenance_running(&self) -> bool {
        self.maintenance.lock().is_some()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop_maintenance();
    }
}

/// Upgrade the weak engine handle for one tick's work. `None` ends the
/// thread: the last real engine handle is gone.
fn tick_engine(weak: &Weak<Engine>) -> Option<Arc<Engine>> {
    let engine = weak.upgrade()?;
    engine.maint.ticks.fetch_add(1, Ordering::Relaxed);
    Some(engine)
}

/// Checkpoint policy loop: fire when the interval elapses or the log has
/// grown past the byte budget, whichever comes first.
fn checkpointer_loop(
    weak: Weak<Engine>,
    signal: Arc<Signal>,
    tick: Duration,
    interval_ms: u64,
    log_bytes: u64,
) {
    let mut last = Instant::now();
    loop {
        if signal.park(tick) {
            return;
        }
        // The Arc is scoped to one iteration: the service must never keep
        // the engine alive across a park.
        let Some(engine) = tick_engine(&weak) else { return };
        if engine.is_crashed() {
            engine.maint.quiesced_ticks.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let due_time = interval_ms > 0 && last.elapsed() >= Duration::from_millis(interval_ms);
        let due_bytes = log_bytes > 0 && engine.log_bytes_since_checkpoint() >= log_bytes;
        if !(due_time || due_bytes) {
            continue;
        }
        match engine.checkpoint() {
            Ok(_) => {
                engine.maint.bg_checkpoints.fetch_add(1, Ordering::Relaxed);
                last = Instant::now();
            }
            // Lost a race against crash(): the checkpoint refused under
            // the lifecycle lock — quiesce until recovery.
            Err(_) => {
                engine.maint.quiesced_ticks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Lazywriter + compactor loop: while the dirty fraction exceeds the
/// watermark, flush cold batches; then give the DC one compaction pass
/// (a no-op on backends without log-structured storage — the pass gates
/// itself on the garbage watermark). Each sweep re-enters the data plane
/// separately, so a pending crash() is never held out for more than one
/// batch. The park interval adapts to load (see [`Pacing`]).
fn lazywriter_loop(weak: Weak<Engine>, signal: Arc<Signal>, mut pacing: Pacing) {
    loop {
        if signal.park(pacing.tick()) {
            return;
        }
        let Some(engine) = tick_engine(&weak) else { return };
        if engine.is_crashed() {
            engine.maint.quiesced_ticks.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let mut pages = 0u64;
        loop {
            match engine.cleaner_sweep() {
                Ok(0) => break, // at or below the watermark
                Ok(n) => pages += n as u64,
                // Crashed mid-sweep; the remaining dirt died with the cache.
                Err(_) => {
                    engine.maint.quiesced_ticks.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            // Shutdown must not wait for a long drain to finish.
            if signal.stopped() {
                break;
            }
        }
        if pages > 0 {
            engine.maint.cleaner_sweeps.fetch_add(1, Ordering::Relaxed);
            engine.maint.cleaner_pages.fetch_add(pages, Ordering::Relaxed);
            engine.trace.emit(lr_obs::EventKind::CleanerTick { pages_flushed: pages });
        }
        let segments =
            if signal.stopped() { 0 } else { engine.compact_sweep().unwrap_or(0) as u64 };
        if segments > 0 {
            engine.maint.compactor_sweeps.fetch_add(1, Ordering::Relaxed);
            engine.maint.compactor_segments.fetch_add(segments, Ordering::Relaxed);
            engine.trace.emit(lr_obs::EventKind::CompactorTick { segments });
        }
        pacing.observe(pages > 0 || segments > 0);
    }
}

/// Metrics sampler loop: append one [`Engine::metrics`] snapshot to the
/// in-memory time series every `sample_ms` (only spawned when
/// [`crate::EngineConfig::metrics_sample_ms`] is non-zero). Sampling is
/// read-only, so it keeps running on a crashed engine — the flat-lined
/// samples are part of the timeline.
fn metrics_loop(weak: Weak<Engine>, signal: Arc<Signal>, sample_ms: u64) {
    let period = Duration::from_millis(sample_ms.max(1));
    loop {
        if signal.park(period) {
            return;
        }
        let Some(engine) = tick_engine(&weak) else { return };
        let snap = engine.metrics();
        engine.push_metrics_sample(snap);
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineConfig};
    use std::time::{Duration, Instant};

    fn maint_config() -> EngineConfig {
        EngineConfig {
            initial_rows: 2_000,
            pool_pages: 64,
            io_model: lr_common::IoModel::zero(),
            background_maintenance: true,
            maint_tick_ms: 1,
            ckpt_interval_ms: 5,
            ckpt_log_bytes: 64 << 10,
            ..EngineConfig::default()
        }
    }

    /// Poll until `pred` holds or the deadline passes.
    fn wait_for(mut pred: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn service_checkpoints_in_the_background() {
        let engine = Engine::build(maint_config()).unwrap().into_shared();
        assert!(engine.maintenance_running());
        // No foreground thread ever calls checkpoint(); the service must.
        wait_for(|| engine.stats().background_checkpoints >= 2, "background checkpoints");
        // Join the service first: the engine's counter and the service's
        // counter are incremented non-atomically as a pair, so equality is
        // only guaranteed once the checkpointer thread is quiescent.
        engine.stop_maintenance();
        assert!(!engine.maintenance_running());
        let s = engine.stats();
        assert_eq!(s.checkpoints_taken, s.background_checkpoints);
        let after = engine.stats().background_checkpoints;
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(engine.stats().background_checkpoints, after, "stopped service is silent");
    }

    #[test]
    fn service_quiesces_on_crash_and_resumes_after_recovery() {
        let engine = Engine::build(maint_config()).unwrap().into_shared();
        let t = engine.begin().unwrap();
        for k in 0..200 {
            engine.update(t, k, vec![7u8; 100]).unwrap();
        }
        engine.commit(t).unwrap();

        engine.crash();
        // While crashed, the service must not touch the log: its length is
        // fixed by the crash truncation.
        let frozen = engine.wal().lock().record_count();
        wait_for(|| engine.stats().quiesced_ticks >= 5, "quiesced ticks");
        assert_eq!(engine.wal().lock().record_count(), frozen, "no post-crash appends");

        engine.recover(crate::RecoveryMethod::Log1).unwrap();
        let resumed = engine.stats().background_checkpoints;
        let t = engine.begin().unwrap();
        for k in 0..50 {
            engine.update(t, k, vec![9u8; 100]).unwrap();
        }
        engine.commit(t).unwrap();
        wait_for(
            || engine.stats().background_checkpoints > resumed,
            "service resumed after recovery",
        );
    }

    #[test]
    fn pacing_shortens_on_bursts_and_lengthens_when_idle() {
        let floor = Duration::from_millis(4);
        let mut p = super::Pacing::new(floor);
        assert_eq!(p.tick(), floor, "starts at the floor");
        // Idle: the interval doubles each quiet sweep, capped at 64×.
        let mut last = p.tick();
        for _ in 0..4 {
            p.observe(false);
            assert!(p.tick() > last, "idle must lengthen the tick");
            last = p.tick();
        }
        for _ in 0..20 {
            p.observe(false);
        }
        assert_eq!(p.tick(), floor * 64, "idle interval is capped");
        // A burst of work collapses it back toward the floor.
        p.observe(true);
        assert_eq!(p.tick(), floor * 32, "work halves the interval");
        for _ in 0..20 {
            p.observe(true);
        }
        assert_eq!(p.tick(), floor, "sustained work pins the floor");
    }

    #[test]
    fn dropping_the_last_handle_stops_the_threads() {
        let engine = Engine::build(maint_config()).unwrap().into_shared();
        wait_for(|| engine.stats().maintenance_ticks > 0, "service ticked");
        drop(engine); // must not hang joining parked threads
    }
}
