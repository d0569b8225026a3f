//! Engine configuration.

use lr_common::{IoModel, Key, TableId};

/// The single table the paper's workload updates (§5.2). Multi-table use is
/// fully supported (`Engine::create_table`); this is just the default.
pub const DEFAULT_TABLE: TableId = TableId(1);

/// Everything needed to build an [`crate::Engine`].
///
/// Defaults are test-sized; the experiment presets in `lr-workload` provide
/// the paper-scaled geometries (DESIGN.md §8).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Data page size in bytes.
    pub page_size: usize,
    /// Log page size (I/O accounting granularity for log scans).
    pub log_page_size: usize,
    /// Buffer pool capacity in frames — the paper's "cache size".
    pub pool_pages: usize,
    /// Rows bulk-loaded into [`DEFAULT_TABLE`] before the workload starts.
    pub initial_rows: u64,
    /// Bytes in each row's "data" attribute.
    pub row_value_size: usize,
    /// Bulk-load page fill fraction.
    pub fill_factor: f64,
    /// Δ-log DirtySet batch threshold.
    pub dirty_batch_cap: usize,
    /// BW/Δ WrittenSet batch threshold.
    pub flush_batch_cap: usize,
    /// Capture per-dirtying LSNs in Δ records (Appendix D.1 runs).
    pub perfect_delta_lsns: bool,
    /// Write ARIES checkpoint DPT snapshots (§3.1 ablation runs).
    pub aries_ckpt_capture: bool,
    /// Background-writer watermark (dirty fraction of the cache above
    /// which cold dirty pages are flushed); see `lr_dc::DcConfig`.
    pub dirty_watermark: f64,
    /// Pages the lazywriter flushes per sweep (inline or background).
    pub cleaner_batch: usize,
    /// Hand checkpoints and lazywriter sweeps to a background maintenance
    /// service (started by [`crate::Engine::into_shared`], or explicitly
    /// via `Engine::start_maintenance`). Also turns the foreground
    /// cleaner hook advisory: sessions stop paying flush sweeps inside
    /// their own operations.
    pub background_maintenance: bool,
    /// Maintenance policy-loop tick, in milliseconds of real time. The
    /// lazywriter/compactor interval starts here, doubles (to 64×) while
    /// sweeps find no work and halves back while they do.
    pub maint_tick_ms: u64,
    /// Background checkpoint interval in milliseconds of real time
    /// (0 disables the timer; the log-bytes policy still applies).
    pub ckpt_interval_ms: u64,
    /// Background checkpoint once this many log bytes accumulated since
    /// the previous one (0 disables the bytes policy).
    pub ckpt_log_bytes: u64,
    /// Leaf-merge threshold for delete rebalancing (0.0 disables).
    pub merge_min_fill: f64,
    /// Serve point reads / range scans through the latch-free optimistic
    /// (OLC) descent first, with the latched path as fallback (see
    /// `lr_dc::DcConfig::optimistic_reads`). On by default.
    pub optimistic_reads: bool,
    /// Stage eligible writes through the OLC prepare path: latch-free
    /// root→leaf descent under the shared table latch, version-validated
    /// write upgrade of the leaf frame only, bounded restarts, latched
    /// fallback (see `lr_dc::DcConfig::optimistic_writes`). On by
    /// default.
    pub optimistic_writes: bool,
    /// Which registered data-component backend serves this engine
    /// (`lr_dc::backend_names()`): `"btree"` — the default clustered
    /// B-tree DC — `"hash"`, the in-memory hash-index DC with
    /// page-logical redo, `"log"`, the log-structured DC where the WAL
    /// is the store (one append per write, background compaction), or a
    /// `"remote:<inner>"` variant (`"remote:btree"`, `"remote:hash"`,
    /// `"remote:log"`) that puts the inner backend behind the message
    /// boundary — every `DcApi` call travels the wire codec through a
    /// `lr_dc::DcServer` over a loopback transport — or a
    /// `"tcp:<inner>"` variant (`"tcp:btree"`, `"tcp:hash"`,
    /// `"tcp:log"`) that runs the same `DcServer` behind a real
    /// loopback TCP socket (`lr_dc::TcpTransport`, thread-per-connection
    /// server, pooled client streams). The TC↔DC contract
    /// (`lr_dc::DcApi`) is the same either way; recovery equivalence
    /// across backends is asserted by `tests/backend_equivalence.rs`.
    pub backend: String,
    /// Log-structured backend: garbage fraction of the cold log region
    /// above which the background compactor migrates live versions into
    /// the sealed store (see `lr_dc::DcConfig::garbage_watermark`).
    pub garbage_watermark: f64,
    /// Log-structured backend: segment granularity (bytes) for liveness
    /// accounting and compaction horizons — only whole cold segments are
    /// sealed.
    pub log_segment_bytes: u64,
    /// Device latency model.
    pub io_model: IoModel,
    /// Modelled real-time latency of one commit-time log force, in µs
    /// (0 = instant). Group commit shares one force across concurrent
    /// committers.
    pub commit_force_us: u64,
    /// Enable the structured trace journal (`lr_obs::TraceSink`): every
    /// subsystem emits typed events into per-thread lock-free rings,
    /// drained via `Engine::drain_trace` / `Engine::drain_trace_json`.
    /// Off by default — instrumented paths then pay only a branch. A
    /// full ring drops (and counts) instead of blocking.
    pub trace: bool,
    /// Background metrics-sampling period in milliseconds of real time:
    /// the maintenance service appends an `Engine::metrics` snapshot to
    /// the in-memory time series (`Engine::metrics_history`) this often.
    /// 0 (the default) disables sampling.
    pub metrics_sample_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            page_size: 4096,
            log_page_size: 8192,
            pool_pages: 128,
            initial_rows: 10_000,
            row_value_size: 100,
            fill_factor: 0.9,
            dirty_batch_cap: 64,
            flush_batch_cap: 64,
            perfect_delta_lsns: false,
            aries_ckpt_capture: false,
            dirty_watermark: 0.30,
            cleaner_batch: 16,
            background_maintenance: false,
            maint_tick_ms: 1,
            ckpt_interval_ms: 25,
            ckpt_log_bytes: 1 << 20,
            merge_min_fill: 0.0,
            optimistic_reads: true,
            optimistic_writes: true,
            backend: lr_dc::BTREE_BACKEND.to_string(),
            garbage_watermark: 0.5,
            log_segment_bytes: 64 << 10,
            io_model: IoModel::default(),
            commit_force_us: 0,
            trace: false,
            metrics_sample_ms: 0,
        }
    }
}

/// Generates a default-table convenience wrapper that delegates to its
/// `*_in` sibling with [`DEFAULT_TABLE`] spliced in. `Engine` (explicit
/// `TxnId`, `&self`) and `Session` (implicit transaction, `&mut self`)
/// both expand their wrappers from this one macro, so the two public
/// surfaces cannot drift: adding or changing a default-table op means
/// changing exactly one `*_in` method plus one macro invocation.
macro_rules! default_table_op {
    // &self receiver with leading pass-through args (Engine: the TxnId).
    ($(#[$meta:meta])* pub fn $name:ident(&self $(, $pre:ident: $prety:ty)*; $($arg:ident: $argty:ty),*) -> $ret:ty => $inner:ident) => {
        $(#[$meta])*
        pub fn $name(&self $(, $pre: $prety)*, $($arg: $argty),*) -> $ret {
            self.$inner($($pre,)* $crate::config::DEFAULT_TABLE, $($arg),*)
        }
    };
    // &mut self receiver (Session: the open transaction is implicit).
    ($(#[$meta:meta])* pub fn $name:ident(&mut self; $($arg:ident: $argty:ty),*) -> $ret:ty => $inner:ident) => {
        $(#[$meta])*
        pub fn $name(&mut self, $($arg: $argty),*) -> $ret {
            self.$inner($crate::config::DEFAULT_TABLE, $($arg),*)
        }
    };
}
pub(crate) use default_table_op;

impl EngineConfig {
    /// Deterministic row payload for `key` (also used by verification
    /// oracles to reconstruct the expected initial state).
    pub fn initial_value(&self, key: Key) -> Vec<u8> {
        deterministic_value(key, 0, self.row_value_size)
    }
}

/// Deterministic value for (key, version): what workloads write and what
/// oracles expect. Same length for every version of a key, matching the
/// paper's fixed-width "data" attribute.
pub fn deterministic_value(key: Key, version: u64, size: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(size);
    let seed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(version);
    let mut x = seed | 1;
    while v.len() < size {
        // xorshift64 keeps the payload incompressible-ish and versioned.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(size);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_deterministic_and_versioned() {
        let a = deterministic_value(5, 0, 100);
        let b = deterministic_value(5, 0, 100);
        let c = deterministic_value(5, 1, 100);
        let d = deterministic_value(6, 0, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn small_sizes_work() {
        assert_eq!(deterministic_value(1, 0, 0).len(), 0);
        assert_eq!(deterministic_value(1, 0, 3).len(), 3);
    }
}
