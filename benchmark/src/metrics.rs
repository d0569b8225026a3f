//! The benchmark's contract in one place: workload names, end-to-end
//! metrics with their regression bounds, per-layer metrics. `BENCHMARK.json`
//! is generated from these tables (`lrbench --benchmark-json`) and a unit
//! test keeps the checked-in file equal to them.

use std::collections::BTreeMap;
use std::fmt::Write;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "bank-tcp",
        why: "2 TCP clients -> server -> btree, 6 round trips per transfer: server + common::codec do most of the work",
    },
    WorkloadDef {
        name: "update-warm",
        why: "1 in-process session, paper 5.2 txn (10 updates) on 200k cached rows: tc locks + wal append/force + dc prepare dominate",
    },
    WorkloadDef {
        name: "update-remote-dc",
        why: "update-warm's txn stream with backend tcp:btree: every DcApi call crosses lr_dc wire/remote/tcp/server (the proxy tax)",
    },
    WorkloadDef {
        name: "read-hot",
        why: "Zipf(0.99) 90% reads / 5% 50-key scans / 5% updates on 200k cached rows: the OLC read path works, wal nearly idle",
    },
    WorkloadDef {
        name: "kv-spill",
        why: "400k rows vs 1536-page pool (8x larger than cache), 50/50 read/update: buffer eviction, storage I/O and maintenance work",
    },
    WorkloadDef {
        name: "recovery",
        why: "paper 5.2 crash at 1/10 geometry, 512MB-equivalent cache, Log0/Log1/SQL1/Log2/SQL2 side by side on one common log",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; taken from REPEATABILITY.md (three times the widest
    /// interquartile spread seen on any workload, capped at the 0.25 the
    /// gate allows). Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these; see the README for what each
/// means on each workload. `redo_modeled_ms_*` are `SimClock` time; every
/// other time is wall-clock.
pub const END_TO_END: [MetricDef; 11] = [
    e2e("txn_per_s", "txn/s", Higher, 0.25),
    e2e("txn_p50_us", "us", Lower, 0.25),
    e2e("txn_p99_us", "us", Lower, 0.25),
    e2e("committed_share", "share", Higher, 0.001),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("redo_modeled_ms_log0", "ms", Lower, 0.25),
    e2e("redo_modeled_ms_log1", "ms", Lower, 0.25),
    e2e("redo_modeled_ms_sql1", "ms", Lower, 0.25),
    e2e("redo_modeled_ms_log2", "ms", Lower, 0.25),
    e2e("redo_modeled_ms_sql2", "ms", Lower, 0.25),
    e2e("recovery_wall_ms", "ms", Lower, 0.25),
];

/// Layer = crate or module name. A value of 0 means the layer did no work
/// on that workload (the README lists which).
pub const PER_LAYER: [MetricDef; 91] = [
    layer("server.ping_rtt_us", "us", Lower),
    layer("server.begin_rtt_us", "us", Lower),
    layer("server.rfu_rtt_us", "us", Lower),
    layer("server.update_rtt_us", "us", Lower),
    layer("server.commit_rtt_us", "us", Lower),
    layer("server.tax_us", "us", Lower),
    layer("server.requests_per_txn", "1/txn", Lower),
    layer("server.bytes_per_txn", "bytes", Lower),
    layer("server.request_errors", "count", Lower),
    layer("codec.frame_ns", "ns", Lower),
    layer("codec.unframe_ns", "ns", Lower),
    layer("dcwire.read_rtt_us", "us", Lower),
    layer("dcwire.proxy_tax", "ratio", Lower),
    layer("core.begin_ns", "ns", Lower),
    layer("core.read_ns", "ns", Lower),
    layer("core.update_ns", "ns", Lower),
    layer("core.commit_ns", "ns", Lower),
    layer("core.scan50_ns", "ns", Lower),
    layer("core.two_client_scaling", "ratio", Higher),
    layer("tc.lock_acquire_ns", "ns", Lower),
    layer("tc.conflict_retries_per_txn", "1/txn", Lower),
    layer("tc.aborts", "count", Lower),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.append_2t_ns", "ns", Lower),
    layer("wal.force_ns", "ns", Lower),
    layer("wal.bytes_per_txn", "bytes", Lower),
    layer("wal.forces_per_commit", "ratio", Lower),
    layer("dc.read_ns", "ns", Lower),
    layer("dc.optimistic_write_share", "share", Higher),
    layer("dc.write_restarts_per_kop", "count", Lower),
    layer("btree.get_ns", "ns", Lower),
    layer("btree.get_optimistic_ns", "ns", Lower),
    layer("btree.scan50_ns", "ns", Lower),
    layer("btree.height", "count", Lower),
    layer("buffer.hit_rate", "share", Higher),
    layer("buffer.evictions_per_txn", "1/txn", Lower),
    layer("buffer.dirty_evictions_per_txn", "1/txn", Lower),
    layer("buffer.clock_exams_per_eviction", "ratio", Lower),
    layer("buffer.fetch_hit_ns", "ns", Lower),
    layer("buffer.fetch_miss_ns", "ns", Lower),
    layer("buffer.optimistic_read_share", "share", Higher),
    layer("buffer.validation_failures_per_mop", "count", Lower),
    layer("buffer.frames_recycled", "count", Higher),
    layer("storage.page_reads_per_txn", "1/txn", Lower),
    layer("storage.page_writes_per_txn", "1/txn", Lower),
    layer("storage.page_write_bytes_per_txn", "bytes", Lower),
    layer("maint.checkpoints", "count", Higher),
    layer("maint.cleaner_pages_flushed", "count", Higher),
    layer("maint.ticks", "count", Lower),
    layer("maint.checkpoint_ms", "ms", Lower),
    layer("recovery.wall_ms.log0", "ms", Lower),
    layer("recovery.wall_ms.log1", "ms", Lower),
    layer("recovery.wall_ms.sql1", "ms", Lower),
    layer("recovery.wall_ms.log2", "ms", Lower),
    layer("recovery.wall_ms.sql2", "ms", Lower),
    layer("recovery.data_pages_fetched.log0", "count", Lower),
    layer("recovery.data_pages_fetched.log1", "count", Lower),
    layer("recovery.data_pages_fetched.sql1", "count", Lower),
    layer("recovery.data_pages_fetched.log2", "count", Lower),
    layer("recovery.data_pages_fetched.sql2", "count", Lower),
    layer("recovery.index_pages_fetched.log0", "count", Lower),
    layer("recovery.index_pages_fetched.log1", "count", Lower),
    layer("recovery.index_pages_fetched.sql1", "count", Lower),
    layer("recovery.index_pages_fetched.log2", "count", Lower),
    layer("recovery.index_pages_fetched.sql2", "count", Lower),
    layer("recovery.dpt_size.log0", "count", Lower),
    layer("recovery.dpt_size.log1", "count", Lower),
    layer("recovery.dpt_size.sql1", "count", Lower),
    layer("recovery.dpt_size.log2", "count", Lower),
    layer("recovery.dpt_size.sql2", "count", Lower),
    layer("recovery.data_stall_modeled_ms.log0", "ms", Lower),
    layer("recovery.data_stall_modeled_ms.log1", "ms", Lower),
    layer("recovery.data_stall_modeled_ms.sql1", "ms", Lower),
    layer("recovery.data_stall_modeled_ms.log2", "ms", Lower),
    layer("recovery.data_stall_modeled_ms.sql2", "ms", Lower),
    layer("recovery.fork_ms", "ms", Lower),
    layer("recovery.window_records", "count", Lower),
    layer("recovery.ops_reapplied", "count", Lower),
    layer("recovery.log1_over_sql1_modeled", "ratio", Lower),
    layer("recovery.log2_over_sql2_modeled", "ratio", Lower),
    layer("recovery.dpt_drop_log0_log1", "share", Higher),
    layer("recovery.prefetch_drop_log1_log2", "share", Higher),
    layer("precovery.wall_ms_w2.log1", "ms", Lower),
    layer("precovery.wall_ms_w2.sql1", "ms", Lower),
    layer("precovery.redo_modeled_ms_w2.log1", "ms", Lower),
    layer("precovery.redo_modeled_ms_w2.sql1", "ms", Lower),
    layer("precovery.skew_w2.log1", "ratio", Lower),
    layer("driver.trace_overhead_share", "share", Lower),
    layer("driver.gen_ns_per_txn", "ns", Lower),
    layer("driver.txn_p999_us", "us", Lower),
    layer("driver.samples", "count", Higher),
];

/// How long one run measures, in seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 12;

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn merge(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// The result line of the contract: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being every entry of `defs`.
/// A per-layer metric nobody set reads 0 (layer idle); an end-to-end
/// metric nobody set means the step that measures it failed: no result.
pub fn result_line(
    defs: &[MetricDef],
    values: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = match values.get(d.name) {
            Some(v) => v,
            None if d.bound.is_none() => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", d.name)),
        };
        if !v.is_finite() {
            return Err(format!("metric {} is not a number: {v}", d.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` of an f64 is the shortest text that reads back to the
        // same value: all the digits measured, none invented.
        write!(out, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit).unwrap();
    }
    out.push_str("}}");
    Ok(out)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"lrbench\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name, w.why).unwrap();
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.expect("end-to-end metrics carry a bound"),
        )
        .unwrap();
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.word()
        )
        .unwrap();
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Lower
            && m.bound == END_TO_END.iter().filter_map(|m| m.bound).reduce(f64::max)));
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 << 10);
    }

    #[test]
    fn checked_in_benchmark_json_is_generated_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `lrbench --benchmark-json`");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        for d in &END_TO_END {
            m.set(d.name, 1.25);
        }
        let line = result_line(&END_TO_END, &m, true, 10, 0).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // Per-layer metrics nobody measured read 0.
        let line = result_line(&PER_LAYER, &Metrics::default(), true, 1, 0).unwrap();
        assert_eq!(line.matches("\"value\": 0.0").count(), PER_LAYER.len());
        assert!(result_line(&END_TO_END, &Metrics::default(), true, 1, 0).is_err());
    }
}
