//! Acceptance tests for the unified observability layer: a bank-style
//! workload run with tracing on must answer the paper's measurement
//! questions **from the drained journal alone**, recovery must leave a
//! per-worker span timeline, and `Engine::metrics()` must round-trip
//! every counter through the Prometheus text exposition.

use lr_core::{Engine, EngineConfig, EventKind, RecoveryMethod, RecoveryOptions, DEFAULT_TABLE};
use lr_obs::metrics::{MetricValue, MetricsSnapshot};
use lr_obs::trace::validate_journal_line;
use std::collections::HashMap;
use std::sync::Arc;

/// Four sessions moving money between random account pairs: each
/// transfer reads both accounts and rewrites both, with enough
/// concurrency for group commit, no-wait conflicts and (possibly) OLC
/// restarts to show up in the journal.
fn run_bank(engine: &Arc<Engine>, threads: usize, transfers_per_thread: u64, accounts: u64) {
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let mut session = Engine::session(engine);
            s.spawn(move || {
                // Deterministic per-thread key walk (no rand dependency).
                let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(t + 1);
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for i in 0..transfers_per_thread {
                    let from = next() % accounts;
                    let to = next() % accounts;
                    let note = format!("t{t}-{i}").into_bytes();
                    session
                        .run_txn(10_000, |s| {
                            let a = s.read_for_update(DEFAULT_TABLE, from)?;
                            let b = s.read_for_update(DEFAULT_TABLE, to)?;
                            assert!(a.is_some() && b.is_some(), "accounts preloaded");
                            s.update_in(DEFAULT_TABLE, from, note.clone())?;
                            s.update_in(DEFAULT_TABLE, to, note.clone())
                        })
                        .expect("transfer");
                }
            });
        }
    });
}

fn traced_engine(accounts: u64) -> Arc<Engine> {
    Engine::build(EngineConfig {
        initial_rows: accounts,
        pool_pages: 1_024,
        io_model: lr_common::IoModel::zero(),
        commit_force_us: 20,
        trace: true,
        ..EngineConfig::default()
    })
    .expect("engine build")
    .into_shared()
}

/// The tentpole acceptance criterion: per-txn commit latency,
/// group-commit batch sizes and OLC restarts by page — all derived from
/// the drained journal, cross-checked against the engine's own counters.
#[test]
fn bank_journal_answers_the_paper_questions() {
    let accounts = 2_000;
    let engine = traced_engine(accounts);
    run_bank(&engine, 4, 50, accounts);
    engine.checkpoint().expect("checkpoint");

    let metrics = engine.metrics();
    let events = engine.drain_trace();
    assert!(!events.is_empty(), "traced run must leave a journal");

    // The drain is globally ordered: strictly increasing sequence numbers.
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq, "drain out of order: {} then {}", w[0].seq, w[1].seq);
    }
    // Every event renders to a schema-valid journal line.
    for ev in &events {
        let line = ev.to_json().render();
        validate_journal_line(&line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
    }

    // Per-txn commit latency: pair TxnBegin with TxnCommit by txn id.
    let mut begin_at: HashMap<u64, u64> = HashMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut force_batches: Vec<u64> = Vec::new();
    let mut piggybacked = 0u64;
    let mut restarts_by_page: HashMap<(u64, bool), u64> = HashMap::new();
    let mut ckpt = (0u64, 0u64);
    for ev in &events {
        match ev.kind {
            EventKind::TxnBegin { txn } => {
                begin_at.insert(txn, ev.t_us);
            }
            EventKind::TxnCommit { txn } => {
                let t0 = begin_at.remove(&txn).expect("commit without begin");
                latencies.push(ev.t_us - t0);
            }
            EventKind::GroupCommitForce { batch, .. } => force_batches.push(batch),
            EventKind::GroupCommitPiggyback { .. } => piggybacked += 1,
            EventKind::OlcRestart { pid, write } => {
                *restarts_by_page.entry((pid, write)).or_insert(0) += 1;
            }
            EventKind::CheckpointBegin { .. } => ckpt.0 += 1,
            EventKind::CheckpointEnd { .. } => ckpt.1 += 1,
            _ => {}
        }
    }

    // One latency sample per committed transaction, exactly.
    assert_eq!(latencies.len() as u64, metrics.counter("tc_commits").unwrap());
    // Group-commit batch sizes: one entry per force (checkpoint-bracket
    // forces legitimately cover zero commits), and the journal's
    // force/piggyback counts agree with the WAL's own counters. Every
    // commit is accounted for: it either joined a force batch or
    // piggybacked on an already-stable LSN.
    assert_eq!(force_batches.len() as u64, metrics.counter("engine_group_commit_forces").unwrap());
    assert_eq!(piggybacked, metrics.counter("engine_group_commit_piggybacked").unwrap());
    let batched: u64 = force_batches.iter().sum();
    let commits = metrics.counter("tc_commits").unwrap();
    assert!(batched > 0, "some commit must have ridden a force batch");
    assert!(batched <= commits);
    assert!(
        batched + piggybacked >= commits,
        "{batched} batched + {piggybacked} piggybacked must cover {commits} commits"
    );
    // OLC restarts by page: the journal's per-page tallies sum to the
    // pool's validation-failure and failed-upgrade counters.
    let read_restarts: u64 = restarts_by_page.iter().filter(|((_, w), _)| !w).map(|(_, c)| c).sum();
    let write_restarts: u64 =
        restarts_by_page.iter().filter(|((_, w), _)| *w).map(|(_, c)| c).sum();
    assert_eq!(read_restarts, metrics.counter("engine_optimistic_validation_failures").unwrap());
    assert_eq!(write_restarts, metrics.counter("engine_leaf_upgrades_failed").unwrap());
    // The checkpoint left its begin/end markers.
    assert_eq!(ckpt, (1, 1));
    // Nothing overflowed at this scale.
    assert_eq!(engine.trace().dropped_events(), 0);

    // A second drain starts empty — the first one consumed the journal.
    assert!(engine.drain_trace().is_empty());
}

/// Per-worker recovery phase spans: a crashed engine recovered with two
/// redo workers must journal an Analysis span, one Redo span per
/// worker, and an Undo span — each End carrying its busy time.
#[test]
fn recovery_leaves_a_per_worker_span_timeline() {
    let accounts = 2_000;
    let engine = traced_engine(accounts);
    run_bank(&engine, 2, 60, accounts);
    engine.crash();

    let fork = engine.fork_crashed().expect("fork crashed engine");
    fork.recover_with(RecoveryMethod::Log1, RecoveryOptions::with_workers(2))
        .expect("parallel recovery");
    let events = fork.drain_trace();

    // The fork's journal is its own: no transaction traffic from the
    // pre-crash run leaks in.
    assert!(
        !events.iter().any(|e| matches!(e.kind, EventKind::TxnBegin { .. })),
        "fork journal must not contain pre-crash workload events"
    );

    let mut starts: HashMap<(&str, u64), u64> = HashMap::new();
    let mut ends: HashMap<(&str, u64), u64> = HashMap::new();
    for ev in &events {
        match ev.kind {
            EventKind::RecoveryPhaseStart { phase, worker } => {
                starts.insert((phase.name(), worker), ev.t_us);
            }
            EventKind::RecoveryPhaseEnd { phase, worker, busy_us } => {
                ends.insert((phase.name(), worker), busy_us);
            }
            _ => {}
        }
    }
    // Every span that ended also started, on the same worker.
    for key in ends.keys() {
        assert!(starts.contains_key(key), "end without start for {key:?}");
    }
    assert!(ends.contains_key(&("analysis", 0)), "analysis span missing: {ends:?}");
    assert!(ends.contains_key(&("undo", 0)), "undo span missing: {ends:?}");
    let redo_workers: Vec<u64> =
        ends.keys().filter(|(p, _)| *p == "redo").map(|&(_, w)| w).collect();
    assert_eq!(
        {
            let mut w = redo_workers.clone();
            w.sort_unstable();
            w
        },
        vec![0, 1],
        "expected one redo span per worker"
    );

    // The recovered fork still answers reads (sanity that tracing did not
    // perturb recovery itself).
    assert!(fork.read(DEFAULT_TABLE, 0).expect("read").is_some());
}

/// `Engine::metrics()` → Prometheus text → parse: every counter and
/// gauge survives byte-exactly, and every histogram exports its
/// `_sum`/`_count`/`_max` series.
#[test]
fn metrics_prometheus_round_trip() {
    let accounts = 500;
    let engine = traced_engine(accounts);
    run_bank(&engine, 2, 20, accounts);
    engine.checkpoint().expect("checkpoint");

    let snap = engine.metrics();
    let parsed: HashMap<String, f64> =
        MetricsSnapshot::parse_prometheus(&snap.to_prometheus()).into_iter().collect();
    for (name, value) in &snap.metrics {
        match value {
            MetricValue::Counter(v) => {
                assert_eq!(parsed.get(name.as_str()), Some(&(*v as f64)), "counter {name}");
            }
            MetricValue::Gauge(v) => {
                assert_eq!(parsed.get(name.as_str()), Some(v), "gauge {name}");
            }
            MetricValue::Hist(h) => {
                assert_eq!(parsed.get(&format!("{name}_sum")), Some(&(h.sum() as f64)), "{name}");
                assert_eq!(
                    parsed.get(&format!("{name}_count")),
                    Some(&(h.count() as f64)),
                    "{name}"
                );
                assert_eq!(parsed.get(&format!("{name}_max")), Some(&(h.max() as f64)), "{name}");
            }
        }
    }
    // Work happened, so the big counters are live, not zero.
    assert!(parsed["tc_commits"] > 0.0);
    assert!(parsed["engine_group_commit_forces"] + parsed["engine_group_commit_piggybacked"] > 0.0);
}

/// Tripwire: adding a field to a stats struct without exporting it must
/// fail this test. `EngineStats` is checked through its `Debug` field
/// names; the `counter_struct!`-generated structs through their
/// `COUNTER_NAMES`/`HISTOGRAM_NAMES` enumerations.
#[test]
fn every_stats_field_is_exported() {
    let engine = traced_engine(200);
    run_bank(&engine, 1, 5, 200);
    let snap = engine.metrics();
    let names: Vec<&str> = snap.metrics.iter().map(|(n, _)| n.as_str()).collect();

    // Depth-1 field names of EngineStats, parsed out of the pretty Debug
    // rendering (4-space indent = top level).
    let dbg = format!("{:#?}", engine.stats());
    let mut checked = 0;
    for line in dbg.lines() {
        let Some(rest) = line.strip_prefix("    ") else { continue };
        if rest.starts_with(' ') {
            continue;
        }
        let Some((field, _)) = rest.split_once(':') else { continue };
        assert!(
            names.iter().any(|n| n.contains(field)),
            "EngineStats field {field} missing from Engine::metrics()"
        );
        checked += 1;
    }
    assert!(checked >= 20, "Debug parse saw too few EngineStats fields ({checked})");

    for c in lr_buffer::PoolStats::COUNTER_NAMES {
        assert!(names.contains(&format!("pool_{c}").as_str()), "pool counter {c} missing");
    }
    for h in lr_buffer::PoolStats::HISTOGRAM_NAMES {
        assert!(names.contains(&format!("pool_{h}").as_str()), "pool histogram {h} missing");
    }
    for c in lr_dc::dc::DcStats::COUNTER_NAMES {
        assert!(names.contains(&format!("dc_{c}").as_str()), "dc counter {c} missing");
    }
    for h in lr_dc::dc::DcStats::HISTOGRAM_NAMES {
        assert!(names.contains(&format!("dc_{h}").as_str()), "dc histogram {h} missing");
    }
    for c in lr_common::IoStats::COUNTER_NAMES {
        assert!(names.contains(&format!("io_{c}").as_str()), "io counter {c} missing");
    }

    // A proxied engine also exports its client-side wire telemetry: one
    // counter per request kind it has sent, and their total. (`metrics()`
    // itself crosses the wire for the DC's stats, so the export may run
    // one `stats` request ahead of the snapshot taken before it.)
    assert!(!names.iter().any(|n| n.starts_with("dc_wire_")), "in process: nothing crosses");
    let remote = Engine::build(EngineConfig {
        initial_rows: 200,
        io_model: lr_common::IoModel::zero(),
        backend: "remote:btree".to_string(),
        ..EngineConfig::default()
    })
    .expect("engine build")
    .into_shared();
    run_bank(&remote, 1, 5, 200);
    let wire = remote.dc().wire_telemetry().expect("remote:* keeps wire telemetry");
    let snap = remote.metrics();
    for op in &wire.ops {
        let exported = snap.counter(&format!("dc_wire_requests_{}", op.name()));
        assert!(
            exported >= Some(op.count),
            "wire op {} missing or behind: {exported:?}",
            op.name()
        );
    }
    assert!(wire.ops.iter().any(|op| op.name() == "apply"), "the bank run wrote through the proxy");
    assert!(snap.counter("dc_wire_requests") >= Some(wire.total_count()));
}

/// The maintenance service's metrics sampler: with a sampling period
/// configured, snapshots accumulate into the in-memory time series and
/// `delta_since` windows between them stay non-negative on counters.
#[test]
fn maintenance_sampler_builds_a_time_series() {
    let engine = Engine::build(EngineConfig {
        initial_rows: 500,
        pool_pages: 256,
        io_model: lr_common::IoModel::zero(),
        background_maintenance: true,
        metrics_sample_ms: 1,
        trace: true,
        ..EngineConfig::default()
    })
    .expect("engine build")
    .into_shared();

    run_bank(&engine, 2, 30, 500);
    // The sampler runs on real time; give it a few periods.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while engine.metrics_history().len() < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    engine.stop_maintenance();

    let history = engine.metrics_history();
    assert!(history.len() >= 2, "sampler produced {} snapshots", history.len());
    for w in history.windows(2) {
        assert!(w[0].at_us <= w[1].at_us, "samples out of time order");
        let delta = w[1].delta_since(&w[0]);
        for (name, value) in &delta.metrics {
            if let MetricValue::Counter(_) = value {
                assert!(delta.counter(name).is_some(), "counter {name} lost in delta");
            }
        }
    }
}
