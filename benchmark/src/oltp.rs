//! The five OLTP workloads: one process, one or two closed-loop clients, rows
//! far above clients in number, a measured window cut into slices.

use crate::api::{self, Counters, Front, Geometry, SharedEngine};
use crate::client::{bank_total, check_last_writes, committed_rows, Client, KvClient};
use crate::crash::{recover_rounds, CrashOutcome, RoundsPlan};
use crate::gen::{stream_seed, KeyDist, Mix, Zipf};
use crate::metrics::Metrics;
use crate::probes;
use crate::stats::{highest, lowest, median, slice_median_rate, Recorder};
use crate::trace::{Call, ClientSpans, Trace};
use crate::{Args, Report};
use std::sync::Barrier;
use std::time::Instant;

/// Set-ups an untraced run measures a window on. Throughput differs from
/// one engine instance to the next by several percent within one process
/// (where the allocator put the hot structures, which thread got which
/// core), so one long window on one instance would report the instance's
/// luck; the median over instances does not.
const INSTANCES: usize = 6;
/// Measured slices of one window, after its ramp.
const SLICES: usize = 3;
/// Write operations between the crash section's checkpoint and its crash:
/// one checkpoint interval of the paper's scenario.
const CRASH_TAIL_WRITES: u64 = 4_000;

#[derive(Clone, Copy)]
pub enum Shape {
    /// begin, 2 x read_for_update, 2 x update, commit.
    Transfer,
    /// Ten operations of `mix`; keys uniform or Zipf(theta).
    Kv { mix: Mix, zipf_theta: Option<f64> },
}

#[derive(Clone)]
pub struct OltpSpec {
    pub name: &'static str,
    pub geometry: Geometry,
    pub shape: Shape,
    /// Clients are TCP connections to a front-end server.
    pub over_tcp: bool,
    /// Closed-loop clients of the gated windows: as many as keep the
    /// workload's numbers from being the scheduler's (README, "Closed
    /// loop"): one where the client does its work on its own thread, two
    /// where it waits on a socket, so that no core halts between messages.
    pub clients: usize,
    /// Transactions client 0 runs during set-up, after a scan has faulted
    /// the table in: enough for the log, the Δ/BW trackers and the
    /// checkpointer to reach their steady cycle. A count, not a time, so
    /// a slower program shows as a longer `setup_s`.
    pub warm_txns: u64,
}

pub fn spec(name: &str) -> Option<OltpSpec> {
    let geometry = |rows, value_size, pool_pages, backend| Geometry {
        rows,
        value_size,
        pool_pages,
        backend,
        maintenance: true,
    };
    // 4 KiB pages hold ~32 100-byte rows at the default fill, so 8192
    // frames hold 200k rows (6.3k pages) with room to spare.
    Some(match name {
        "bank-tcp" => OltpSpec {
            name: "bank-tcp",
            geometry: geometry(100_000, 8, 8_192, "btree"),
            shape: Shape::Transfer,
            over_tcp: true,
            clients: 2,
            warm_txns: 2_000,
        },
        "update-warm" => OltpSpec {
            name: "update-warm",
            geometry: geometry(200_000, 100, 8_192, "btree"),
            shape: Shape::Kv { mix: Mix::UPDATE_ONLY, zipf_theta: None },
            over_tcp: false,
            clients: 1,
            warm_txns: 20_000,
        },
        "update-remote-dc" => OltpSpec {
            name: "update-remote-dc",
            geometry: geometry(200_000, 100, 8_192, "tcp:btree"),
            shape: Shape::Kv { mix: Mix::UPDATE_ONLY, zipf_theta: None },
            over_tcp: false,
            clients: 2,
            warm_txns: 1_000,
        },
        "read-hot" => OltpSpec {
            name: "read-hot",
            geometry: geometry(200_000, 100, 8_192, "btree"),
            shape: Shape::Kv {
                mix: Mix { read_pct: 90, scan_pct: 5, scan_len: 50 },
                zipf_theta: Some(0.99),
            },
            over_tcp: false,
            clients: 1,
            warm_txns: 20_000,
        },
        "kv-spill" => OltpSpec {
            name: "kv-spill",
            geometry: geometry(400_000, 100, 1_536, "btree"),
            shape: Shape::Kv {
                mix: Mix { read_pct: 50, scan_pct: 0, scan_len: 0 },
                zipf_theta: None,
            },
            over_tcp: false,
            clients: 1,
            warm_txns: 10_000,
        },
        _ => return None,
    })
}

/// One set-up of a workload: engine built and loaded, server started,
/// clients connected, caches warm.
struct Loaded {
    engine: SharedEngine,
    front: Option<Front>,
    clients: Vec<Client>,
    /// Wrapping sum of the loaded balances (bank only).
    bank_total: u64,
    setup_s: f64,
}

fn setup(spec: &OltpSpec, seed: u64) -> api::Result<Loaded> {
    let started = Instant::now();
    let g = &spec.geometry;
    let engine = api::build_engine(g)?;
    let front = if spec.over_tcp { Some(Front::start(&engine)?) } else { None };
    let mut clients = Vec::with_capacity(spec.clients);
    for c in 0..spec.clients {
        let link = match &front {
            Some(f) => f.connect()?,
            None => api::session(&engine),
        };
        let seed = stream_seed(seed, spec.name, c as u64);
        clients.push(match &spec.shape {
            Shape::Transfer => Client::bank(link, seed, g.rows),
            Shape::Kv { mix, zipf_theta } => {
                let dist = match zipf_theta {
                    Some(theta) => KeyDist::Zipf(Zipf::new(g.rows, *theta)),
                    None => KeyDist::Uniform,
                };
                Client::kv(link, KvClient::new(seed, g, *mix, dist, c as u32))
            }
        });
    }
    // The bulk load leaves the cache cold: one scan faults the table in
    // (as far as the cache holds it) and gives the bank its invariant.
    let rows = api::scan_table(&engine)?;
    let bank_total = if matches!(spec.shape, Shape::Transfer) { bank_total(&rows)? } else { 0 };
    drop(rows);
    for _ in 0..spec.warm_txns {
        clients[0].prepare();
        clients[0].execute(&mut None)?;
    }
    Ok(Loaded { engine, front, clients, bank_total, setup_s: started.elapsed().as_secs_f64() })
}

/// What one window saw.
struct Window {
    slice_counts: [u64; SLICES],
    slice_secs: f64,
    /// Latencies of the transactions committed in the measured slices.
    latency: Recorder,
    /// Ramp included.
    attempted: u64,
    failed: u64,
    retries: u64,
    errors: Vec<String>,
    trace: Option<Trace>,
}

impl Window {
    fn new(slice_secs: f64, latency_capacity: usize, trace: Option<Trace>) -> Window {
        Window {
            slice_counts: [0; SLICES],
            slice_secs,
            latency: Recorder::with_capacity(latency_capacity),
            attempted: 0,
            failed: 0,
            retries: 0,
            errors: Vec::new(),
            trace,
        }
    }

    fn committed(&self) -> u64 {
        self.attempted - self.failed
    }

    fn txn_per_s(&self) -> f64 {
        slice_median_rate(&self.slice_counts, self.slice_secs)
    }
}

/// Run every client closed-loop for `seconds`: a ramp of one slice length
/// that is not measured (threads start, the cache settles under both
/// clients), then `SLICES` measured slices.
fn window(loaded: &mut Loaded, seconds: f64, tracing: bool) -> Window {
    // The layer the clients' calls go into.
    let layer = if loaded.front.is_some() { "server" } else { "core" };
    let slice_secs = seconds / (SLICES + 1) as f64;
    let barrier = Barrier::new(loaded.clients.len());
    let origin = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = loaded
            .clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut spans: Option<ClientSpans> = None;
                    let mut w = Window::new(slice_secs, 1 << 18, None);
                    barrier.wait();
                    let start = Instant::now();
                    loop {
                        client.prepare();
                        if let Some(s) = &mut spans {
                            s.open_txn();
                        }
                        let t0 = Instant::now();
                        let outcome = client.execute(&mut spans);
                        let t1 = Instant::now();
                        if let Some(s) = &mut spans {
                            s.close_txn();
                        }
                        w.attempted += 1;
                        let since_start = (t1 - start).as_secs_f64();
                        // Part 0 is the ramp; spans start with the first
                        // measured slice.
                        let part = (since_start / slice_secs) as usize;
                        if tracing && spans.is_none() && part >= 1 {
                            spans = Some(ClientSpans::new(origin));
                        }
                        match outcome {
                            Ok(retries) => {
                                w.retries += u64::from(retries);
                                if let Some(slice) = part.checked_sub(1) {
                                    // The last transaction ends just after
                                    // the window: it is timed, but counts
                                    // towards no slice's throughput.
                                    w.latency.record_ns((t1 - t0).as_nanos() as u64);
                                    if let Some(c) = w.slice_counts.get_mut(slice) {
                                        *c += 1;
                                    }
                                }
                            }
                            Err(e) => {
                                w.failed += 1;
                                if w.errors.len() < 4 {
                                    w.errors.push(e.to_string());
                                }
                            }
                        }
                        if since_start >= seconds {
                            break;
                        }
                    }
                    (w, spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let trace = tracing.then(|| Trace { layer, clients: Vec::new() });
    let mut all = Window::new(slice_secs, 0, trace);
    for (w, spans) in per_client {
        for (a, c) in all.slice_counts.iter_mut().zip(w.slice_counts) {
            *a += c;
        }
        all.latency.merge(&w.latency);
        all.attempted += w.attempted;
        all.failed += w.failed;
        all.retries += w.retries;
        all.errors.extend(w.errors);
        if let (Some(t), Some(s)) = (&mut all.trace, spans) {
            t.clients.push(s);
        }
    }
    all
}

/// The checks on a live engine after its clients have stopped. Returns
/// what failed.
fn check_live(spec: &OltpSpec, loaded: &Loaded) -> Vec<String> {
    let mut failures = Vec::new();
    match api::scan_table(&loaded.engine) {
        Err(e) => failures.push(format!("scan after the window: {e}")),
        Ok(rows) => {
            let check = match spec.shape {
                Shape::Transfer => match bank_total(&rows) {
                    Err(e) => Err(e.to_string()),
                    Ok(total) if total != loaded.bank_total => Err(format!(
                        "bank invariant broken: total {total}, loaded {}",
                        loaded.bank_total
                    )),
                    Ok(_) if rows.len() as u64 != spec.geometry.rows => {
                        Err(format!("{} accounts left of {}", rows.len(), spec.geometry.rows))
                    }
                    Ok(_) => Ok(()),
                },
                Shape::Kv { .. } => {
                    let lasts: Vec<&[u32]> =
                        loaded.clients.iter().filter_map(Client::last_versions).collect();
                    check_last_writes(&rows, &lasts, &spec.geometry)
                }
            };
            failures.extend(check.err());
        }
    }
    // Panics, naming the leaked locks, if any are left.
    api::assert_no_lock_leaks(&loaded.engine);
    if let Some(front) = &loaded.front {
        let aborts = front.counters().get("server_disconnect_aborts");
        if aborts != 0.0 {
            failures.push(format!("{aborts} transactions died with their connection"));
        }
    }
    failures
}

/// Crash this set-up at a seed-determined point and recover it with every
/// method: stop the clients and the maintenance service, checkpoint, let
/// client 0 run on (in process) until `CRASH_TAIL_WRITES` write operations
/// are behind the checkpoint, crash.
fn crash_section(spec: &OltpSpec, mut loaded: Loaded, plan: &RoundsPlan) -> CrashOutcome {
    let lead_up = |loaded: &mut Loaded| -> Result<Vec<(api::Key, api::Value)>, String> {
        let engine = loaded.engine.clone();
        loaded.clients.truncate(1);
        let client = &mut loaded.clients[0];
        client.link = api::session(&engine);
        loaded.front = None;
        api::stop_maintenance(&engine);
        api::checkpoint(&engine).map_err(|e| format!("checkpoint before the crash tail: {e}"))?;
        let mut writes = 0;
        while writes < CRASH_TAIL_WRITES {
            client.prepare();
            client.execute(&mut None).map_err(|e| format!("crash tail: {e}"))?;
            writes += client.writes();
        }
        // The committed state recovery must reproduce. Only client 0 has
        // written to this set-up, so its own record of its writes gives
        // the state without reading the engine — a scan through a cache
        // smaller than the table would flush the dirty pages the crash is
        // supposed to lose. The bank's cache holds its whole table, so
        // there the live state is checked and then read.
        let expected = match client.last_versions() {
            Some(last) => committed_rows(last, &spec.geometry),
            None => {
                if let Some(f) = check_live(spec, loaded).into_iter().next() {
                    return Err(format!("state before the crash: {f}"));
                }
                api::scan_table(&engine).map_err(|e| format!("scan before the crash: {e}"))?
            }
        };
        api::assert_no_lock_leaks(&engine);
        api::crash(&engine);
        Ok(expected)
    };
    match lead_up(&mut loaded) {
        Ok(expected) => recover_rounds(&loaded.engine, &expected, plan),
        Err(e) => {
            CrashOutcome { attempted: 1, failed: 1, errors: vec![e], ..CrashOutcome::default() }
        }
    }
}

/// An eighth of `--seconds` of recovery rounds, but three at least (where
/// one round outlasts the budget, the median of three still drops a
/// disturbed one) and forty at most (where a round takes milliseconds, the
/// rounds should span more than one scheduler hiccup).
fn rounds_plan(seconds: f64) -> RoundsPlan {
    RoundsPlan { budget_s: seconds / 8.0, min_rounds: 3, max_rounds: 40 }
}

/// Fold the windows of a run into its transaction metrics. Per instance:
/// the median slice's rate (one slice with a log-buffer regrowth in it
/// should not set the instance's figure) and the percentiles of all the
/// window's samples (a slice of `update-remote-dc` has 12 samples beyond
/// its p99, the window 35). Then the best instance: the highest rate, the
/// lowest p50, the lowest p99. Whatever else the shared host runs for a
/// minute (it does, every ten or twenty) slows three or four of a run's
/// six windows and never speeds one up; over ten runs of `bank-tcp`, four
/// of them disturbed, the median across instances spread 19% / 17% / 40%
/// (rate / p50 / p99) and the best instance 4% / 2% / 12%, and on no
/// workload did the best spread wider than the median.
fn end_to_end(windows: Vec<Window>, setups: &[f64], out: &mut Report) {
    let (mut attempted, mut failed, mut retries) = (0, 0, 0);
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut beyond_p99) = (0, usize::MAX);
    let instances = windows.len();
    for w in windows {
        rates.push(w.txn_per_s());
        let latency = w.latency.sorted();
        p50s.push(latency.percentile_us(0.5));
        p99s.push(latency.percentile_us(0.99));
        samples += latency.len();
        beyond_p99 = beyond_p99.min(latency.samples_beyond(0.99));
        attempted += w.attempted;
        failed += w.failed;
        retries += w.retries;
        out.errors.extend(w.errors);
    }
    out.note(format!(
        "{instances} windows of {SLICES} slices: {attempted} attempted (ramps included), \
         {failed} failed, {} committed, {retries} conflict retries; latency from {samples} raw \
         samples, at least {beyond_p99} beyond each window's p99",
        attempted - failed,
    ));
    out.note(format!("per instance: txn/s {rates:.0?}, p50 us {p50s:.1?}, p99 us {p99s:.0?}"));
    out.end_to_end.set("txn_per_s", highest(&rates));
    out.end_to_end.set("txn_p50_us", lowest(&p50s));
    out.end_to_end.set("txn_p99_us", lowest(&p99s));
    out.end_to_end.set("committed_share", (attempted - failed) as f64 / attempted as f64);
    out.end_to_end.set("setup_s", median(setups));
    out.attempted += attempted;
    out.failed += failed;
}

/// The untraced run: the first set-up is crashed and recovered; each of
/// the next `INSTANCES` runs a window of its share of `--seconds`.
/// End-to-end metrics only.
pub fn run_untraced(spec: &OltpSpec, args: &Args) -> api::Result<Report> {
    let mut out = Report::default();
    let first = setup(spec, args.seed)?;
    let mut setups = vec![first.setup_s];
    out.absorb_crash(crash_section(spec, first, &rounds_plan(args.seconds)));
    let mut windows = Vec::with_capacity(INSTANCES);
    for _ in 0..INSTANCES {
        let mut loaded = setup(spec, args.seed)?;
        setups.push(loaded.setup_s);
        windows.push(window(&mut loaded, args.seconds / INSTANCES as f64, false));
        out.errors.extend(check_live(spec, &loaded));
    }
    end_to_end(windows, &setups, &mut out);
    Ok(out)
}

/// `num / den`, or 0 when nothing was counted (the layer was idle).
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics that are count deltas of the program's public
/// counters across an untraced window of `txns` committed transactions.
pub fn counter_metrics(delta: &Counters, txns: f64, page_size: f64, m: &mut Metrics) {
    let d = |name: &str| delta.get(name);
    let share = |part: f64, rest: f64| ratio(part, part + rest);
    m.set("tc.aborts", d("tc_aborts"));
    m.set("wal.bytes_per_txn", ratio(d("engine_log_bytes"), txns));
    m.set("wal.forces_per_commit", ratio(d("engine_group_commit_forces"), d("tc_commits")));
    m.set("dc.optimistic_write_share", share(d("dc_optimistic_writes"), d("dc_write_fallbacks")));
    m.set(
        "dc.write_restarts_per_kop",
        ratio(d("pool_write_restarts"), d("tc_data_ops_logged") / 1e3),
    );
    m.set("buffer.hit_rate", share(d("pool_hits"), d("pool_misses")));
    m.set("buffer.evictions_per_txn", ratio(d("pool_evictions"), txns));
    m.set("buffer.dirty_evictions_per_txn", ratio(d("pool_dirty_evictions"), txns));
    m.set(
        "buffer.clock_exams_per_eviction",
        ratio(d("pool_clock_examinations"), d("pool_evictions")),
    );
    m.set(
        "buffer.optimistic_read_share",
        share(d("pool_optimistic_reads"), d("pool_hits") + d("pool_misses")),
    );
    m.set(
        "buffer.validation_failures_per_mop",
        ratio(d("pool_optimistic_validation_failures"), d("pool_optimistic_reads") / 1e6),
    );
    m.set("buffer.frames_recycled", d("pool_frames_recycled"));
    m.set("storage.page_reads_per_txn", ratio(d("io_sync_page_reads") + d("io_async_pages"), txns));
    m.set("storage.page_writes_per_txn", ratio(d("io_page_writes"), txns));
    m.set("storage.page_write_bytes_per_txn", ratio(d("io_page_writes") * page_size, txns));
    m.set("maint.checkpoints", d("engine_checkpoints_taken"));
    m.set("maint.cleaner_pages_flushed", d("engine_cleaner_pages_flushed"));
    m.set("maint.ticks", d("engine_maintenance_ticks"));
}

/// Per-layer metrics read off the spans of a traced window: the median
/// duration of each kind of call, under the layer the call went into.
fn span_metrics(trace: &Trace, m: &mut Metrics) {
    let p50_ns = |call| trace.durations(call).sorted().percentile_ns(0.5);
    if trace.layer == "server" {
        m.set("server.begin_rtt_us", p50_ns(Call::Begin) / 1e3);
        m.set("server.rfu_rtt_us", p50_ns(Call::ReadForUpdate) / 1e3);
        m.set("server.update_rtt_us", p50_ns(Call::Update) / 1e3);
        m.set("server.commit_rtt_us", p50_ns(Call::Commit) / 1e3);
    } else {
        m.set("core.begin_ns", p50_ns(Call::Begin));
        m.set("core.read_ns", p50_ns(Call::Read));
        m.set("core.update_ns", p50_ns(Call::Update));
        m.set("core.commit_ns", p50_ns(Call::Commit));
        m.set("core.scan50_ns", p50_ns(Call::Scan));
    }
}

/// What a traced pass reports about its spans and about itself, from an
/// untraced and a traced run of the same work (`rates`: their txn/s;
/// `pooled`: the latencies of both); writes the trace file.
pub fn trace_metrics(
    workload: &str,
    trace: &Trace,
    (untraced_rate, traced_rate): (f64, f64),
    pooled: Recorder,
    args: &Args,
    out: &mut Report,
) -> api::Result<()> {
    let m = &mut out.per_layer;
    span_metrics(trace, m);
    m.set("driver.trace_overhead_share", 1.0 - traced_rate / untraced_rate);
    let pooled = pooled.sorted();
    m.set("driver.txn_p999_us", pooled.percentile_us(0.999));
    m.set("driver.samples", pooled.len() as f64);
    let path = args.out.join(format!("trace-{workload}.jsonl"));
    std::fs::create_dir_all(&args.out)?;
    trace.write_jsonl(&path, workload)?;
    out.note(format!(
        "untraced {untraced_rate:.0} txn/s, traced {traced_rate:.0} txn/s; {} spans dropped; \
         driver self time per txn p50 {:.0} ns; spans written to {}",
        trace.dropped(),
        trace.txn_self_times().sorted().percentile_ns(0.5),
        path.display(),
    ));
    Ok(())
}

fn snapshot(loaded: &Loaded) -> Counters {
    let mut c = api::engine_counters(&loaded.engine);
    if let Some(front) = &loaded.front {
        c.merge(front.counters());
    }
    c
}

/// The traced run: one set-up is crashed and recovered, a second runs an
/// untraced window (the base of the count deltas and of the tracing
/// overhead), then a traced window, then the probes. Per-layer metrics
/// only.
pub fn run_traced(spec: &OltpSpec, args: &Args) -> api::Result<Report> {
    let mut out = Report::default();
    let first = setup(spec, args.seed)?;
    out.absorb_crash(crash_section(spec, first, &rounds_plan(args.seconds)));

    let mut loaded = setup(spec, args.seed)?;
    let half = args.seconds / 2.0;
    let before = snapshot(&loaded);
    let untraced = window(&mut loaded, half, false);
    let delta = snapshot(&loaded).since(&before);
    let traced = window(&mut loaded, half, true);
    out.errors.extend(check_live(spec, &loaded));

    let m = &mut out.per_layer;
    let txns = untraced.committed().max(1) as f64;
    counter_metrics(&delta, txns, api::page_size(&loaded.engine) as f64, m);
    m.set("tc.conflict_retries_per_txn", untraced.retries as f64 / txns);
    if spec.over_tcp {
        m.set("server.requests_per_txn", ratio(delta.get("server_requests"), txns));
        m.set("server.bytes_per_txn", ratio(delta.get("server_bytes"), txns));
        m.set("server.request_errors", delta.get("server_request_errors"));
    }
    let trace = traced.trace.as_ref().expect("the traced window records spans");
    let mut pooled = untraced.latency.clone();
    pooled.merge(&traced.latency);
    let rates = (untraced.txn_per_s(), traced.txn_per_s());
    trace_metrics(spec.name, trace, rates, pooled, args, &mut out)?;

    let m = &mut out.per_layer;
    probes::standalone(args.seed, m)?;
    probes::on_engine(&loaded.engine, spec.geometry.rows, args.seed, m)?;
    probes::generator(&mut loaded.clients[0], m);
    if spec.over_tcp {
        probes::front_end(&mut loaded.clients[0], &loaded.engine, spec, args.seed, m)?;
    }
    probes::checkpoint(&loaded.engine, &mut loaded.clients[0], CRASH_TAIL_WRITES, m)?;
    if spec.geometry.backend.starts_with("tcp:") {
        // The same stream on an in-process twin: the base of the proxy tax.
        m.set("dcwire.read_rtt_us", m.get("dc.read_ns").unwrap_or(0.0) / 1e3);
        let twin_spec = OltpSpec {
            geometry: Geometry { backend: "btree", ..spec.geometry.clone() },
            ..spec.clone()
        };
        let mut twin = setup(&twin_spec, args.seed)?;
        let local = window(&mut twin, half / 2.0, false);
        m.set("dcwire.proxy_tax", local.txn_per_s() / untraced.txn_per_s());
        probes::dc_read(&twin.engine, spec.geometry.rows, args.seed, m)?;
        out.note(format!(
            "proxy tax: in-process twin {:.0} txn/s over tcp:btree {:.0} txn/s",
            local.txn_per_s(),
            untraced.txn_per_s()
        ));
    }

    if spec.clients == 1 {
        // What a second client adds: the contention (log mutex, pool
        // latches, lock table) the gated single-client windows never see.
        let mut pair = setup(&OltpSpec { clients: 2, ..spec.clone() }, args.seed)?;
        let both = window(&mut pair, half / 2.0, false);
        out.errors.extend(check_live(spec, &pair));
        out.per_layer.set("core.two_client_scaling", both.txn_per_s() / untraced.txn_per_s());
        out.note(format!(
            "two clients {:.0} txn/s over one client {:.0} txn/s",
            both.txn_per_s(),
            untraced.txn_per_s()
        ));
        out.attempted += both.attempted;
        out.failed += both.failed;
        out.errors.extend(both.errors);
    }

    out.attempted += untraced.attempted + traced.attempted;
    out.failed += untraced.failed + traced.failed;
    out.errors.extend(untraced.errors);
    out.errors.extend(traced.errors);
    Ok(out)
}
