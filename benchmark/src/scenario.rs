//! The `recovery` workload: the paper's §5.2 controlled crash at one tenth
//! of its geometry, recovered side by side with Log0, Log1, SQL1, Log2 and
//! SQL2 on one common log (Fig. 2a at the 512MB-equivalent cache, §5.3).

use crate::api::{self, Geometry, SharedEngine};
use crate::client::{committed_rows, Client, KvClient};
use crate::crash::{recover_rounds, RoundsPlan};
use crate::gen::{stream_seed, CrashScenario, KeyDist, Mix};
use crate::oltp::{counter_metrics, trace_metrics};
use crate::probes;
use crate::stats::{highest, lowest, median, Recorder};
use crate::trace::{ClientSpans, Trace};
use crate::{Args, Report};
use std::time::Instant;

pub const NAME: &str = "recovery";

/// 43.6k data pages of ~32 rows (a tenth of the paper's 436k), the cache
/// at 15% of them (its 512 MB point), maintenance inline so checkpoints
/// fall exactly where the scenario puts them.
fn geometry() -> Geometry {
    Geometry {
        rows: 43_600 * 32,
        value_size: 100,
        pool_pages: 6_540,
        backend: "btree",
        maintenance: false,
    }
}

struct Loaded {
    engine: SharedEngine,
    client: Client,
    setup_s: f64,
}

/// Build, load, and warm the cache as §5.2 does: run the update stream
/// until the cache is full, then as long again, then checkpoint.
fn setup(seed: u64) -> api::Result<Loaded> {
    let started = Instant::now();
    let g = geometry();
    let engine = api::build_engine(&g)?;
    let kv = KvClient::new(stream_seed(seed, NAME, 0), &g, Mix::UPDATE_ONLY, KeyDist::Uniform, 0);
    let mut client = Client::kv(api::session(&engine), kv);
    let mut to_fill = 0u64;
    loop {
        let (target, cached) = api::cache_fill(&engine);
        if cached >= target {
            break;
        }
        client.prepare();
        client.execute(&mut None)?;
        to_fill += 1;
    }
    for _ in 0..to_fill {
        client.prepare();
        client.execute(&mut None)?;
    }
    api::checkpoint(&engine)?;
    Ok(Loaded { engine, client, setup_s: started.elapsed().as_secs_f64() })
}

/// What one run of the scenario's transaction stream saw.
struct Stream {
    latency: Recorder,
    txns: u64,
    wall_s: f64,
    spans: Option<ClientSpans>,
}

/// The measured phase of the scenario, one closed-loop client: ten
/// checkpoint intervals, then an eleventh that stops just short of its
/// checkpoint — Δ/BW records forced out `tail_updates` before the end.
/// A fixed amount of work; any failed transaction fails the run.
fn stream(loaded: &mut Loaded, scenario: &CrashScenario, tracing: bool) -> api::Result<Stream> {
    let origin = Instant::now();
    let mut spans = tracing.then(|| ClientSpans::new(origin));
    let mut latency = Recorder::with_capacity(8_192);
    let mut txns = 0u64;
    let Loaded { engine, client, .. } = loaded;
    let mut run_writes = |writes: u64| -> api::Result<()> {
        let mut done = 0;
        while done < writes {
            client.prepare();
            if let Some(s) = &mut spans {
                s.open_txn();
            }
            let t = Instant::now();
            client.execute(&mut spans)?;
            latency.record_ns(t.elapsed().as_nanos() as u64);
            if let Some(s) = &mut spans {
                s.close_txn();
            }
            done += client.writes();
            txns += 1;
        }
        Ok(())
    };
    let ci = scenario.updates_per_checkpoint;
    for _ in 0..scenario.checkpoints_before_crash {
        run_writes(ci)?;
        api::checkpoint(engine)?;
    }
    run_writes(ci - scenario.tail_updates)?;
    api::force_emit(engine);
    run_writes(scenario.tail_updates)?;
    Ok(Stream { latency, txns, wall_s: origin.elapsed().as_secs_f64(), spans })
}

/// Crash, and recover round after round within `budget_s`. The committed
/// state recovery must reproduce is built from the client's own record of
/// its writes, not read from the engine: a scan through a cache this much
/// smaller than the table would evict, and so flush, the dirty pages the
/// crash is supposed to lose.
fn crash_and_recover(loaded: &Loaded, budget_s: f64, out: &mut Report) {
    let last = loaded.client.last_versions().expect("a key-value client");
    let expected = committed_rows(last, &geometry());
    api::assert_no_lock_leaks(&loaded.engine);
    api::crash(&loaded.engine);
    let plan = RoundsPlan { budget_s, min_rounds: 3, max_rounds: 15 };
    out.absorb_crash(recover_rounds(&loaded.engine, &expected, &plan));
}

/// Set-ups an untraced run streams the scenario on; the run reports the
/// best stream (see `oltp::end_to_end`). One stream is 4410 transactions,
/// 44 of them beyond its p99, and takes half a second: seven give a
/// disturbance of the host something to miss.
const STREAMS: usize = 7;

/// The untraced run: `STREAMS` set-ups, each followed by the scenario's
/// stream (the same seed, so the same work: their logs must come out the
/// same length); the first is then crashed and recovered.
pub fn run_untraced(args: &Args) -> api::Result<Report> {
    let mut out = Report::default();
    let scenario = CrashScenario::PAPER_TENTH;
    let (mut setups, mut rates, mut p50s, mut p99s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut beyond_p99 = usize::MAX;
    let mut log_bytes = None;
    let mut txns = 0;
    for rep in 0..STREAMS {
        let mut loaded = setup(args.seed)?;
        let s = stream(&mut loaded, &scenario, false)?;
        setups.push(loaded.setup_s);
        rates.push(s.txns as f64 / s.wall_s);
        let sorted = s.latency.sorted();
        p50s.push(sorted.percentile_us(0.5));
        p99s.push(sorted.percentile_us(0.99));
        beyond_p99 = beyond_p99.min(sorted.samples_beyond(0.99));
        txns += s.txns;
        let bytes = api::engine_counters(&loaded.engine).get("engine_log_bytes");
        if *log_bytes.get_or_insert(bytes) != bytes {
            out.errors.push(format!("set-up {rep}: same seed, different log ({bytes} bytes)"));
        }
        if rep == 0 {
            crash_and_recover(&loaded, args.seconds, &mut out);
        }
    }
    out.note(format!(
        "stream: {txns} transactions over {STREAMS} set-ups, 0 failed; latency from {txns} raw samples, \
         at least {beyond_p99} beyond each set-up's p99; per set-up: txn/s {rates:.0?}, \
         p50 us {p50s:.1?}, p99 us {p99s:.0?}",
    ));
    out.end_to_end.set("txn_per_s", highest(&rates));
    out.end_to_end.set("txn_p50_us", lowest(&p50s));
    out.end_to_end.set("txn_p99_us", lowest(&p99s));
    out.end_to_end.set("committed_share", 1.0);
    out.end_to_end.set("setup_s", median(&setups));
    out.attempted += txns;
    Ok(out)
}

/// The traced run: one set-up streams untraced (the base of the count
/// deltas and of the tracing overhead) and is crashed and recovered; a
/// second streams traced and takes the probes.
pub fn run_traced(args: &Args) -> api::Result<Report> {
    let mut out = Report::default();
    let scenario = CrashScenario::PAPER_TENTH;
    let g = geometry();

    let mut first = setup(args.seed)?;
    let before = api::engine_counters(&first.engine);
    let untraced = stream(&mut first, &scenario, false)?;
    let delta = api::engine_counters(&first.engine).since(&before);
    crash_and_recover(&first, args.seconds / 2.0, &mut out);
    drop(first);

    let mut second = setup(args.seed)?;
    let mut traced = stream(&mut second, &scenario, true)?;
    let trace = Trace { layer: "core", clients: vec![traced.spans.take().expect("traced stream")] };

    let page_size = api::page_size(&second.engine) as f64;
    counter_metrics(&delta, untraced.txns as f64, page_size, &mut out.per_layer);
    let rates = (untraced.txns as f64 / untraced.wall_s, traced.txns as f64 / traced.wall_s);
    let mut pooled = untraced.latency;
    pooled.merge(&traced.latency);
    trace_metrics(NAME, &trace, rates, pooled, args, &mut out)?;
    let m = &mut out.per_layer;
    probes::standalone(args.seed, m)?;
    probes::on_engine(&second.engine, g.rows, args.seed, m)?;
    probes::generator(&mut second.client, m);
    probes::checkpoint(&second.engine, &mut second.client, scenario.updates_per_checkpoint, m)?;
    out.attempted += untraced.txns + traced.txns;
    Ok(out)
}
