//! Probes: timed loops over one public function of one layer, run right
//! after a traced window on the workload's own loaded engine, or on a
//! standalone instance where the layer has one. All wall-clock.

use crate::api::{self, Geometry, LockProbe, SharedEngine, TreeProbe, WalProbe};
use crate::client::Client;
use crate::gen::{stream_seed, Rng};
use crate::metrics::Metrics;
use crate::oltp::OltpSpec;
use crate::stats::{median, Recorder};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 21;

/// Nanoseconds per call of `f`: the median, over batches, of a batch's
/// mean. `f` gets a running call index.
fn per_call_ns(per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut means = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let t = Instant::now();
        for i in 0..per_batch {
            f(b * per_batch + i);
        }
        means.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&means)
}

/// The p50, in nanoseconds, of `calls` individually timed calls (for calls
/// long enough to time one by one).
fn p50_ns(calls: usize, mut f: impl FnMut() -> api::Result<()>) -> api::Result<f64> {
    let mut r = Recorder::with_capacity(calls);
    for _ in 0..calls {
        let t = Instant::now();
        f()?;
        r.record_ns(t.elapsed().as_nanos() as u64);
    }
    Ok(r.sorted().percentile_ns(0.5))
}

/// Probes that need no engine: `common::codec`, a standalone
/// `LockManager`, a standalone `SharedWal`, and a buffer pool eight times
/// smaller than its table for the miss path.
pub fn standalone(seed: u64, m: &mut Metrics) -> api::Result<()> {
    let body = [0x5Au8; 128];
    m.set(
        "codec.frame_ns",
        per_call_ns(20_000, |_| drop(black_box(api::codec_frame(black_box(&body))))),
    );
    let framed = api::codec_frame(&body);
    m.set(
        "codec.unframe_ns",
        per_call_ns(20_000, |_| {
            black_box(api::codec_unframe(black_box(&framed)));
        }),
    );

    // Ten keys per transaction, as the §5.2 transaction locks.
    let locks = LockProbe::new();
    let mut rng = Rng::new(seed);
    let keys: Vec<u64> = (0..10).map(|_| rng.below(200_000)).collect();
    m.set(
        "tc.lock_acquire_ns",
        per_call_ns(2_000, |i| locks.acquire_release(i as u64 + 1, &keys)) / keys.len() as f64,
    );

    // 100-byte update payloads, one appender and then two at once: the
    // second figure is the log mutex under the contention of 2 clients.
    let wal = WalProbe::new();
    let append_ns = per_call_ns(5_000, |i| {
        black_box(wal.append_update(i as u64, 100));
    });
    let append_and_force_ns = per_call_ns(5_000, |i| {
        let lsn = wal.append_update(i as u64, 100);
        wal.force_covering(lsn);
    });
    m.set("wal.append_ns", append_ns);
    m.set("wal.force_ns", (append_and_force_ns - append_ns).max(0.0));
    let shared = WalProbe::new();
    let both: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let wal = shared.clone();
                scope.spawn(move || {
                    per_call_ns(5_000, |i| {
                        black_box(wal.append_update(i as u64, 100));
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("appender panicked")).collect()
    });
    m.set("wal.append_2t_ns", median(&both));

    fetch_miss(seed, m)
}

/// `BufferPool::fetch` of a page that is not resident: 20k rows (~625
/// leaves) under a 64-frame pool, leaves visited round-robin so every
/// fetch evicts.
fn fetch_miss(seed: u64, m: &mut Metrics) -> api::Result<()> {
    let g = Geometry {
        rows: 20_000,
        value_size: 100,
        pool_pages: 64,
        backend: "btree",
        maintenance: false,
    };
    let engine = api::build_engine(&g)?;
    let tree = TreeProbe::attach(&engine)?;
    let mut leaves = Vec::new();
    for key in (0..g.rows).step_by(16) {
        let pid = tree.leaf_of(key)?;
        if leaves.last() != Some(&pid) {
            leaves.push(pid);
        }
    }
    let start = Rng::new(seed).below(leaves.len() as u64) as usize;
    let mut hits = 0u64;
    let ns = per_call_ns(500, |i| {
        hits += u64::from(tree.fetch(leaves[(start + i) % leaves.len()]).expect("fetch"));
    });
    if hits == 0 {
        m.set("buffer.fetch_miss_ns", ns);
    } else {
        eprintln!("buffer.fetch_miss_ns probe: {hits} fetches hit; not reported");
    }
    Ok(())
}

/// `DcApi::read` of random loaded keys on `engine` (a wire round trip when
/// the backend is `tcp:*`).
pub fn dc_read(engine: &SharedEngine, rows: u64, seed: u64, m: &mut Metrics) -> api::Result<()> {
    let mut rng = Rng::new(stream_seed(seed, "probe", 1));
    let mut failed = None;
    let ns = per_call_ns(500, |_| {
        if let Err(e) = api::dc_read(engine, rng.below(rows)).map(black_box) {
            failed = Some(e);
        }
    });
    m.set("dc.read_ns", ns);
    failed.map_or(Ok(()), Err)
}

/// Probes on the workload's own loaded engine: the DC read, the B-tree
/// under its table (on its own pool), the pool's hit path.
pub fn on_engine(engine: &SharedEngine, rows: u64, seed: u64, m: &mut Metrics) -> api::Result<()> {
    dc_read(engine, rows, seed, m)?;
    let tree = TreeProbe::attach(engine)?;
    let mut rng = Rng::new(stream_seed(seed, "probe", 2));
    m.set("btree.get_ns", per_call_ns(2_000, |_| drop(black_box(tree.get(rng.below(rows))))));
    m.set(
        "btree.get_optimistic_ns",
        per_call_ns(2_000, |_| drop(black_box(tree.get_optimistic(rng.below(rows))))),
    );
    m.set(
        "btree.scan50_ns",
        per_call_ns(200, |_| {
            let from = rng.below(rows - 50);
            drop(black_box(tree.scan(from, from + 49)));
        }),
    );
    m.set("btree.height", f64::from(tree.height()?));
    let leaf = tree.leaf_of(rng.below(rows))?;
    tree.fetch(leaf)?;
    m.set("buffer.fetch_hit_ns", per_call_ns(5_000, |_| drop(black_box(tree.fetch(leaf)))));
    Ok(())
}

/// One `Engine::checkpoint()` with a known amount of work in front of it:
/// the maintenance service is stopped (and stays stopped — this is the
/// last probe), the client runs on until `writes` write operations lie
/// behind the last checkpoint, then the checkpoint is timed.
pub fn checkpoint(
    engine: &SharedEngine,
    client: &mut Client,
    writes: u64,
    m: &mut Metrics,
) -> api::Result<()> {
    api::stop_maintenance(engine);
    api::checkpoint(engine)?;
    let mut done = 0;
    while done < writes {
        client.prepare();
        client.execute(&mut None)?;
        done += client.writes();
    }
    let t = Instant::now();
    api::checkpoint(engine)?;
    m.set("maint.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// What the driver itself spends per transaction outside the program:
/// generating the operations and the values they write.
pub fn generator(client: &mut Client, m: &mut Metrics) {
    m.set(
        "driver.gen_ns_per_txn",
        per_call_ns(2_000, |_| {
            black_box(client.prepare_with_values());
        }),
    );
}

/// The front-end server, on a quiet engine through the workload's own
/// first connection: a ping round trip, and the tax of the wire — the p50
/// of a transfer over TCP minus the p50 of the same kind of transfer
/// through an in-process session on the same engine.
pub fn front_end(
    tcp_client: &mut Client,
    engine: &SharedEngine,
    spec: &OltpSpec,
    seed: u64,
    m: &mut Metrics,
) -> api::Result<()> {
    m.set("server.ping_rtt_us", p50_ns(2_000, || tcp_client.link.ping())? / 1e3);
    let transfer = |client: &mut Client| {
        p50_ns(2_000, || {
            client.prepare();
            client.execute(&mut None).map(drop)
        })
    };
    let over_tcp = transfer(tcp_client)?;
    let mut local =
        Client::bank(api::session(engine), stream_seed(seed, "probe", 3), spec.geometry.rows);
    let in_process = transfer(&mut local)?;
    m.set("server.tax_us", (over_tcp - in_process) / 1e3);
    Ok(())
}
