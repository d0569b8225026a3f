//! Criterion micro-benchmarks for substrate pieces no `lrbench` probe
//! times: slotted-page operations, B-tree leaf lookup and in-place update,
//! log encode/decode/scan, CRC, and DPT construction (all three builders).
//! Point reads, log append and end-to-end recovery are measured on the
//! real engine by `lrbench` (`btree.get_ns`, `wal.append_ns`,
//! `recovery.wall_ms.*`).
//!
//! These measure *wall time* of the algorithms themselves (the figure
//! harnesses measure *simulated* recovery time; see DESIGN.md §2).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use lr_buffer::BufferPool;
use lr_common::{IoModel, Lsn, PageId, SimClock, TableId, TxnId};
use lr_dc::{build_dpt_aries, build_dpt_logical, build_dpt_sqlserver, DeltaDptMode};
use lr_storage::{Page, PageType, SimDisk};
use lr_wal::{DeltaRecord, LogPayload, LogRecord, Wal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_slotted_page(c: &mut Criterion) {
    let mut g = c.benchmark_group("slotted_page");
    g.bench_function("insert_100B_until_full", |b| {
        b.iter_batched(
            || Page::new(4096, PageId(1), PageType::Leaf),
            |mut page| {
                let rec = [7u8; 100];
                let mut slot = 0;
                while page.insert_record(slot, &rec).is_ok() {
                    slot += 1;
                }
                slot
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("update_same_size", |b| {
        let mut page = Page::new(4096, PageId(1), PageType::Leaf);
        for i in 0..30 {
            page.insert_record(i, &[i as u8; 100]).unwrap();
        }
        b.iter(|| {
            page.update_record(15, &[0xAA; 100]).unwrap();
        })
    });
    g.bench_function("compact_30_records", |b| {
        b.iter_batched(
            || {
                let mut page = Page::new(4096, PageId(1), PageType::Leaf);
                for i in 0..30 {
                    page.insert_record(i, &[i as u8; 100]).unwrap();
                }
                for i in (0..30).rev().step_by(2) {
                    page.remove_record(i);
                }
                page
            },
            |mut page| page.compact(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn tree_fixture(rows: u64) -> (BufferPool, lr_btree::BTree) {
    let mut disk = SimDisk::new(4096, 0, SimClock::new(), IoModel::zero());
    let root =
        lr_btree::bulk_load(&mut disk, TableId(1), (0..rows).map(|k| (k, vec![k as u8; 100])), 0.9)
            .unwrap();
    let pool = BufferPool::new(Box::new(disk), 1 << 16, Box::new(|l| l));
    pool.set_elsn(Lsn::MAX);
    (pool, lr_btree::BTree::attach(TableId(1), root))
}

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    let (pool, tree) = tree_fixture(100_000);
    let mut rng = StdRng::seed_from_u64(1);
    g.throughput(Throughput::Elements(1));
    g.bench_function("find_leaf_pid_100k_rows", |b| {
        b.iter(|| {
            let k = rng.gen_range(0..100_000);
            tree.find_leaf_pid(&pool, k).unwrap()
        })
    });
    g.bench_function("update_in_place_100k_rows", |b| {
        let mut lsn = 1_000_000u64;
        b.iter(|| {
            let k = rng.gen_range(0..100_000);
            let leaf = tree.find_leaf(&pool, k).unwrap().leaf;
            lsn += 1;
            tree.apply_update(&pool, leaf, k, &[9u8; 100], Lsn(lsn)).unwrap()
        })
    });
    g.finish();
}

fn bench_wal(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal");
    let payload = LogPayload::Update {
        txn: TxnId(1),
        table: TableId(1),
        key: 42,
        pid: PageId(7),
        prev_lsn: Lsn(100),
        before: vec![1u8; 100],
        after: vec![2u8; 100],
    };
    g.throughput(Throughput::Elements(1));
    g.bench_function("encode_decode_update_record", |b| {
        b.iter(|| {
            let bytes = payload.encode();
            LogPayload::decode(&bytes).unwrap()
        })
    });
    g.bench_function("scan_10k_records", |b| {
        let mut wal = Wal::new(8192);
        for _ in 0..10_000 {
            wal.append(&payload);
        }
        b.iter(|| wal.scan_from(Lsn::NULL).unwrap().len())
    });
    // The checksum under every append, scan and restart pass, at a log
    // record's size and at a size where the word loop dominates.
    for (name, len) in [("crc32_256B", 256usize), ("crc32_64KB", 64 << 10)] {
        let buf: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |b| b.iter(|| lr_common::crc32(std::hint::black_box(&buf))));
    }
    g.finish();
}

/// Synthesize an analysis window shaped like a checkpoint interval:
/// `n_updates` update records over `pages` pages with periodic Δ+BW records.
fn synth_window(n_updates: u64, pages: u64) -> Vec<LogRecord> {
    let mut rng = StdRng::seed_from_u64(9);
    let mut out = Vec::new();
    let mut lsn = 100u64;
    let mut dirty: Vec<PageId> = Vec::new();
    for i in 0..n_updates {
        let pid = PageId(rng.gen_range(0..pages));
        lsn += 120;
        out.push(LogRecord {
            lsn: Lsn(lsn),
            payload: LogPayload::Update {
                txn: TxnId(1 + i / 10),
                table: TableId(1),
                key: pid.0 * 32,
                pid,
                prev_lsn: Lsn::NULL,
                before: vec![0u8; 100],
                after: vec![1u8; 100],
            },
        });
        dirty.push(pid);
        if dirty.len() >= 128 {
            lsn += 50;
            let written: Vec<PageId> = dirty.iter().take(64).copied().collect();
            out.push(LogRecord {
                lsn: Lsn(lsn),
                payload: LogPayload::Delta(DeltaRecord {
                    dirty_set: std::mem::take(&mut dirty),
                    dirty_lsns: vec![],
                    written_set: written.clone(),
                    fw_lsn: Lsn(lsn - 3_000),
                    first_dirty: 64,
                    tc_lsn: Lsn(lsn),
                }),
            });
            lsn += 30;
            out.push(LogRecord {
                lsn: Lsn(lsn),
                payload: LogPayload::Bw { written_set: written, fw_lsn: Lsn(lsn - 3_000) },
            });
        }
    }
    out
}

fn bench_dpt_builders(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpt_construction");
    let window = synth_window(40_000, 8_000);
    g.throughput(Throughput::Elements(40_000));
    g.bench_function("sqlserver_alg3_40k_records", |b| {
        b.iter(|| build_dpt_sqlserver(&window).0.len())
    });
    g.bench_function("logical_alg4_40k_records", |b| {
        b.iter(|| build_dpt_logical(&window, Lsn(50), DeltaDptMode::Standard).dpt.len())
    });
    g.bench_function("logical_reduced_40k_records", |b| {
        b.iter(|| build_dpt_logical(&window, Lsn(50), DeltaDptMode::Reduced).dpt.len())
    });
    g.bench_function("aries_40k_records", |b| {
        let seed: Vec<(PageId, Lsn)> = (0..500).map(|i| (PageId(i), Lsn(60))).collect();
        b.iter(|| build_dpt_aries(&seed, &window).0.len())
    });
    g.finish();
}

criterion_group!(benches, bench_slotted_page, bench_btree, bench_wal, bench_dpt_builders);
criterion_main!(benches);
