//! Property tests of the common log: arbitrary payloads round-trip through
//! the binary framing, crash truncation never leaves a torn record, scans
//! agree with random access, a restart from the checkpoint anchor finds
//! what a restart from the origin finds, and the sliced CRC equals the
//! bit-at-a-time definition.

use lr_common::{Lsn, PageId, TableId, TxnId};
use lr_wal::{ClrAction, DeltaRecord, LogPayload, SmoRecord, Wal};
use proptest::prelude::*;

fn arb_pids() -> impl Strategy<Value = Vec<PageId>> {
    prop::collection::vec((0u64..10_000).prop_map(PageId), 0..20)
}

fn arb_lsn() -> impl Strategy<Value = Lsn> {
    (0u64..1 << 40).prop_map(Lsn)
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..200)
}

fn arb_payload() -> impl Strategy<Value = LogPayload> {
    let txn = (1u64..1000).prop_map(TxnId);
    let table = (1u32..10).prop_map(TableId);
    prop_oneof![
        txn.clone().prop_map(|txn| LogPayload::TxnBegin { txn }),
        txn.clone().prop_map(|txn| LogPayload::TxnCommit { txn }),
        txn.clone().prop_map(|txn| LogPayload::TxnAbort { txn }),
        (txn.clone(), table, any::<u64>(), any::<u64>(), arb_lsn(), arb_bytes(), arb_bytes())
            .prop_map(|(txn, table, key, pid, prev_lsn, before, after)| {
                LogPayload::Update { txn, table, key, pid: PageId(pid), prev_lsn, before, after }
            }),
        (txn.clone(), arb_bytes(), arb_lsn()).prop_map(|(txn, v, undo_next)| LogPayload::Clr {
            txn,
            table: TableId(1),
            key: 5,
            pid: PageId(9),
            undo_next,
            action: ClrAction::RestoreValue(v),
        }),
        (arb_pids(), arb_pids(), arb_lsn(), 0u32..32, arb_lsn()).prop_map(
            |(dirty_set, written_set, fw_lsn, first_dirty, tc_lsn)| {
                LogPayload::Delta(DeltaRecord {
                    dirty_set,
                    dirty_lsns: vec![],
                    written_set,
                    fw_lsn,
                    first_dirty,
                    tc_lsn,
                })
            }
        ),
        (arb_pids(), arb_lsn())
            .prop_map(|(written_set, fw_lsn)| LogPayload::Bw { written_set, fw_lsn }),
        Just(LogPayload::BeginCheckpoint),
        (arb_lsn(), prop::collection::vec(((1u64..50).prop_map(TxnId), arb_lsn()), 0..5)).prop_map(
            |(bckpt_lsn, active_txns)| LogPayload::EndCheckpoint { bckpt_lsn, active_txns }
        ),
        prop::collection::vec(((0u64..1000).prop_map(PageId), arb_lsn()), 0..10)
            .prop_map(|dpt| LogPayload::AriesCheckpoint { dpt }),
        arb_lsn().prop_map(|rssp_lsn| LogPayload::Rssp { rssp_lsn }),
        (arb_pids(), arb_bytes()).prop_map(|(pids, img)| {
            LogPayload::Smo(SmoRecord {
                pages: pids.into_iter().map(|p| (p, img.clone())).collect(),
                new_root: None,
            })
        }),
    ]
}

/// A record that is not part of a checkpoint bracket.
fn arb_filler() -> impl Strategy<Value = LogPayload> {
    arb_payload().prop_map(|p| match p {
        LogPayload::BeginCheckpoint
        | LogPayload::EndCheckpoint { .. }
        | LogPayload::Rssp { .. } => LogPayload::TxnBegin { txn: TxnId(1) },
        other => other,
    })
}

/// One step of a log's life before the crash; see [`Logs::apply`].
#[derive(Clone, Debug)]
struct Step {
    kind: u8,
    filler: LogPayload,
    publish: bool,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..10, arb_filler(), 0u8..4).prop_map(|(kind, filler, p)| Step {
        kind,
        filler,
        publish: p != 0,
    })
}

/// The same history written twice: `anchored` publishes its completed
/// checkpoints like the checkpointer does, `origin` never does — so its
/// restart is the whole-log scan the anchored one must agree with.
struct Logs {
    anchored: Wal,
    origin: Wal,
    open_bckpt: Option<Lsn>,
    lsns: Vec<Lsn>,
}

impl Logs {
    fn append(&mut self, p: &LogPayload) -> Lsn {
        let lsn = self.anchored.append(p);
        assert_eq!(self.origin.append(p), lsn);
        self.lsns.push(lsn);
        lsn
    }

    fn force(&mut self) {
        self.anchored.make_all_stable();
        self.origin.make_all_stable();
    }

    fn apply(&mut self, step: &Step) {
        match (step.kind, self.open_bckpt) {
            // bCkpt + the DC's RSSP note, forced.
            (7, None) => {
                let b = self.append(&LogPayload::BeginCheckpoint);
                self.force();
                self.append(&LogPayload::Rssp { rssp_lsn: b });
                self.open_bckpt = Some(b);
            }
            // eCkpt, forced, then (unless the crash beats it) published.
            (8, Some(b)) => {
                let active_txns = vec![(TxnId(1), b)];
                self.append(&LogPayload::EndCheckpoint { bckpt_lsn: b, active_txns });
                self.force();
                if step.publish {
                    self.anchored.set_checkpoint_anchor(b);
                }
                self.open_bckpt = None;
            }
            // A commit's force.
            (9, _) => self.force(),
            _ => {
                self.append(&step.filler);
            }
        }
    }
}

/// CRC-32/ISO-HDLC straight from its definition: one bit at a time, no
/// tables — independent of everything `lr_common::crc32` is built from.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn crc32_matches_definition_at_every_short_length_and_alignment() {
    let backing: Vec<u8> =
        (0u32..80).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    for align in 0..8 {
        for len in 0..=64 {
            let s = &backing[align..align + len];
            assert_eq!(lr_common::crc32(s), crc32_bitwise(s), "align {align} len {len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn crc32_matches_definition_on_large_buffers(
        seed in any::<u64>(),
        len in 1024usize..65_536,
        align in 0usize..8,
    ) {
        let mut x = seed | 1;
        let buf: Vec<u8> = (0..len + align)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        prop_assert_eq!(lr_common::crc32(&buf[align..]), crc32_bitwise(&buf[align..]));
    }

    #[test]
    fn anchored_restart_equals_restart_from_origin(
        steps in prop::collection::vec(arb_step(), 1..60),
        stable_at in 0usize..60,
        tear_small in any::<bool>(),
        tear_permille in 0u64..1000,
    ) {
        let mut logs =
            Logs { anchored: Wal::new(1024), origin: Wal::new(1024), open_bckpt: None, lsns: vec![] };
        for step in &steps {
            logs.apply(step);
        }
        let Logs { mut anchored, mut origin, lsns, .. } = logs;
        // Crash: a random stability point (never below the last force),
        // then a torn tail — a few bytes, or any share of the log.
        let stable = lsns.get(stable_at).copied().unwrap_or(anchored.end_lsn());
        let tear = if tear_small {
            tear_permille % 64
        } else {
            anchored.byte_len() * tear_permille / 1000
        };
        for wal in [&mut anchored, &mut origin] {
            wal.make_stable(stable);
            wal.truncate_to_stable();
            wal.tear(tear);
        }
        prop_assert!(origin.checkpoint_anchor().is_null());
        let published = anchored.checkpoint_anchor();

        let a = anchored.restart().unwrap();
        let o = origin.restart().unwrap();
        prop_assert_eq!(a.dropped, o.dropped);
        prop_assert_eq!(a.scan_start, o.scan_start);
        prop_assert_eq!(a.rssp_lsn, o.rssp_lsn);
        prop_assert_eq!(&a.ckpt_active, &o.ckpt_active);
        prop_assert_eq!(&a.window, &o.window);
        prop_assert_eq!(anchored.end_lsn(), origin.end_lsn());
        prop_assert_eq!(anchored.stable_lsn(), origin.stable_lsn());
        prop_assert_eq!(anchored.checkpoint_anchor(), origin.checkpoint_anchor());
        prop_assert_eq!(
            anchored.scan_from(Lsn::NULL).unwrap(),
            origin.scan_from(Lsn::NULL).unwrap()
        );
        // The whole-log restart read the whole log; the anchored one read
        // from its anchor whenever that checkpoint's eCkpt survived.
        prop_assert_eq!(o.scanned_bytes, origin.end_lsn().0 - lr_wal::LOG_ORIGIN.0);
        let found = anchored.checkpoint_anchor();
        if !published.is_null() && found >= published {
            prop_assert_eq!(a.scanned_bytes, anchored.end_lsn().0 - published.0);
        }
    }

    #[test]
    fn payload_roundtrip(p in arb_payload()) {
        let bytes = p.encode();
        let back = LogPayload::decode(&bytes).unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn log_scan_agrees_with_random_access(payloads in prop::collection::vec(arb_payload(), 1..40)) {
        let mut wal = Wal::new(1024);
        let lsns: Vec<Lsn> = payloads.iter().map(|p| wal.append(p)).collect();
        let scan = wal.scan_from(Lsn::NULL).unwrap();
        prop_assert_eq!(scan.len(), payloads.len());
        for ((lsn, expect), got) in lsns.iter().zip(payloads.iter()).zip(scan.iter()) {
            prop_assert_eq!(&got.lsn, lsn);
            prop_assert_eq!(&got.payload, expect);
            let direct = wal.read_at(*lsn).unwrap();
            prop_assert_eq!(&direct.payload, expect);
        }
    }

    #[test]
    fn truncation_is_exact(
        payloads in prop::collection::vec(arb_payload(), 2..30),
        stable_upto in 0usize..30,
    ) {
        let mut wal = Wal::new(1024);
        let lsns: Vec<Lsn> = payloads.iter().map(|p| wal.append(p)).collect();
        let keep = stable_upto.min(payloads.len());
        // Stabilize exactly `keep` records.
        let stable_lsn = if keep == payloads.len() {
            wal.end_lsn()
        } else {
            lsns[keep]
        };
        wal.make_stable(stable_lsn);
        let lost = wal.truncate_to_stable();
        prop_assert_eq!(lost, payloads.len() - keep);
        let survivors = wal.scan_from(Lsn::NULL).unwrap();
        prop_assert_eq!(survivors.len(), keep);
        for (got, expect) in survivors.iter().zip(payloads.iter()) {
            prop_assert_eq!(&got.payload, expect);
        }
        // Appending after truncation keeps LSNs dense and readable.
        let new_lsn = wal.append(&LogPayload::BeginCheckpoint);
        prop_assert_eq!(wal.read_at(new_lsn).unwrap().payload, LogPayload::BeginCheckpoint);
    }

    #[test]
    fn log_page_accounting_is_monotone(payloads in prop::collection::vec(arb_payload(), 1..30)) {
        let mut wal = Wal::new(512);
        for p in &payloads {
            wal.append(p);
        }
        let total = wal.log_pages_between(Lsn::NULL, wal.end_lsn());
        prop_assert!(total >= 1);
        prop_assert!(total <= wal.byte_len() / 512 + 1);
        // Sub-ranges never exceed the whole.
        let mid = Lsn(wal.byte_len() / 2);
        let a = wal.log_pages_between(Lsn::NULL, mid);
        let b = wal.log_pages_between(mid, wal.end_lsn());
        prop_assert!(a <= total && b <= total);
        prop_assert!(a + b >= total, "halves cover the whole (may share a page)");
    }
}
