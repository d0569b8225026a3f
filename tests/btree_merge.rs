//! Delete rebalancing: merges and root collapse are SMO system
//! transactions, so a shrinking tree must recover exactly like a growing
//! one.

use lr_common::IoModel;
use lr_core::{Engine, EngineConfig, RecoveryMethod, DEFAULT_TABLE};

fn engine(merge: f64) -> Engine {
    Engine::build(EngineConfig {
        initial_rows: 0,
        pool_pages: 64,
        io_model: IoModel::zero(),
        merge_min_fill: merge,
        row_value_size: 64,
        ..EngineConfig::default()
    })
    .unwrap()
}

/// Insert `n` rows then delete all but every `keep_mod`-th.
fn grow_then_shrink(e: &mut Engine, n: u64, keep_mod: u64) {
    let t = e.begin().unwrap();
    for k in 0..n {
        e.insert(t, k, vec![k as u8; 64]).unwrap();
    }
    e.commit(t).unwrap();
    let t = e.begin().unwrap();
    for k in 0..n {
        if k % keep_mod != 0 {
            e.delete(t, k).unwrap();
        }
    }
    e.commit(t).unwrap();
}

#[test]
fn merging_shrinks_the_tree() {
    let mut with_merge = engine(0.25);
    grow_then_shrink(&mut with_merge, 4_000, 20);
    let merged = with_merge.verify_table(DEFAULT_TABLE).unwrap();

    let mut without = engine(0.0);
    grow_then_shrink(&mut without, 4_000, 20);
    let unmerged = without.verify_table(DEFAULT_TABLE).unwrap();

    assert_eq!(merged.records, unmerged.records, "same logical contents");
    assert!(
        merged.leaf_pages < unmerged.leaf_pages / 2,
        "merging should reclaim most leaves: {} vs {}",
        merged.leaf_pages,
        unmerged.leaf_pages
    );
    // Contents identical either way.
    assert_eq!(
        with_merge.scan_table(DEFAULT_TABLE).unwrap(),
        without.scan_table(DEFAULT_TABLE).unwrap()
    );
}

#[test]
fn root_collapse_reduces_height() {
    let mut e = engine(0.25);
    grow_then_shrink(&mut e, 4_000, 100);
    let s = e.verify_table(DEFAULT_TABLE).unwrap();
    assert_eq!(s.records, 40);
    assert!(s.height <= 2, "40 rows should collapse to height <=2, got {}", s.height);
}

#[test]
fn shrunk_tree_recovers_with_every_method() {
    let mut e = Engine::build(EngineConfig {
        initial_rows: 0,
        pool_pages: 64,
        io_model: IoModel::zero(),
        merge_min_fill: 0.25,
        row_value_size: 64,
        aries_ckpt_capture: true,
        perfect_delta_lsns: true,
        ..EngineConfig::default()
    })
    .unwrap();
    // One checkpoint up front (ARIES-ckpt needs its snapshot record);
    // everything after it — all growth and all merges — is in the redo
    // window.
    e.checkpoint().unwrap();
    grow_then_shrink(&mut e, 3_000, 10);
    e.crash();
    let reference: Vec<_> = {
        let f = e.fork_crashed().unwrap();
        f.recover(RecoveryMethod::Log0).unwrap();
        f.verify_table(DEFAULT_TABLE).unwrap();
        f.scan_table(DEFAULT_TABLE).unwrap()
    };
    assert_eq!(reference.len(), 300);
    for method in RecoveryMethod::all() {
        if method == RecoveryMethod::Log0 {
            continue;
        }
        let f = e.fork_crashed().unwrap();
        f.recover(method).unwrap();
        f.verify_table(DEFAULT_TABLE)
            .unwrap_or_else(|err| panic!("{method}: tree corrupt after recovery: {err}"));
        assert_eq!(
            f.scan_table(DEFAULT_TABLE).unwrap(),
            reference,
            "{method}: diverged on shrunk tree"
        );
    }
}

/// Undo is an ordinary write: rolling back a batch of inserts removes each
/// key through the delete path, so it merges the leaves the inserts split —
/// on an online abort, and in recovery's undo of a loser under every
/// method.
#[test]
fn undoing_inserts_merges_like_deleting_them() {
    let insert_batch = |e: &Engine| {
        let t = e.begin().unwrap();
        for k in 1_000..4_000u64 {
            e.insert(t, k, vec![k as u8; 64]).unwrap();
        }
        t
    };
    let mut leaves = Vec::new();
    for merge in [0.25, 0.0] {
        let e = engine(merge);
        let t = insert_batch(&e);
        e.abort(t).unwrap();
        let s = e.verify_table(DEFAULT_TABLE).unwrap();
        assert_eq!(s.records, 0);
        leaves.push(s.leaf_pages);
    }
    assert!(
        leaves[0] * 10 < leaves[1],
        "an aborted insert batch should leave few leaves when merging: {} vs {}",
        leaves[0],
        leaves[1]
    );

    let e = Engine::build(EngineConfig {
        initial_rows: 300,
        pool_pages: 64,
        io_model: IoModel::zero(),
        merge_min_fill: 0.25,
        row_value_size: 64,
        aries_ckpt_capture: true,
        perfect_delta_lsns: true,
        ..EngineConfig::default()
    })
    .unwrap();
    e.checkpoint().unwrap();
    let before = e.verify_table(DEFAULT_TABLE).unwrap();
    let _loser = insert_batch(&e);
    e.crash();
    for method in RecoveryMethod::all() {
        let f = e.fork_crashed().unwrap();
        f.recover(method).unwrap();
        let s = f
            .verify_table(DEFAULT_TABLE)
            .unwrap_or_else(|err| panic!("{method}: tree corrupt after undo: {err}"));
        assert_eq!(s.records, 300, "{method}");
        assert!(s.leaf_pages <= before.leaf_pages + 2, "{method}: {s:?} vs {before:?}");
    }
}

#[test]
fn merge_then_more_work_then_crash() {
    // Interleave shrinking with fresh inserts and updates, crash, recover.
    let mut e = engine(0.3);
    grow_then_shrink(&mut e, 2_000, 5);
    e.checkpoint().unwrap();
    let t = e.begin().unwrap();
    for k in 10_000..10_300u64 {
        e.insert(t, k, vec![1u8; 64]).unwrap();
    }
    for k in (0..2_000).step_by(5) {
        e.update(t, k, vec![2u8; 64]).unwrap();
    }
    e.commit(t).unwrap();
    e.crash();
    e.recover(RecoveryMethod::Log2).unwrap();
    let s = e.verify_table(DEFAULT_TABLE).unwrap();
    assert_eq!(s.records, 400 + 300);
    assert_eq!(e.read(DEFAULT_TABLE, 10_150).unwrap().unwrap(), vec![1u8; 64]);
    assert_eq!(e.read(DEFAULT_TABLE, 100).unwrap().unwrap(), vec![2u8; 64]);
}
