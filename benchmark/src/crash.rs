//! The crash section every workload ends one of its set-ups with: the
//! engine is crashed at a seed-determined point of the workload's own
//! stream, then recovered side by side with the paper's five methods, each
//! on its own fork of the same stable disk and log (§5.1).

use crate::api::{self, Method, RecoveryNumbers};
use crate::metrics::Metrics;
use crate::stats::median;
use std::time::Instant;

pub struct RoundsPlan {
    /// Keep starting rounds (one fork + recovery per method) until this
    /// much wall-clock has gone by...
    pub budget_s: f64,
    /// ...but run at least, and at most, this many.
    pub min_rounds: usize,
    pub max_rounds: usize,
}

#[derive(Default)]
pub struct CrashOutcome {
    /// Recoveries run, and how many of them failed (errored, recovered a
    /// state other than the committed one, or broke determinism).
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub rounds: usize,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
}

impl CrashOutcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// Does `engine` hold exactly `expected`, in a structure its own verifier
/// accepts?
fn verify_state(engine: &api::Engine, expected: &[(api::Key, api::Value)]) -> Result<(), String> {
    let rows = api::scan_table(engine).map_err(|e| format!("scan: {e}"))?;
    if rows.len() != expected.len() {
        return Err(format!("{} rows recovered, {} committed", rows.len(), expected.len()));
    }
    if let Some(((k, _), _)) = rows.iter().zip(expected).find(|(got, want)| got != want) {
        return Err(format!("key {k} differs from the committed state"));
    }
    let (records, _) = api::verify_table(engine).map_err(|e| format!("verify_table: {e}"))?;
    if records != expected.len() as u64 {
        return Err(format!("verify_table counted {records} records"));
    }
    Ok(())
}

/// Fork the crashed `engine` and recover the fork; returns the recovered
/// fork, what recovery reported, and the wall-clock of the fork and of
/// `recover_with` alone.
fn fork_and_recover(
    engine: &api::Engine,
    method: Method,
    workers: usize,
) -> api::Result<(api::Engine, RecoveryNumbers, f64, f64)> {
    let t = Instant::now();
    let fork = api::fork_crashed(engine)?;
    let fork_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let numbers = api::recover(&fork, method, workers)?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((fork, numbers, fork_ms, wall_ms))
}

/// Recover the crashed `engine` with every method, round after round, and
/// check the first round's state against `expected` (the committed rows).
///
/// Serial recovery is `SimClock`-deterministic: every later round must
/// report exactly the first round's numbers, or the round counts as failed.
/// Log1 and SQL1 are also run once on 2 workers; their state must be the
/// same committed state (so serial and parallel recovery scan identically).
pub fn recover_rounds(
    engine: &api::Engine,
    expected: &[(api::Key, api::Value)],
    plan: &RoundsPlan,
) -> CrashOutcome {
    let mut out = CrashOutcome::default();
    let mut first: Vec<Option<RecoveryNumbers>> = vec![None; Method::FIVE.len()];
    let mut wall_ms: Vec<Vec<f64>> = vec![Vec::new(); Method::FIVE.len()];
    let mut fork_ms = Vec::new();
    let started = Instant::now();
    while out.rounds < plan.min_rounds
        || (out.rounds < plan.max_rounds && started.elapsed().as_secs_f64() < plan.budget_s)
    {
        for (i, &method) in Method::FIVE.iter().enumerate() {
            out.attempted += 1;
            match fork_and_recover(engine, method, 1) {
                Err(e) => out.fail(format!("{} round {}: {e}", method.tag(), out.rounds)),
                Ok((fork, numbers, f_ms, w_ms)) => {
                    fork_ms.push(f_ms);
                    wall_ms[i].push(w_ms);
                    match &first[i] {
                        None => {
                            if let Err(e) = verify_state(&fork, expected) {
                                out.fail(format!("{}: {e}", method.tag()));
                            }
                            first[i] = Some(numbers);
                        }
                        Some(f) if *f != numbers => out.fail(format!(
                            "{} round {}: serial recovery is not deterministic ({f:?} vs {numbers:?})",
                            method.tag(),
                            out.rounds
                        )),
                        Some(_) => {}
                    }
                }
            }
        }
        out.rounds += 1;
    }

    let mut modeled = [0.0; 5];
    let mut wall_sum = 0.0;
    for (i, &method) in Method::FIVE.iter().enumerate() {
        let tag = method.tag();
        let wall = median(&wall_ms[i]);
        wall_sum += wall;
        out.per_layer.set(format!("recovery.wall_ms.{tag}"), wall);
        let Some(n) = &first[i] else { continue };
        modeled[i] = n.redo_modeled_ms;
        out.end_to_end.set(format!("redo_modeled_ms_{tag}"), n.redo_modeled_ms);
        out.per_layer
            .set(format!("recovery.data_pages_fetched.{tag}"), n.data_pages_fetched as f64);
        out.per_layer
            .set(format!("recovery.index_pages_fetched.{tag}"), n.index_pages_fetched as f64);
        out.per_layer.set(format!("recovery.dpt_size.{tag}"), n.dpt_size as f64);
        out.per_layer.set(format!("recovery.data_stall_modeled_ms.{tag}"), n.data_stall_modeled_ms);
        if method == Method::Log1 {
            out.per_layer.set("recovery.window_records", n.window_records as f64);
            out.per_layer.set("recovery.ops_reapplied", n.ops_reapplied as f64);
        }
    }
    out.end_to_end.set("recovery_wall_ms", wall_sum);
    out.per_layer.set("recovery.fork_ms", median(&fork_ms));
    let [log0, log1, sql1, log2, sql2] = modeled;
    if log0 > 0.0 && log1 > 0.0 && sql1 > 0.0 && sql2 > 0.0 {
        // The paper's §5.3 claims, each ratio with its base in the name.
        out.per_layer.set("recovery.log1_over_sql1_modeled", log1 / sql1);
        out.per_layer.set("recovery.log2_over_sql2_modeled", log2 / sql2);
        out.per_layer.set("recovery.dpt_drop_log0_log1", 1.0 - log1 / log0);
        out.per_layer.set("recovery.prefetch_drop_log1_log2", 1.0 - log2 / log1);
    }

    for method in [Method::Log1, Method::Sql1] {
        out.attempted += 1;
        let tag = method.tag();
        match fork_and_recover(engine, method, 2) {
            Err(e) => out.fail(format!("{tag} on 2 workers: {e}")),
            Ok((fork, n, _, w_ms)) => {
                if let Err(e) = verify_state(&fork, expected) {
                    out.fail(format!("{tag} on 2 workers: {e}"));
                }
                out.per_layer.set(format!("precovery.wall_ms_w2.{tag}"), w_ms);
                out.per_layer.set(format!("precovery.redo_modeled_ms_w2.{tag}"), n.redo_modeled_ms);
                if method == Method::Log1 {
                    out.per_layer.set("precovery.skew_w2.log1", n.skew);
                }
            }
        }
    }
    out
}
