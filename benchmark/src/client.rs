//! Closed-loop clients: each runs one transaction at a time and waits for
//! every reply, as a session or a connection of this system does.

use crate::api::{self, Geometry, Link};
use crate::gen::{value_for, KeyDist, KvGen, Mix, Op, Transfer, TransferGen};
use crate::trace::{traced, Call, ClientSpans};

/// No-wait lock conflicts abort and retry the transaction this many times
/// before it counts as failed.
pub const MAX_RETRIES: u32 = 200;

/// Same shape as the program's own retry helpers: yield for the first few
/// attempts, then sleep exponentially longer, capped near 1.3 ms.
fn conflict_backoff(attempt: u32) {
    if attempt <= 3 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(10u64 << (attempt - 3).min(7)));
    }
}

/// Run `body` as one transaction over `link`, retrying lock conflicts.
/// Every call into the program is a span when tracing. Returns the retries
/// needed.
fn run_txn(
    link: &mut Link,
    spans: &mut Option<ClientSpans>,
    mut body: impl FnMut(&mut Link, &mut Option<ClientSpans>) -> api::Result<()>,
) -> api::Result<u32> {
    let mut retries = 0;
    loop {
        traced(spans, Call::Begin, || link.begin())?;
        match body(link, spans) {
            Ok(()) => return traced(spans, Call::Commit, || link.commit()).map(|()| retries),
            Err(e) if api::is_conflict(&e) && retries < MAX_RETRIES => {
                traced(spans, Call::Abort, || link.abort())?;
                retries += 1;
                conflict_backoff(retries);
            }
            Err(e) => {
                let _ = link.abort();
                return Err(e);
            }
        }
    }
}

fn wrong(what: String) -> api::Error {
    api::Error::RecoveryInvariant(what)
}

/// A client of a key-value workload. It remembers the last version it
/// committed to every key, which is what the read-back check compares
/// the table with.
pub struct KvClient {
    gen: KvGen,
    ops: Vec<Op>,
    value_size: usize,
    scan_len: usize,
    /// Last committed version per key; 0 = never written by this client.
    pub last: Vec<u32>,
}

impl KvClient {
    pub fn new(seed: u64, g: &Geometry, mix: Mix, dist: KeyDist, client: u32) -> KvClient {
        KvClient {
            gen: KvGen::new(seed, g.rows, mix, dist, client),
            ops: Vec::new(),
            value_size: g.value_size,
            scan_len: mix.scan_len as usize,
            last: vec![0; g.rows as usize],
        }
    }

    fn execute(&mut self, link: &mut Link, spans: &mut Option<ClientSpans>) -> api::Result<u32> {
        let (ops, size, scan_len) = (&self.ops, self.value_size, self.scan_len);
        let retries = run_txn(link, spans, |link, spans| {
            for op in ops {
                match *op {
                    Op::Read { key } => {
                        let row = traced(spans, Call::Read, || link.read(key))?;
                        if row.map(|v| v.len()) != Some(size) {
                            return Err(wrong(format!(
                                "read of key {key}: row missing or resized"
                            )));
                        }
                    }
                    Op::Update { key, version } => {
                        let value = value_for(key, version, size);
                        traced(spans, Call::Update, || link.update(key, value))?;
                    }
                    Op::Scan { from, to } => {
                        let rows = traced(spans, Call::Scan, || link.scan(from, to))?;
                        if rows != scan_len {
                            return Err(wrong(format!("scan {from}..={to} returned {rows} rows")));
                        }
                    }
                }
            }
            Ok(())
        })?;
        for op in &self.ops {
            if let Op::Update { key, version } = *op {
                self.last[key as usize] = version;
            }
        }
        Ok(retries)
    }

    fn writes(&self) -> u64 {
        self.ops.iter().filter(|op| matches!(op, Op::Update { .. })).count() as u64
    }
}

/// A client of the bank workload.
pub struct BankClient {
    gen: TransferGen,
    next: Transfer,
}

fn balance(row: Option<api::Value>, account: u64) -> api::Result<u64> {
    row.and_then(|v| v.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| wrong(format!("account {account} missing or not 8 bytes")))
}

impl BankClient {
    fn execute(&mut self, link: &mut Link, spans: &mut Option<ClientSpans>) -> api::Result<u32> {
        let Transfer { from, to, amount } = self.next;
        run_txn(link, spans, |link, spans| {
            let a = traced(spans, Call::ReadForUpdate, || link.read_for_update(from))?;
            let a = balance(a, from)?;
            let b = traced(spans, Call::ReadForUpdate, || link.read_for_update(to))?;
            let b = balance(b, to)?;
            // Balances are the loaded rows' arbitrary 8 bytes, so the
            // arithmetic wraps; the wrapping total is what is conserved.
            let (a, b) = (a.wrapping_sub(amount), b.wrapping_add(amount));
            traced(spans, Call::Update, || link.update(from, a.to_le_bytes().to_vec()))?;
            traced(spans, Call::Update, || link.update(to, b.to_le_bytes().to_vec()))
        })
    }
}

/// The wrapping sum of all balances: the bank invariant.
pub fn bank_total(rows: &[(api::Key, api::Value)]) -> api::Result<u64> {
    rows.iter().try_fold(0u64, |sum, (k, v)| Ok(sum.wrapping_add(balance(Some(v.clone()), *k)?)))
}

enum Work {
    Kv(KvClient),
    Bank(BankClient),
}

/// One client: its connection and its transaction stream.
pub struct Client {
    pub link: Link,
    work: Work,
}

impl Client {
    pub fn kv(link: Link, kv: KvClient) -> Client {
        Client { link, work: Work::Kv(kv) }
    }

    pub fn bank(link: Link, seed: u64, accounts: u64) -> Client {
        let mut gen = TransferGen::new(seed, accounts);
        let next = gen.next_transfer();
        Client { link, work: Work::Bank(BankClient { gen, next }) }
    }

    /// Generate the next transaction (not part of its latency).
    pub fn prepare(&mut self) {
        match &mut self.work {
            Work::Kv(kv) => kv.gen.next_txn(&mut kv.ops),
            Work::Bank(b) => b.next = b.gen.next_transfer(),
        }
    }

    /// [`Client::prepare`] plus the values the transaction will write, as
    /// `execute` builds them: the driver's own cost per transaction.
    pub fn prepare_with_values(&mut self) -> usize {
        self.prepare();
        match &self.work {
            Work::Kv(kv) => kv
                .ops
                .iter()
                .map(|op| match *op {
                    Op::Update { key, version } => value_for(key, version, kv.value_size).len(),
                    _ => 0,
                })
                .sum(),
            Work::Bank(b) => b.next.amount.to_le_bytes().to_vec().len() * 2,
        }
    }

    /// Run the prepared transaction to commit; returns the retries needed.
    pub fn execute(&mut self, spans: &mut Option<ClientSpans>) -> api::Result<u32> {
        match &mut self.work {
            Work::Kv(kv) => kv.execute(&mut self.link, spans),
            Work::Bank(b) => b.execute(&mut self.link, spans),
        }
    }

    /// Write operations of the prepared transaction.
    pub fn writes(&self) -> u64 {
        match &self.work {
            Work::Kv(kv) => kv.writes(),
            Work::Bank(_) => 2,
        }
    }

    /// The per-key last committed versions (key-value clients).
    pub fn last_versions(&self) -> Option<&[u32]> {
        match &self.work {
            Work::Kv(kv) => Some(&kv.last),
            Work::Bank(_) => None,
        }
    }
}

/// Read-back check of a key-value table: every row must hold the last
/// value one of the clients committed to it (two clients may both have
/// written a key; either's last write may have committed later), or the
/// loaded value if no client wrote it.
pub fn check_last_writes(
    rows: &[(api::Key, api::Value)],
    lasts: &[&[u32]],
    g: &Geometry,
) -> Result<(), String> {
    if rows.len() as u64 != g.rows {
        return Err(format!("table has {} rows, {} were loaded", rows.len(), g.rows));
    }
    let mut bad = 0u64;
    let mut first_bad = None;
    for (i, (key, value)) in rows.iter().enumerate() {
        let mut versions = lasts.iter().map(|l| l[i]).filter(|&v| v != 0).peekable();
        let ok = *key == i as u64
            && if versions.peek().is_none() {
                *value == api::initial_value(g, *key)
            } else {
                versions.any(|v| *value == value_for(*key, v, g.value_size))
            };
        if !ok {
            bad += 1;
            first_bad.get_or_insert(*key);
        }
    }
    match first_bad {
        None => Ok(()),
        Some(k) => {
            Err(format!("{bad} rows do not hold their last committed write (first: key {k})"))
        }
    }
}

/// The table a single writer leaves behind, built from its record of its
/// own writes: the loaded value where it never wrote, else its last write.
pub fn committed_rows(last: &[u32], g: &Geometry) -> Vec<(api::Key, api::Value)> {
    (0u64..)
        .zip(last)
        .map(|(key, &version)| {
            let value = match version {
                0 => api::initial_value(g, key),
                v => value_for(key, v, g.value_size),
            };
            (key, value)
        })
        .collect()
}
