//! Input generation, owned by the benchmark: the same `--seed` gives the
//! same keys and values whatever happens to the program's own workload
//! crate. The program sees only the generated keys and values.

/// xorshift64* (Marsaglia / Vigna). Seeds are spread through splitmix64 so
/// neighbouring seeds (`--seed 1`, `--seed 2`) give unrelated streams and a
/// zero seed cannot stick the generator at zero.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// row counts used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The stream seed of one client of one workload: every (seed, workload,
/// client) triple gets its own stream.
pub fn stream_seed(seed: u64, workload: &str, client: u64) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in workload.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Zipf(θ) over `0..n` by the Gray et al. "quick zipf" construction (the
/// one YCSB uses): rank 0 is the hottest.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf { n, theta, alpha: 1.0 / (1.0 - theta), zetan, eta }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// The value written by update number `version` of `key`: fixed width,
/// different for every (key, version), cheap to regenerate when a check
/// reads the row back. Version 0 is the loaded row, which the program
/// generates itself.
pub fn value_for(key: u64, version: u32, size: usize) -> Vec<u8> {
    debug_assert!(version > 0);
    let mut x = key.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ (u64::from(version) << 32) | 1;
    let mut v = Vec::with_capacity(size + 8);
    while v.len() < size {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(size);
    v
}

/// One generated operation of a key-value transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Read { key: u64 },
    Update { key: u64, version: u32 },
    Scan { from: u64, to: u64 },
}

/// Operation mix of a key-value transaction, in percent.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub read_pct: u64,
    pub scan_pct: u64,
    /// The rest are updates.
    pub scan_len: u64,
}

impl Mix {
    /// The paper's §5.2 transaction: updates only.
    pub const UPDATE_ONLY: Mix = Mix { read_pct: 0, scan_pct: 0, scan_len: 0 };
}

/// How keys are drawn.
#[derive(Clone, Debug)]
pub enum KeyDist {
    Uniform,
    /// Zipfian ranks scattered over the key space, so the hot keys do not
    /// all sit on one leaf.
    Zipf(Zipf),
}

/// Operations per key-value transaction (§5.2: "10 updates per
/// transaction").
pub const OPS_PER_TXN: usize = 10;

/// Deterministic stream of key-value transactions for one client.
pub struct KvGen {
    rng: Rng,
    rows: u64,
    mix: Mix,
    dist: KeyDist,
    /// Update counter; the client index sits in the low bit so two clients
    /// never write the same (key, version).
    seq: u32,
    client_bit: u32,
}

impl KvGen {
    pub fn new(seed: u64, rows: u64, mix: Mix, dist: KeyDist, client: u32) -> KvGen {
        assert!(client < 2, "the version encoding leaves one bit for the client");
        KvGen { rng: Rng::new(seed), rows, mix, dist, seq: 0, client_bit: client }
    }

    fn key(&mut self) -> u64 {
        match &self.dist {
            KeyDist::Uniform => self.rng.below(self.rows),
            KeyDist::Zipf(z) => {
                z.sample(&mut self.rng).wrapping_mul(0x5851_F42D_4C95_7F2D) % self.rows
            }
        }
    }

    /// Fill `ops` with the next transaction.
    pub fn next_txn(&mut self, ops: &mut Vec<Op>) {
        ops.clear();
        for _ in 0..OPS_PER_TXN {
            let roll = self.rng.below(100);
            let key = self.key();
            ops.push(if roll < self.mix.read_pct {
                Op::Read { key }
            } else if roll < self.mix.read_pct + self.mix.scan_pct {
                let from = key.min(self.rows - self.mix.scan_len);
                Op::Scan { from, to: from + self.mix.scan_len - 1 }
            } else {
                self.seq += 1;
                Op::Update { key, version: self.seq << 1 | self.client_bit }
            });
        }
    }
}

/// One bank transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    pub from: u64,
    pub to: u64,
    pub amount: u64,
}

/// Deterministic stream of transfers between distinct accounts.
pub struct TransferGen {
    rng: Rng,
    accounts: u64,
}

impl TransferGen {
    pub fn new(seed: u64, accounts: u64) -> TransferGen {
        TransferGen { rng: Rng::new(seed), accounts }
    }

    pub fn next_transfer(&mut self) -> Transfer {
        let from = self.rng.below(self.accounts);
        let to = (from + 1 + self.rng.below(self.accounts - 1)) % self.accounts;
        Transfer { from, to, amount: 1 + self.rng.below(5) }
    }
}

/// The paper's controlled crash (§5.2): checkpoint every `ci` updates,
/// crash after the 10th checkpoint with a full interval of updates behind
/// it, the last `tail` of them after the final Δ/BW record.
#[derive(Clone, Copy, Debug)]
pub struct CrashScenario {
    pub updates_per_checkpoint: u64,
    pub checkpoints_before_crash: u64,
    pub tail_updates: u64,
}

impl CrashScenario {
    pub const PAPER_TENTH: CrashScenario = CrashScenario {
        updates_per_checkpoint: 4_000,
        checkpoints_before_crash: 10,
        tail_updates: 100,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_neighbours_differ() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(draw(0)[0], 0);
        assert_ne!(stream_seed(1, "a", 0), stream_seed(1, "a", 1));
        assert_ne!(stream_seed(1, "a", 0), stream_seed(1, "b", 0));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10_000, 0.99);
        let mut r = Rng::new(42);
        let n = 100_000;
        let hot = (0..n).filter(|_| z.sample(&mut r) < 100).count();
        assert!(hot as f64 / n as f64 > 0.3, "top 1% of ranks got {hot} of {n}");
        assert!((0..n).all(|_| z.sample(&mut r) < 10_000));
    }

    #[test]
    fn values_differ_by_key_and_version() {
        let a = value_for(5, 1, 100);
        assert_eq!(a.len(), 100);
        assert_eq!(a, value_for(5, 1, 100));
        assert_ne!(a, value_for(5, 2, 100));
        assert_ne!(a, value_for(6, 1, 100));
        assert_eq!(value_for(5, 1, 8).len(), 8);
    }

    #[test]
    fn kv_mix_and_client_bit() {
        let mix = Mix { read_pct: 90, scan_pct: 5, scan_len: 50 };
        let mut g = KvGen::new(1, 1000, mix, KeyDist::Uniform, 1);
        let mut ops = Vec::new();
        let (mut reads, mut scans, mut updates) = (0, 0, 0);
        for _ in 0..1000 {
            g.next_txn(&mut ops);
            assert_eq!(ops.len(), OPS_PER_TXN);
            for op in &ops {
                match *op {
                    Op::Read { key } => {
                        assert!(key < 1000);
                        reads += 1;
                    }
                    Op::Scan { from, to } => {
                        assert!(to < 1000 && to - from == 49);
                        scans += 1;
                    }
                    Op::Update { key, version } => {
                        assert!(key < 1000 && version & 1 == 1);
                        updates += 1;
                    }
                }
            }
        }
        assert!(reads > 8500 && scans > 300 && updates > 300, "{reads} {scans} {updates}");
    }

    #[test]
    fn transfers_never_pay_themselves() {
        let mut g = TransferGen::new(9, 3);
        for _ in 0..1000 {
            let t = g.next_transfer();
            assert!(t.from != t.to && t.from < 3 && t.to < 3 && (1..=5).contains(&t.amount));
        }
    }
}
