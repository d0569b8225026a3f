//! CRC-32 (ISO-HDLC polynomial), slice-by-8, dependency-free.
//!
//! Used by the WAL to frame records (torn-tail detection: a crash can tear
//! the last sector of the log; recovery must find the last *whole* record),
//! by the message codec's frames, and by pages for corruption detection on
//! read.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic one-byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which is what lets eight input
/// bytes fold into the register with eight independent lookups.
static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for b in chunks.remainder() {
        c = t[0][((c ^ *b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The one-table, byte-at-a-time loop [`crc32`] replaced — kept as the
/// reference the sliced version is checked against.
#[cfg(test)]
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for b in data {
        c = TABLES[0][((c ^ *b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the write-ahead log must notice torn sectors".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn incremental_equivalence_not_required_but_stable() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello world");
        assert_eq!(a, b);
    }

    #[test]
    fn sliced_equals_bytewise_reference() {
        // Every length 0..=64 at every alignment 0..8 of one backing buffer:
        // the sliced loop reads 8-byte words wherever the slice starts, and
        // every remainder length follows every word count. (Large random
        // buffers: `tests/wal_props.rs`.)
        let backing: Vec<u8> = (0u32..80).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        for align in 0..8 {
            for len in 0..=64 {
                let s = &backing[align..align + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "align {align} len {len}");
            }
        }
    }
}
