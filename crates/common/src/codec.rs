//! Binary encode/decode helpers for log records and page metadata.
//!
//! The write-ahead log stores records as length-prefixed binary frames; this
//! module provides the little-endian primitives plus checked decoding. A
//! decoder failure is a structural corruption signal — the WAL layer maps
//! [`CodecError`] into [`crate::Error::LogCorrupt`] with the failing LSN.

use crate::types::{Key, Lsn, PageId, TableId, TxnId};
use bytes::{Buf, BufMut, BytesMut};
use std::fmt;

/// Decode failure: the byte stream ended early or contained an invalid tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the read required.
    Truncated { wanted: usize, remaining: usize },
    /// A tag byte had no corresponding variant.
    BadTag { context: &'static str, tag: u8 },
    /// A framed message's CRC did not match its body (see [`frame`]).
    Checksum { expected: u32, actual: u32 },
    /// A decoded count exceeded the bound its message allows.
    OutOfRange { context: &'static str, value: u64, max: u64 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { wanted, remaining } => {
                write!(f, "truncated: wanted {wanted} bytes, {remaining} remain")
            }
            CodecError::BadTag { context, tag } => write!(f, "bad tag {tag} for {context}"),
            CodecError::Checksum { expected, actual } => {
                write!(f, "frame checksum mismatch: header says {expected:#010x}, body hashes to {actual:#010x}")
            }
            CodecError::OutOfRange { context, value, max } => {
                write!(f, "{context} {value} out of range (max {max})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ----------------------------------------------------------------------
// message framing (the TC↔DC wire format)
// ----------------------------------------------------------------------

/// Bytes a [`frame`] prepends to its body: `[len: u32 LE][crc32: u32 LE]`.
pub const FRAME_HEADER: usize = 8;

/// Wrap `body` in a length-prefixed, CRC-checked frame:
/// `[body-len u32][crc32(body) u32][body]`, little-endian. This is the
/// unit a message transport moves — the length makes the frame
/// self-delimiting on a byte stream, the CRC catches corruption in
/// transit (same polynomial as the WAL's torn-tail detection).
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crate::crc::crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Validate and strip one frame, returning its body. Rejects short
/// buffers, length mismatches (trailing garbage counts — a frame is
/// exactly one message) and checksum failures.
pub fn unframe(buf: &[u8]) -> Result<&[u8], CodecError> {
    if buf.len() < FRAME_HEADER {
        return Err(CodecError::Truncated { wanted: FRAME_HEADER, remaining: buf.len() });
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    let expected = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let body = &buf[FRAME_HEADER..];
    if body.len() != len {
        return Err(CodecError::Truncated { wanted: len, remaining: body.len() });
    }
    let actual = crate::crc::crc32(body);
    if actual != expected {
        return Err(CodecError::Checksum { expected, actual });
    }
    Ok(body)
}

/// Largest frame body a stream reader will accept (64 MiB). A corrupt or
/// hostile length prefix beyond this is treated as stream corruption
/// instead of an allocation request — the reader errors out and the
/// connection dies cleanly rather than OOMing the server.
pub const MAX_FRAME_BODY: usize = 64 << 20;

/// Refuse a frame body a stream reader would reject: over
/// [`MAX_FRAME_BODY`] the reader drops the connection, and from 4 GiB on
/// the `u32` length prefix would wrap. Senders check before writing any
/// byte, so an over-cap message is an `InvalidInput` error and the stream
/// stays usable.
pub fn check_frame_body(len: usize) -> std::io::Result<()> {
    if len > MAX_FRAME_BODY {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame body of {len} bytes exceeds cap {MAX_FRAME_BODY}"),
        ));
    }
    Ok(())
}

/// Write one frame (`[len][crc32][body]`, as [`frame`]) to a byte stream,
/// refusing an over-cap body ([`check_frame_body`]) before any byte.
pub fn write_frame_to(w: &mut dyn std::io::Write, body: &[u8]) -> std::io::Result<()> {
    check_frame_body(body.len())?;
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&crate::crc::crc32(body).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Read one frame off a byte stream *without* CRC validation, returning
/// the complete frame bytes (`[len][crc][body]`) so the receiver can run
/// them through [`unframe`] itself — servers do this to turn a checksum
/// failure into a typed error reply instead of a dropped connection.
///
/// `Ok(None)` means the stream closed cleanly *between* frames (EOF
/// before any header byte). A header promising more than
/// [`MAX_FRAME_BODY`] or EOF mid-frame comes back as `InvalidData` /
/// `UnexpectedEof`, which callers treat as a dead connection.
pub fn read_raw_frame_from(r: &mut dyn std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER];
    // EOF on the very first byte is a clean close; EOF later is a torn
    // frame.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream closed mid frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BODY {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BODY}"),
        ));
    }
    let mut whole = vec![0u8; FRAME_HEADER + len];
    whole[..FRAME_HEADER].copy_from_slice(&header);
    r.read_exact(&mut whole[FRAME_HEADER..])?;
    Ok(Some(whole))
}

/// Read one frame off a byte stream, validating length and CRC, and
/// return its body. Same EOF/corruption contract as
/// [`read_raw_frame_from`], with CRC failures surfacing as `InvalidData`.
pub fn read_frame_from(r: &mut dyn std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    match read_raw_frame_from(r)? {
        None => Ok(None),
        Some(whole) => match unframe(&whole) {
            Ok(body) => Ok(Some(body.to_vec())),
            Err(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())),
        },
    }
}

/// Growable little-endian encoder.
#[derive(Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: BytesMut::with_capacity(cap) }
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    #[inline]
    pub fn put_lsn(&mut self, v: Lsn) {
        self.put_u64(v.0);
    }

    #[inline]
    pub fn put_pid(&mut self, v: PageId) {
        self.put_u64(v.0);
    }

    #[inline]
    pub fn put_table(&mut self, v: TableId) {
        self.put_u32(v.0);
    }

    #[inline]
    pub fn put_txn(&mut self, v: TxnId) {
        self.put_u64(v.0);
    }

    #[inline]
    pub fn put_key(&mut self, v: Key) {
        self.put_u64(v);
    }

    /// Length-prefixed byte string (u32 length).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Length-prefixed PID array (u32 count).
    pub fn put_pid_vec(&mut self, pids: &[PageId]) {
        self.put_u32(pids.len() as u32);
        for p in pids {
            self.put_pid(*p);
        }
    }

    /// Length-prefixed LSN array (u32 count).
    pub fn put_lsn_vec(&mut self, lsns: &[Lsn]) {
        self.put_u32(lsns.len() as u32);
        for l in lsns {
            self.put_lsn(*l);
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish encoding, yielding the frame bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf.into()
    }
}

/// Checked little-endian decoder over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn ensure(&self, n: usize) -> Result<(), CodecError> {
        if self.buf.remaining() < n {
            Err(CodecError::Truncated { wanted: n, remaining: self.buf.remaining() })
        } else {
            Ok(())
        }
    }

    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        self.ensure(1)?;
        Ok(self.buf.get_u8())
    }

    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        self.ensure(2)?;
        Ok(self.buf.get_u16_le())
    }

    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        self.ensure(4)?;
        Ok(self.buf.get_u32_le())
    }

    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        self.ensure(8)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn get_lsn(&mut self) -> Result<Lsn, CodecError> {
        Ok(Lsn(self.get_u64()?))
    }

    pub fn get_pid(&mut self) -> Result<PageId, CodecError> {
        Ok(PageId(self.get_u64()?))
    }

    pub fn get_table(&mut self) -> Result<TableId, CodecError> {
        Ok(TableId(self.get_u32()?))
    }

    pub fn get_txn(&mut self) -> Result<TxnId, CodecError> {
        Ok(TxnId(self.get_u64()?))
    }

    pub fn get_key(&mut self) -> Result<Key, CodecError> {
        self.get_u64()
    }

    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.get_u32()? as usize;
        self.ensure(len)?;
        let mut out = vec![0u8; len];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    pub fn get_pid_vec(&mut self) -> Result<Vec<PageId>, CodecError> {
        let n = self.get_u32()? as usize;
        // Guard against corrupt huge counts before allocating.
        self.ensure(n.saturating_mul(8))?;
        (0..n).map(|_| self.get_pid()).collect()
    }

    pub fn get_lsn_vec(&mut self) -> Result<Vec<Lsn>, CodecError> {
        let n = self.get_u32()? as usize;
        self.ensure(n.saturating_mul(8))?;
        (0..n).map(|_| self.get_lsn()).collect()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Error unless the whole input was consumed — guards against records
    /// that decode "successfully" while silently ignoring trailing garbage.
    pub fn expect_done(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Truncated { wanted: 0, remaining: self.remaining() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 1);
        e.put_lsn(Lsn(42));
        e.put_pid(PageId(99));
        e.put_table(TableId(3));
        e.put_txn(TxnId(12));
        let bytes = e.finish();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u16().unwrap(), 0xBEEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_lsn().unwrap(), Lsn(42));
        assert_eq!(d.get_pid().unwrap(), PageId(99));
        assert_eq!(d.get_table().unwrap(), TableId(3));
        assert_eq!(d.get_txn().unwrap(), TxnId(12));
        d.expect_done().unwrap();
    }

    #[test]
    fn vec_roundtrip() {
        let mut e = Encoder::new();
        e.put_bytes(b"hello");
        e.put_pid_vec(&[PageId(1), PageId(2)]);
        e.put_lsn_vec(&[Lsn(5)]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_bytes().unwrap(), b"hello");
        assert_eq!(d.get_pid_vec().unwrap(), vec![PageId(1), PageId(2)]);
        assert_eq!(d.get_lsn_vec().unwrap(), vec![Lsn(5)]);
        d.expect_done().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut e = Encoder::new();
        e.put_u64(1);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..4]);
        assert!(matches!(d.get_u64(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn corrupt_count_does_not_allocate() {
        // A u32 count of ~4 billion with no payload must fail, not OOM.
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.get_pid_vec(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        let body = b"prepare_op table=3 key=42";
        let f = frame(body);
        assert_eq!(unframe(&f).unwrap(), body);
        assert_eq!(unframe(&frame(b"")).unwrap(), b"");

        // Truncated mid-body.
        assert!(matches!(unframe(&f[..f.len() - 1]), Err(CodecError::Truncated { .. })));
        // Truncated inside the header.
        assert!(matches!(unframe(&f[..5]), Err(CodecError::Truncated { .. })));
        // Trailing garbage is not silently ignored.
        let mut long = f.clone();
        long.push(0xAA);
        assert!(matches!(unframe(&long), Err(CodecError::Truncated { .. })));
        // Any body bit flip trips the CRC.
        for byte in FRAME_HEADER..f.len() {
            let mut corrupt = f.clone();
            corrupt[byte] ^= 0x10;
            assert!(
                matches!(unframe(&corrupt), Err(CodecError::Checksum { .. })),
                "flip at {byte} undetected"
            );
        }
    }

    #[test]
    fn stream_frames_roundtrip_and_reject_corruption() {
        // Two frames back to back on one stream.
        let mut stream = Vec::new();
        write_frame_to(&mut stream, b"first").unwrap();
        write_frame_to(&mut stream, b"").unwrap();
        let mut r = &stream[..];
        assert_eq!(read_frame_from(&mut r).unwrap().unwrap(), b"first");
        assert_eq!(read_frame_from(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame_from(&mut r).unwrap().is_none(), "clean EOF between frames");

        // EOF inside the header and inside the body are torn frames.
        let mut torn = &stream[..3];
        assert_eq!(
            read_frame_from(&mut torn).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        let mut torn = &stream[..FRAME_HEADER + 2];
        assert_eq!(
            read_frame_from(&mut torn).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );

        // A flipped body bit fails the CRC.
        let mut corrupt = stream.clone();
        corrupt[FRAME_HEADER] ^= 0x01;
        let mut r = &corrupt[..];
        assert_eq!(read_frame_from(&mut r).unwrap_err().kind(), std::io::ErrorKind::InvalidData);

        // An oversized length prefix is rejected before any allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        let mut r = &huge[..];
        let err = read_frame_from(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds cap"), "{err}");
    }

    #[test]
    fn over_cap_body_is_refused_before_any_byte_is_written() {
        // Zeroed and never read: the refusal looks at the length only.
        let body = vec![0u8; MAX_FRAME_BODY + 1];
        let mut out = Vec::new();
        let err = write_frame_to(&mut out, &body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("exceeds cap"), "{err}");
        assert!(out.is_empty(), "{} bytes written before the refusal", out.len());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        d.get_u8().unwrap();
        assert!(d.expect_done().is_err());
    }
}
