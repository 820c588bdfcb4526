//! Little-endian byte codec and CRC32 — the primitives every frame,
//! record, and checkpoint blob in this workspace is built from.
//!
//! The encoding is deliberately boring: fixed-width little-endian
//! integers, IEEE-754 bit patterns for floats, and length-prefixed
//! byte runs. Determinism is the point — the recovery golden tests
//! assert byte-for-byte stability of checkpoints, so there is no
//! varint cleverness and no platform-dependent layout anywhere.

use std::fmt;

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes` —
/// the per-frame checksum the torn-tail scan validates on open.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues a CRC32 over more bytes, so a frame's checksum can be
/// taken over pieces that are never copied together:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, and `crc32(a)` is
/// `crc32_update(0, a)`.
///
/// Slicing-by-8: eight table lookups fold eight input bytes per step,
/// so the serial dependency is one XOR chain per word instead of one
/// per byte. Same polynomial, same values as the bytewise loop.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][i]` is the CRC
/// of byte `i` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [crc_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// A malformed byte stream: truncated input, an impossible length, or
/// a structural invariant violation found while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// An append-only little-endian encoder over an owned buffer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// An empty writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `vs` as consecutive little-endian `u32`s: the buffer
    /// grows once, then each value fills its own four bytes.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        let start = self.buf.len();
        self.buf.resize(start + 4 * vs.len(), 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(4).zip(vs) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends `vs` as consecutive IEEE-754 bit patterns, like
    /// [`ByteWriter::put_u32s`].
    pub fn put_f32s(&mut self, vs: &[f32]) {
        let start = self.buf.len();
        self.buf.resize(start + 4 * vs.len(), 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(4).zip(vs) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends raw bytes (no length prefix — pair with an explicit
    /// count written by the caller).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrites the four bytes at `at` with `v`, little-endian — for
    /// a count written after the items it counts.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `at + 4` bytes have been written.
    pub fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Discards everything written so far, keeping the allocation —
    /// for reusing one writer as a per-record scratch buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// A cursor-style little-endian decoder over a borrowed buffer. Every
/// getter fails (instead of panicking) on truncated input, so decoding
/// untrusted bytes — a WAL tail, a checkpoint blob — degrades to a
/// recoverable [`CodecError`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError("unexpected end of input"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an IEEE-754 `f32`.
    pub fn get_f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` count and bounds-checks it against the bytes
    /// actually remaining (`elem_bytes` per element), so a corrupt
    /// length cannot drive an attempted huge allocation.
    pub fn get_count(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_u64()? as usize;
        if n.checked_mul(elem_bytes.max(1))
            .is_none_or(|total| total > self.remaining())
        {
            return Err(CodecError("length prefix exceeds remaining input"));
        }
        Ok(n)
    }

    /// Asserts the whole buffer was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError("trailing bytes after decode"))
        }
    }
}

/// Bytes of frame overhead per record: `[len: u32][crc32: u32]`.
pub const FRAME_HEADER: usize = 8;

/// Appends one CRC-framed record to `out`.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Scans a framed byte run, returning `(records, valid_bytes)` of the
/// longest intact prefix. A short header, a length pointing past the
/// end, or a CRC mismatch ends the scan — that is the torn-tail
/// truncation point after a kill -9.
pub fn scan_frames(bytes: &[u8]) -> (u64, usize) {
    let mut pos = 0usize;
    let mut records = 0u64;
    loop {
        if bytes.len() - pos < FRAME_HEADER {
            return (records, pos);
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let body = pos + FRAME_HEADER;
        if bytes.len() - body < len {
            return (records, pos);
        }
        if crc32(&bytes[body..body + len]) != crc {
            return (records, pos);
        }
        pos = body + len;
        records += 1;
    }
}

/// Visits the payload of every intact frame in `bytes`, in order.
pub fn for_each_frame(bytes: &[u8], visit: &mut dyn FnMut(&[u8])) {
    let (_, valid) = scan_frames(bytes);
    let mut pos = 0usize;
    while pos < valid {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let body = pos + FRAME_HEADER;
        visit(&bytes[body..body + len]);
        pos = body + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step loop `crc32` replaced: the reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value, and one past a word boundary.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest::proptest! {
        /// Slicing-by-8 equals the bytewise loop at every length and
        /// alignment of the 8-byte steps.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
            skip in 0usize..9,
        ) {
            let bytes = &bytes[skip.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }

        /// A checksum continued across any two cuts equals the
        /// one-shot checksum of the whole (how `SegmentWal` frames a
        /// checkpoint it never copies).
        #[test]
        fn streaming_crc32_matches_one_shot_on_split_inputs(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
            cut in 0usize..301,
            len in 0usize..301,
        ) {
            let a = cut.min(bytes.len());
            let b = (a + len).min(bytes.len());
            let mut crc = 0;
            for piece in [&bytes[..a], &bytes[a..b], &bytes[b..]] {
                crc = crc32_update(crc, piece);
            }
            proptest::prop_assert_eq!(crc, crc32(&bytes));
        }
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(1.5);
        w.put_f64(-0.25);
        w.put_bytes(b"xyz");
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -0.25);
        assert_eq!(r.take(3).unwrap(), b"xyz");
        r.finish().unwrap();
    }

    #[test]
    fn reader_fails_on_truncation_not_panics() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
        let mut r = ByteReader::new(&[0, 0, 0]);
        assert!(r.get_count(1).is_err());
    }

    #[test]
    fn count_guard_rejects_absurd_lengths() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert!(r.get_count(4).is_err());
    }

    #[test]
    fn frame_scan_stops_at_torn_and_corrupt_tails() {
        let mut log = Vec::new();
        frame_into(&mut log, b"alpha");
        frame_into(&mut log, b"beta");
        let intact = log.len();
        // Intact log scans fully.
        assert_eq!(scan_frames(&log), (2, intact));
        // Torn tail: a frame cut mid-payload.
        frame_into(&mut log, b"gamma");
        log.truncate(intact + FRAME_HEADER + 2);
        assert_eq!(scan_frames(&log), (2, intact));
        // Corrupt tail: full frame, flipped payload byte.
        log.truncate(intact);
        frame_into(&mut log, b"gamma");
        let last = log.len() - 1;
        log[last] ^= 0xFF;
        assert_eq!(scan_frames(&log), (2, intact));
        // Short header.
        log.truncate(intact);
        log.extend_from_slice(&[9, 0, 0]);
        assert_eq!(scan_frames(&log), (2, intact));
    }

    #[test]
    fn for_each_frame_visits_valid_prefix_in_order() {
        let mut log = Vec::new();
        frame_into(&mut log, b"a");
        frame_into(&mut log, b"bb");
        log.extend_from_slice(&[0xFF; 5]); // garbage tail
        let mut seen = Vec::new();
        for_each_frame(&log, &mut |p| seen.push(p.to_vec()));
        assert_eq!(seen, vec![b"a".to_vec(), b"bb".to_vec()]);
    }
}
