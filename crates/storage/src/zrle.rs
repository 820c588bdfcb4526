//! Zero-run-length encoding for checkpoint blobs.
//!
//! A windowed router's snapshot body is dense `f64` score rows and
//! small integers whose upper bytes are zero. This codec exploits
//! exactly that and nothing more: the stream is a sequence of
//! `[literal-len][literal bytes][zero-run-len]` groups with LEB128
//! lengths, so compression is a single branch-light pass and
//! decompression is `memcpy` plus `resize`. What it reclaims depends
//! on how much of the window is still empty: measured on the
//! benchmark's `durable_window` node, the first snapshot (a
//! quarter-full window) packs from 7.68 MB to 2.37 MB and a
//! steady-state one from 10.3 MB to 9.75 MB ([`compressed_bound`] is
//! the worst case, a few bytes over the input). Lossless,
//! dependency-free, and format-agnostic about what the blob actually
//! encodes.
//!
//! Short zero runs (< `MIN_RUN`) are cheaper left inside literals
//! than split into a 2-byte group boundary, so they are.

use std::io;

/// Zero runs shorter than this stay inside the surrounding literal.
const MIN_RUN: usize = 4;

fn put_len(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_len(src: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = src
            .get(*pos)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "zrle: truncated length"))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "zrle: length overflows u64",
            ));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// The eight bytes at `src[at..]` as a little-endian word, if that many
/// are left: byte `i` of the slice is bits `8i..8i + 8`.
fn word(src: &[u8], at: usize) -> Option<u64> {
    let bytes = src.get(at..at + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().expect("eight bytes")))
}

/// Length of the zero run starting at `src[from]`, a word at a time.
fn zero_run(src: &[u8], from: usize) -> usize {
    let mut pos = from;
    while let Some(w) = word(src, pos) {
        if w != 0 {
            return pos - from + (w.trailing_zeros() / 8) as usize;
        }
        pos += 8;
    }
    pos - from + src[pos..].iter().take_while(|&&b| b == 0).count()
}

/// Position of the first zero byte at or after `src[from]`
/// (`src.len()` if none), a word at a time.
fn next_zero(src: &[u8], from: usize) -> usize {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut pos = from;
    while let Some(w) = word(src, pos) {
        // Marks every zero byte; a borrow can only mark a byte falsely
        // above a real one, so the lowest mark is exact.
        let marks = w.wrapping_sub(LOW) & !w & HIGH;
        if marks != 0 {
            return pos + (marks.trailing_zeros() / 8) as usize;
        }
        pos += 8;
    }
    pos + src[pos..].iter().take_while(|&&b| b != 0).count()
}

/// Compresses `src`, appending to `dst` (so a caller can prefix its
/// own header, e.g. a version tag).
pub fn compress_into(src: &[u8], dst: &mut Vec<u8>) {
    let mut pos = 0usize;
    while pos < src.len() {
        // The literal extends until a zero run worth encoding.
        let lit_start = pos;
        let mut run = 0usize;
        loop {
            pos = next_zero(src, pos);
            if pos == src.len() {
                break;
            }
            run = zero_run(src, pos);
            if run >= MIN_RUN {
                break;
            }
            pos += run;
            run = 0;
        }
        put_len(dst, (pos - lit_start) as u64);
        dst.extend_from_slice(&src[lit_start..pos]);
        put_len(dst, run as u64);
        pos += run;
    }
}

/// Decompresses `src`, appending to `dst`. Fails on truncated or
/// overlong input; arbitrary bytes never panic or loop forever.
pub fn decompress_into(src: &[u8], dst: &mut Vec<u8>) -> io::Result<()> {
    let mut pos = 0usize;
    while pos < src.len() {
        let lit = get_len(src, &mut pos)? as usize;
        let end = pos
            .checked_add(lit)
            .filter(|&e| e <= src.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "zrle: truncated literal"))?;
        dst.extend_from_slice(&src[pos..end]);
        pos = end;
        let zeros = get_len(src, &mut pos)?;
        // Cap the claimed run so corrupt input cannot balloon memory
        // past what the outer frame's CRC would have caught anyway.
        if zeros > (1 << 32) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "zrle: implausible zero run",
            ));
        }
        dst.resize(dst.len() + zeros as usize, 0);
    }
    Ok(())
}

/// Most bytes [`compress_into`] appends for `len` input bytes: the input
/// plus the final group's two lengths, plus one byte for each literal
/// long enough (2 MiB) that its length outweighs the shortest run it
/// ends in. Lets a caller size the destination once.
pub fn compressed_bound(len: usize) -> usize {
    len + (len >> 21) + 16
}

/// Convenience wrapper allocating the output buffer.
pub fn compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2);
    compress_into(src, &mut out);
    out
}

/// Convenience wrapper allocating the output buffer.
pub fn decompress(src: &[u8]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(src, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step scan `compress_into` replaced: the
    /// reference its output must equal byte for byte.
    fn compress_bytewise(src: &[u8]) -> Vec<u8> {
        let mut dst = Vec::new();
        let mut pos = 0usize;
        while pos < src.len() {
            let lit_start = pos;
            let mut run = 0usize;
            while pos < src.len() {
                if src[pos] == 0 {
                    run = src[pos..].iter().take_while(|&&b| b == 0).count();
                    if run >= MIN_RUN {
                        break;
                    }
                    pos += run;
                    run = 0;
                } else {
                    pos += 1;
                }
            }
            put_len(&mut dst, (pos - lit_start) as u64);
            dst.extend_from_slice(&src[lit_start..pos]);
            put_len(&mut dst, run as u64);
            pos += run;
        }
        dst
    }

    proptest::proptest! {
        /// The word-at-a-time scan writes exactly the bytes the bytewise
        /// one did — dense, mixed and zero-heavy input, every run length
        /// around a word and `MIN_RUN` — and they decompress to the input.
        #[test]
        fn compress_matches_the_bytewise_reference(
            src in proptest::collection::vec((0u8..=255, 0u8..8), 0..600),
            zero_bias in 0u8..8,
        ) {
            let src: Vec<u8> = src
                .iter()
                .map(|&(b, roll)| if roll < zero_bias { 0 } else { b })
                .collect();
            let packed = compress(&src);
            proptest::prop_assert_eq!(&packed, &compress_bytewise(&src));
            proptest::prop_assert!(packed.len() <= compressed_bound(src.len()));
            proptest::prop_assert_eq!(decompress(&packed).unwrap(), src);
        }
    }

    fn roundtrip(src: &[u8]) -> Vec<u8> {
        let packed = compress(src);
        let back = decompress(&packed).unwrap();
        assert_eq!(back, src, "roundtrip must be lossless");
        packed
    }

    #[test]
    fn roundtrips_edge_cases() {
        roundtrip(b"");
        roundtrip(b"\x00");
        roundtrip(&[0u8; 1_000]);
        roundtrip(b"abcdef");
        roundtrip(b"\x00\x00\x00abc");
        roundtrip(b"abc\x00\x00\x00");
        roundtrip(&[0, 1, 0, 0, 0, 0, 2, 0]);
    }

    #[test]
    fn compresses_zero_heavy_input() {
        let mut src = vec![0u8; 10_000];
        for i in (0..src.len()).step_by(97) {
            src[i] = (i % 251) as u8 + 1;
        }
        let packed = roundtrip(&src);
        assert!(
            packed.len() < src.len() / 10,
            "zero-heavy input must shrink: {} -> {}",
            src.len(),
            packed.len()
        );
    }

    #[test]
    fn short_zero_runs_stay_in_literals() {
        // 3 zeros < MIN_RUN: one literal group, no run split.
        let packed = roundtrip(b"ab\x00\x00\x00cd");
        assert_eq!(packed, [7, b'a', b'b', 0, 0, 0, b'c', b'd', 0]);
    }

    #[test]
    fn pseudorandom_roundtrips() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let len = (next() % 4_096) as usize;
            let zero_bias = case % 5; // 0 = dense, 4 = mostly zeros
            let src: Vec<u8> = (0..len)
                .map(|_| {
                    let v = next();
                    if v % 5 < zero_bias as u64 {
                        0
                    } else {
                        (v >> 8) as u8
                    }
                })
                .collect();
            roundtrip(&src);
        }
    }

    #[test]
    fn malformed_input_errors_cleanly() {
        // Truncated varint.
        assert!(decompress(&[0x80]).is_err());
        // Literal length past the end.
        assert!(decompress(&[5, b'a']).is_err());
        // Missing zero-run length after a literal.
        assert!(decompress(&[1, b'a']).is_err());
        // Length overflowing u64.
        assert!(decompress(&[0xFF; 11]).is_err());
    }
}
