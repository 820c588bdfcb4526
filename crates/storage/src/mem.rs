//! The in-memory backend: the full [`Storage`] contract — including
//! the durable/buffered split and torn-tail truncation — without a
//! filesystem. The "disk" is one framed byte log, so the crash model
//! and the reopen scan run the exact same [`scan_frames`] code path
//! as the file-backed [`SegmentWal`](crate::SegmentWal).

use std::io;

use crate::codec::{frame_into, scan_frames, FRAME_HEADER};
use crate::{Crashable, Storage, TailDamage};

/// An in-memory [`Storage`] backend.
///
/// `append` frames records into a buffered log; `flush` moves the
/// buffer into the durable log. A [`Crashable::crash`] drops an
/// arbitrary suffix of the buffer — optionally leaving a torn or
/// CRC-corrupted tail — and then re-runs the open-time scan, exactly
/// like killing and reopening a file-backed journal.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    meta: Option<Vec<u8>>,
    checkpoint: Option<(u64, Vec<u8>)>,
    /// Framed records that survived a flush (the "disk").
    durable: Vec<u8>,
    /// Sequence number of the first durable record (advanced by GC).
    base_seq: u64,
    /// Records currently in `durable`.
    records: u64,
    /// Framed records appended since the last flush.
    buffered: Vec<u8>,
    buffered_records: u64,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Records currently durable (flushed and intact).
    pub fn durable_records(&self) -> u64 {
        self.records
    }

    /// Walks the durable log, visiting `(seq, payload)` per record.
    fn walk(&self, mut visit: impl FnMut(u64, &[u8])) {
        let mut pos = 0usize;
        let mut seq = self.base_seq;
        while pos + FRAME_HEADER <= self.durable.len() {
            let len = u32::from_le_bytes([
                self.durable[pos],
                self.durable[pos + 1],
                self.durable[pos + 2],
                self.durable[pos + 3],
            ]) as usize;
            let body = pos + FRAME_HEADER;
            visit(seq, &self.durable[body..body + len]);
            pos = body + len;
            seq += 1;
        }
    }
}

impl Storage for MemStorage {
    fn put_meta(&mut self, payload: &[u8]) -> io::Result<()> {
        self.meta = Some(payload.to_vec());
        Ok(())
    }

    fn meta(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.meta.clone())
    }

    fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let seq = self.next_seq();
        frame_into(&mut self.buffered, payload);
        self.buffered_records += 1;
        Ok(seq)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.durable.append(&mut self.buffered);
        self.records += self.buffered_records;
        self.buffered_records = 0;
        Ok(())
    }

    fn next_seq(&self) -> u64 {
        self.base_seq + self.records + self.buffered_records
    }

    fn put_checkpoint(&mut self, upto_seq: u64, blob: &[u8]) -> io::Result<()> {
        self.checkpoint = Some((upto_seq, blob.to_vec()));
        Ok(())
    }

    fn checkpoint(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        Ok(self.checkpoint.clone())
    }

    fn replay(&self, from_seq: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.walk(|seq, payload| {
            if seq >= from_seq {
                visit(seq, payload);
            }
        });
        Ok(())
    }

    fn gc(&mut self) -> io::Result<u64> {
        let Some((upto, _)) = self.checkpoint else {
            return Ok(0);
        };
        // Find the byte offset of the first record at or past the
        // checkpoint and drop everything before it.
        let mut cut = 0usize;
        let mut dropped = 0u64;
        self.walk(|seq, payload| {
            if seq < upto {
                cut += FRAME_HEADER + payload.len();
                dropped += 1;
            }
        });
        self.durable.drain(..cut);
        self.base_seq += dropped;
        self.records -= dropped;
        Ok(cut as u64)
    }

    fn bytes_on_disk(&self) -> u64 {
        (self.durable.len()
            + self.meta.as_ref().map_or(0, Vec::len)
            + self.checkpoint.as_ref().map_or(0, |(_, b)| b.len())) as u64
    }
}

impl Crashable for MemStorage {
    fn crash(&mut self, survive: usize, damage: TailDamage) -> io::Result<()> {
        // Frame boundaries of the buffered records.
        let mut bounds = Vec::with_capacity(self.buffered_records as usize + 1);
        let mut pos = 0usize;
        bounds.push(0);
        while pos + FRAME_HEADER <= self.buffered.len() {
            let len = u32::from_le_bytes([
                self.buffered[pos],
                self.buffered[pos + 1],
                self.buffered[pos + 2],
                self.buffered[pos + 3],
            ]) as usize;
            pos += FRAME_HEADER + len;
            bounds.push(pos);
        }
        let survive = survive.min(bounds.len() - 1);
        self.durable
            .extend_from_slice(&self.buffered[..bounds[survive]]);
        self.records += survive as u64;
        // The next record suffers the tail damage, if there is one.
        if survive + 1 < bounds.len() {
            let frame = &self.buffered[bounds[survive]..bounds[survive + 1]];
            match damage {
                TailDamage::None => {}
                TailDamage::Torn { keep_bytes } => {
                    let keep = keep_bytes.min(frame.len() - 1);
                    self.durable.extend_from_slice(&frame[..keep]);
                }
                TailDamage::BadCrc => {
                    let mut bad = frame.to_vec();
                    let last = bad.len() - 1;
                    bad[last] ^= 0xFF;
                    self.durable.extend_from_slice(&bad);
                }
            }
        }
        self.buffered.clear();
        self.buffered_records = 0;
        // Reopen: torn-tail truncation over the durable log.
        let (records, valid) = scan_frames(&self.durable);
        self.durable.truncate(valid);
        self.records = records;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unflushed_records_die_with_the_process() {
        let mut s = MemStorage::new();
        s.append(b"a").unwrap();
        s.flush().unwrap();
        s.append(b"b").unwrap();
        s.crash(0, TailDamage::None).unwrap();
        let mut seen = Vec::new();
        s.replay(0, &mut |seq, p| seen.push((seq, p.to_vec())))
            .unwrap();
        assert_eq!(seen, vec![(0, b"a".to_vec())]);
        assert_eq!(s.next_seq(), 1);
    }

    #[test]
    fn torn_and_corrupt_tails_are_truncated_on_reopen() {
        for damage in [TailDamage::Torn { keep_bytes: 5 }, TailDamage::BadCrc] {
            let mut s = MemStorage::new();
            s.append(b"aaaa").unwrap();
            s.append(b"bbbb").unwrap();
            s.append(b"cccc").unwrap();
            s.crash(1, damage).unwrap();
            let mut seen = Vec::new();
            s.replay(0, &mut |seq, p| seen.push((seq, p.to_vec())))
                .unwrap();
            assert_eq!(seen, vec![(0, b"aaaa".to_vec())], "{damage:?}");
            // The journal is a clean prefix: appending resumes at seq 1.
            assert_eq!(s.next_seq(), 1);
            assert_eq!(s.append(b"dddd").unwrap(), 1);
        }
    }

    #[test]
    fn gc_drops_records_below_the_checkpoint() {
        let mut s = MemStorage::new();
        for i in 0..10u8 {
            s.append(&[i; 8]).unwrap();
        }
        s.flush().unwrap();
        let before = s.bytes_on_disk();
        s.put_checkpoint(7, b"state").unwrap();
        let reclaimed = s.gc().unwrap();
        assert!(reclaimed > 0);
        assert!(s.bytes_on_disk() < before);
        let mut seqs = Vec::new();
        s.replay(0, &mut |seq, _| seqs.push(seq)).unwrap();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(s.next_seq(), 10);
    }

    #[test]
    fn meta_and_checkpoint_roundtrip() {
        let mut s = MemStorage::new();
        assert!(s.meta().unwrap().is_none());
        s.put_meta(b"spec").unwrap();
        assert_eq!(s.meta().unwrap().unwrap(), b"spec");
        s.put_checkpoint(3, b"blob").unwrap();
        assert_eq!(s.checkpoint().unwrap().unwrap(), (3, b"blob".to_vec()));
    }
}
