//! The file-backed backend: an append-only journal of numbered
//! segment files (`wal-000000.seg`, `wal-000001.seg`, …) of
//! CRC32-framed records, plus two atomically replaced side files
//! (`meta.bin`, `checkpoint.bin`).
//!
//! * **Batched commits** — [`Storage::append`] frames into an
//!   in-process buffer; [`Storage::flush`] writes the whole batch and
//!   issues one `fdatasync`, so the fsync cost amortizes over the
//!   batch the caller acks.
//! * **Torn-tail truncation** — [`SegmentWal::open`] scans every
//!   segment and truncates at the first short or CRC-mismatching
//!   frame (what a kill -9 mid-write leaves behind); segments after a
//!   damaged one are deleted, so the journal is always a clean prefix.
//! * **Segment GC** — [`Storage::gc`] deletes segments that lie
//!   entirely below the checkpoint position, holding disk usage at
//!   O(window between checkpoints) instead of O(stream).
//! * **Retired artifacts fail typed** — a directory holding a
//!   `ckpt-delta-*.bin` file was written by the retired delta-chain
//!   format: the records that file absorbed may already be GC'd, so
//!   skipping it could recover a *wrong* state, and
//!   [`SegmentWal::open`] returns [`io::ErrorKind::InvalidData`]
//!   naming it. A leftover `*.tmp` (a crash mid-install, before the
//!   rename) is removed. See `docs/DURABILITY.md`.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{crc32_update, frame_into, scan_frames, FRAME_HEADER};
use crate::{Crashable, Storage, TailDamage};

/// `"OWAL"` little-endian — the segment file magic.
const MAGIC: u32 = 0x4C41_574F;
const FORMAT_VERSION: u32 = 1;
/// Segment header: magic, version, base sequence number.
const SEG_HEADER: usize = 16;
/// Default rotation threshold: keep segments small enough that GC
/// reclaims space promptly after a checkpoint.
const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

#[derive(Debug)]
struct Segment {
    path: PathBuf,
    index: u64,
    /// Sequence number of this segment's first record.
    base_seq: u64,
    records: u64,
    /// File length (header + framed records).
    bytes: u64,
}

/// The file-backed [`Storage`] backend. See the module docs.
#[derive(Debug)]
pub struct SegmentWal {
    dir: PathBuf,
    segments: Vec<Segment>,
    /// Open handle on the last (active) segment, positioned at its end.
    active: File,
    /// Framed records appended since the last flush.
    buffer: Vec<u8>,
    buffered_records: u64,
    segment_target: u64,
    meta_bytes: u64,
    ckpt_upto: Option<u64>,
    ckpt_bytes: u64,
}

impl SegmentWal {
    /// Opens (or creates) the journal in `dir`, truncating any torn
    /// tail left by a crash. The default segment rotation target is
    /// 4 MiB.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`SegmentWal::open`] with an explicit segment rotation target.
    pub fn open_with(dir: impl AsRef<Path>, segment_bytes: u64) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let meta_bytes = fs::metadata(dir.join("meta.bin"))
            .map(|m| m.len())
            .unwrap_or(0);
        let (ckpt_upto, ckpt_bytes) = match read_blob(&dir.join("checkpoint.bin"))? {
            Some(payload) if payload.len() >= 8 => {
                let upto = u64::from_le_bytes(payload[..8].try_into().unwrap());
                (Some(upto), payload.len() as u64 + FRAME_HEADER as u64)
            }
            _ => (None, 0),
        };

        // Enumerate segments in index order.
        let mut indices: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".seg"))
            {
                if let Ok(ix) = num.parse::<u64>() {
                    indices.push(ix);
                }
            } else if name.starts_with("ckpt-delta-") && name.ends_with(".bin") {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} is a delta checkpoint, a retired artifact: the records it \
                         absorbed may be gone, so this journal cannot be recovered without it",
                        dir.join(&*name).display()
                    ),
                ));
            } else if name.ends_with(".tmp") {
                // A crash between `write_blob`'s create and its rename
                // (if the removal is lost too, the next open repeats it).
                fs::remove_file(dir.join(&*name))?;
            }
        }
        indices.sort_unstable();

        let mut segments = Vec::with_capacity(indices.len().max(1));
        let mut damaged = false;
        for &index in &indices {
            let path = seg_path(&dir, index);
            if damaged {
                // A kill -9 only damages the log's tail; anything past
                // a damaged segment cannot hold valid newer records.
                fs::remove_file(&path)?;
                continue;
            }
            let bytes = fs::read(&path)?;
            if bytes.len() < SEG_HEADER
                || u32::from_le_bytes(bytes[0..4].try_into().unwrap()) != MAGIC
                || u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != FORMAT_VERSION
            {
                if segments.is_empty() && indices.first() == Some(&index) && bytes.is_empty() {
                    // A crash between file creation and header sync.
                    fs::remove_file(&path)?;
                    damaged = true;
                    continue;
                }
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("segment {} has a bad header", path.display()),
                ));
            }
            let base_seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            let (records, valid) = scan_frames(&bytes[SEG_HEADER..]);
            let len = (SEG_HEADER + valid) as u64;
            if len < bytes.len() as u64 {
                // Torn tail: truncate to the last intact frame.
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(len)?;
                f.sync_all()?;
                damaged = true;
            }
            segments.push(Segment {
                path,
                index,
                base_seq,
                records,
                bytes: len,
            });
        }

        if segments.is_empty() {
            // Appends resume past everything the checkpoint covers.
            segments.push(create_segment(&dir, 0, ckpt_upto.unwrap_or(0))?);
        }
        let active = OpenOptions::new()
            .append(true)
            .open(&segments.last().unwrap().path)?;
        Ok(SegmentWal {
            dir,
            segments,
            active,
            buffer: Vec::new(),
            buffered_records: 0,
            segment_target: segment_bytes,
            meta_bytes,
            ckpt_upto,
            ckpt_bytes,
        })
    }

    /// The directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live segment files (diagnostics for the GC gate).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn tail(&self) -> &Segment {
        self.segments.last().expect("at least one segment")
    }

    /// Opens the next segment once the active one crosses the target.
    fn maybe_rotate(&mut self) -> io::Result<()> {
        let tail = self.tail();
        if tail.bytes < self.segment_target {
            return Ok(());
        }
        let next = create_segment(&self.dir, tail.index + 1, tail.base_seq + tail.records)?;
        self.active = OpenOptions::new().append(true).open(&next.path)?;
        self.segments.push(next);
        Ok(())
    }

    /// Atomically replaces `name` with one frame whose payload is
    /// `head ++ body` (write-temp + fsync + rename + dir fsync),
    /// returning the file's length. The frame is written from the
    /// caller's slices — the CRC streams over both — so a
    /// checkpoint-sized `body` is never copied.
    fn write_blob(&self, name: &str, head: &[u8], body: &[u8]) -> io::Result<u64> {
        let len = u32::try_from(head.len() + body.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "blob exceeds the u32 frame length",
            )
        })?;
        let crc = crc32_update(crc32_update(0, head), body);
        let mut lead = Vec::with_capacity(FRAME_HEADER + head.len());
        lead.extend_from_slice(&len.to_le_bytes());
        lead.extend_from_slice(&crc.to_le_bytes());
        lead.extend_from_slice(head);
        let tmp = self.dir.join(format!("{name}.tmp"));
        let mut f = File::create(&tmp)?;
        f.write_all(&lead)?;
        f.write_all(body)?;
        f.sync_all()?;
        fs::rename(&tmp, self.dir.join(name))?;
        sync_dir(&self.dir)?;
        Ok((lead.len() + body.len()) as u64)
    }
}

fn seg_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.seg"))
}

fn create_segment(dir: &Path, index: u64, base_seq: u64) -> io::Result<Segment> {
    let path = seg_path(dir, index);
    let mut header = Vec::with_capacity(SEG_HEADER);
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&base_seq.to_le_bytes());
    let mut f = File::create(&path)?;
    f.write_all(&header)?;
    f.sync_all()?;
    sync_dir(dir)?;
    Ok(Segment {
        path,
        index,
        base_seq,
        records: 0,
        bytes: SEG_HEADER as u64,
    })
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Reads a framed blob file; `None` when absent or invalid (a crash
/// mid-replace leaves either the old file or the new one — an
/// unreadable blob is treated as absent).
fn read_blob(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let (records, valid) = scan_frames(&bytes);
    if records == 0 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let _ = valid;
    Ok(Some(bytes[FRAME_HEADER..FRAME_HEADER + len].to_vec()))
}

impl Storage for SegmentWal {
    fn put_meta(&mut self, payload: &[u8]) -> io::Result<()> {
        self.meta_bytes = self.write_blob("meta.bin", &[], payload)?;
        Ok(())
    }

    fn meta(&self) -> io::Result<Option<Vec<u8>>> {
        read_blob(&self.dir.join("meta.bin"))
    }

    fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let seq = self.next_seq();
        frame_into(&mut self.buffer, payload);
        self.buffered_records += 1;
        Ok(seq)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        self.active.write_all(&self.buffer)?;
        self.active.sync_data()?;
        let added_bytes = self.buffer.len() as u64;
        let added_records = self.buffered_records;
        self.buffer.clear();
        self.buffered_records = 0;
        let tail = self.segments.last_mut().expect("at least one segment");
        tail.bytes += added_bytes;
        tail.records += added_records;
        self.maybe_rotate()
    }

    fn next_seq(&self) -> u64 {
        let tail = self.tail();
        tail.base_seq + tail.records + self.buffered_records
    }

    fn put_checkpoint(&mut self, upto_seq: u64, blob: &[u8]) -> io::Result<()> {
        self.ckpt_bytes = self.write_blob("checkpoint.bin", &upto_seq.to_le_bytes(), blob)?;
        self.ckpt_upto = Some(upto_seq);
        Ok(())
    }

    fn checkpoint(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        match read_blob(&self.dir.join("checkpoint.bin"))? {
            Some(payload) if payload.len() >= 8 => {
                let upto = u64::from_le_bytes(payload[..8].try_into().unwrap());
                Ok(Some((upto, payload[8..].to_vec())))
            }
            _ => Ok(None),
        }
    }

    fn replay(&self, from_seq: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        for seg in &self.segments {
            if seg.base_seq + seg.records <= from_seq {
                continue;
            }
            let mut f = File::open(&seg.path)?;
            f.seek(SeekFrom::Start(SEG_HEADER as u64))?;
            let mut bytes = Vec::with_capacity((seg.bytes as usize).saturating_sub(SEG_HEADER));
            f.read_to_end(&mut bytes)?;
            let mut seq = seg.base_seq;
            crate::codec::for_each_frame(&bytes, &mut |payload| {
                if seq >= from_seq {
                    visit(seq, payload);
                }
                seq += 1;
            });
        }
        Ok(())
    }

    fn gc(&mut self) -> io::Result<u64> {
        let Some(upto) = self.ckpt_upto else {
            return Ok(0);
        };
        let mut reclaimed = 0u64;
        // Never drop the active (last) segment.
        while self.segments.len() > 1 {
            let seg = &self.segments[0];
            if seg.base_seq + seg.records > upto {
                break;
            }
            reclaimed += seg.bytes;
            fs::remove_file(&seg.path)?;
            self.segments.remove(0);
        }
        if reclaimed > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(reclaimed)
    }

    fn bytes_on_disk(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum::<u64>() + self.meta_bytes + self.ckpt_bytes
    }
}

impl Crashable for SegmentWal {
    fn crash(&mut self, survive: usize, damage: TailDamage) -> io::Result<()> {
        // Frame boundaries of the buffered (unflushed) records.
        let mut bounds = vec![0usize];
        let mut pos = 0usize;
        while pos + FRAME_HEADER <= self.buffer.len() {
            let len = u32::from_le_bytes([
                self.buffer[pos],
                self.buffer[pos + 1],
                self.buffer[pos + 2],
                self.buffer[pos + 3],
            ]) as usize;
            pos += FRAME_HEADER + len;
            bounds.push(pos);
        }
        let survive = survive.min(bounds.len() - 1);
        self.active.write_all(&self.buffer[..bounds[survive]])?;
        if survive + 1 < bounds.len() {
            let frame = &self.buffer[bounds[survive]..bounds[survive + 1]];
            match damage {
                TailDamage::None => {}
                TailDamage::Torn { keep_bytes } => {
                    let keep = keep_bytes.min(frame.len() - 1);
                    self.active.write_all(&frame[..keep])?;
                }
                TailDamage::BadCrc => {
                    let mut bad = frame.to_vec();
                    let last = bad.len() - 1;
                    bad[last] ^= 0xFF;
                    self.active.write_all(&bad)?;
                }
            }
        }
        self.active.sync_data()?;
        // The process is dead: reopen from disk, which runs the
        // torn-tail truncation and rebuilds the segment map.
        let dir = std::mem::take(&mut self.dir);
        let target = self.segment_target;
        *self = SegmentWal::open_with(dir, target)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("optchain-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn reopen_preserves_flushed_records_and_seqs() {
        let dir = tmpdir("reopen");
        {
            let mut wal = SegmentWal::open(&dir).unwrap();
            wal.put_meta(b"spec").unwrap();
            for i in 0..5u8 {
                assert_eq!(wal.append(&[i; 4]).unwrap(), i as u64);
            }
            wal.flush().unwrap();
            wal.append(b"lost").unwrap(); // never flushed
        }
        let wal = SegmentWal::open(&dir).unwrap();
        assert_eq!(wal.meta().unwrap().unwrap(), b"spec");
        assert_eq!(wal.next_seq(), 5);
        let mut seen = Vec::new();
        wal.replay(2, &mut |seq, p| seen.push((seq, p.len())))
            .unwrap();
        assert_eq!(seen, vec![(2, 4), (3, 4), (4, 4)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        {
            let mut wal = SegmentWal::open(&dir).unwrap();
            for i in 0..3u8 {
                wal.append(&[i; 16]).unwrap();
            }
            wal.flush().unwrap();
        }
        // Tear the last frame mid-payload, as a kill -9 mid-write would.
        let path = seg_path(&dir, 0);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let mut wal = SegmentWal::open(&dir).unwrap();
        assert_eq!(wal.next_seq(), 2);
        // The journal stays appendable after truncation.
        assert_eq!(wal.append(b"next").unwrap(), 2);
        wal.flush().unwrap();
        let mut seqs = Vec::new();
        wal.replay(0, &mut |seq, _| seqs.push(seq)).unwrap();
        assert_eq!(seqs, vec![0, 1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_models_short_writes_and_bad_crcs() {
        for damage in [
            TailDamage::None,
            TailDamage::Torn { keep_bytes: 10 },
            TailDamage::BadCrc,
        ] {
            let dir = tmpdir("crash");
            let mut wal = SegmentWal::open(&dir).unwrap();
            wal.append(b"one").unwrap();
            wal.flush().unwrap();
            for p in [b"two", b"three" as &[u8], b"four"] {
                wal.append(p).unwrap();
            }
            wal.crash(1, damage).unwrap();
            // seq 0 (flushed) and seq 1 (survived the crash) remain;
            // the damaged seq 2 and the vanished seq 3 do not.
            let mut seen = Vec::new();
            wal.replay(0, &mut |seq, p| seen.push((seq, p.to_vec())))
                .unwrap();
            assert_eq!(
                seen,
                vec![(0, b"one".to_vec()), (1, b"two".to_vec())],
                "{damage:?}"
            );
            assert_eq!(wal.next_seq(), 2, "{damage:?}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn retired_delta_files_fail_typed_and_leftover_tmp_files_are_removed() {
        let dir = tmpdir("retired");
        let mut wal = SegmentWal::open(&dir).unwrap();
        for i in 0..8u8 {
            wal.append(&[i; 8]).unwrap();
        }
        wal.flush().unwrap();
        wal.put_checkpoint(4, b"state").unwrap();
        // One frame, written from two slices: the bytes `frame_into`
        // builds from their concatenation.
        let mut framed = Vec::new();
        frame_into(&mut framed, &[&4u64.to_le_bytes()[..], b"state"].concat());
        assert_eq!(fs::read(dir.join("checkpoint.bin")).unwrap(), framed);
        assert_eq!(wal.checkpoint().unwrap().unwrap(), (4, b"state".to_vec()));
        drop(wal);

        // A crash between `write_blob`'s create and rename leaves the
        // temp file; the installed checkpoint is untouched by it.
        fs::write(dir.join("checkpoint.bin.tmp"), b"half a snapsh").unwrap();
        let wal = SegmentWal::open(&dir).unwrap();
        assert!(!dir.join("checkpoint.bin.tmp").exists());
        assert_eq!(wal.checkpoint().unwrap().unwrap(), (4, b"state".to_vec()));
        assert_eq!(wal.next_seq(), 8);
        drop(wal);

        // A delta file — even a well-formed one — is a retired
        // artifact: open names it instead of recovering without it.
        let delta = dir.join("ckpt-delta-000000.bin");
        fs::write(&delta, &framed).unwrap();
        let err = SegmentWal::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("ckpt-delta-000000.bin"), "{err}");
        fs::remove_file(&delta).unwrap();
        SegmentWal::open(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_gc_bound_disk_usage() {
        let dir = tmpdir("gc");
        let mut wal = SegmentWal::open_with(&dir, 1 << 10).unwrap();
        let payload = [7u8; 64];
        for chunk in 0..40 {
            for _ in 0..8 {
                wal.append(&payload).unwrap();
            }
            wal.flush().unwrap();
            let _ = chunk;
        }
        assert!(wal.segment_count() > 3, "rotation must run");
        let before = wal.bytes_on_disk();
        wal.put_checkpoint(wal.next_seq(), b"ckpt").unwrap();
        let reclaimed = wal.gc().unwrap();
        assert!(reclaimed > 0);
        assert!(wal.bytes_on_disk() < before);
        assert_eq!(wal.segment_count(), 1);
        // Replay from the checkpoint still works (nothing newer yet).
        let mut n = 0;
        wal.replay(wal.next_seq(), &mut |_, _| n += 1).unwrap();
        assert_eq!(n, 0);
        // And the journal keeps accepting appends with continuous seqs.
        let seq = wal.append(b"after-gc").unwrap();
        wal.flush().unwrap();
        assert_eq!(seq, 320);
        // Reopen after GC: base sequences come from segment headers.
        drop(wal);
        let wal = SegmentWal::open(&dir).unwrap();
        assert_eq!(wal.next_seq(), 321);
        fs::remove_dir_all(&dir).unwrap();
    }
}
