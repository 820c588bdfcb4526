//! The file-backed backend: an append-only journal of numbered
//! segment files (`wal-000000.seg`, `wal-000001.seg`, …) of
//! CRC32-framed records, plus two atomically replaced side files
//! (`meta.bin`, `checkpoint.bin`).
//!
//! * **One writer thread** — every `SegmentWal` owns one thread that
//!   holds the active segment and runs all of its disk work strictly
//!   in call order: batch writes and their `fdatasync`, segment
//!   rotation, side-file installs (CRC, temp write, `fsync`, rename,
//!   directory `fsync`) and GC unlinks. The calling thread frames and
//!   CRCs records and keeps the bookkeeping (segment list, sequence
//!   numbers, [`Storage::bytes_on_disk`]); [`Storage::flush`],
//!   [`Storage::put_checkpoint`] and [`Storage::gc`] hand their work
//!   to the writer through a bounded queue and return without waiting
//!   for the disk. A full queue blocks the caller instead of growing.
//!   A hand-off does not wake the writer — it looks at its queue
//!   between short naps, which keeps the scheduler from moving it onto
//!   the caller's core — but a barrier or a full queue does.
//! * **Barriers** — [`Storage::sync`] waits until the writer has run
//!   everything handed to it; the reads ([`Storage::meta`],
//!   [`Storage::checkpoint`], [`Storage::replay`]),
//!   [`Crashable::crash`] and `Drop` (which then joins the thread) do
//!   the same first, so a reader never sees a file the writer has yet
//!   to write.
//! * **Sticky, typed failure** — the writer's first I/O error stops
//!   it: it writes nothing more, so the disk keeps a prefix of what
//!   was handed off, and every later call returns an error of the
//!   same [`io::ErrorKind`]. `Drop` neither panics nor hangs.
//! * **Batched commits** — [`Storage::append`] frames into an
//!   in-process buffer; [`Storage::flush`] swaps it for a spare the
//!   writer has emptied and queues the full one, which the writer
//!   writes with one `fdatasync`, so the fsync cost amortizes over the
//!   batch the caller acks and no buffer is allocated after warm-up.
//! * **Torn-tail truncation** — [`SegmentWal::open`] scans every
//!   segment and truncates at the first short or CRC-mismatching
//!   frame (what a kill -9 mid-write leaves behind); segments after a
//!   damaged one are deleted, so the journal is always a clean prefix.
//! * **Segment GC** — [`Storage::gc`] reclaims segments that lie
//!   entirely below the checkpoint position, holding disk usage at
//!   O(window between checkpoints) instead of O(stream). The writer
//!   unlinks them behind the checkpoint install that covers them, so
//!   a segment is gone only once that snapshot is renamed and durable.
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
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

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
/// Operations the writer may lag behind the caller before a hand-off
/// blocks.
const QUEUE_DEPTH: usize = 8;
/// How long a writer with an empty queue naps before it looks again,
/// doubling up to `NAP_MAX` while the queue stays empty. A hand-off
/// does not wake the writer: a wakeup sent from the placement thread
/// lets the scheduler move the writer onto that thread's core, where
/// its copies preempt placement (on a 2-core box, half the runs spent
/// ~0.2 ms per `flush` that way). Barriers and a full queue wake it.
const NAP_MIN: Duration = Duration::from_millis(1);
const NAP_MAX: Duration = Duration::from_millis(16);
/// Least capacity of a buffer that crosses to the writer (a batch, a
/// copied checkpoint body). Untouched capacity is address space, not
/// memory, and above 32 MiB glibc always maps an allocation and unmaps
/// it on drop; a smaller buffer would come from the heap and stay
/// resident after the writer drops it.
const MAPPED_MIN: usize = 33 << 20;
/// Emptied batch buffers the writer keeps for the caller to reuse.
const SPARES: usize = 2;

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

impl Segment {
    fn new(dir: &Path, index: u64, base_seq: u64) -> Segment {
        Segment {
            path: seg_path(dir, index),
            index,
            base_seq,
            records: 0,
            bytes: SEG_HEADER as u64,
        }
    }
}

/// Disk work handed to the writer thread, run in hand-off order.
enum Op {
    /// Append a batch of framed records to the active segment and
    /// `fdatasync` it; the emptied buffer goes back as a spare, or is
    /// dropped when `SPARES` already wait.
    Write(Vec<u8>),
    /// Create segment file `.0` with base sequence `.1` and make it
    /// the active one.
    Rotate(PathBuf, u64),
    /// Atomically replace the side file `name` with one frame whose
    /// payload is `head ++ body`; `body` is dropped on the writer.
    Install {
        name: &'static str,
        head: Vec<u8>,
        body: Vec<u8>,
    },
    /// Delete reclaimed segments, then `fsync` the directory.
    Unlink(Vec<PathBuf>),
    /// Acknowledge on the barrier channel.
    Sync,
}

/// The file-backed [`Storage`] backend. See the module docs.
#[derive(Debug)]
pub struct SegmentWal {
    dir: PathBuf,
    /// The segments as of the last hand-off (the writer may still be
    /// writing the tail of the last one).
    segments: Vec<Segment>,
    /// Framed records appended since the last flush.
    buffer: Vec<u8>,
    buffered_records: u64,
    segment_target: u64,
    meta_bytes: u64,
    ckpt_upto: Option<u64>,
    ckpt_bytes: u64,
    /// The writer's queue; `None` only while `Drop` joins it.
    ops: Option<SyncSender<Op>>,
    /// Batch buffers the writer has written and emptied.
    spares: Receiver<Vec<u8>>,
    /// One message per [`Op::Sync`].
    synced: Receiver<()>,
    /// The writer's first error.
    failed: Arc<OnceLock<io::Error>>,
    writer: Option<JoinHandle<()>>,
}

impl SegmentWal {
    /// Opens (or creates) the journal in `dir`, truncating any torn
    /// tail left by a crash, and starts its writer thread. The default
    /// segment rotation target is 4 MiB.
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
            let first = Segment::new(&dir, 0, ckpt_upto.unwrap_or(0));
            create_segment(&dir, &first.path, first.base_seq)?;
            segments.push(first);
        }
        let active = OpenOptions::new()
            .append(true)
            .open(&segments.last().unwrap().path)?;

        let (ops, queue) = mpsc::sync_channel(QUEUE_DEPTH);
        // Two buffers circulate in steady state, one filling and one
        // being written; the extra ones a backlog behind a snapshot
        // install needs are dropped (unmapped) once it clears.
        let (spare_tx, spares) = mpsc::sync_channel(SPARES);
        let (synced_tx, synced) = mpsc::sync_channel(1);
        let failed = Arc::new(OnceLock::new());
        let writer = Writer {
            dir: dir.clone(),
            active,
            spares: spare_tx,
            synced: synced_tx,
            failed: Arc::clone(&failed),
        };
        let writer = thread::Builder::new()
            .name("wal-writer".into())
            .spawn(move || writer.run(queue))?;
        Ok(SegmentWal {
            dir,
            segments,
            buffer: Vec::with_capacity(MAPPED_MIN),
            buffered_records: 0,
            segment_target: segment_bytes,
            meta_bytes,
            ckpt_upto,
            ckpt_bytes,
            ops: Some(ops),
            spares,
            synced,
            failed,
            writer: Some(writer),
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

    /// `Err` of the writer's kind once it has failed.
    fn check(&self) -> io::Result<()> {
        match self.failed.get() {
            None => Ok(()),
            Some(e) => Err(io::Error::new(
                e.kind(),
                format!("the WAL writer stopped at an earlier error: {e}"),
            )),
        }
    }

    /// Queues `op` behind everything handed off before it, blocking
    /// (with the writer woken) while the queue is full.
    fn hand_off(&self, op: Op) -> io::Result<()> {
        self.check()?;
        let ops = self.ops.as_ref().ok_or_else(writer_gone)?;
        match ops.try_send(op) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(op)) => {
                self.wake_writer();
                ops.send(op).map_err(|_| writer_gone())
            }
            Err(TrySendError::Disconnected(_)) => Err(writer_gone()),
        }
    }

    /// Cuts the writer's nap short.
    fn wake_writer(&self) {
        if let Some(writer) = &self.writer {
            writer.thread().unpark();
        }
    }

    /// Waits until the writer has run everything handed to it.
    fn drain(&self) -> io::Result<()> {
        self.hand_off(Op::Sync)?;
        self.wake_writer();
        self.synced.recv().map_err(|_| writer_gone())?;
        self.check()
    }

    /// Queues an atomic replace of side file `name`, returning the
    /// file's length once it lands.
    fn install(&self, name: &'static str, head: Vec<u8>, body: Vec<u8>) -> io::Result<u64> {
        let payload = head.len() + body.len();
        u32::try_from(payload).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "blob exceeds the u32 frame length",
            )
        })?;
        self.hand_off(Op::Install { name, head, body })?;
        Ok((FRAME_HEADER + payload) as u64)
    }
}

impl Drop for SegmentWal {
    fn drop(&mut self) {
        // Closing the queue lets the writer run what is left, then exit.
        self.ops = None;
        self.wake_writer();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

fn writer_gone() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "the WAL writer thread is gone")
}

/// The writer thread's state: the active segment and the way back to
/// the caller.
struct Writer {
    dir: PathBuf,
    active: File,
    spares: SyncSender<Vec<u8>>,
    synced: SyncSender<()>,
    failed: Arc<OnceLock<io::Error>>,
}

impl Writer {
    /// Runs every operation in hand-off order until the queue closes,
    /// napping while it is empty (see `NAP_MIN`). After the first
    /// error nothing more is written; buffers and barriers are still
    /// answered, so the caller never waits forever.
    fn run(mut self, queue: Receiver<Op>) {
        let mut nap = NAP_MIN;
        loop {
            let op = match queue.try_recv() {
                Ok(op) => op,
                Err(TryRecvError::Empty) => {
                    thread::park_timeout(nap);
                    nap = (nap * 2).min(NAP_MAX);
                    continue;
                }
                Err(TryRecvError::Disconnected) => return,
            };
            nap = NAP_MIN;
            if self.failed.get().is_none() {
                if let Err(e) = self.apply(&op) {
                    let _ = self.failed.set(e);
                }
            }
            match op {
                Op::Write(mut batch) => {
                    batch.clear();
                    let _ = self.spares.try_send(batch);
                }
                Op::Sync => {
                    let _ = self.synced.send(());
                }
                // A snapshot body is dropped (unmapped) here.
                _ => {}
            }
        }
    }

    fn apply(&mut self, op: &Op) -> io::Result<()> {
        match op {
            Op::Write(batch) => {
                self.active.write_all(batch)?;
                self.active.sync_data()
            }
            Op::Rotate(path, base_seq) => {
                self.active = create_segment(&self.dir, path, *base_seq)?;
                Ok(())
            }
            Op::Install { name, head, body } => write_blob(&self.dir, name, head, body),
            Op::Unlink(paths) => {
                for path in paths {
                    fs::remove_file(path)?;
                }
                sync_dir(&self.dir)
            }
            Op::Sync => Ok(()),
        }
    }
}

fn seg_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.seg"))
}

/// Creates a segment file holding only its header, durably (file and
/// directory `fsync`), and returns it positioned at its end.
fn create_segment(dir: &Path, path: &Path, base_seq: u64) -> io::Result<File> {
    let mut header = Vec::with_capacity(SEG_HEADER);
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&base_seq.to_le_bytes());
    let mut f = File::create(path)?;
    f.write_all(&header)?;
    f.sync_all()?;
    sync_dir(dir)?;
    Ok(f)
}

/// Atomically replaces `name` with one frame whose payload is
/// `head ++ body` (write-temp + fsync + rename + dir fsync). The frame
/// is written from the two slices — the CRC streams over both — so a
/// checkpoint-sized `body` is never copied.
fn write_blob(dir: &Path, name: &str, head: &[u8], body: &[u8]) -> io::Result<()> {
    let len = (head.len() + body.len()) as u32;
    let crc = crc32_update(crc32_update(0, head), body);
    let mut lead = Vec::with_capacity(FRAME_HEADER + head.len());
    lead.extend_from_slice(&len.to_le_bytes());
    lead.extend_from_slice(&crc.to_le_bytes());
    lead.extend_from_slice(head);
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(&lead)?;
    f.write_all(body)?;
    f.sync_all()?;
    fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)
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
        self.meta_bytes = self.install("meta.bin", Vec::new(), payload.to_vec())?;
        Ok(())
    }

    fn meta(&self) -> io::Result<Option<Vec<u8>>> {
        self.drain()?;
        read_blob(&self.dir.join("meta.bin"))
    }

    fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.check()?;
        let seq = self.next_seq();
        frame_into(&mut self.buffer, payload);
        self.buffered_records += 1;
        Ok(seq)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.check()?;
        if self.buffer.is_empty() {
            return Ok(());
        }
        let spare = match self.spares.try_recv() {
            Ok(spare) => spare,
            Err(_) => Vec::with_capacity(MAPPED_MIN),
        };
        let batch = std::mem::replace(&mut self.buffer, spare);
        let tail = self.segments.last_mut().expect("at least one segment");
        tail.bytes += batch.len() as u64;
        tail.records += self.buffered_records;
        self.buffered_records = 0;
        self.hand_off(Op::Write(batch))?;
        // Rotation is decided here and queued behind the write.
        let tail = self.tail();
        if tail.bytes >= self.segment_target {
            let next = Segment::new(&self.dir, tail.index + 1, tail.base_seq + tail.records);
            self.hand_off(Op::Rotate(next.path.clone(), next.base_seq))?;
            self.segments.push(next);
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.drain()
    }

    fn next_seq(&self) -> u64 {
        let tail = self.tail();
        tail.base_seq + tail.records + self.buffered_records
    }

    /// Copies `blob` into a fresh mapping of at least `MAPPED_MIN`
    /// bytes and takes [`Storage::put_checkpoint_owned`].
    fn put_checkpoint(&mut self, upto_seq: u64, blob: &[u8]) -> io::Result<()> {
        let mut owned = Vec::with_capacity(blob.len().max(MAPPED_MIN));
        owned.extend_from_slice(blob);
        self.put_checkpoint_owned(upto_seq, owned)
    }

    fn put_checkpoint_owned(&mut self, upto_seq: u64, blob: Vec<u8>) -> io::Result<()> {
        let head = upto_seq.to_le_bytes().to_vec();
        self.ckpt_bytes = self.install("checkpoint.bin", head, blob)?;
        self.ckpt_upto = Some(upto_seq);
        Ok(())
    }

    fn checkpoint(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        self.drain()?;
        match read_blob(&self.dir.join("checkpoint.bin"))? {
            Some(payload) if payload.len() >= 8 => {
                let upto = u64::from_le_bytes(payload[..8].try_into().unwrap());
                Ok(Some((upto, payload[8..].to_vec())))
            }
            _ => Ok(None),
        }
    }

    fn replay(&self, from_seq: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.drain()?;
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
        self.check()?;
        let Some(upto) = self.ckpt_upto else {
            return Ok(0);
        };
        // Never drop the active (last) segment.
        let last = self.segments.len() - 1;
        let covered = self.segments[..last]
            .iter()
            .take_while(|seg| seg.base_seq + seg.records <= upto)
            .count();
        if covered == 0 {
            return Ok(0);
        }
        let reclaimed = self.segments[..covered].iter().map(|s| s.bytes).sum();
        let paths = self.segments.drain(..covered).map(|s| s.path).collect();
        // Queued behind the install of the checkpoint that covers them.
        self.hand_off(Op::Unlink(paths))?;
        Ok(reclaimed)
    }

    fn bytes_on_disk(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum::<u64>() + self.meta_bytes + self.ckpt_bytes
    }
}

impl Crashable for SegmentWal {
    fn crash(&mut self, survive: usize, damage: TailDamage) -> io::Result<()> {
        // Everything handed off before the kill point has landed; what
        // the kill decides is the fate of the unflushed buffer.
        self.drain()?;
        let mut active = OpenOptions::new().append(true).open(&self.tail().path)?;
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
        active.write_all(&self.buffer[..bounds[survive]])?;
        if survive + 1 < bounds.len() {
            let frame = &self.buffer[bounds[survive]..bounds[survive + 1]];
            match damage {
                TailDamage::None => {}
                TailDamage::Torn { keep_bytes } => {
                    let keep = keep_bytes.min(frame.len() - 1);
                    active.write_all(&frame[..keep])?;
                }
                TailDamage::BadCrc => {
                    let mut bad = frame.to_vec();
                    let last = bad.len() - 1;
                    bad[last] ^= 0xFF;
                    active.write_all(&bad)?;
                }
            }
        }
        active.sync_data()?;
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
        wal.sync().unwrap();
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

    /// Work still queued when the handle drops lands before `Drop`
    /// returns: flushed batches across rotations, the checkpoint
    /// install and the GC behind it.
    #[test]
    fn queued_work_lands_before_drop_returns() {
        let dir = tmpdir("drop");
        let mut wal = SegmentWal::open_with(&dir, 1 << 10).unwrap();
        wal.put_meta(b"spec").unwrap();
        for round in 0..40u8 {
            for _ in 0..8 {
                wal.append(&[round; 64]).unwrap();
            }
            wal.flush().unwrap();
        }
        assert!(wal.segment_count() > 3, "rotation must run");
        let upto = wal.next_seq() - 12;
        wal.put_checkpoint_owned(upto, b"ckpt".to_vec()).unwrap();
        assert!(wal.gc().unwrap() > 0);
        let (segments, bytes) = (wal.segment_count(), wal.bytes_on_disk());
        drop(wal);

        let wal = SegmentWal::open_with(&dir, 1 << 10).unwrap();
        assert_eq!(wal.meta().unwrap().unwrap(), b"spec");
        assert_eq!(wal.checkpoint().unwrap().unwrap(), (upto, b"ckpt".to_vec()));
        let on_disk = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("seg".as_ref()))
            .count();
        assert_eq!((wal.segment_count(), on_disk), (segments, segments));
        assert!(!seg_path(&dir, 0).exists(), "reclaimed segments are gone");
        assert_eq!(wal.bytes_on_disk(), bytes);
        assert_eq!(wal.next_seq(), 320);
        let mut seen = Vec::new();
        wal.replay(upto, &mut |seq, p| seen.push((seq, p.to_vec())))
            .unwrap();
        let want: Vec<_> = (upto..320)
            .map(|seq| (seq, vec![(seq / 8) as u8; 64]))
            .collect();
        assert_eq!(seen, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The writer's first error stops it and every later call returns
    /// its kind; dropping the handle afterwards still returns.
    #[test]
    fn a_failed_install_is_sticky_and_typed() {
        let dir = tmpdir("sticky");
        let mut wal = SegmentWal::open(&dir).unwrap();
        wal.append(b"one").unwrap();
        wal.flush().unwrap();
        wal.sync().unwrap();
        // The checkpoint's temp file cannot be created without its
        // directory; the hand-off itself still succeeds.
        fs::remove_dir_all(&dir).unwrap();
        wal.put_checkpoint(1, b"state").unwrap();
        let kind = wal.sync().unwrap_err().kind();
        assert_eq!(kind, io::ErrorKind::NotFound);
        assert_eq!(wal.flush().unwrap_err().kind(), kind);
        assert_eq!(wal.sync().unwrap_err().kind(), kind);
        assert_eq!(wal.put_checkpoint(1, b"state").unwrap_err().kind(), kind);
        assert_eq!(wal.append(b"two").unwrap_err().kind(), kind);
        assert_eq!(wal.flush().unwrap_err().kind(), kind);
        assert_eq!(wal.gc().unwrap_err().kind(), kind);
        assert_eq!(wal.put_meta(b"spec").unwrap_err().kind(), kind);
        assert_eq!(wal.meta().unwrap_err().kind(), kind);
        assert_eq!(wal.checkpoint().unwrap_err().kind(), kind);
        assert_eq!(wal.replay(0, &mut |_, _| {}).unwrap_err().kind(), kind);

        let (done, dropped) = std::sync::mpsc::channel();
        thread::spawn(move || {
            drop(wal);
            done.send(()).unwrap();
        });
        dropped
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("Drop returns after a writer failure");
    }
}
