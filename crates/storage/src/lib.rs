//! Durable append-only storage for placement nodes.
//!
//! Everything above this crate is in-RAM: a kill -9 loses the stream.
//! This crate is the "survives kill -9" layer — a [`Storage`] trait
//! over an append-only, CRC-framed journal plus two atomically
//! replaceable side blobs (a **meta** header describing the writer's
//! configuration and one **checkpoint**: the writer's serialized state
//! up to a journal position), with three backends:
//!
//! * [`MemStorage`] — an in-memory journal with an explicit
//!   durable/buffered split, for tests and ephemeral deployments;
//! * [`SegmentWal`] — the real thing: numbered segment files of
//!   CRC32-framed records, batched `fsync` commits run by one writer
//!   thread off the caller's, torn-tail truncation on open, and
//!   segment GC below the checkpoint;
//! * [`FailpointStorage`] — a deterministic fault-injection wrapper
//!   that models a kill -9 at an arbitrary operation boundary,
//!   including short writes and CRC-corrupted tails.
//!
//! # Durability contract
//!
//! [`Storage::append`] buffers; [`Storage::flush`] commits every
//! buffered record as one batch (one `fsync` per batch, not per
//! record). A backend may hand that commit to a writer thread and
//! return before the disk has it — [`SegmentWal`] does: a record is
//! durable once the writer's `fdatasync` for its batch lands, which
//! [`Storage::sync`] waits for. [`Storage::put_checkpoint`] and
//! [`Storage::gc`] are hand-offs in the same order. A crash loses an
//! arbitrary *suffix* of what was not yet durable — the unflushed
//! buffer plus the bounded queue of handed-off work — possibly leaving
//! a torn or corrupted final frame; reopening truncates the tail at
//! the first bad frame, so the durable journal is always a clean
//! prefix of what was appended. Meta and checkpoint writes are atomic
//! (write-temp + rename): a crash leaves either the old or the new
//! blob, never a mix. The reads ([`Storage::meta`],
//! [`Storage::checkpoint`], [`Storage::replay`]) see everything handed
//! off before them.
//!
//! Records carry sequence numbers `0, 1, 2, …` in append order;
//! [`Storage::replay`] visits the durable ones from a position, and
//! [`Storage::gc`] reclaims whole segments that lie entirely below
//! the installed checkpoint's `upto_seq`. Recovery is that checkpoint
//! plus the journal tail above it: the tail *is* the delta, so nothing
//! journaled is ever written a second time.
//!
//! The authoritative on-disk specification — WAL record framing and
//! tag table, the one accepted version of the checkpoint body,
//! the recovery state machine, and the GC invariants — lives in
//! `docs/DURABILITY.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod failpoint;
mod mem;
mod shared;
mod wal;

pub use codec::{
    crc32, crc32_update, for_each_frame, frame_into, scan_frames, ByteReader, ByteWriter,
    CodecError, FRAME_HEADER,
};
pub use failpoint::FailpointStorage;
pub use mem::MemStorage;
pub use shared::SharedStorage;
pub use wal::SegmentWal;

use std::io;

/// An append-only journal plus two atomically replaceable side blobs.
/// See the [crate docs](crate) for the durability contract.
pub trait Storage: Send + std::fmt::Debug {
    /// Atomically installs the meta blob (the writer's self-describing
    /// configuration header). Written once, before the first append.
    fn put_meta(&mut self, payload: &[u8]) -> io::Result<()>;

    /// The installed meta blob, if any.
    fn meta(&self) -> io::Result<Option<Vec<u8>>>;

    /// Appends one record, returning its sequence number. Buffered —
    /// not durable until [`Storage::flush`].
    fn append(&mut self, payload: &[u8]) -> io::Result<u64>;

    /// Commits every buffered record as one batch (one fsync per
    /// batch). The batch is durable on return, or — on a backend with
    /// a writer thread — once [`Storage::sync`] returns; a later call
    /// reports a failed commit.
    fn flush(&mut self) -> io::Result<()>;

    /// Waits until everything handed off so far (flushed batches,
    /// checkpoint installs, GC) is durable, returning the first error
    /// the backend met doing it. The default, `Ok(())`, is right for
    /// every backend whose [`Storage::flush`] is durable on return; a
    /// decorator must forward it.
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// The sequence number the next [`Storage::append`] will get
    /// (counting buffered records).
    fn next_seq(&self) -> u64;

    /// Atomically installs a checkpoint: `blob` captures the writer's
    /// state after applying every record with sequence `< upto_seq`.
    /// Ordered after every earlier call; a backend with a writer thread
    /// may return before the install is durable (see [`Storage::sync`]).
    fn put_checkpoint(&mut self, upto_seq: u64, blob: &[u8]) -> io::Result<()>;

    /// [`Storage::put_checkpoint`] taking the blob by value, so a
    /// backend that installs it on another thread keeps the buffer
    /// instead of copying it. The default borrows it for
    /// `put_checkpoint`; a decorator must forward it.
    fn put_checkpoint_owned(&mut self, upto_seq: u64, blob: Vec<u8>) -> io::Result<()> {
        self.put_checkpoint(upto_seq, &blob)
    }

    /// The installed checkpoint `(upto_seq, blob)`, if any.
    fn checkpoint(&self) -> io::Result<Option<(u64, Vec<u8>)>>;

    /// Retired with delta checkpoints — the journal tail above the
    /// checkpoint is the delta — and implemented by no backend: always
    /// [`io::ErrorKind::Unsupported`]. It and
    /// [`Storage::checkpoint_chain`] stay declared only because the
    /// frozen benchmark's storage decorator still overrides both.
    fn put_checkpoint_delta(&mut self, _upto_seq: u64, _blob: &[u8]) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "delta checkpoints are retired: the journal tail is the delta",
        ))
    }

    /// [`Storage::checkpoint`] as a list of at most one element (see
    /// [`Storage::put_checkpoint_delta`]).
    fn checkpoint_chain(&self) -> io::Result<Vec<(u64, Vec<u8>)>> {
        Ok(self.checkpoint()?.into_iter().collect())
    }

    /// Visits every **durable** record with sequence `>= from_seq`, in
    /// sequence order, as `(seq, payload)`.
    fn replay(&self, from_seq: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()>;

    /// Reclaims journal space wholly below the installed checkpoint's
    /// position (whole segments only — the active tail always
    /// survives). Returns the bytes reclaimed. Never deletes a record
    /// before the checkpoint covering it is durable.
    fn gc(&mut self) -> io::Result<u64>;

    /// Bytes the backend holds (segments + side blobs) once everything
    /// handed off so far lands — the quantity the O(window) disk gate
    /// bounds. Counted at hand-off, so it does not wait for the disk.
    fn bytes_on_disk(&self) -> u64;
}

/// What the kill leaves of the first unflushed record that did *not*
/// fully reach disk (see [`Crashable::crash`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailDamage {
    /// The record vanishes at a clean frame boundary.
    None,
    /// A short write: only the leading `keep_bytes` of the frame land
    /// on disk (clamped below the full frame, so the tail is torn).
    Torn {
        /// Bytes of the frame that reach disk.
        keep_bytes: usize,
    },
    /// The full frame lands on disk with a flipped payload byte, so
    /// its CRC no longer matches.
    BadCrc,
}

/// A backend that can model a kill -9 at the current instant —
/// implemented by [`MemStorage`] and [`SegmentWal`], driven by
/// [`FailpointStorage`].
pub trait Crashable {
    /// Models the process dying *now*: of the records buffered since
    /// the last flush, the first `survive` reach disk intact, the next
    /// one suffers `damage`, and the rest vanish. The backend then
    /// transitions to its freshly-reopened state (running the
    /// torn-tail truncation a real reopen performs), ready for
    /// recovery reads.
    fn crash(&mut self, survive: usize, damage: TailDamage) -> io::Result<()>;
}
