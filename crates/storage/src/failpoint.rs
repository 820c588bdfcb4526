//! Deterministic fault injection: a [`Storage`] wrapper that models a
//! kill -9 at an arbitrary mutating-operation boundary.
//!
//! The wrapper counts mutating operations (`append`, `flush`,
//! `put_meta`, `put_checkpoint(_owned)`, `gc`; the barrier `sync` is
//! not one). When the counter reaches the planned crash point, it
//! drives the inner backend's [`Crashable::crash`] — first `survive`
//! buffered records land intact, the next one suffers the planned
//! [`TailDamage`] — and from then on every mutating operation fails with
//! [`std::io::ErrorKind::BrokenPipe`], modeling the dead process.
//! Reads keep working: they are what the *next* process (recovery)
//! sees. [`FailpointStorage::disarm`] revives the handle for that
//! recovery run.

use std::io;

use crate::{Crashable, Storage, TailDamage};

/// A [`Storage`] wrapper that kills the process model at a planned
/// operation boundary. See the module docs.
#[derive(Debug)]
pub struct FailpointStorage<S> {
    inner: S,
    /// Mutating operations executed before the crash fires.
    after_ops: u64,
    survive: usize,
    damage: TailDamage,
    ops: u64,
    crashed: bool,
}

impl<S: Storage + Crashable> FailpointStorage<S> {
    /// Wraps `inner`: the first `after_ops` mutating operations run
    /// normally, then the crash fires — `survive` buffered records
    /// reach disk intact and the next suffers `damage`.
    pub fn new(inner: S, after_ops: u64, survive: usize, damage: TailDamage) -> Self {
        FailpointStorage {
            inner,
            after_ops,
            survive,
            damage,
            ops: 0,
            crashed: false,
        }
    }

    /// `true` once the planned crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Mutating operations executed so far (for calibrating a plan).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Revives the handle after a crash — the "new process" opening
    /// the same storage for recovery. The inner backend is already in
    /// its post-reopen state; further operations run normally.
    pub fn disarm(&mut self) {
        self.crashed = false;
        self.after_ops = u64::MAX;
    }

    /// Re-arms the failpoint with a fresh crash plan: the next
    /// `after_ops` mutating operations (counted from now) run
    /// normally, then the crash fires with this `survive`/`damage`
    /// pair. Lets a multi-crash soak chain kill points on one backend.
    pub fn arm(&mut self, after_ops: u64, survive: usize, damage: TailDamage) {
        self.after_ops = self.ops.saturating_add(after_ops);
        self.survive = survive;
        self.damage = damage;
        self.crashed = false;
    }

    /// Unwraps the inner backend.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Charges one mutating operation; fires the planned crash when
    /// the budget runs out.
    fn charge(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(dead());
        }
        if self.ops >= self.after_ops {
            self.crashed = true;
            self.inner.crash(self.survive, self.damage)?;
            return Err(dead());
        }
        self.ops += 1;
        Ok(())
    }
}

fn dead() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "failpoint: simulated kill -9")
}

impl<S: Storage + Crashable> Storage for FailpointStorage<S> {
    fn put_meta(&mut self, payload: &[u8]) -> io::Result<()> {
        self.charge()?;
        self.inner.put_meta(payload)
    }

    fn meta(&self) -> io::Result<Option<Vec<u8>>> {
        self.inner.meta()
    }

    fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.charge()?;
        self.inner.append(payload)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.charge()?;
        self.inner.flush()
    }

    /// Not a charged operation: a barrier moves no kill point. A dead
    /// process cannot wait for its disk, though.
    fn sync(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(dead());
        }
        self.inner.sync()
    }

    fn next_seq(&self) -> u64 {
        self.inner.next_seq()
    }

    fn put_checkpoint(&mut self, upto_seq: u64, blob: &[u8]) -> io::Result<()> {
        self.charge()?;
        self.inner.put_checkpoint(upto_seq, blob)
    }

    fn put_checkpoint_owned(&mut self, upto_seq: u64, blob: Vec<u8>) -> io::Result<()> {
        self.charge()?;
        self.inner.put_checkpoint_owned(upto_seq, blob)
    }

    fn checkpoint(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        self.inner.checkpoint()
    }

    fn replay(&self, from_seq: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.inner.replay(from_seq, visit)
    }

    fn gc(&mut self) -> io::Result<u64> {
        self.charge()?;
        self.inner.gc()
    }

    fn bytes_on_disk(&self) -> u64 {
        self.inner.bytes_on_disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStorage;

    #[test]
    fn crash_fires_at_the_planned_op_and_recovery_reads_survivors() {
        // Ops: 0..4 = appends a,b,c,d; op 4 = flush; then buffered e,f.
        let mut s =
            FailpointStorage::new(MemStorage::new(), 7, 1, TailDamage::Torn { keep_bytes: 3 });
        for p in [b"a", b"b", b"c", b"d" as &[u8]] {
            s.append(p).unwrap();
        }
        s.flush().unwrap();
        s.append(b"e").unwrap();
        s.append(b"f").unwrap();
        // Op 7 (the flush) crashes: of the buffered {e, f}, e survives,
        // f is torn away.
        assert!(s.flush().is_err());
        assert!(s.crashed());
        // The dead process cannot write…
        assert!(s.append(b"g").is_err());
        // …but the next process reads the surviving prefix.
        let mut seen = Vec::new();
        s.replay(0, &mut |_, p| seen.push(p.to_vec())).unwrap();
        assert_eq!(seen.len(), 5);
        assert_eq!(seen.last().unwrap(), b"e");
        // And after disarm, the journal accepts appends again.
        s.disarm();
        assert_eq!(s.append(b"g").unwrap(), 5);
    }
}
