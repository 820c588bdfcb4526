//! A cloneable handle to a shared backend.
//!
//! A durable router *owns* its storage, but a fault-injection test
//! needs a side door into the very same backend — to fire and then
//! disarm a failpoint, and to hand the surviving bytes to the
//! recovery path, exactly as a new process would reopen the files the
//! crashed one left behind. [`SharedStorage`] is that side door: a
//! `Clone`-able [`Storage`] delegating to an `Arc<Mutex<S>>`.

use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::Storage;

/// A cloneable, mutex-guarded [`Storage`] handle. See the module docs.
#[derive(Debug)]
pub struct SharedStorage<S>(Arc<Mutex<S>>);

impl<S> Clone for SharedStorage<S> {
    fn clone(&self) -> Self {
        SharedStorage(Arc::clone(&self.0))
    }
}

impl<S> SharedStorage<S> {
    /// Wraps `inner` in a shared handle.
    pub fn new(inner: S) -> Self {
        SharedStorage(Arc::new(Mutex::new(inner)))
    }

    /// Runs `f` with exclusive access to the inner backend.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.lock())
    }

    /// Locks the backend; a poisoned mutex (a panic elsewhere while
    /// holding the lock) still yields the data — storage state is
    /// exactly what crash recovery is designed to sanity-check.
    fn lock(&self) -> MutexGuard<'_, S> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<S: Storage> Storage for SharedStorage<S> {
    fn put_meta(&mut self, payload: &[u8]) -> io::Result<()> {
        self.lock().put_meta(payload)
    }

    fn meta(&self) -> io::Result<Option<Vec<u8>>> {
        self.lock().meta()
    }

    fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.lock().append(payload)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.lock().flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.lock().sync()
    }

    fn next_seq(&self) -> u64 {
        self.lock().next_seq()
    }

    fn put_checkpoint(&mut self, upto_seq: u64, blob: &[u8]) -> io::Result<()> {
        self.lock().put_checkpoint(upto_seq, blob)
    }

    fn put_checkpoint_owned(&mut self, upto_seq: u64, blob: Vec<u8>) -> io::Result<()> {
        self.lock().put_checkpoint_owned(upto_seq, blob)
    }

    fn checkpoint(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        self.lock().checkpoint()
    }

    fn replay(&self, from_seq: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.lock().replay(from_seq, visit)
    }

    fn gc(&mut self) -> io::Result<u64> {
        self.lock().gc()
    }

    fn bytes_on_disk(&self) -> u64 {
        self.lock().bytes_on_disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStorage;

    #[test]
    fn clones_see_one_backend() {
        let a = SharedStorage::new(MemStorage::new());
        let mut b = a.clone();
        b.append(b"x").unwrap();
        b.flush().unwrap();
        assert_eq!(a.next_seq(), 1);
        a.with(|s| assert_eq!(s.durable_records(), 1));
    }
}
