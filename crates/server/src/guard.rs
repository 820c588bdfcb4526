//! The duplicate-submission guard: which transaction ids admission
//! still refuses.
//!
//! A duplicate id reaching the fleet's graph while the first is still
//! there panics the placement thread, so admission remembers every id
//! it let in — but only for as long as the graph can still hold it. The
//! fleet says how long that is ([`RouterFleet::eviction_horizon`]; the
//! window plus one under `WindowTxs`, since the fleet places one
//! sequence on one thread): a resubmission at least `horizon` places in
//! dispatch order behind the original finds it evicted. The guard turns that distance between
//! *dispatches* into one between *admissions*, which is what it can
//! count, and keeps two generations of ids sized once from it — no
//! rehash, `O(window)` memory. With no horizon (a policy that never
//! evicts) it is one set that grows with the stream, like the graph.
//! The sets hash the way the graph's own id index does: the same ids
//! reach both, so the guard adds no exposure to crafted ids the graph
//! does not already have.
//!
//! # Why forgetting is safe
//!
//! Admissions fill the `young` generation; when it holds `span =
//! horizon + queue_capacity` of them the generations rotate: `old` is
//! forgotten, `young` becomes `old`. Two facts about the fee-ordered
//! queue make that safe however requests overtake each other:
//!
//! * Between two rotations at least `span − capacity + 1 > horizon`
//!   transactions are dispatched. The period admits more than
//!   `span − n` (the next rotation fires when a request of `n` would
//!   overflow the span) and leaves at most `capacity − n` of them
//!   queued (capacity was checked before the guard was asked).
//! * Every id forgotten at a rotation was dispatched before the
//!   rotation *before* it. An id dispatched in the period it was
//!   admitted in is; a request still queued at the first rotation after
//!   its admission is **stale**, and when the dispatcher pops it its
//!   ids move to `young`, so they count from their dispatch and outlive
//!   one rotation more. A rotation waits until no stale request is
//!   queued (admission sheds with `QueueFull` meanwhile, and since the
//!   queue is then not empty the dispatcher is draining it), so no
//!   request is ever outbid for longer than two generations.
//!
//! So whatever is admitted after an id was forgotten is dispatched more
//! than `horizon` places behind it. An id is refused for at least
//! `horizon` admissions and forgotten within three spans.
//!
//! [`RouterFleet::eviction_horizon`]: optchain_core::RouterFleet::eviction_horizon

use std::collections::HashSet;

use optchain_tan::hash::TxIdBuildHasher;
use optchain_utxo::TxId;

use crate::protocol::RejectReason;

type IdSet = HashSet<TxId, TxIdBuildHasher>;

pub(crate) struct Guard {
    young: IdSet,
    old: IdSet,
    /// Admissions per generation; `None` never rotates.
    span: Option<usize>,
    queue_capacity: usize,
    /// Admissions into `young` since the last rotation.
    fill: usize,
    /// Rotations so far: the tag an admitted request carries to its
    /// dispatch.
    epoch: u64,
    /// Queued transactions admitted in this epoch, and before it.
    fresh: usize,
    stale: usize,
}

impl Guard {
    /// A guard for a fleet with this `horizon` behind a queue of
    /// `queue_capacity` transactions.
    pub(crate) fn new(horizon: Option<u64>, queue_capacity: usize) -> Self {
        let span = horizon.map(|horizon| horizon as usize + queue_capacity);
        // A generation holds its own admissions plus the stale ids
        // moved into it, at most a queueful.
        let set = || match span {
            Some(span) => IdSet::with_capacity_and_hasher(span + queue_capacity, TxIdBuildHasher),
            None => IdSet::default(),
        };
        Guard {
            young: set(),
            old: set(),
            span,
            queue_capacity,
            fill: 0,
            epoch: 0,
            fresh: 0,
            stale: 0,
        }
    }

    /// Admits a request's ids, returning the epoch to hand back to
    /// [`Guard::dispatched`], or refuses the request whole, leaving
    /// every id of it as submittable as it was. The caller has checked
    /// that the queue can take the request.
    pub(crate) fn admit(&mut self, ids: &[TxId]) -> Result<u64, RejectReason> {
        if self.span.is_some_and(|span| self.fill + ids.len() > span) {
            if self.stale > 0 {
                return Err(RejectReason::QueueFull);
            }
            self.old.clear();
            std::mem::swap(&mut self.young, &mut self.old);
            self.stale = std::mem::take(&mut self.fresh);
            self.fill = 0;
            self.epoch += 1;
        }
        for (i, id) in ids.iter().enumerate() {
            if self.old.contains(id) || !self.young.insert(*id) {
                for id in &ids[..i] {
                    self.young.remove(id);
                }
                return Err(RejectReason::Duplicate);
            }
        }
        self.fill += ids.len();
        self.fresh += ids.len();
        Ok(self.epoch)
    }

    /// The dispatcher popped a request admitted in `epoch`.
    pub(crate) fn dispatched(&mut self, epoch: u64, ids: &[TxId]) {
        if epoch == self.epoch {
            self.fresh -= ids.len();
            return;
        }
        self.stale -= ids.len();
        for id in ids {
            self.old.remove(id);
            self.young.insert(*id);
        }
    }

    /// Ids currently remembered.
    pub(crate) fn tracked(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// The most ids one generation holds, so [`Guard::tracked`] never
    /// exceeds twice it (0 = one set that never forgets).
    pub(crate) fn generation(&self) -> usize {
        self.span.map_or(0, |span| span + self.queue_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The guard against a plain list of every id ever admitted, in
    /// order, with a FIFO queue of `CAPACITY` between admission and
    /// dispatch.
    #[test]
    fn model_remembers_a_generation_and_forgets_after_two() {
        const HORIZON: u64 = 40;
        const CAPACITY: usize = 24;
        const SPAN: usize = HORIZON as usize + CAPACITY;
        let mut guard = Guard::new(Some(HORIZON), CAPACITY);
        assert_eq!(guard.generation(), SPAN + CAPACITY);
        let capacities = (guard.young.capacity(), guard.old.capacity());
        // `None` where a later re-admission took the id's place.
        let mut admitted: Vec<Option<TxId>> = Vec::new();
        let mut queue: std::collections::VecDeque<(u64, Vec<TxId>)> = Default::default();
        let mut queued = 0;
        let mut next_id = 0u64;
        let mut rng = 0x5eed_u64;
        let mut roll = |n: usize| {
            rng = optchain_tan::hash::splitmix64(rng);
            (rng % n as u64) as usize
        };
        while guard.epoch < 10 {
            // Up to eight fresh ids; every third request also repeats
            // the id admitted `age` admissions ago.
            let size = 1 + roll(8);
            let mut ids: Vec<TxId> = (0..size as u64).map(|i| TxId(next_id + i)).collect();
            let mut repeat = None;
            if roll(3) == 0 && !admitted.is_empty() {
                let age = 1 + roll(admitted.len().min(3 * SPAN));
                if let Some(id) = admitted[admitted.len() - age] {
                    ids.insert(roll(size), id);
                    repeat = Some(age);
                }
            }
            // Make room the way the dispatcher does, oldest first.
            while queued + ids.len() > CAPACITY {
                let (epoch, ids) = queue.pop_front().expect("queued work");
                queued -= ids.len();
                guard.dispatched(epoch, &ids);
            }
            match (guard.admit(&ids), repeat) {
                (Ok(epoch), repeat) => {
                    // Younger than a generation (less the request
                    // that rotates) is always refused.
                    if let Some(age) = repeat {
                        assert!(age > SPAN - 8, "{age} admissions ago");
                        let at = admitted.len() - age;
                        admitted[at] = None;
                    }
                    next_id += size as u64;
                    queued += ids.len();
                    admitted.extend(ids.iter().copied().map(Some));
                    queue.push_back((epoch, ids));
                }
                (Err(reason), Some(age)) => {
                    // Older than two generations (and the queueful
                    // that was stale at a rotation) is always
                    // forgotten; the refusal registered nothing, so
                    // the same fresh ids are offered again next round.
                    assert_eq!(reason, RejectReason::Duplicate);
                    assert!(age < 2 * SPAN + CAPACITY, "{age} admissions ago");
                }
                (Err(reason), None) => panic!("fresh ids refused: {reason:?}"),
            }
            assert!(guard.tracked() <= 2 * guard.generation());
        }
        assert_eq!(
            capacities,
            (guard.young.capacity(), guard.old.capacity()),
            "ten rotations reallocated nothing"
        );
    }

    #[test]
    fn a_refused_request_leaves_its_other_ids_submittable() {
        let mut guard = Guard::new(Some(4), 4);
        guard.admit(&[TxId(1)]).unwrap();
        // Refused against the guard, then within itself.
        let refused = [[TxId(2), TxId(3), TxId(1)], [TxId(4), TxId(5), TxId(4)]];
        for ids in refused {
            assert_eq!(guard.admit(&ids), Err(RejectReason::Duplicate));
        }
        assert_eq!(guard.tracked(), 1);
        guard.admit(&[TxId(2), TxId(3), TxId(4), TxId(5)]).unwrap();
    }

    /// A request outbid across a whole generation holds the next
    /// rotation back until it is dispatched, and is then remembered
    /// from its dispatch on.
    #[test]
    fn a_stale_request_blocks_rotation_until_dispatched() {
        let mut guard = Guard::new(Some(2), 2); // span 4
        let starved = guard.admit(&[TxId(0)]).unwrap();
        let pass = |guard: &mut Guard, id: u64| {
            let epoch = guard.admit(&[TxId(id)])?;
            guard.dispatched(epoch, &[TxId(id)]);
            Ok::<_, RejectReason>(())
        };
        // Three more fill the generation, the fifth admission rotates
        // (0 goes stale) and three more fill the next...
        (1..=7).for_each(|id| pass(&mut guard, id).unwrap());
        assert_eq!((guard.epoch, guard.stale), (1, 1));
        // ...whose rotation would forget 0 while it is still queued.
        assert_eq!(pass(&mut guard, 8), Err(RejectReason::QueueFull));
        assert_eq!(guard.admit(&[TxId(0)]), Err(RejectReason::QueueFull));
        guard.dispatched(starved, &[TxId(0)]);
        pass(&mut guard, 8).unwrap();
        assert_eq!(guard.epoch, 2);
        // Dispatched in epoch 1, so 0 survives this rotation (which
        // forgot 1) and goes with the next.
        assert_eq!(guard.admit(&[TxId(0)]), Err(RejectReason::Duplicate));
        pass(&mut guard, 1).unwrap();
        (9..=11).for_each(|id| pass(&mut guard, id).unwrap());
        assert_eq!(guard.epoch, 3);
        pass(&mut guard, 0).unwrap();
    }

    #[test]
    fn without_a_horizon_nothing_is_ever_forgotten() {
        let mut guard = Guard::new(None, 4);
        for id in 0..10_000 {
            let epoch = guard.admit(&[TxId(id)]).unwrap();
            guard.dispatched(epoch, &[TxId(id)]);
        }
        assert_eq!(guard.admit(&[TxId(0)]), Err(RejectReason::Duplicate));
        assert_eq!(
            (guard.tracked(), guard.generation(), guard.epoch),
            (10_000, 0, 0)
        );
    }
}
