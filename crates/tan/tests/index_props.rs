//! `TxIndex` against a `HashMap<TxId, NodeId>`: random inserts, hits,
//! misses and removals, with ids chosen to pile up at the table's last
//! slot so probe clusters wrap to its start and back-shift across the
//! seam, over enough growth for the table to double many times.

use std::collections::HashMap;

use proptest::prelude::*;

use optchain_tan::hash::splitmix64;
use optchain_tan::{NodeId, TxIndex};
use optchain_utxo::TxId;

/// Seeded stream source (SplitMix64 sequence).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An id whose hash has its top byte set: in a table of up to 256 slots
/// its home is the last slot, in a larger one the last 1/256th.
fn seam_id(rng: &mut Rng) -> TxId {
    loop {
        let id = rng.next();
        if splitmix64(id) >> 56 == 0xFF {
            return TxId(id);
        }
    }
}

/// The node holding `txid`, as the graph confirms a tag hit: against
/// the key the node's row stores.
fn find(index: &TxIndex, keys: &[TxId], txid: TxId) -> Option<NodeId> {
    index.find(txid, |node| (keys[node.0 as usize] == txid).then_some(node))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_matches_a_hashmap(seed in 0u64..u64::MAX, steps in 1_500usize..4_000) {
        let mut rng = Rng(seed);
        let mut index = TxIndex::new();
        let mut model: HashMap<TxId, NodeId> = HashMap::new();
        // keys[node] is the id node `node` was inserted under.
        let mut keys: Vec<TxId> = Vec::new();
        let mut live: Vec<TxId> = Vec::new();
        let (mut sizes, mut seam_clusters) = (vec![index.bytes()], 0);
        for _ in 0..steps {
            match rng.below(10) {
                0..=4 => {
                    let txid = match rng.below(3) {
                        0 => seam_id(&mut rng),
                        _ => TxId(rng.next()),
                    };
                    prop_assert_eq!(find(&index, &keys, txid), model.get(&txid).copied());
                    if model.contains_key(&txid) {
                        continue;
                    }
                    let node = NodeId(keys.len() as u32);
                    prop_assert_eq!(index.insert(txid, node, |n| keys[n.0 as usize] == txid), Ok(()));
                    keys.push(txid);
                    model.insert(txid, node);
                    live.push(txid);
                }
                5..=6 if !live.is_empty() => {
                    let txid = live.swap_remove(rng.below(live.len() as u64) as usize);
                    let node = model.remove(&txid).unwrap();
                    prop_assert!(index.remove(txid, node), "{txid} must be removable");
                    prop_assert!(!index.remove(txid, node), "{txid} removed twice");
                    prop_assert_eq!(find(&index, &keys, txid), None);
                }
                7 if !live.is_empty() => {
                    let txid = live[rng.below(live.len() as u64) as usize];
                    prop_assert_eq!(find(&index, &keys, txid), model.get(&txid).copied());
                    // A mapped id is not mapped again, under any node:
                    // the probe answers with the node that holds it.
                    let other = NodeId(keys.len() as u32);
                    let held = index.insert(txid, other, |n| keys[n.0 as usize] == txid);
                    prop_assert_eq!(held, Err(model[&txid]));
                }
                8 => {
                    let txid = match rng.below(2) {
                        0 => seam_id(&mut rng),
                        _ => TxId(rng.next()),
                    };
                    prop_assert_eq!(find(&index, &keys, txid), model.get(&txid).copied());
                    // The right tag under the wrong node is still absent.
                    prop_assert!(model.contains_key(&txid) || !index.remove(txid, NodeId(0)));
                }
                _ => match rng.below(8) {
                    0 => index.shrink_to_fit(),
                    1 => index.reserve(rng.below(64) as usize),
                    _ => {}
                },
            }
            prop_assert_eq!(index.len(), model.len());
            if sizes.last() != Some(&index.bytes()) {
                sizes.push(index.bytes());
            }
            let seam_live = live.iter().filter(|t| splitmix64(t.0) >> 56 == 0xFF).count();
            if index.bytes() <= 256 * 8 && seam_live >= 2 {
                seam_clusters += 1;
            }
        }
        for (&txid, &node) in &model {
            prop_assert_eq!(find(&index, &keys, txid), Some(node));
        }
        let doublings = sizes.windows(2).filter(|w| w[1] == 2 * w[0]).count();
        prop_assert!(doublings >= 3, "table sizes {:?}", sizes);
        prop_assert!(seam_clusters > 0, "no probe cluster wrapped the table's end");
    }
}

/// Every entry of a table at its half-full bound is found, and emptying
/// it in random order leaves nothing behind.
#[test]
fn a_table_at_its_load_bound_drains_cleanly() {
    let mut rng = Rng(0x1dea);
    let mut index = TxIndex::new();
    let keys: Vec<TxId> = (0..4_096).map(|_| TxId(rng.next())).collect();
    for (i, &txid) in keys.iter().enumerate() {
        assert_eq!(
            index.insert(txid, NodeId(i as u32), |n| keys[n.0 as usize] == txid),
            Ok(())
        );
    }
    assert_eq!(
        index.bytes(),
        8_192 * 8,
        "4,096 entries fill 8,192 slots half"
    );
    let mut order: Vec<usize> = (0..keys.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for (done, &i) in order.iter().enumerate() {
        assert_eq!(find(&index, &keys, keys[i]), Some(NodeId(i as u32)));
        assert!(index.remove(keys[i], NodeId(i as u32)));
        if done % 512 == 0 {
            for &j in &order[done + 1..] {
                assert_eq!(find(&index, &keys, keys[j]), Some(NodeId(j as u32)));
            }
        }
    }
    assert!(index.is_empty());
    index.shrink_to_fit();
    assert_eq!(index.bytes(), 8 * 8);
}
