//! Differential property test of [`WindowedRows`]: driven next to a
//! graph that ages at the same lag, it resolves exactly the rows of the
//! nodes the graph keeps live — checked against a model that keeps
//! every row ever pushed — under all three policies, at every step.

use std::fmt::Debug;

use proptest::prelude::*;

use optchain_storage::{ByteReader, ByteWriter};
use optchain_tan::{Cell, NodeId, RetentionPolicy, TanGraph, WindowedRows};
use optchain_utxo::TxId;

/// Random DAG recipe: for each node, how far back each edge points.
fn dag_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(1u8..20, 0..5), 1..120)
}

fn roundtrip<T: Cell>(rows: &WindowedRows<T>, stride: usize) -> WindowedRows<T> {
    let mut w = ByteWriter::new();
    rows.encode_shape_into(&mut w);
    rows.encode_rows_into(&mut w);
    let bytes = w.into_vec();
    let mut r = ByteReader::new(&bytes);
    let shape = WindowedRows::<T>::decode_shape(&mut r).unwrap();
    let back = WindowedRows::decode_rows(&mut r, shape, stride, rows.len()).unwrap();
    r.finish().unwrap();
    back
}

/// Streams `recipe` through a graph aged at `window` (`None` = never)
/// and rows of `stride` cells over the same ring, checking every
/// accessor against the keep-everything model after each step.
fn drive<T: Cell + PartialEq + Debug>(
    policy: RetentionPolicy,
    window: Option<usize>,
    stride: usize,
    recipe: &[Vec<u8>],
    cell: fn(u32) -> T,
) -> Result<(), TestCaseError> {
    let mut tan = TanGraph::with_retention(policy);
    let mut rows = WindowedRows::<T>::with_ring(policy, window, stride);
    let mut model: Vec<Vec<T>> = Vec::new();
    for (i, offsets) in recipe.iter().enumerate() {
        let parents: Vec<TxId> = offsets
            .iter()
            .filter_map(|off| i.checked_sub(*off as usize).map(|p| TxId(p as u64)))
            .collect();
        tan.insert(TxId(i as u64), &parents);
        let row: Vec<T> = (0..stride).map(|c| cell((i * 31 + c) as u32)).collect();
        rows.push_in(&tan).copy_from_slice(&row);
        model.push(row);
        let len = i + 1;
        if let Some(window) = window {
            tan.evict_before(len.saturating_sub(window) as u32);
        }
        // A write lands on whatever holds the row now — ring slot or
        // survivor table — or nowhere once the node is gone.
        let target = i * 7 % len;
        let rewritten = cell((i * 131) as u32);
        let written = rows.row_mut(target).map(|row| row[0] = rewritten);
        prop_assert_eq!(written.is_some(), tan.is_live(NodeId(target as u32)));
        if written.is_some() {
            model[target][0] = rewritten;
        }

        prop_assert_eq!(rows.len(), len);
        prop_assert_eq!(rows.horizon(), tan.horizon() as usize);
        prop_assert_eq!(rows.live_len(), tan.live_len());
        for (id, kept) in model.iter().enumerate() {
            let expect = tan.is_live(NodeId(id as u32)).then_some(&kept[..]);
            prop_assert_eq!(rows.row(id), expect, "row {} at step {}", id, i);
        }
        prop_assert_eq!(rows.row(len), None);
        let survivors: Vec<u32> = (0..tan.horizon())
            .filter(|&id| tan.is_live(NodeId(id)))
            .collect();
        prop_assert_eq!(rows.survivors(), &survivors[..]);
        prop_assert_eq!(&roundtrip(&rows, stride), &rows);
        // A ring grows by appending but never reserves past its window.
        let bytes = |rows: usize| rows * stride * std::mem::size_of::<T>();
        let kept = 2 * rows.survivors().len() * (4 + bytes(1));
        let full = window.map_or(usize::MAX, |w| bytes(w) + kept);
        prop_assert!(rows.state_bytes() <= full, "step {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn windowed_rows_resolve_exactly_what_the_graph_keeps_live(
        recipe in dag_strategy(),
        window in 1usize..12,
        min_degree in 1u32..4,
    ) {
        let policies = [
            (RetentionPolicy::Unbounded, None),
            (RetentionPolicy::WindowTxs(window), Some(window)),
            (RetentionPolicy::KeepUnspentAndHubs { min_degree }, Some(window)),
        ];
        for (policy, window) in policies {
            drive::<u32>(policy, window, 1, &recipe, |x| x)?;
            drive::<f32>(policy, window, 16, &recipe, |x| x as f32)?;
        }
    }
}
