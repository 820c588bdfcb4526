//! Property-based tests for the TaN graph.

use proptest::prelude::*;

use optchain_tan::{stats, NodeId, TanGraph};
use optchain_utxo::TxId;

/// Random DAG recipe: for each node, a set of parent offsets (how far
/// back each edge points).
fn dag_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(1u8..20, 0..5), 1..120)
}

fn build(recipe: &[Vec<u8>]) -> TanGraph {
    let mut g = TanGraph::new();
    for (i, offsets) in recipe.iter().enumerate() {
        let parents: Vec<TxId> = offsets
            .iter()
            .filter_map(|off| i.checked_sub(*off as usize).map(|p| TxId(p as u64)))
            .collect();
        g.insert(TxId(i as u64), &parents);
    }
    g
}

proptest! {
    /// Edges always point to earlier nodes (acyclicity by construction).
    #[test]
    fn edges_point_backwards(recipe in dag_strategy()) {
        let g = build(&recipe);
        for (u, v) in g.edges() {
            prop_assert!(v < u);
        }
    }

    /// Sum of in-degrees equals sum of out-degrees equals edge count.
    #[test]
    fn degree_sums_match_edges(recipe in dag_strategy()) {
        let g = build(&recipe);
        let in_sum: u64 = g.nodes().map(|v| g.in_degree(v) as u64).sum();
        let out_sum: u64 = g.nodes().map(|v| g.out_degree(v) as u64).sum();
        prop_assert_eq!(in_sum, g.edge_count());
        prop_assert_eq!(out_sum, g.edge_count());
    }

    /// `in_degree_at(v, last_node)` equals the final `in_degree(v)`, and
    /// the function is monotone in the observer.
    #[test]
    fn in_degree_at_is_monotone_prefix_count(recipe in dag_strategy()) {
        let g = build(&recipe);
        let last = NodeId(g.len() as u32 - 1);
        for v in g.nodes() {
            prop_assert_eq!(g.in_degree_at(v, last), g.in_degree(v));
            let mut prev = 0;
            for t in (v.0..g.len() as u32).step_by(7) {
                let now = g.in_degree_at(v, NodeId(t));
                prop_assert!(now >= prev);
                prev = now;
            }
        }
    }

    /// TanStats node classes partition consistently: every node is
    /// counted, isolated ⊆ coinbase ∩ unspent.
    #[test]
    fn stats_classes_are_consistent(recipe in dag_strategy()) {
        let g = build(&recipe);
        let s = stats::TanStats::compute(&g);
        prop_assert_eq!(s.node_count, g.len());
        prop_assert_eq!(s.in_degree.total(), g.len() as u64);
        prop_assert_eq!(s.out_degree.total(), g.len() as u64);
        prop_assert!(s.isolated_count <= s.coinbase_count);
        prop_assert!(s.isolated_count <= s.unspent_count);
        prop_assert!(s.coinbase_count >= 1, "node 0 has no parents");
    }

    /// The cumulative average-degree series ends at |E|/|V|.
    #[test]
    fn average_degree_series_converges(recipe in dag_strategy()) {
        let g = build(&recipe);
        let series = stats::average_degree_over_time(&g, 1);
        let (_, last) = series.last().unwrap();
        let expected = g.edge_count() as f64 / g.len() as f64;
        prop_assert!((last - expected).abs() < 1e-12);
    }

    /// Cross-TX count is zero when everything is in one shard and equals
    /// the non-source node count when every node sits alone.
    #[test]
    fn cross_tx_extremes(recipe in dag_strategy()) {
        let g = build(&recipe);
        let one_shard = vec![0u32; g.len()];
        prop_assert_eq!(stats::cross_tx_count(&g, &one_shard), 0);
        // Each node in its own shard: every node with an input is cross.
        let own: Vec<u32> = (0..g.len() as u32).collect();
        let with_inputs = g.nodes().filter(|n| g.out_degree(*n) > 0).count() as u64;
        prop_assert_eq!(stats::cross_tx_count(&g, &own), with_inputs);
    }
}

// ---------------------------------------------------------------------
// Retention: the graph against a naive map-based reference
// ---------------------------------------------------------------------

use std::collections::{BTreeMap, BTreeSet, HashMap};

use optchain_storage::{ByteReader, ByteWriter};
use optchain_tan::hash::splitmix64;
use optchain_tan::RetentionPolicy;

/// Seeded stream source for the retention tests (SplitMix64 sequence).
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

/// The `TxId` of the `i`-th transaction of a test stream (deliberately
/// not the node id).
fn txid_of(i: u32) -> TxId {
    TxId(i as u64 * 7 + 3)
}

/// Parents of the next transaction of a stream of `total` nodes: recent
/// outputs, a few hot hubs (spent often enough to chain several spender
/// chunks), uniformly old outputs (evicted, retained or live), ids that
/// never existed, and duplicates.
fn random_parents(rng: &mut Rng, total: u32) -> Vec<TxId> {
    let count = match rng.below(10) {
        0 => 0,
        1 => 6 + rng.below(10),
        _ => 1 + rng.below(3),
    };
    let mut parents = Vec::new();
    for _ in 0..count {
        let parent = match rng.below(20) {
            _ if total == 0 => TxId(u64::MAX - rng.below(4)),
            0..=8 => txid_of(total - 1 - rng.below(total.min(8) as u64) as u32),
            9..=12 => txid_of((rng.below(3) as u32 * 5).min(total - 1)),
            13..=15 => txid_of(rng.below(total as u64) as u32),
            16..=17 => TxId(u64::MAX - rng.below(4)),
            _ => parents.last().copied().unwrap_or(txid_of(0)),
        };
        parents.push(parent);
    }
    parents
}

#[derive(Debug, Default)]
struct ModelNode {
    txid: u64,
    inputs: Vec<NodeId>,
    spenders: Vec<NodeId>,
}

/// The retention semantics written the slow, obvious way: one map of
/// live nodes, nothing shared, nothing reused.
#[derive(Debug)]
struct Model {
    policy: RetentionPolicy,
    total: u32,
    horizon: u32,
    live: BTreeMap<u32, ModelNode>,
    by_txid: HashMap<u64, u32>,
    retained: BTreeSet<u32>,
    edges: u64,
    missing: u64,
}

impl Model {
    fn new(policy: RetentionPolicy) -> Self {
        Model {
            policy,
            total: 0,
            horizon: 0,
            live: BTreeMap::new(),
            by_txid: HashMap::new(),
            retained: BTreeSet::new(),
            edges: 0,
            missing: 0,
        }
    }

    fn insert(&mut self, txid: TxId, parents: &[TxId]) {
        let id = self.total;
        let mut inputs: Vec<NodeId> = Vec::new();
        for parent in parents {
            match self.by_txid.get(&parent.0) {
                Some(&p) if !inputs.contains(&NodeId(p)) => inputs.push(NodeId(p)),
                Some(_) => {}
                None => self.missing += 1,
            }
        }
        for p in &inputs {
            self.live.get_mut(&p.0).unwrap().spenders.push(NodeId(id));
        }
        self.edges += inputs.len() as u64;
        self.by_txid.insert(txid.0, id);
        self.live.insert(
            id,
            ModelNode {
                txid: txid.0,
                inputs,
                spenders: Vec::new(),
            },
        );
        self.total += 1;
    }

    fn evict_before(&mut self, horizon: u32) {
        for id in self.horizon..horizon.min(self.total) {
            let degree = self.live[&id].spenders.len() as u32;
            let keep = match self.policy {
                RetentionPolicy::KeepUnspentAndHubs { min_degree } => {
                    degree == 0 || degree >= min_degree
                }
                _ => false,
            };
            if keep {
                self.retained.insert(id);
            } else {
                let node = self.live.remove(&id).unwrap();
                self.by_txid.remove(&node.txid);
            }
            self.horizon = id + 1;
        }
    }
}

fn encoded(g: &TanGraph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    g.encode_into(&mut w);
    w.into_vec()
}

fn decoded(bytes: &[u8]) -> TanGraph {
    let mut r = ByteReader::new(bytes);
    let g = TanGraph::decode_from(&mut r).expect("decode");
    r.finish().expect("fully consumed");
    g
}

/// In-degrees either side of a spender list's storage boundaries: its
/// two inline slots, then six-slot overflow chunks.
const STRADDLE: [usize; 5] = [2, 3, 8, 9, 14];

/// Every observable of `g` against the model, over the whole id space.
/// Returns a mask of the [`STRADDLE`] in-degrees whose historical
/// `in_degree_at` was checked at every cut of the spender list.
fn check_against_model(g: &TanGraph, m: &Model, rng: &mut Rng) -> Result<u32, TestCaseError> {
    let mut straddled = 0;
    prop_assert_eq!(g.len(), m.total as usize);
    prop_assert_eq!(g.horizon(), m.horizon);
    prop_assert_eq!(g.live_len(), m.live.len());
    prop_assert_eq!(g.retained_nodes(), m.retained.len());
    prop_assert_eq!(g.evicted_nodes(), m.total as u64 - m.live.len() as u64);
    prop_assert_eq!(g.edge_count(), m.edges);
    prop_assert_eq!(g.missing_parent_refs(), m.missing);
    let live: Vec<u32> = g.live_nodes().map(|n| n.0).collect();
    prop_assert_eq!(live, m.live.keys().copied().collect::<Vec<u32>>());
    for id in 0..m.total + 2 {
        let n = NodeId(id);
        let observers = [
            id,
            m.total.saturating_sub(1),
            rng.below(m.total as u64 + 1) as u32,
            rng.below(m.total as u64 + 1) as u32,
        ];
        prop_assert_eq!(
            g.node(txid_of(id)),
            m.by_txid.get(&txid_of(id).0).map(|&p| NodeId(p))
        );
        match m.live.get(&id) {
            Some(node) => {
                prop_assert!(g.is_live(n), "{n} must be live");
                prop_assert_eq!(g.txid(n), TxId(node.txid));
                prop_assert_eq!(g.inputs(n), &node.inputs[..], "inputs of {n}");
                prop_assert_eq!(g.spenders(n).collect::<Vec<_>>(), node.spenders.clone());
                prop_assert_eq!(g.in_degree(n), node.spenders.len());
                for obs in observers {
                    let seen = node.spenders.iter().filter(|s| s.0 <= obs).count();
                    prop_assert_eq!(g.in_degree_at(n, NodeId(obs)), seen, "{n} at {obs}");
                }
                if let Some(i) = STRADDLE.iter().position(|&d| d == node.spenders.len()) {
                    // Just before and at every spender's arrival.
                    for (before, s) in node.spenders.iter().enumerate() {
                        prop_assert_eq!(g.in_degree_at(n, NodeId(s.0 - 1)), before);
                        prop_assert_eq!(g.in_degree_at(n, *s), before + 1, "{n} at {s}");
                    }
                    straddled |= 1 << i;
                }
            }
            None => {
                prop_assert!(!g.is_live(n), "{n} must not be live");
                prop_assert!(g.inputs(n).is_empty());
                prop_assert_eq!(g.spenders(n).count(), 0);
                prop_assert_eq!(g.in_degree(n), 0);
                prop_assert_eq!(g.in_degree_at(n, NodeId(observers[1])), 0);
            }
        }
    }
    let bytes = encoded(g);
    prop_assert!(
        encoded(&decoded(&bytes)) == bytes,
        "decode → re-encode changed bytes"
    );
    Ok(straddled)
}

fn policy_of(pick: u64) -> RetentionPolicy {
    match pick % 3 {
        0 => RetentionPolicy::Unbounded,
        1 => RetentionPolicy::WindowTxs(1 + (pick / 3 % 40) as usize),
        _ => RetentionPolicy::KeepUnspentAndHubs {
            min_degree: 1 + (pick / 3 % 9) as u32,
        },
    }
}

/// One random stream of `steps` transactions against the model (see
/// `retention_matches_the_naive_model`). Now and then one recent node is
/// spent on every step until its in-degree reaches a [`STRADDLE`] value.
/// Returns the mask of straddling in-degrees checked.
fn against_the_model(seed: u64, steps: usize) -> Result<u32, TestCaseError> {
    let mut rng = Rng(seed);
    let policy = policy_of(rng.next());
    let mut g = TanGraph::with_retention(policy);
    let mut m = Model::new(policy);
    let (mut pumped, mut straddled) = (None, 0);
    for _ in 0..steps {
        let mut parents = random_parents(&mut rng, m.total);
        match pumped {
            Some((id, target)) if m.live.get(&id).is_some_and(|n| n.spenders.len() < target) => {
                parents.push(txid_of(id));
            }
            _ if m.total > 0 && rng.below(6) == 0 => {
                let id = m.total - 1 - rng.below(m.total.min(4) as u64) as u32;
                pumped = Some((id, STRADDLE[rng.below(5) as usize]));
            }
            _ => pumped = None,
        }
        let node = g.insert(txid_of(m.total), &parents);
        prop_assert_eq!(node, NodeId(m.total));
        m.insert(txid_of(m.total), &parents);
        let horizon = match rng.below(12) {
            0..=3 => Some(m.total.saturating_sub(1 + rng.below(48) as u32)),
            4 => Some(rng.below(m.total as u64 + 3) as u32),
            5 => Some(m.total),
            _ => None,
        };
        if let Some(h) = horizon {
            g.evict_before(h);
            m.evict_before(h);
        }
        match rng.below(40) {
            0 => g.compact(),
            1 => g = decoded(&encoded(&g)),
            _ => {}
        }
        straddled |= check_against_model(&g, &m, &mut rng)?;
    }
    Ok(straddled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random streams and random `evict_before` schedules under all three
    /// policies: after every step the graph and the naive model agree on
    /// every accessor and the codec round-trips byte for byte. `compact`
    /// and a decode → continue hand-over are thrown in at random; neither
    /// may be observable.
    #[test]
    fn retention_matches_the_naive_model(seed in 0u64..u64::MAX, steps in 60usize..320) {
        against_the_model(seed, steps)?;
    }
}

/// The model streams do reach every in-degree either side of the inline
/// slots and the first two overflow chunks.
#[test]
fn model_streams_straddle_every_spender_boundary() {
    let straddled = (0..16u64).fold(0, |mask, seed| {
        mask | against_the_model(seed, 320).expect("graph matches the model")
    });
    assert_eq!(straddled, (1 << STRADDLE.len()) - 1, "mask {straddled:#b}");
}

/// A graph of `steps` random transactions under `policy`, evicted at a
/// 24-tx lag unless the policy is unbounded.
fn random_graph(rng: &mut Rng, policy: RetentionPolicy, steps: u32) -> TanGraph {
    let mut g = TanGraph::with_retention(policy);
    for i in 0..steps {
        g.insert(txid_of(i), &random_parents(rng, i));
        if policy != RetentionPolicy::Unbounded {
            g.evict_before((i + 1).saturating_sub(24));
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every single-byte flip of an encoding, under each policy, either
    /// decodes to a graph that re-encodes to exactly the flipped bytes
    /// and serves every accessor, or fails typed. Never a panic.
    #[test]
    fn byte_flips_decode_faithfully_or_fail_typed(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        for pick in 0..3 {
            let policy = policy_of(3 * rng.below(9) + pick);
            let bytes = encoded(&random_graph(&mut rng, policy, 90));
            let mut faithful = 0;
            for at in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 + rng.below(255) as u8;
                let mut r = ByteReader::new(&flipped);
                let Ok(mut g) = TanGraph::decode_from(&mut r) else { continue };
                if r.finish().is_err() {
                    continue;
                }
                faithful += 1;
                prop_assert!(encoded(&g) == flipped, "{policy:?}: flip at {at} re-encodes differently");
                let last = NodeId(g.len() as u32 - 1);
                for n in g.live_nodes().collect::<Vec<_>>() {
                    g.txid(n);
                    prop_assert!(g.inputs(n).iter().all(|&p| p < n));
                    let spenders: Vec<NodeId> = g.spenders(n).collect();
                    prop_assert_eq!(g.in_degree_at(n, last), spenders.len());
                    for (before, s) in spenders.iter().enumerate() {
                        prop_assert_eq!(g.in_degree_at(n, NodeId(s.0 - 1)), before);
                    }
                }
                g.insert(TxId(u64::MAX / 3), &[txid_of(0), txid_of(g.len() as u32 - 1)]);
            }
            // Flipped txids and counters decode: the faithful arm runs.
            prop_assert!(faithful > 0, "{policy:?}: no flip decoded");
        }
    }
}

/// Three rows' `(inputs, spenders)`.
type ThreeRows<'a> = [(&'a [u32], &'a [u32]); 3];

/// The encoding of an unbounded three-node graph with `rows`, written
/// field by field.
fn three_rows(rows: ThreeRows) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(encoded(&TanGraph::new())[0]); // codec version
    RetentionPolicy::Unbounded.encode_into(&mut w);
    w.put_u32(3); // total
    w.put_u32(0); // horizon
    w.put_u64(2); // edges
    w.put_u64(0); // missing parent references
    w.put_u64(3); // rows
    for (id, (inputs, spenders)) in rows.into_iter().enumerate() {
        w.put_u32(id as u32);
        w.put_u64(txid_of(id as u32).0);
        for list in [inputs, spenders] {
            w.put_u32(list.len() as u32);
            list.iter().for_each(|&n| w.put_u32(n));
        }
    }
    w.into_vec()
}

/// A CRC-valid checkpoint can still name impossible edges. An input
/// that is not an earlier node breaks `in_degree_at`'s binary search
/// silently; a spender out of order, not later than its node, or past
/// the stream panics in `txid()` later. Each fails typed instead.
#[test]
fn decode_rejects_forward_inputs_and_disordered_spenders() {
    let chain = three_rows([(&[], &[1]), (&[0], &[2]), (&[1], &[])]);
    assert_eq!(encoded(&decoded(&chain)), chain);
    let bad: [(&str, ThreeRows); 6] = [
        ("self input", [(&[], &[1]), (&[1], &[2]), (&[1], &[])]),
        ("later input", [(&[], &[1]), (&[2], &[2]), (&[1], &[])]),
        (
            "spenders out of order",
            [(&[], &[2, 1]), (&[0], &[2]), (&[1], &[])],
        ),
        (
            "repeated spender",
            [(&[], &[1, 1]), (&[0], &[2]), (&[1], &[])],
        ),
        (
            "spender not later",
            [(&[], &[1]), (&[0], &[1]), (&[1], &[])],
        ),
        (
            "spender past the stream",
            [(&[], &[1]), (&[0], &[3]), (&[1], &[])],
        ),
    ];
    for (what, rows) in bad {
        let bytes = three_rows(rows);
        let err = TanGraph::decode_from(&mut ByteReader::new(&bytes));
        assert!(err.is_err(), "{what} must not decode");
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `TanGraph::encode_into` is a logical codec — live rows in stable-id
/// order — so how rows are stored must never reach a checkpoint. One
/// fixed stream per policy, evicted at a 64-tx lag with a `compact`
/// thrown in, its encoding digested every 250 txs; the digests were
/// computed at commit efe1d88, before the row storage was rebuilt.
#[test]
fn retention_golden() {
    let cases = [
        (RetentionPolicy::Unbounded, 0xf0f2_9c55_a0c9_a827u64),
        (RetentionPolicy::WindowTxs(64), 0xd993_93f0_fd81_11d6),
        (
            RetentionPolicy::KeepUnspentAndHubs { min_degree: 4 },
            0xc7f1_c287_0d4e_631b,
        ),
    ];
    for (policy, pinned) in cases {
        let mut rng = Rng(0x0717_c4a1);
        let mut g = TanGraph::with_retention(policy);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..3_000u32 {
            let parents = random_parents(&mut rng, i);
            g.insert(txid_of(i), &parents);
            if policy != RetentionPolicy::Unbounded {
                g.evict_before((i + 1).saturating_sub(64));
            }
            if i == 1_700 {
                g.compact();
            }
            if (i + 1) % 250 == 0 {
                digest = fnv1a(digest, &encoded(&g));
            }
        }
        assert_eq!(
            digest, pinned,
            "{policy:?}: encode_into bytes moved ({digest:#018x})"
        );
    }
}

/// `try_insert` of a live id answers with the node holding it and
/// changes nothing — same bytes, counters and index — under every
/// policy; an evicted id goes in as a fresh node.
#[test]
fn a_refused_insertion_names_the_holder_and_changes_nothing() {
    let state = |g: &TanGraph| {
        (
            fnv1a(0, &encoded(g)),
            g.missing_parent_refs(),
            g.arena_bytes(),
        )
    };
    for policy in [
        RetentionPolicy::Unbounded,
        RetentionPolicy::WindowTxs(64),
        RetentionPolicy::KeepUnspentAndHubs { min_degree: 4 },
    ] {
        let (mut rng, mut g) = (Rng(0x000d_0b1e), TanGraph::with_retention(policy));
        for i in 0..1_500u32 {
            let parents = random_parents(&mut rng, i);
            assert_eq!(g.try_insert(txid_of(i), &parents), Ok(NodeId(i)));
            if policy != RetentionPolicy::Unbounded {
                g.evict_before((i + 1).saturating_sub(64));
            }
            let again = txid_of(rng.below(i as u64 + 1) as u32);
            let before = state(&g);
            match g.node(again) {
                Some(held) => assert_eq!(g.try_insert(again, &parents), Err(held)),
                None => assert!(g.clone().try_insert(again, &parents).is_ok()),
            }
            assert_eq!(state(&g), before, "{policy:?}: refusing {again}");
        }
    }
}
