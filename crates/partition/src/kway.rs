//! Recursive-bisection k-way partitioning.
//!
//! The two sides of every bisection are **independent**: each recursive
//! branch derives its own RNG stream from `(seed, base, k)` instead of
//! threading one sequential generator through the whole tree, so the
//! branches can run on separate threads and the result is bit-identical
//! to the serial traversal (a unit test pins this). The pool respects
//! the `OPTCHAIN_THREADS` override shared with every other thread pool
//! in the workspace.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use optchain_tan::hash::splitmix64;

use crate::bisect::bisect;
use crate::CsrGraph;

/// Tunables for [`partition_kway`]; the free function uses defaults.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Number of parts `k ≥ 1`.
    pub k: u32,
    /// Per-part imbalance tolerance ε: each part's weight may reach
    /// `(1 + ε) · total/k` (the paper uses ε = 0.1 for its baselines).
    pub epsilon: f64,
    /// RNG seed (matching and seed growing are randomized; every
    /// recursion branch derives its own stream from this, so the output
    /// depends only on `(graph, k, epsilon, seed)` — never on the
    /// thread count).
    pub seed: u64,
    /// Run independent bisection branches on scoped worker threads
    /// (default `true`; bit-identical to the serial traversal).
    pub parallel: bool,
}

impl PartitionConfig {
    /// Config with `k` parts and default ε = 0.1, seed 0, parallel
    /// branch execution.
    pub fn new(k: u32) -> Self {
        PartitionConfig {
            k,
            epsilon: 0.1,
            seed: 0,
            parallel: true,
        }
    }
}

/// Worker-thread budget for the parallel branches here and for the
/// experiment driver's pool: the `OPTCHAIN_THREADS` environment
/// variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (4 as a last resort). CI and
/// containers pin thread counts with the variable.
pub fn configured_threads() -> usize {
    std::env::var("OPTCHAIN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// Below this many vertices a branch runs serially: the coarsening
/// pyramid is cheap and a thread spawn would dominate.
const PARALLEL_MIN_VERTICES: usize = 10_000;

/// Partitions `g` into `k` parts minimizing edge cut, Metis-style:
/// recursive multilevel bisection with proportional target weights, so
/// non-power-of-two `k` works (the paper uses k ∈ {4, 6, 8, ..., 64}).
///
/// Returns one part id in `0..k` per vertex.
///
/// # Panics
///
/// Panics if `k == 0` or the graph is empty while `k > 1`.
///
/// # Example
///
/// ```
/// use optchain_partition::{partition_kway, CsrGraph};
///
/// let g = CsrGraph::from_edges(8, (0..7u32).map(|i| (i, i + 1)));
/// let part = partition_kway(&g, 4, 0.1, 7);
/// assert!(part.iter().all(|p| *p < 4));
/// ```
pub fn partition_kway(g: &CsrGraph, k: u32, epsilon: f64, seed: u64) -> Vec<u32> {
    partition_with(
        g,
        PartitionConfig {
            k,
            epsilon,
            seed,
            parallel: true,
        },
    )
}

/// [`partition_kway`] with an explicit [`PartitionConfig`].
///
/// # Panics
///
/// Same conditions as [`partition_kway`].
pub fn partition_with(g: &CsrGraph, config: PartitionConfig) -> Vec<u32> {
    assert!(config.k > 0, "k must be >= 1");
    let mut part = vec![0u32; g.len()];
    if config.k == 1 || g.is_empty() {
        assert!(config.k >= 1);
        return part;
    }
    let threads = if config.parallel {
        configured_threads()
    } else {
        1
    };
    let vertices: Vec<u32> = (0..g.len() as u32).collect();
    let local = recurse(
        g,
        &vertices,
        config.k,
        0,
        config.epsilon,
        config.seed,
        threads,
    );
    for (i, &v) in vertices.iter().enumerate() {
        part[v as usize] = local[i];
    }
    part
}

/// The RNG stream of one recursion branch: a SplitMix64 mix of the
/// run's seed with the branch's `(base, k)` coordinates — unique per
/// branch (a branch is identified by the contiguous part-id range
/// `[base, base + k)`), and independent of traversal or thread order.
fn branch_seed(seed: u64, base: u32, k: u32) -> u64 {
    splitmix64(splitmix64(seed) ^ (base as u64) ^ ((k as u64) << 32))
}

/// Recursively bisects the subgraph induced by `vertices` into `k`
/// parts, returning one part id (starting at `base`) per `vertices`
/// index. The two sides are fully independent — own induced subgraph,
/// own derived RNG stream, own output vector — so `threads > 1` may run
/// them concurrently with a bit-identical result.
fn recurse(
    g: &CsrGraph,
    vertices: &[u32],
    k: u32,
    base: u32,
    epsilon: f64,
    seed: u64,
    threads: usize,
) -> Vec<u32> {
    if k == 1 || vertices.is_empty() {
        return vec![base; vertices.len()];
    }
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let mut rng = ChaCha8Rng::seed_from_u64(branch_seed(seed, base, k));

    // Build the induced subgraph.
    let mut local_of = std::collections::HashMap::with_capacity(vertices.len());
    for (i, &v) in vertices.iter().enumerate() {
        local_of.insert(v, i as u32);
    }
    let local_ref = &local_of;
    let edges: Vec<(u32, u32, u32)> = vertices
        .iter()
        .flat_map(|&v| {
            let local_v = local_ref[&v];
            g.neighbors(v).filter_map(move |(u, w)| {
                let local_u = *local_ref.get(&u)?;
                (local_v < local_u).then_some((local_v, local_u, w))
            })
        })
        .collect();
    let sub = CsrGraph::from_weighted_edges(vertices.len(), edges);
    // Propagate accumulated vertex weights? Sub-vertices are original
    // (weight-1) vertices here because recursion starts from the full
    // graph, so unit weights are correct.
    let total = sub.total_weight();
    let target0 = (total * k0 as u64) / k as u64;

    let side = if target0 == 0 || target0 >= total {
        // Degenerate split (tiny subgraph); put everything on side 0.
        vec![0u8; vertices.len()]
    } else {
        // ε shrinks with depth so leaf-level imbalance stays bounded.
        bisect(
            &sub,
            target0,
            epsilon / (k as f64).log2().max(1.0),
            &mut rng,
        )
    };

    let mut side0 = Vec::new();
    let mut side1 = Vec::new();
    for (i, &v) in vertices.iter().enumerate() {
        if side[i] == 0 {
            side0.push(v);
        } else {
            side1.push(v);
        }
    }
    // A degenerate bisection (everything on one side) must still terminate:
    // fall back to a proportional positional split. With fewer vertices
    // than parts some parts legitimately stay empty.
    if side0.is_empty() || side1.is_empty() {
        let mut all = [side0, side1].concat();
        let cutpoint = ((all.len() * k0 as usize) / k as usize).min(all.len());
        side1 = all.split_off(cutpoint);
        side0 = all;
    }

    // Recurse — concurrently when the thread budget and branch sizes
    // justify a spawn. Each side's coarsening pyramid (matching, seed
    // growing, FM) runs entirely inside its branch, which is what makes
    // the level work embarrassingly parallel.
    let spawn = threads >= 2 && side0.len().min(side1.len()) >= PARALLEL_MIN_VERTICES;
    let (part0, part1) = if spawn {
        let t1 = threads / 2;
        let t0 = threads - t1;
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| recurse(g, &side1, k1, base + k0, epsilon, seed, t1));
            let part0 = recurse(g, &side0, k0, base, epsilon, seed, t0);
            (part0, handle.join().expect("partition branch panicked"))
        })
    } else {
        (
            recurse(g, &side0, k0, base, epsilon, seed, threads),
            recurse(g, &side1, k1, base + k0, epsilon, seed, threads),
        )
    };

    // Merge the sides back into `vertices` order.
    let mut out = vec![0u32; vertices.len()];
    for (&v, &p) in side0.iter().zip(&part0) {
        out[local_of[&v] as usize] = p;
    }
    for (&v, &p) in side1.iter().zip(&part1) {
        out[local_of[&v] as usize] = p;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality;

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    fn communities(c: u32, size: u32, intra: usize, inter: usize, seed: u64) -> CsrGraph {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = c * size;
        let mut edges = Vec::new();
        for _ in 0..intra {
            let com = rng.gen_range(0..c);
            edges.push((
                com * size + rng.gen_range(0..size),
                com * size + rng.gen_range(0..size),
            ));
        }
        for _ in 0..inter {
            edges.push((rng.gen_range(0..n), rng.gen_range(0..n)));
        }
        CsrGraph::from_edges(n as usize, edges)
    }

    #[test]
    fn all_parts_used_and_in_range() {
        let g = communities(4, 50, 1500, 50, 1);
        let part = partition_kway(&g, 4, 0.1, 9);
        let mut seen = [false; 4];
        for &p in &part {
            assert!(p < 4);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all 4 parts must be nonempty");
    }

    #[test]
    fn k1_is_trivial() {
        let g = communities(2, 10, 50, 5, 2);
        let part = partition_kway(&g, 1, 0.1, 0);
        assert!(part.iter().all(|p| *p == 0));
    }

    #[test]
    fn non_power_of_two_k_balances() {
        let g = communities(6, 40, 2000, 60, 3);
        for k in [3u32, 6, 10, 14] {
            let part = partition_kway(&g, k, 0.1, 4);
            let imb = quality::imbalance(&g, &part, k);
            assert!(imb < 1.35, "k={k}: imbalance {imb} too high");
        }
    }

    #[test]
    fn cut_much_better_than_random() {
        let g = communities(8, 50, 4000, 100, 5);
        let part = partition_kway(&g, 8, 0.1, 6);
        let cut = quality::edge_cut(&g, &part);
        // Random 8-way placement cuts ~7/8 of edges.
        let rand_cut = g.edge_count() as u64 * 7 / 8;
        assert!(cut < rand_cut / 3, "cut {cut} vs random {rand_cut}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = communities(4, 30, 800, 40, 7);
        let a = partition_kway(&g, 4, 0.1, 42);
        let b = partition_kway(&g, 4, 0.1, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Large enough that branches actually cross the spawn threshold
        // (40k vertices, first split ≥ 10k per side), across several
        // k / seed combinations — the parallel Metis oracle must place
        // exactly like the serial traversal.
        let g = communities(8, 5_000, 60_000, 2_000, 13);
        for (k, seed) in [(4u32, 1u64), (6, 9)] {
            let mut serial_cfg = PartitionConfig::new(k);
            serial_cfg.seed = seed;
            serial_cfg.parallel = false;
            let mut parallel_cfg = serial_cfg;
            parallel_cfg.parallel = true;
            let serial = partition_with(&g, serial_cfg);
            let parallel = partition_with(&g, parallel_cfg);
            assert_eq!(serial, parallel, "k={k} seed={seed}");
        }
    }

    #[test]
    fn branch_rng_is_independent_of_sibling_work() {
        // The per-branch RNG derivation: perturbing one side of the tree
        // must not shift the sibling's stream — partition the same graph
        // at two ks sharing the subtree rooted at (base=0, k=2) and make
        // sure determinism holds per (k, seed), which the sequential-rng
        // design could only provide by accident.
        let g = communities(4, 50, 1_500, 50, 3);
        for k in [2u32, 4, 8] {
            let a = partition_kway(&g, k, 0.1, 5);
            let b = partition_kway(&g, k, 0.1, 5);
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn k_exceeding_vertices_still_assigns() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 2)]);
        let part = partition_kway(&g, 8, 0.1, 0);
        assert_eq!(part.len(), 3);
        assert!(part.iter().all(|p| *p < 8));
    }

    #[test]
    #[should_panic(expected = "k must be >= 1")]
    fn k_zero_panics() {
        partition_kway(&CsrGraph::from_edges(2, [(0, 1)]), 0, 0.1, 0);
    }
}
