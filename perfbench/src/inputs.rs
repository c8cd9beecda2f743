//! The workloads' inputs, all derived from the command's `--seed`: the tree
//! corpus, each tree's query bank with its independently computed answers,
//! and the pool of query batches.
//!
//! Answers come from [`DistanceOracle`] over the generated trees (an Euler
//! tour and a sparse table), never from labels.

use treelab_core::store::NO_DISTANCE;
use treelab_tree::lca::DistanceOracle;
use treelab_tree::rng::SplitMix64;
use treelab_tree::{gen, Tree};

/// The k-distance scheme's bound.
pub const K: u64 = 8;
/// The approximate scheme's ε.
pub const EPSILON: f64 = 0.25;

/// The six schemes, assigned to tree ids in rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `NaiveScheme`.
    Naive,
    /// `DistanceArrayScheme`.
    DistanceArray,
    /// `OptimalScheme`.
    Optimal,
    /// `KDistanceScheme` with `k = K`.
    KDistance,
    /// `ApproximateScheme` with `ε = EPSILON`.
    Approximate,
    /// `LevelAncestorScheme`.
    LevelAncestor,
}

impl Kind {
    /// Every scheme, in rotation order.
    pub const ALL: [Kind; 6] = [
        Kind::Naive,
        Kind::DistanceArray,
        Kind::Optimal,
        Kind::KDistance,
        Kind::Approximate,
        Kind::LevelAncestor,
    ];

    /// The scheme of tree `id`.
    pub fn of(id: u64) -> Kind {
        Kind::ALL[(id % 6) as usize]
    }

    /// Position in [`Kind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Naive => "naive",
            Kind::DistanceArray => "distance_array",
            Kind::Optimal => "optimal",
            Kind::KDistance => "kdistance",
            Kind::Approximate => "approximate",
            Kind::LevelAncestor => "level_ancestor",
        }
    }

    /// Whether `got` is a correct answer of this scheme for true distance `d`:
    /// exact for the exact and level-ancestor schemes, `d` or
    /// [`NO_DISTANCE`] around `K` for k-distance, and
    /// `d ≤ got ≤ (1+ε)·d + 2` for the approximate scheme.
    pub fn accepts(self, d: u64, got: u64) -> bool {
        match self {
            Kind::KDistance if d > K => got == NO_DISTANCE,
            Kind::Approximate => got >= d && got as f64 <= (1.0 + EPSILON) * d as f64 + 2.0,
            _ => got == d,
        }
    }
}

/// The shape of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Live trees in the forest.
    pub trees: usize,
    /// Nodes per tree (roughly; some families round).
    pub nodes: usize,
    /// Zipf exponent of tree popularity by recency rank; 0 is uniform.
    pub zipf: f64,
    /// Queries per routed batch.
    pub batch: usize,
    /// Batches per serving slice (serial and sharded each).
    pub batches_per_slice: usize,
    /// Trees built per set-up slice.
    pub setup_trees_per_slice: usize,
    /// Query pairs (with answers) kept per tree.
    pub bank: usize,
    /// Batches in the pre-generated pool.
    pub pool: usize,
    /// Words re-checked by one scrub step after each serial batch.
    pub scrub_words: usize,
}

/// The workload names, in presentation order.
pub const WORKLOADS: [&str; 3] = ["zipf-hot", "scatter", "churn"];

impl Spec {
    /// The named workload at full size, or at smoke-test size when `tiny`.
    pub fn named(name: &str, tiny: bool) -> Option<Spec> {
        let mut spec = match name {
            "zipf-hot" => Spec {
                name: "zipf-hot",
                trees: 64,
                nodes: 16_384,
                zipf: 1.0,
                batch: 4096,
                batches_per_slice: 16,
                setup_trees_per_slice: 1,
                bank: 4096,
                pool: 64,
                scrub_words: 16_384,
            },
            "scatter" => Spec {
                name: "scatter",
                trees: 2048,
                nodes: 512,
                zipf: 0.0,
                batch: 256,
                batches_per_slice: 96,
                setup_trees_per_slice: 32,
                bank: 128,
                pool: 1024,
                scrub_words: 1024,
            },
            "churn" => Spec {
                name: "churn",
                trees: 32,
                nodes: 16_384,
                zipf: 1.0,
                batch: 1024,
                batches_per_slice: 16,
                setup_trees_per_slice: 1,
                bank: 2048,
                pool: 256,
                scrub_words: 8192,
            },
            _ => return None,
        };
        if tiny {
            spec.trees = spec.trees.min(8);
            spec.nodes = (spec.nodes / 64).max(64);
            spec.batch = (spec.batch / 16).max(8);
            spec.batches_per_slice = 2;
            spec.setup_trees_per_slice = 2;
            spec.bank = 64;
            spec.pool = 8;
            spec.scrub_words = 256;
        }
        Some(spec)
    }
}

/// The per-tree random stream for `(seed, id, purpose)`.
fn stream(seed: u64, id: u64, purpose: u64) -> SplitMix64 {
    let mut mix = SplitMix64::seed_from_u64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::seed_from_u64(mix.next_u64() ^ purpose)
}

/// Tree `id` of a workload.  The family rotates with the scheme
/// ([`Kind::of`]), so six consecutive ids always make the same six
/// (family, scheme) pairs and a churned-in tree replaces one of the same
/// make-up: the optimal scheme gets the comb, the shape its ¼·log²n bound
/// is about.
pub fn make_tree(spec: &Spec, seed: u64, id: u64) -> Tree {
    let n = spec.nodes.max(2);
    let s = stream(seed, id, 1).next_u64();
    match Kind::of(id) {
        Kind::Naive => gen::random_tree(n, s),
        Kind::DistanceArray => gen::random_binary(n, s),
        Kind::Optimal => gen::comb(n),
        Kind::KDistance => gen::caterpillar(n.div_ceil(4), 3),
        Kind::Approximate => gen::random_recursive(n, s),
        Kind::LevelAncestor => gen::broom(n / 2, n - n / 2),
    }
}

/// One query pair of a tree and its true distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    /// First node index.
    pub u: u32,
    /// Second node index.
    pub v: u32,
    /// `DistanceOracle::distance(u, v)`.
    pub d: u64,
}

/// `size` uniform node pairs of tree `id`, answered by the oracle.
pub fn bank(tree: &Tree, size: usize, seed: u64, id: u64) -> Vec<Pair> {
    let oracle = DistanceOracle::new(tree);
    let n = tree.len() as u64;
    let mut rng = stream(seed, id, 2);
    (0..size)
        .map(|_| {
            let u = (rng.next_u64() % n) as u32;
            let v = (rng.next_u64() % n) as u32;
            let d = oracle.distance(tree.node(u as usize), tree.node(v as usize));
            Pair { u, v, d }
        })
        .collect()
}

/// One pooled query: the popularity rank of its tree among the live trees
/// (0 = newest) and an index into that tree's bank.
pub type Slot = (u32, u32);

/// The pool of query batches: ranks drawn Zipf(`spec.zipf`) (uniform at 0),
/// bank indices uniform.
pub fn pool(spec: &Spec, seed: u64) -> Vec<Vec<Slot>> {
    let mut cum = Vec::with_capacity(spec.trees);
    let mut total = 0.0f64;
    for r in 0..spec.trees {
        total += 1.0 / ((r + 1) as f64).powf(spec.zipf);
        cum.push(total);
    }
    let mut rng = stream(seed, u64::MAX, 3);
    (0..spec.pool)
        .map(|_| {
            (0..spec.batch)
                .map(|_| {
                    let x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
                    let rank = cum.partition_point(|&c| c < x).min(spec.trees - 1);
                    let idx = rng.next_u64() % spec.bank as u64;
                    (rank as u32, idx as u32)
                })
                .collect()
        })
        .collect()
}

/// A digest of every generated input of a workload (the corpus, its banks
/// and the batch pool) — equal for equal seeds.
pub fn digest(spec: &Spec, seed: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    for id in 0..spec.trees as u64 {
        let tree = make_tree(spec, seed, id);
        mix(tree.len() as u64);
        for u in tree.nodes() {
            mix(tree.parent(u).map_or(u64::MAX, |p| p.index() as u64));
        }
        for p in bank(&tree, spec.bank, seed, id) {
            mix(u64::from(p.u) << 32 | u64::from(p.v));
            mix(p.d);
        }
    }
    for batch in pool(spec, seed) {
        for (rank, idx) in batch {
            mix(u64::from(rank) << 32 | u64::from(idx));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_rules() {
        assert!(Kind::Optimal.accepts(5, 5));
        assert!(!Kind::Optimal.accepts(5, 6));
        assert!(Kind::KDistance.accepts(K, K));
        assert!(Kind::KDistance.accepts(K + 1, NO_DISTANCE));
        assert!(!Kind::KDistance.accepts(K + 1, K + 1));
        assert!(Kind::Approximate.accepts(10, 14));
        assert!(!Kind::Approximate.accepts(10, 15));
        assert!(!Kind::Approximate.accepts(10, 9));
    }

    #[test]
    fn kinds_rotate_and_pools_stay_in_range() {
        assert_eq!(Kind::of(7), Kind::DistanceArray);
        let spec = Spec::named("churn", true).unwrap();
        for batch in pool(&spec, 3) {
            assert_eq!(batch.len(), spec.batch);
            for (rank, idx) in batch {
                assert!((rank as usize) < spec.trees && (idx as usize) < spec.bank);
            }
        }
    }
}
