//! Nearest-neighbor search substrate for the `iim` workspace.
//!
//! Everything neighbor-shaped in the paper goes through `NN(t, F, k)`: the
//! kNN/kNNE/LOESS/ILLS baselines, IIM's learning neighbors (`ℓ`), IIM's
//! imputation neighbors (`k`), and the adaptive sweep which needs *all*
//! prefixes `NN(tᵢ, F, 1) ⊂ NN(tᵢ, F, 2) ⊂ …` at once.
//!
//! * [`dist`] — the paper's Formula 1 distance (Euclidean over the complete
//!   attributes, normalized by `|F|`).
//! * [`brute`] — exact top-k scans; the shape the paper's complexity
//!   analysis assumes ("advanced indexing ... is not the focus of this
//!   study").
//! * [`kdtree`] — an owned, storable KD-tree for the large-`n`
//!   experiments (SN has 100k tuples) and for online serving.
//! * [`vptree`] — a deterministic vantage-point tree whose metric-space
//!   pruning keeps paying past the KD-tree's dimensionality cliff.
//! * [`index`] — [`NeighborIndex`]: the brute/kd/vp selection every hot
//!   path (IIM serving, the kNN-family baselines, prefix enumeration)
//!   runs on, with bit-identical results across variants.
//! * [`orders`] — fully sorted per-tuple neighbor prefixes: the per-row
//!   kernel ([`Prefixes`]) the adaptive sweep calls inside its per-tuple
//!   map, and the stored shallow orders ([`NeighborOrders`]) built by the
//!   same kernel.

pub mod brute;
pub mod dist;
pub mod heap;
pub mod index;
pub mod kdtree;
pub mod orders;
pub mod vptree;

pub use brute::{knn, knn_into, Neighbor};
pub use dist::{
    euclidean_f, euclidean_full, sq_dist_f, sq_dist_many, sq_dist_many_fixed, sq_dist_on,
};
pub use heap::KnnScratch;
pub use index::{auto_choice, auto_prefers_kdtree, rebuild_threshold, IndexChoice, NeighborIndex};
pub use kdtree::KdTree;
pub use orders::{NeighborOrders, PrefixScratch, Prefixes, SCAN_DEPTH_RATIO};
pub use vptree::VpTree;
