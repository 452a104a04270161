//! Synthetic relational dataset generators shaped after the benchmarks of
//! Fonseca et al. (CLUSTER 2005): carcinogenesis, mesh, and pyrimidines
//! (Table 1), plus the toy family and trains problems used by examples and
//! tests.
//!
//! **The dataset substitution**, stated here and nowhere else. The original
//! datasets are not redistributable, so each generator builds a synthetic
//! one with the *shape* that matters to the paper's experiments: the exact
//! |E+| / |E−| of Table 1 (scaled by the `scale` argument), a relational
//! schema of the same kind (molecules of atoms and bonds with numeric
//! charges behind threshold predicates; mesh edges with neighbour
//! relations; drug pairs over substituent properties), a planted
//! ground-truth theory (a few clauses, or a hidden activity function) that
//! generates the labels, and enough noise in them that no theory is
//! perfect. What the paper
//! measures — how search and evaluation cost scale with the examples a rank
//! holds, how many good rules an epoch's bag carries, whether accuracy
//! survives partitioning — depends on those shape parameters and not on
//! true chemistry or engineering, so speedup, communication, epoch and
//! accuracy *trends* are comparable with the paper's and absolute accuracies
//! are not. All generators are seeded and deterministic: a (generator,
//! scale, seed) triple is a dataset.
//!
//! ```
//! use p2mdie_datasets::carcinogenesis;
//!
//! let d = carcinogenesis(1.0, 42);
//! assert_eq!(d.characterization(), (162, 136)); // the paper's Table 1 row
//! ```

pub mod carcino;
pub mod common;
pub mod family;
pub mod mesh;
pub mod pyrimidines;
pub mod trains;

pub use carcino::carcinogenesis;
pub use common::Dataset;
pub use family::family;
pub use mesh::mesh;
pub use pyrimidines::pyrimidines;
pub use trains::trains;

/// Builds one of the paper's three datasets by its Table 1 name.
pub fn by_name(name: &str, scale: f64, seed: u64) -> Option<Dataset> {
    match name {
        "carcinogenesis" => Some(carcinogenesis(scale, seed)),
        "mesh" => Some(mesh(scale, seed)),
        "pyrimidines" => Some(pyrimidines(scale, seed)),
        _ => None,
    }
}

/// The paper's three dataset names, in Table 1 order.
pub const PAPER_DATASETS: [&str; 3] = ["carcinogenesis", "mesh", "pyrimidines"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_covers_paper_datasets() {
        for name in PAPER_DATASETS {
            assert!(by_name(name, 0.05, 1).is_some(), "{name} must resolve");
        }
        assert!(by_name("nope", 1.0, 1).is_none());
    }
}
