//! # htc-baselines
//!
//! Re-implementations of the network-alignment baselines the HTC paper
//! compares against (Table II, Fig. 7 and Fig. 9):
//!
//! | Method | Signal | Supervision |
//! |---|---|---|
//! | [`IsoRank`] | topology | prior alignment matrix (10 % seeds) |
//! | [`Final`] | topology + attributes | prior alignment matrix (10 % seeds) |
//! | [`Pale`] | topology embeddings | 10 % seed anchors |
//! | [`Cenalp`] | topology + attributes | 10 % seed anchors |
//! | [`Regal`] | topology + attributes | none |
//! | [`GAlign`] | topology + attributes (GCN) | none |
//! | [`DegreeAttr`] | degrees + raw attributes | none |
//!
//! Every method implements the common [`Aligner`] trait so the benchmark
//! harness can treat them uniformly.  The implementations follow the
//! published update rules; where the original system depends on heavyweight
//! machinery that is out of scope (e.g. CENALP's cross-graph skip-gram
//! walks), a faithful simplification is used and documented on the type.

pub mod cenalp;
pub mod degree;
pub mod final_algo;
pub mod galign;
pub mod isorank;
pub mod pale;
pub mod regal;
pub mod traits;

pub use cenalp::Cenalp;
pub use degree::DegreeAttr;
pub use final_algo::Final;
pub use galign::GAlign;
pub use isorank::IsoRank;
pub use pale::Pale;
pub use regal::Regal;
pub use traits::{Aligner, BaselineError};

/// All baselines used in Table II, boxed behind the common trait.
///
/// `seed` controls the internal randomness of the methods that have any.
pub fn table2_baselines(seed: u64) -> Vec<Box<dyn Aligner>> {
    vec![
        Box::new(GAlign::new(seed)),
        Box::new(Final::default()),
        Box::new(Pale::new(seed)),
        Box::new(Cenalp::default()),
        Box::new(IsoRank::default()),
        Box::new(Regal::new(seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_baselines_cover_the_paper() {
        let baselines = table2_baselines(1);
        let names: Vec<&str> = baselines.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec!["GAlign", "FINAL", "PALE", "CENALP", "IsoRank", "REGAL"]
        );
        // Supervision flags match the paper's setup.
        let supervised: Vec<bool> = baselines.iter().map(|b| b.is_supervised()).collect();
        assert_eq!(supervised, vec![false, true, true, true, true, false]);
    }
}
