//! # htc-viz
//!
//! Visualisation substrate for the embedding figures of the paper:
//!
//! * [`pca`] — principal component analysis via power iteration (used to
//!   initialise t-SNE and as a fast 2-D projection on its own);
//! * [`mod@tsne`] — an exact (O(n²)) t-SNE implementation (van der Maaten &
//!   Hinton, 2008) used to regenerate Fig. 11, the before/after visualisation
//!   of anchor-node embeddings.
//!
//! Both produce plain `(x, y)` coordinates; the benchmark harness writes them
//! as TSV so any plotting tool can render them.

pub mod pca;
pub mod tsne;

pub use pca::pca_project;
pub use tsne::{tsne, TsneConfig};
