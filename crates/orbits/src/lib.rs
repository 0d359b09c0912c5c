//! # htc-orbits
//!
//! Edge-orbit counting for 2–4-node graphlets and construction of the
//! *graphlet orbit matrices* (GOMs) that define the paper's higher-order
//! topological consistency.
//!
//! A **graphlet** is a small connected induced subgraph; the edges of each
//! graphlet split into **orbits** under the graphlet's automorphism group
//! (Fig. 4 of the paper).  For graphlets on 2–4 nodes there are 9 graphlets
//! and 13 edge orbits.  For every edge `(i, j)` of a graph and every orbit `k`
//! the count `O_k(i, j)` — how many induced subgraphs place `(i, j)` on orbit
//! `k` — becomes the weight of the edge in the *orbit-k view* of the graph.
//!
//! Modules:
//!
//! * [`orbit`] — the orbit taxonomy, graphlet classification and the
//!   per-subgraph edge-orbit classifier;
//! * [`counting`] — the production counter, one path for every graph:
//!   analytic 3-node counts from per-edge adjacency intersections plus an
//!   `O(e·D²)` enumeration of connected 4-node subgraphs (the same asymptotic
//!   cost as the Orca algorithm used by the paper);
//! * [`brute`] — a brute-force reference counter used as the test oracle;
//! * [`gom`] — assembly of the per-orbit sparse matrices (weighted or binary)
//!   and node-level orbit signatures.

pub mod brute;
pub mod counting;
pub mod gom;
pub mod orbit;

pub use counting::{count_edge_orbits, EdgeOrbitCounts};
pub use gom::{GomSet, GomWeighting};
pub use orbit::{EdgeOrbit, Graphlet, NUM_EDGE_ORBITS};
