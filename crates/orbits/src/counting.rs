//! Production edge-orbit counter.
//!
//! For every edge `(u, v)` the counter produces a 13-component vector whose
//! `k`-th entry is the number of induced 2–4-node graphlets that place the
//! edge on orbit `k`:
//!
//! * orbit 0 is always 1 (the edge itself);
//! * orbits 1–2 (two-edge chain, triangle) follow analytically from the
//!   degrees and the common-neighbour count, found by intersecting the two
//!   endpoints' sorted adjacency lists;
//! * orbits 3–12 are obtained by enumerating every connected induced 4-node
//!   subgraph containing `(u, v)` exactly once and classifying it with
//!   [`crate::orbit::classify_edge_in_four`].
//!
//! The enumeration splits the two extra nodes `{w, x}` into two disjoint
//! cases so that each node set is visited exactly once:
//!
//! 1. both `w` and `x` are adjacent to `u` or `v` (take unordered pairs from
//!    the joint neighbourhood), or
//! 2. `w` is adjacent to `u` or `v` while `x` is adjacent only to `w`.
//!
//! The cost is `O(e · D²)` in the worst case — the same asymptotic complexity
//! as the Orca algorithm the paper relies on — and the work is parallelised
//! over edges.

use crate::orbit::{classify_edge_in_four, EdgeOrbit, NUM_EDGE_ORBITS};
use htc_graph::Graph;
use htc_linalg::parallel::parallel_map;

/// Per-edge orbit counts for a whole graph.
///
/// Counts are indexed by the canonical edge order of [`Graph::edges`] so that
/// `counts.edge_counts[i][k]` is the orbit-`k` count of `graph.edges()[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeOrbitCounts {
    /// Canonical edge list (`u < v`) the counts refer to.
    pub edges: Vec<(usize, usize)>,
    /// One 13-component count vector per edge.
    pub edge_counts: Vec<[u64; NUM_EDGE_ORBITS]>,
}

impl EdgeOrbitCounts {
    /// Total number of (edge, orbit) incidences for orbit `k`.
    pub fn total_for_orbit(&self, orbit: EdgeOrbit) -> u64 {
        self.edge_counts.iter().map(|c| c[orbit.index()]).sum()
    }

    /// Count vector of the edge `(u, v)` (either orientation); `None` if the
    /// edge does not exist.
    pub fn counts_for(&self, u: usize, v: usize) -> Option<&[u64; NUM_EDGE_ORBITS]> {
        let key = (u.min(v), u.max(v));
        self.edges
            .binary_search(&key)
            .ok()
            .map(|idx| &self.edge_counts[idx])
    }

    /// Node-level orbit signature: for every node, the sum of the orbit-count
    /// vectors of its incident edges.
    ///
    /// This is the edge-orbit analogue of a graphlet degree vector and is used
    /// as a structural node feature by some baselines.
    pub fn node_signatures(&self, num_nodes: usize) -> Vec<[u64; NUM_EDGE_ORBITS]> {
        let mut sig = vec![[0u64; NUM_EDGE_ORBITS]; num_nodes];
        for (&(u, v), counts) in self.edges.iter().zip(&self.edge_counts) {
            for k in 0..NUM_EDGE_ORBITS {
                sig[u][k] += counts[k];
                sig[v][k] += counts[k];
            }
        }
        sig
    }
}

/// Counts the 13 edge orbits for every edge of `graph`, in parallel over
/// edges.
pub fn count_edge_orbits(graph: &Graph) -> EdgeOrbitCounts {
    let edges = graph.edges().to_vec();
    let edge_counts = parallel_map(edges.len(), |i| {
        let (u, v) = edges[i];
        count_single_edge(graph, u, v)
    });
    EdgeOrbitCounts { edges, edge_counts }
}

/// Counts the orbits of a single edge.  Exposed for tests and incremental use.
pub fn count_single_edge(graph: &Graph, u: usize, v: usize) -> [u64; NUM_EDGE_ORBITS] {
    let mut counts = [0u64; NUM_EDGE_ORBITS];
    counts[EdgeOrbit::PlainEdge.index()] = 1;

    // --- 3-node graphlets (analytic) -------------------------------------
    let common = graph.common_neighbors(u, v);
    let triangles = common.len() as u64;
    let du = graph.degree(u) as u64;
    let dv = graph.degree(v) as u64;
    counts[EdgeOrbit::TriangleEdge.index()] = triangles;
    // Nodes adjacent to exactly one endpoint form a two-edge chain with (u,v).
    counts[EdgeOrbit::ChainEdge.index()] = (du - 1 - triangles) + (dv - 1 - triangles);

    // --- 4-node graphlets (enumeration) ----------------------------------
    // Joint neighbourhood W = (N(u) ∪ N(v)) \ {u, v}, sorted and deduplicated.
    let mut joint: Vec<usize> = graph
        .neighbors(u)
        .iter()
        .chain(graph.neighbors(v))
        .copied()
        .filter(|&w| w != u && w != v)
        .collect();
    joint.sort_unstable();
    joint.dedup();

    let mut classify = |w: usize, x: usize| {
        let nodes = [u, v, w, x];
        let mut adj = [[false; 4]; 4];
        for i in 0..4 {
            for j in (i + 1)..4 {
                if graph.has_edge(nodes[i], nodes[j]) {
                    adj[i][j] = true;
                    adj[j][i] = true;
                }
            }
        }
        if let Some(orbit) = classify_edge_in_four(&adj) {
            counts[orbit.index()] += 1;
        }
    };

    // Case 1: both extra nodes are adjacent to {u, v}.
    for (a, &w) in joint.iter().enumerate() {
        for &x in &joint[a + 1..] {
            classify(w, x);
        }
    }
    // Case 2: w adjacent to {u, v}, x adjacent only to w.
    for &w in &joint {
        for &x in graph.neighbors(w) {
            if x == u || x == v {
                continue;
            }
            if joint.binary_search(&x).is_ok() {
                continue; // handled by case 1
            }
            classify(w, x);
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use htc_graph::Graph;

    #[test]
    fn single_edge_graph() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let counts = count_edge_orbits(&g);
        assert_eq!(counts.edge_counts.len(), 1);
        let c = counts.counts_for(0, 1).unwrap();
        assert_eq!(c[0], 1);
        assert!(c[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn triangle_graph() {
        let g = Graph::complete(3);
        let counts = count_edge_orbits(&g);
        for &(u, v) in g.edges() {
            let c = counts.counts_for(u, v).unwrap();
            assert_eq!(c[EdgeOrbit::PlainEdge.index()], 1);
            assert_eq!(c[EdgeOrbit::TriangleEdge.index()], 1);
            assert_eq!(c[EdgeOrbit::ChainEdge.index()], 0);
        }
    }

    #[test]
    fn path_on_four_nodes() {
        // 0-1-2-3.
        let g = Graph::path(4);
        let counts = count_edge_orbits(&g);
        let end = counts.counts_for(0, 1).unwrap();
        assert_eq!(end[EdgeOrbit::ChainEdge.index()], 1); // 0-1-2
        assert_eq!(end[EdgeOrbit::PathEnd.index()], 1); // 0-1-2-3
        assert_eq!(end[EdgeOrbit::PathBridge.index()], 0);
        let middle = counts.counts_for(1, 2).unwrap();
        assert_eq!(middle[EdgeOrbit::ChainEdge.index()], 2);
        assert_eq!(middle[EdgeOrbit::PathBridge.index()], 1);
        assert_eq!(middle[EdgeOrbit::PathEnd.index()], 0);
    }

    #[test]
    fn star_graph() {
        let g = Graph::star(3);
        let counts = count_edge_orbits(&g);
        let c = counts.counts_for(0, 1).unwrap();
        assert_eq!(c[EdgeOrbit::ChainEdge.index()], 2);
        assert_eq!(c[EdgeOrbit::StarEdge.index()], 1);
        assert_eq!(c[EdgeOrbit::PathEnd.index()], 0);
    }

    #[test]
    fn four_cycle() {
        let g = Graph::cycle(4);
        let counts = count_edge_orbits(&g);
        for &(u, v) in g.edges() {
            let c = counts.counts_for(u, v).unwrap();
            assert_eq!(c[EdgeOrbit::CycleEdge.index()], 1, "edge ({u},{v})");
            assert_eq!(c[EdgeOrbit::TriangleEdge.index()], 0);
        }
    }

    #[test]
    fn clique_four() {
        let g = Graph::complete(4);
        let counts = count_edge_orbits(&g);
        for &(u, v) in g.edges() {
            let c = counts.counts_for(u, v).unwrap();
            assert_eq!(c[EdgeOrbit::TriangleEdge.index()], 2);
            assert_eq!(c[EdgeOrbit::CliqueEdge.index()], 1);
            assert_eq!(c[EdgeOrbit::DiamondOuter.index()], 0);
            assert_eq!(c[EdgeOrbit::DiamondChord.index()], 0);
        }
    }

    #[test]
    fn paw_graph_from_paper_figure5() {
        // The example of Fig. 5: path a-b-c-d plus edge (b, e)?  The figure
        // uses a 5-node graph; here we check the 4-node tailed triangle
        // directly: triangle 0-1-2 with tail 3 on node 0.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap();
        let counts = count_edge_orbits(&g);
        let pendant = counts.counts_for(0, 3).unwrap();
        assert_eq!(pendant[EdgeOrbit::PawPendant.index()], 1);
        assert_eq!(pendant[EdgeOrbit::ChainEdge.index()], 2);
        let incident = counts.counts_for(0, 1).unwrap();
        assert_eq!(incident[EdgeOrbit::PawIncident.index()], 1);
        assert_eq!(incident[EdgeOrbit::TriangleEdge.index()], 1);
        let opposite = counts.counts_for(1, 2).unwrap();
        assert_eq!(opposite[EdgeOrbit::PawOpposite.index()], 1);
    }

    #[test]
    fn diamond_graph() {
        // 4-cycle 0-1-2-3 with chord (0, 2).
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let counts = count_edge_orbits(&g);
        let chord = counts.counts_for(0, 2).unwrap();
        assert_eq!(chord[EdgeOrbit::DiamondChord.index()], 1);
        assert_eq!(chord[EdgeOrbit::TriangleEdge.index()], 2);
        let outer = counts.counts_for(0, 1).unwrap();
        assert_eq!(outer[EdgeOrbit::DiamondOuter.index()], 1);
        assert_eq!(outer[EdgeOrbit::TriangleEdge.index()], 1);
    }

    #[test]
    fn counts_for_missing_edge_is_none() {
        let g = Graph::path(4);
        let counts = count_edge_orbits(&g);
        assert!(counts.counts_for(0, 3).is_none());
    }

    #[test]
    fn node_signatures_sum_incident_edges() {
        let g = Graph::path(3);
        let counts = count_edge_orbits(&g);
        let sig = counts.node_signatures(3);
        // Middle node 1 touches both edges; each edge has chain count 1.
        assert_eq!(sig[1][EdgeOrbit::PlainEdge.index()], 2);
        assert_eq!(sig[0][EdgeOrbit::PlainEdge.index()], 1);
        assert_eq!(sig[1][EdgeOrbit::ChainEdge.index()], 2);
    }

    #[test]
    fn total_for_orbit_accumulates() {
        let g = Graph::complete(4);
        let counts = count_edge_orbits(&g);
        // Each of the 6 edges lies on exactly one 4-clique.
        assert_eq!(counts.total_for_orbit(EdgeOrbit::CliqueEdge), 6);
        // Each edge participates in 2 triangles.
        assert_eq!(counts.total_for_orbit(EdgeOrbit::TriangleEdge), 12);
    }
}
