//! Flat CSR adjacency shared by the executors.
//!
//! The layout now lives in [`spanner_graph::csr`] so the distance engine
//! and the executors share one implementation; this module re-exports it
//! under the historical netsim path. The determinism contract is unchanged:
//! `Ctx::neighbors` is sorted ascending and `Ctx::send` binary searches it,
//! and the flat offsets + targets arrays are built once per graph and
//! shared by every worker of a [`Network`](crate::Network) and by
//! [`AsyncNetwork`](crate::AsyncNetwork).

pub use spanner_graph::csr::CsrAdjacency;

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::generators;

    #[test]
    fn executor_contract_sorted_ascending() {
        let g = generators::erdos_renyi_gnm(40, 100, 11);
        let csr = CsrAdjacency::from_graph(&g);
        for v in g.nodes() {
            assert!(csr.neighbors(v).windows(2).all(|w| w[0] < w[1]), "{v}");
            // `Ctx::send` relies on binary search over this slice.
            for &u in csr.neighbors(v) {
                assert!(csr.neighbors(v).binary_search(&u).is_ok());
            }
        }
        assert_eq!(csr.max_degree(), g.max_degree());
        assert_eq!(csr.node_count(), g.node_count());
    }
}
