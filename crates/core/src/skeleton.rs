//! Linear-size spanners and skeletons (Sect. 2, Theorem 2).
//!
//! The algorithm proceeds in log* n phases of `Expand` calls, contracting
//! clusters between rounds. At density parameter D it produces, with high
//! probability, a spanner of expected size `Dn/e + O(n log D)` and
//! multiplicative distortion `O(ε⁻¹ 2^{log* n} log_D n)`, constructible
//! distributedly in that many rounds with O(log^ε n)-word messages.
//!
//! Two implementations share the [`Schedule`] and the
//! [`ClusterSampler`](crate::expand::ClusterSampler):
//!
//! * [`build_sequential`] — the centralized reference (this module),
//! * [`distributed::build_distributed`] — the per-node protocol of
//!   Theorem 2, run on the network simulator.

pub mod distributed;

use spanner_graph::Graph;

use crate::cluster::ContractionState;
use crate::seq::Schedule;
use crate::spanner::Spanner;

/// Parameters of the skeleton construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkeletonParams {
    /// The density parameter D ≥ 4: the expected spanner size is
    /// Dn/e + O(n log D).
    pub d: f64,
    /// The message-length/locality parameter ε ∈ (0, 1]: messages have
    /// O(log^ε n) words and the tail sampling probability is log^{−ε} n.
    pub eps: f64,
}

impl SkeletonParams {
    /// Validated parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if `d < 4` (the analysis needs D ≥ 4) or `eps` is
    /// outside (0, 1].
    pub fn new(d: f64, eps: f64) -> Result<Self, String> {
        if d.is_nan() || d < 4.0 {
            return Err(format!("density parameter D must be >= 4, got {d}"));
        }
        if !(eps > 0.0 && eps <= 1.0) {
            return Err(format!("eps must be in (0, 1], got {eps}"));
        }
        Ok(SkeletonParams { d, eps })
    }

    /// The Theorem 2 schedule for an `n`-node input under these parameters.
    pub fn schedule(&self, n: usize) -> Schedule {
        Schedule::theorem2(n.max(2), self.d, self.eps)
    }

    /// The analytic expected size `Dn/e + O(n log D)` with the constants of
    /// Lemma 6 made explicit: `n(D/e + 1 − 2/e + (1 + 1/D)(ln(D+2) − ζ + 1)
    /// + (ln D + 0.2)/D)`.
    pub fn expected_size(&self, n: usize) -> f64 {
        use crate::expand::ZETA;
        let d = self.d;
        let e = std::f64::consts::E;
        n as f64
            * (d / e
                + 1.0
                + -2.0 / e
                + (1.0 + 1.0 / d) * ((d + 2.0).ln() - ZETA + 1.0)
                + (d.ln() + 0.2) / d)
    }
}

impl Default for SkeletonParams {
    /// D = 4 (sparsest sensible skeleton), ε = 1/2.
    fn default() -> Self {
        SkeletonParams { d: 4.0, eps: 0.5 }
    }
}

/// Builds the linear-size spanner with the centralized reference
/// implementation: runs the Theorem 2 schedule of `Expand` calls and
/// contractions over a [`ContractionState`].
///
/// Deterministic in `seed`. Runs in O(m · #calls) = O(m (log* n + ε⁻¹ +
/// log log n)) time.
pub fn build_sequential(g: &Graph, params: &SkeletonParams, seed: u64) -> Spanner {
    let schedule = params.schedule(g.node_count());
    let mut st = ContractionState::new(g, seed);
    for call in &schedule.calls {
        st.expand(call.probability);
        if call.contract_after {
            st.contract();
        }
        if st.live_count() == 0 {
            break;
        }
    }
    debug_assert_eq!(st.live_count(), 0, "schedule must kill every vertex");
    Spanner::from_edges(st.into_spanner())
}

/// Variant of [`build_sequential`] that skips every contraction — the
/// ablation of DESIGN.md §5 showing contraction is what keeps the size
/// linear (without it the per-round base density compounds).
pub fn build_sequential_no_contraction(g: &Graph, params: &SkeletonParams, seed: u64) -> Spanner {
    let schedule = params.schedule(g.node_count());
    let mut st = ContractionState::new(g, seed);
    for call in &schedule.calls {
        st.expand(call.probability);
        if st.live_count() == 0 {
            break;
        }
    }
    // Without contraction the schedule may leave live vertices (clusters
    // never merge into supervertices); kill the remainder to stay a
    // spanner.
    while st.live_count() > 0 {
        st.expand(0.0);
    }
    Spanner::from_edges(st.into_spanner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::distance::{PairSample, Pairs};
    use spanner_graph::generators;

    #[test]
    fn params_validation() {
        assert!(SkeletonParams::new(4.0, 0.5).is_ok());
        assert!(SkeletonParams::new(3.9, 0.5).is_err());
        assert!(SkeletonParams::new(4.0, 0.0).is_err());
        assert!(SkeletonParams::new(4.0, 1.5).is_err());
        assert!(SkeletonParams::new(f64::NAN, 0.5).is_err());
        let def = SkeletonParams::default();
        assert_eq!(def.d, 4.0);
    }

    #[test]
    fn spanning_on_random_graphs() {
        let params = SkeletonParams::default();
        for seed in 0..3 {
            let g = generators::connected_gnm(500, 3_000, seed);
            let s = build_sequential(&g, &params, seed * 7 + 1);
            assert!(s.is_spanning(&g), "seed {seed}");
        }
    }

    #[test]
    fn spanning_on_disconnected_graph() {
        let params = SkeletonParams::default();
        let g = spanner_graph::Graph::from_edges(
            10,
            [(0u32, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)],
        );
        let s = build_sequential(&g, &params, 3);
        assert!(s.is_spanning(&g));
    }

    #[test]
    fn linear_size_with_slack() {
        // Lemma 6: expected size Dn/e + O(n log D). With D = 4 the explicit
        // constant is ≈ 4/e + 1 − 2/e + 1.25·(ln6 − ζ + 1) + (ln4+0.2)/4
        // ≈ 1.47 + 0.26 + 3.08 + 0.40 ≈ 5.2 edges/vertex. Check the
        // realized size is in that ballpark (the tail rounds add o(n)).
        let params = SkeletonParams::default();
        let g = generators::connected_gnm(4_000, 40_000, 5);
        let s = build_sequential(&g, &params, 17);
        let per_node = s.edges_per_node(&g);
        let predicted = params.expected_size(g.node_count()) / g.node_count() as f64;
        assert!(
            per_node < predicted * 1.4 + 1.0,
            "size {per_node:.2} per node vs predicted {predicted:.2}"
        );
        assert!(s.is_spanning(&g));
    }

    #[test]
    fn density_knob_increases_size_and_reduces_stretch() {
        let g = generators::connected_gnm(1_500, 30_000, 9);
        let sparse = build_sequential(&g, &SkeletonParams::new(4.0, 0.5).unwrap(), 3);
        let dense = build_sequential(&g, &SkeletonParams::new(16.0, 0.5).unwrap(), 3);
        assert!(dense.len() > sparse.len());
        let sample = PairSample::new(&g, 300, 1, 1);
        let rs = sparse.stretch(&g, Pairs::Sampled(&sample), 1);
        let rd = dense.stretch(&g, Pairs::Sampled(&sample), 1);
        assert_eq!(rs.disconnected, 0);
        assert_eq!(rd.disconnected, 0);
        // Denser spanner should not be (much) worse.
        assert!(rd.mean_multiplicative <= rs.mean_multiplicative + 0.35);
    }

    #[test]
    fn distortion_within_certified_bound() {
        let params = SkeletonParams::default();
        for seed in 0..2 {
            let g = generators::connected_gnm(400, 2_000, 40 + seed);
            let s = build_sequential(&g, &params, seed);
            let bound = params.schedule(g.node_count()).distortion_bound as f64;
            let r = s.stretch(&g, Pairs::All, 1);
            assert!(
                r.max_multiplicative <= bound,
                "seed {seed}: stretch {} > certified {bound}",
                r.max_multiplicative
            );
            // The certified bound is very loose; realized stretch is small.
            assert!(r.max_multiplicative < 40.0, "{}", r.max_multiplicative);
        }
    }

    #[test]
    fn no_contraction_ablation_is_larger() {
        let params = SkeletonParams::default();
        for g in [
            generators::connected_gnm(2_000, 30_000, 13),
            generators::connected_gnm(8_000, 64_000, 42),
        ] {
            let with = build_sequential(&g, &params, 3);
            let without = build_sequential_no_contraction(&g, &params, 3);
            assert!(without.is_spanning(&g));
            // Without contraction each round restarts from singleton clusters
            // of the SAME vertex set, so the same Θ(Dn) cost recurs per round.
            assert!(
                without.len() as f64 > 1.15 * with.len() as f64,
                "n {} with {} without {}",
                g.node_count(),
                with.len(),
                without.len()
            );
        }
    }

    #[test]
    fn deterministic() {
        let g = generators::connected_gnm(300, 1_500, 2);
        let params = SkeletonParams::default();
        let a = build_sequential(&g, &params, 5);
        let b = build_sequential(&g, &params, 5);
        assert_eq!(a.edges, b.edges);
        let c = build_sequential(&g, &params, 6);
        assert!(a.edges != c.edges || a.len() == c.len());
    }

    #[test]
    fn expected_size_formula_reasonable() {
        let p = SkeletonParams::default();
        let v = p.expected_size(1000) / 1000.0;
        assert!(v > 3.0 && v < 8.0, "per-node prediction {v}");
    }

    #[test]
    fn tree_input_keeps_all_edges() {
        // On a tree no edge can ever be discarded (removal disconnects).
        let g = generators::path(50);
        let s = build_sequential(&g, &SkeletonParams::default(), 1);
        assert!(s.is_spanning(&g));
        assert_eq!(s.len(), 49);
    }
}
