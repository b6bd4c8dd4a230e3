//! The spanner result type and distortion verification.
//!
//! Following the paper's definition (Sect. 1): a subgraph `S ⊆ E` is an
//! (α, β)-spanner of `G` if `δ_S(u, v) ≤ α·δ(u, v) + β` for all `u, v`.
//! [`Spanner`] holds the selected edges plus the construction's cost
//! accounting; [`StretchReport`] measures the realized distortion (over
//! every pair, or over one graph's [`PairSample`], drawn once and shared by
//! every spanner of that graph) so experiments can compare against the
//! analytic envelopes. Each question — [`Spanner::stretch`],
//! [`Spanner::stretch_profile`], and whether a bound holds at all
//! ([`verify_stretch`](spanner_graph::verify_stretch), an (α, β) bound or
//! Theorem 7's per-distance envelope as a predicate) — is one visitor on
//! the one pair walk, [`walk_pairs`].

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::ControlFlow;

use spanner_graph::components::preserves_connectivity;
use spanner_graph::distance::{walk_pairs, PairSample, Pairs, UNREACHABLE};
use spanner_graph::{CsrAdjacency, EdgeSet, Graph, NodeId};
use spanner_netsim::RunMetrics;

/// A spanner of a host graph: the selected edge subset plus the cost of
/// constructing it (rounds / messages / max message words for distributed
/// constructions, `None` for centralized ones).
#[derive(Debug, Clone)]
pub struct Spanner {
    /// The selected edges, as a subset of the host graph's edges.
    pub edges: EdgeSet,
    /// Communication cost of the construction, if it was distributed.
    pub metrics: Option<RunMetrics>,
}

impl Spanner {
    /// Wraps an edge set as a centralized-construction spanner.
    pub fn from_edges(edges: EdgeSet) -> Self {
        Spanner {
            edges,
            metrics: None,
        }
    }

    /// The spanner a distributed run selected: each `(u, v)` pair a node
    /// chose becomes the edge id [`CsrAdjacency::edge_index`] assigns it
    /// (the ids of the [`Graph`] around `csr`), with the run's metrics.
    ///
    /// # Panics
    ///
    /// Panics if a pair is not an edge of `csr`.
    pub fn from_selected<I>(csr: &CsrAdjacency, selected: I, metrics: RunMetrics) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let index = csr.edge_index();
        let mut edges = EdgeSet::with_universe(index.edge_count());
        for (a, b) in selected {
            let e = index
                .edge_id(csr, a, b)
                .expect("selected edges are graph edges");
            edges.insert(e);
        }
        Spanner {
            edges,
            metrics: Some(metrics),
        }
    }

    /// Number of selected edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges were selected.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Edges per host node, the unit the paper reports sizes in.
    pub fn edges_per_node(&self, g: &Graph) -> f64 {
        self.edges.len() as f64 / g.node_count().max(1) as f64
    }

    /// Whether the spanner is a subgraph of `g` preserving all of `g`'s
    /// connectivity — the minimal correctness requirement.
    pub fn is_spanning(&self, g: &Graph) -> bool {
        self.edges.universe() == g.edge_count() && preserves_connectivity(g, &self.edges)
    }

    /// Distortion over `pairs` — every connected pair ([`Pairs::All`],
    /// O(n·m/64) traversal work: verification-sized inputs) or one graph's
    /// [`PairSample`] — with the distance rows computed by `threads`
    /// workers. Pairs are recorded sequentially in [`walk_pairs`] order, so
    /// the report, including its order-sensitive witness pair and float
    /// means, is identical at every thread count.
    pub fn stretch(&self, g: &Graph, pairs: Pairs<'_>, threads: usize) -> StretchReport {
        let mut report = StretchReport::empty();
        let ControlFlow::Continue(()) = walk_pairs(g, &self.edges, pairs, threads, |u, v, d, s| {
            report.record(u, v, d, s);
            ControlFlow::<Infallible>::Continue(())
        });
        report
    }

    /// Per-distance distortion profile on `sample`: for every host
    /// distance `d` that occurred, the worst and mean multiplicative
    /// stretch among sampled pairs at that distance. Used to regenerate the
    /// four-stage Fibonacci distortion curves (Theorem 7).
    pub fn stretch_profile(&self, g: &Graph, sample: &PairSample) -> Vec<DistanceBucket> {
        let mut buckets: BTreeMap<u32, DistanceBucket> = BTreeMap::new();
        let ControlFlow::Continue(()) =
            walk_pairs(g, &self.edges, Pairs::Sampled(sample), 1, |_, _, d, s| {
                let b = buckets.entry(d).or_insert(DistanceBucket {
                    dist: d,
                    ..Default::default()
                });
                b.pairs += 1;
                if s == UNREACHABLE {
                    b.disconnected += 1;
                } else {
                    let stretch = s as f64 / d as f64;
                    b.max_stretch = b.max_stretch.max(stretch);
                    b.sum_stretch += stretch;
                }
                ControlFlow::<Infallible>::Continue(())
            });
        buckets.into_values().collect()
    }
}

/// Distortion statistics at one host distance, produced by
/// [`Spanner::stretch_profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DistanceBucket {
    /// Host-graph distance of the pairs in this bucket.
    pub dist: u32,
    /// Number of sampled pairs at this distance.
    pub pairs: usize,
    /// Worst multiplicative stretch observed.
    pub max_stretch: f64,
    /// Sum of stretches (divide by connected pairs for the mean).
    pub sum_stretch: f64,
    /// Pairs disconnected in the spanner (0 for any valid spanner).
    pub disconnected: usize,
}

impl DistanceBucket {
    /// Mean multiplicative stretch over connected pairs in the bucket.
    pub fn mean_stretch(&self) -> f64 {
        let connected = self.pairs - self.disconnected;
        if connected == 0 {
            0.0
        } else {
            self.sum_stretch / connected as f64
        }
    }
}

/// Realized distortion of a spanner on a set of (host-connected) pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchReport {
    /// Pairs evaluated.
    pub pairs: usize,
    /// Pairs disconnected in the spanner (0 for a valid spanner).
    pub disconnected: usize,
    /// Worst multiplicative stretch `δ_S / δ` over connected pairs.
    pub max_multiplicative: f64,
    /// Mean multiplicative stretch over connected pairs.
    pub mean_multiplicative: f64,
    /// Worst additive surplus `δ_S − δ` over connected pairs.
    pub max_additive: u32,
    /// Mean additive surplus over connected pairs.
    pub mean_additive: f64,
    /// Witness pair for the worst multiplicative stretch.
    pub worst_pair: Option<(NodeId, NodeId)>,
    sum_mult: f64,
    sum_add: f64,
}

impl StretchReport {
    fn empty() -> Self {
        StretchReport {
            pairs: 0,
            disconnected: 0,
            max_multiplicative: 1.0,
            mean_multiplicative: 1.0,
            max_additive: 0,
            mean_additive: 0.0,
            worst_pair: None,
            sum_mult: 0.0,
            sum_add: 0.0,
        }
    }

    fn record(&mut self, u: NodeId, v: NodeId, host: u32, in_spanner: u32) {
        debug_assert!(host != UNREACHABLE && host > 0);
        self.pairs += 1;
        if in_spanner == UNREACHABLE {
            self.disconnected += 1;
        } else {
            debug_assert!(in_spanner >= host, "spanner cannot shorten distances");
            let mult = in_spanner as f64 / host as f64;
            let add = in_spanner - host;
            if mult > self.max_multiplicative {
                self.max_multiplicative = mult;
                self.worst_pair = Some((u, v));
            }
            self.max_additive = self.max_additive.max(add);
            self.sum_mult += mult;
            self.sum_add += add as f64;
        }
        let connected = (self.pairs - self.disconnected) as f64;
        if connected > 0.0 {
            self.mean_multiplicative = self.sum_mult / connected;
            self.mean_additive = self.sum_add / connected;
        }
    }

    /// Whether every evaluated pair had `δ_S ≤ α·δ` (pure multiplicative).
    ///
    /// An (α, β) check with both parts nonzero is not recoverable from the
    /// aggregate maxima (the max-multiplicative and max-additive witnesses
    /// can be different pairs); a sufficient condition is
    /// `satisfies_multiplicative(alpha) || satisfies_additive(beta)`.
    pub fn satisfies_multiplicative(&self, alpha: f64) -> bool {
        self.disconnected == 0 && self.max_multiplicative <= alpha + 1e-9
    }

    /// Whether every evaluated pair had `δ_S ≤ δ + β` (pure additive).
    pub fn satisfies_additive(&self, beta: u32) -> bool {
        self.disconnected == 0 && self.max_additive <= beta
    }
}

impl std::fmt::Display for StretchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pairs={} max_mult={:.3} mean_mult={:.3} max_add={} mean_add={:.3} disconnected={}",
            self.pairs,
            self.max_multiplicative,
            self.mean_multiplicative,
            self.max_additive,
            self.mean_additive,
            self.disconnected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spanner_graph::traversal::{bfs_distances, bfs_distances_csr};
    use spanner_graph::{generators, verify_stretch, EdgeId, StretchViolation};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // The stretch check under a per-distance envelope, and the
        // profile, against a naive walk: one BFS per source in the host
        // and in the spanner subgraph, pairs taken in `(u, v)` order (all
        // pairs) or the sample's order.
        #[test]
        fn envelope_checks_and_profile_match_naive_walk(
            n in 2usize..=150,
            extra in 0usize..=200,
            keep in 0.5f64..1.0,
            alpha in 1u32..=2,
            beta in 0u32..=3,
            seed in any::<u64>(),
        ) {
            let g = generators::connected_gnm(n, (n - 1 + extra).min(n * (n - 1) / 2), seed);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut edges = EdgeSet::new(&g);
            for (e, _, _) in g.edges() {
                if rng.gen_bool(keep) {
                    edges.insert(e);
                }
            }
            let s = Spanner::from_edges(edges);
            let sub = g.csr().subgraph(&s.edges);
            let host: Vec<_> = g.nodes().map(|u| bfs_distances(&g, u)).collect();
            let span: Vec<_> = g.nodes().map(|u| bfs_distances_csr(&sub, u)).collect();
            let allows = |d: u64, s: u64| s as f64 <= (alpha as u64 * d + beta as u64) as f64 + 1e-9;
            let violation = |u: NodeId, v: NodeId, host: u32| {
                let in_spanner = span[u.index()][v.index()].map(u64::from);
                let bad = in_spanner.is_none_or(|s| !allows(host as u64, s));
                bad.then_some(StretchViolation { u, v, base: host as u64, in_spanner })
            };

            let exact = g.nodes().find_map(|u| {
                ((u.index() + 1)..n).find_map(|v| {
                    let d = host[u.index()][v]?;
                    violation(u, NodeId(v as u32), d)
                })
            });
            prop_assert_eq!(verify_stretch(&g, &s.edges, Pairs::All, 1, allows).err(), exact);

            let sample = PairSample::new(&g, 4 * n, seed, 1);
            let pairs = sample.pairs();
            for p in pairs {
                prop_assert_eq!(host[p.u.index()][p.v.index()], Some(p.dist));
            }
            let sampled = pairs.iter().find_map(|p| violation(p.u, p.v, p.dist));
            let checked = verify_stretch(&g, &s.edges, Pairs::Sampled(&sample), 1, allows);
            prop_assert_eq!(checked.err(), sampled);

            let mut buckets: BTreeMap<u32, DistanceBucket> = BTreeMap::new();
            for p in pairs {
                let b = buckets.entry(p.dist).or_insert(DistanceBucket { dist: p.dist, ..Default::default() });
                b.pairs += 1;
                match span[p.u.index()][p.v.index()] {
                    None => b.disconnected += 1,
                    Some(ds) => {
                        let stretch = ds as f64 / p.dist as f64;
                        b.max_stretch = b.max_stretch.max(stretch);
                        b.sum_stretch += stretch;
                    }
                }
            }
            let profile: Vec<DistanceBucket> = buckets.into_values().collect();
            prop_assert_eq!(s.stretch_profile(&g, &sample), profile);
        }
    }

    /// Spanner = full graph: stretch exactly 1 everywhere.
    #[test]
    fn full_spanner_stretch_one() {
        let g = generators::erdos_renyi_gnm(40, 120, 1);
        let s = Spanner::from_edges(EdgeSet::full(&g));
        assert!(s.is_spanning(&g));
        let r = s.stretch(&g, Pairs::All, 1);
        assert_eq!(r.max_multiplicative, 1.0);
        assert_eq!(r.max_additive, 0);
        assert_eq!(r.disconnected, 0);
        assert!(r.satisfies_multiplicative(1.0));
        assert!(r.satisfies_additive(0));
    }

    /// Cycle minus one edge: the deleted edge's endpoints are at distance
    /// n−1 in the spanner, giving multiplicative stretch n−1.
    #[test]
    fn cycle_minus_edge() {
        let n = 11;
        let g = generators::cycle(n);
        let mut edges = EdgeSet::full(&g);
        let e = g.find_edge(NodeId(0), NodeId(n as u32 - 1)).unwrap();
        edges.remove(e);
        let s = Spanner::from_edges(edges);
        assert!(s.is_spanning(&g));
        let r = s.stretch(&g, Pairs::All, 1);
        assert_eq!(r.max_multiplicative, (n - 1) as f64);
        assert_eq!(r.max_additive, (n - 2) as u32);
        assert_eq!(r.worst_pair, Some((NodeId(0), NodeId(n as u32 - 1))));
        assert!(r.satisfies_multiplicative((n - 1) as f64));
        assert!(!r.satisfies_multiplicative((n - 2) as f64));
    }

    #[test]
    fn empty_spanner_disconnects() {
        let g = generators::path(5);
        let s = Spanner::from_edges(EdgeSet::new(&g));
        assert!(!s.is_spanning(&g));
        let r = s.stretch(&g, Pairs::All, 1);
        assert_eq!(r.disconnected, r.pairs);
        assert!(!r.satisfies_additive(1_000));
    }

    #[test]
    fn sampled_agrees_with_exact_on_full() {
        let g = generators::connected_gnm(60, 140, 2);
        let s = Spanner::from_edges(EdgeSet::full(&g));
        let r = s.stretch(&g, Pairs::Sampled(&PairSample::new(&g, 200, 3, 1)), 1);
        assert!(r.pairs > 0);
        assert_eq!(r.max_multiplicative, 1.0);
        assert_eq!(r.disconnected, 0);
    }

    #[test]
    fn sampled_detects_stretch() {
        let n = 16;
        let g = generators::cycle(n);
        let mut edges = EdgeSet::full(&g);
        edges.remove(EdgeId(0));
        let s = Spanner::from_edges(edges);
        let r = s.stretch(&g, Pairs::Sampled(&PairSample::new(&g, 500, 9, 1)), 1);
        assert!(r.max_multiplicative > 1.0);
        assert_eq!(r.disconnected, 0);
    }

    /// The float means and worst-pair witness are order-sensitive, so this
    /// also pins the sequential-record determinism contract.
    #[test]
    fn threaded_reports_identical() {
        let g = generators::connected_gnm(70, 200, 4);
        let mut edges = EdgeSet::full(&g);
        edges.remove(EdgeId(0));
        edges.remove(EdgeId(7));
        let s = Spanner::from_edges(edges);
        let sample = PairSample::new(&g, 300, 9, 1);
        let base_exact = s.stretch(&g, Pairs::All, 1);
        let base_sampled = s.stretch(&g, Pairs::Sampled(&sample), 1);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                s.stretch(&g, Pairs::All, threads),
                base_exact,
                "t={threads}"
            );
            let sample_t = PairSample::new(&g, 300, 9, threads);
            assert_eq!(sample_t, sample, "t={threads}");
            let r = s.stretch(&g, Pairs::Sampled(&sample_t), threads);
            assert_eq!(r, base_sampled, "t={threads}");
        }
    }

    #[test]
    fn profile_buckets_sorted_and_consistent() {
        let g = generators::grid(8, 8);
        let s = Spanner::from_edges(EdgeSet::full(&g));
        let profile = s.stretch_profile(&g, &PairSample::new(&g, 300, 5, 1));
        assert!(!profile.is_empty());
        for w in profile.windows(2) {
            assert!(w[0].dist < w[1].dist);
        }
        for b in &profile {
            assert_eq!(b.disconnected, 0);
            assert!((b.max_stretch - 1.0).abs() < 1e-9);
            assert!((b.mean_stretch() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn edges_per_node() {
        let g = generators::path(10);
        let s = Spanner::from_edges(EdgeSet::full(&g));
        assert!((s.edges_per_node(&g) - 0.9).abs() < 1e-12);
        assert_eq!(s.len(), 9);
        assert!(!s.is_empty());
    }

    #[test]
    fn envelope_checks() {
        let n = 9;
        let g = generators::cycle(n);
        let mut edges = EdgeSet::full(&g);
        let e = g.find_edge(NodeId(0), NodeId(n as u32 - 1)).unwrap();
        edges.remove(e);
        // The deleted chord pair (distance 1) needs n-1; additive envelope
        // d + (n-2) passes, d + (n-3) fails.
        let within = |slack: u64| move |d: u64, s: u64| s <= d + slack;
        let n64 = n as u64;
        assert!(verify_stretch(&g, &edges, Pairs::All, 1, within(n64 - 2)).is_ok());
        let viol = verify_stretch(&g, &edges, Pairs::All, 1, within(n64 - 3)).unwrap_err();
        assert_eq!(viol.base, 1);
        assert_eq!(viol.in_spanner, Some(n64 - 1));
        // Sampled check agrees on the passing envelope.
        let sample = PairSample::new(&g, 400, 3, 1);
        let sampled = Pairs::Sampled(&sample);
        assert!(verify_stretch(&g, &edges, sampled, 1, within(n64 - 2)).is_ok());
        // Disconnected spanner is always a violation.
        let empty = EdgeSet::new(&g);
        assert!(verify_stretch(&g, &empty, Pairs::All, 1, |_, _| true).is_err());
    }

    #[test]
    fn display_report() {
        let g = generators::path(4);
        let s = Spanner::from_edges(EdgeSet::full(&g));
        let r = s.stretch(&g, Pairs::All, 1);
        assert!(r.to_string().contains("max_mult=1.000"));
    }
}
