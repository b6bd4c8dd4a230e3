//! Synchronizer scenario (the introduction's motivating application).
//!
//! A classic use of a sparse skeleton: synchronization traffic should not
//! traverse every link. This example runs a network-wide broadcast on the
//! **event-driven asynchronous executor** — links deliver with random
//! per-hop latency — and compares recovering round semantics with (a) the
//! α-synchronizer over the raw network and (b) the skeleton synchronizer
//! over a built spanner (Bitton et al., arXiv:1909.08369). Same rounds,
//! same protocol traffic, far fewer synchronizer messages — and the
//! simulated clock is asserted against each synchronizer's analytic round
//! bound.
//!
//! ```text
//! cargo run --release --example synchronizer
//! ```

use ultrasparse_spanners::core::skeleton::{self, SkeletonParams};
use ultrasparse_spanners::graph::{generators, Graph, NodeId};
use ultrasparse_spanners::netsim::patterns::FloodProtocol;
use ultrasparse_spanners::netsim::{
    AsyncNetwork, FaultPlan, MessageBudget, RunMetrics, Synchronizer,
};

/// BFS depth of the subgraph `edges` from node 0 (the synchronizer tree's
/// root), for the skeleton synchronizer's latency bound.
fn bfs_depth(n: usize, edges: &[(NodeId, NodeId)]) -> u64 {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a.index()].push(b);
        adj[b.index()].push(a);
    }
    let mut dist = vec![u64::MAX; n];
    dist[0] = 0;
    let mut queue = std::collections::VecDeque::from([NodeId(0)]);
    let mut depth = 0;
    while let Some(v) = queue.pop_front() {
        depth = depth.max(dist[v.index()]);
        for &w in &adj[v.index()] {
            if dist[w.index()] == u64::MAX {
                dist[w.index()] = dist[v.index()] + 1;
                queue.push_back(w);
            }
        }
    }
    depth
}

fn broadcast(g: &Graph, delays: &FaultPlan, synchronizer: Synchronizer) -> RunMetrics {
    let radius = g.node_count() as u32;
    let mut net = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1)
        .with_delays(delays.clone())
        .with_synchronizer(synchronizer);
    let states = net
        .run(
            |v, _| FloodProtocol::new(v == NodeId(0), radius),
            4 * radius,
        )
        .expect("flood");
    assert!(states.iter().all(FloodProtocol::reached));
    net.metrics()
}

fn main() {
    // A datacenter-ish interconnect: dense clusters, sparse uplinks.
    let g = generators::caveman(60, 25, 120, 3);
    println!(
        "interconnect: {} nodes, {} links",
        g.node_count(),
        g.edge_count()
    );

    // Build the skeleton.
    let params = SkeletonParams::new(4.0, 0.5).expect("valid");
    let skeleton = skeleton::build_sequential(&g, &params, 9);
    assert!(skeleton.is_spanning(&g));
    println!(
        "skeleton: {} links ({:.1}% of the network)",
        skeleton.len(),
        100.0 * skeleton.len() as f64 / g.edge_count() as f64
    );

    // Asynchronous links: 30% of hops take up to 3 extra ticks.
    let (delay_p, delay_max) = (0.3, 3u32);
    let delays = FaultPlan::new(7).with_delays(delay_p, delay_max);
    let l_max = 1 + delay_max as u64; // worst-case single-hop latency

    let alpha = broadcast(&g, &delays, Synchronizer::Alpha);
    let skel_edges: Vec<(NodeId, NodeId)> = skeleton.edges.iter().map(|e| g.endpoints(e)).collect();
    let skel = broadcast(&g, &delays, Synchronizer::Skeleton(skel_edges.clone()));

    println!(
        "\nbroadcast, α-synchronizer:        {} rounds, {} protocol + {} sync messages, \
         clock {}",
        alpha.rounds, alpha.messages, alpha.sync_messages, alpha.sim_time
    );
    println!(
        "broadcast, skeleton synchronizer: {} rounds, {} protocol + {} sync messages, \
         clock {}",
        skel.rounds, skel.messages, skel.sync_messages, skel.sim_time
    );
    println!(
        "=> {:.1}x fewer total messages for {:.2}x the simulated latency",
        (alpha.messages + alpha.sync_messages) as f64 / (skel.messages + skel.sync_messages) as f64,
        skel.sim_time as f64 / alpha.sim_time.max(1) as f64
    );

    // The free lunch, asserted: identical round complexity and protocol
    // traffic, strictly fewer messages over the skeleton.
    assert_eq!(alpha.protocol_only(), skel.protocol_only());
    assert!(skel.sync_messages < alpha.sync_messages);

    // And each run completes within its synchronizer's round bound. Per
    // recovered round the α-synchronizer costs at most deliver + ack +
    // SAFE = 3 hops; the skeleton variant costs deliver + ack plus a
    // convergecast up and a pulse down its BFS tree.
    let rounds = alpha.rounds as u64;
    let alpha_bound = 3 * l_max * (rounds + 1);
    assert!(
        alpha.sim_time <= alpha_bound,
        "alpha clock {} exceeds round bound {alpha_bound}",
        alpha.sim_time
    );
    let depth = bfs_depth(g.node_count(), &skel_edges);
    let skel_bound = l_max * (2 + 2 * depth) * (rounds + 1);
    assert!(
        skel.sim_time <= skel_bound,
        "skeleton clock {} exceeds round bound {skel_bound} (tree depth {depth})",
        skel.sim_time
    );
    println!(
        "round bounds hold: alpha {} <= {alpha_bound}, skeleton {} <= {skel_bound} \
         (tree depth {depth})",
        alpha.sim_time, skel.sim_time
    );
}
