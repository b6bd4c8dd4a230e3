//! Deterministic per-node randomness.
//!
//! Each node derives an independent RNG stream from the network's master
//! seed via SplitMix64, so (a) a run is reproducible from a single `u64`,
//! (b) the streams of different nodes are statistically independent, and
//! (c) node behaviour does not depend on the scheduling order the runner
//! happens to use — a requirement for runs to agree at every worker count.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step: the standard 64-bit mixer used to derive substreams.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives the RNG of node `node` (stream `stream`) from `master_seed`.
///
/// Distinct (node, stream) pairs yield independent-looking streams; equal
/// pairs yield identical streams.
///
/// `node` and `stream` are mixed through *separate* SplitMix64 steps rather
/// than packed into one word: the old `(node << 32) | stream` packing made
/// e.g. `(node=1, stream=0)` and `(node=0, stream=1 << 32)` collide — any
/// stream index with bits at or above bit 32 could alias another node's
/// stream. The two-step mix is injective over the full (u32, u64) domain.
pub fn node_rng(master_seed: u64, node: u32, stream: u64) -> SmallRng {
    let mut s = master_seed ^ 0xA076_1D64_78BD_642F;
    let a = splitmix64(&mut s);
    let mut t = a ^ (node as u64);
    let b = splitmix64(&mut t);
    let mut u = b ^ stream;
    let seed = splitmix64(&mut u) ^ splitmix64(&mut u);
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic() {
        let mut a = node_rng(1, 2, 3);
        let mut b = node_rng(1, 2, 3);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn distinct_nodes_differ() {
        let mut a = node_rng(1, 2, 0);
        let mut b = node_rng(1, 3, 0);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn distinct_streams_differ() {
        let mut a = node_rng(1, 2, 0);
        let mut b = node_rng(1, 2, 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn distinct_seeds_differ() {
        let mut a = node_rng(1, 2, 3);
        let mut b = node_rng(4, 2, 3);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    /// Regression: the pre-fix `(node << 32) | stream` packing made these
    /// (node, stream) pairs produce byte-identical RNGs.
    #[test]
    fn wide_stream_indices_do_not_alias_nodes() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let mut a = node_rng(seed, 1, 0);
            let mut b = node_rng(seed, 0, 1u64 << 32);
            let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
            let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
            assert_ne!(xs, ys, "seed {seed}");

            let mut c = node_rng(seed, 7, 5);
            let mut d = node_rng(seed, 0, (7u64 << 32) | 5);
            assert_ne!(c.gen::<u64>(), d.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn splitmix_reference_values() {
        // First outputs for state 0 (well-known SplitMix64 test vector).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220A8397B1DCDAF);
        assert_eq!(splitmix64(&mut s), 0x6E789E6AA1B965F4);
    }
}
