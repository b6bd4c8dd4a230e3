//! Subgraphs as edge subsets.
//!
//! A spanner of `G` is a subgraph on the same vertex set, i.e. a subset of
//! `G`'s edges. [`EdgeSet`] stores such a subset as a bitset over
//! [`EdgeId`]s, which keeps spanners cheap to build incrementally (the
//! algorithms select one edge at a time) and cheap to query during stretch
//! evaluation.

use crate::graph::{EdgeId, Graph};

/// A set of edges of a fixed host graph, stored as a bitset over edge ids.
///
/// # Example
///
/// ```
/// use spanner_graph::{EdgeSet, Graph, EdgeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let mut s = EdgeSet::new(&g);
/// s.insert(EdgeId(0));
/// s.insert(EdgeId(2));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(EdgeId(0)));
/// assert!(!s.contains(EdgeId(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSet {
    bits: Vec<u64>,
    universe: usize,
    len: usize,
}

impl EdgeSet {
    /// An empty edge set over the edges of `g`.
    pub fn new(g: &Graph) -> Self {
        Self::with_universe(g.edge_count())
    }

    /// An empty edge set over a universe of `m` edge ids.
    pub fn with_universe(m: usize) -> Self {
        EdgeSet {
            bits: vec![0u64; m.div_ceil(64)],
            universe: m,
            len: 0,
        }
    }

    /// An edge set containing every edge of `g`.
    pub fn full(g: &Graph) -> Self {
        let mut s = Self::new(g);
        for (e, _, _) in g.edges() {
            s.insert(e);
        }
        s
    }

    /// Size of the edge-id universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of edges currently in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts edge `e`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `e` is outside the universe.
    pub fn insert(&mut self, e: EdgeId) -> bool {
        assert!(e.index() < self.universe, "edge id out of universe");
        let (w, b) = (e.index() / 64, e.index() % 64);
        let mask = 1u64 << b;
        if self.bits[w] & mask == 0 {
            self.bits[w] |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes edge `e`; returns `true` if it was present.
    pub fn remove(&mut self, e: EdgeId) -> bool {
        if e.index() >= self.universe {
            return false;
        }
        let (w, b) = (e.index() / 64, e.index() % 64);
        let mask = 1u64 << b;
        if self.bits[w] & mask != 0 {
            self.bits[w] &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Whether edge `e` is in the set.
    pub fn contains(&self, e: EdgeId) -> bool {
        if e.index() >= self.universe {
            return false;
        }
        let (w, b) = (e.index() / 64, e.index() % 64);
        self.bits[w] & (1u64 << b) != 0
    }

    /// Iterator over the edge ids in the set, in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            cur: self.bits.first().copied().unwrap_or(0),
        }
    }

    /// In-place union with another edge set over the same universe.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &EdgeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut len = 0usize;
        for (a, &b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// Materializes the subgraph of `g` containing exactly these edges.
    ///
    /// The vertex set is unchanged; edge ids in the result are renumbered.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s edge count differs from this set's universe.
    pub fn to_graph(&self, g: &Graph) -> Graph {
        assert_eq!(
            g.edge_count(),
            self.universe,
            "edge set does not match graph"
        );
        g.edge_subgraph(|e| self.contains(e))
    }
}

/// Iterator over the edge ids in an [`EdgeSet`], created by [`EdgeSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a EdgeSet,
    word: usize,
    cur: u64,
}

impl Iterator for Iter<'_> {
    type Item = EdgeId;

    fn next(&mut self) -> Option<EdgeId> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(EdgeId((self.word * 64 + b) as u32));
            }
            self.word += 1;
            if self.word >= self.set.bits.len() {
                return None;
            }
            self.cur = self.set.bits[self.word];
        }
    }
}

impl<'a> IntoIterator for &'a EdgeSet {
    type Item = EdgeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<EdgeId> for EdgeSet {
    fn extend<T: IntoIterator<Item = EdgeId>>(&mut self, iter: T) {
        for e in iter {
            self.insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path5() -> Graph {
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn insert_remove_contains() {
        let g = path5();
        let mut s = EdgeSet::new(&g);
        assert!(s.is_empty());
        assert!(s.insert(EdgeId(1)));
        assert!(!s.insert(EdgeId(1)));
        assert!(s.contains(EdgeId(1)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(EdgeId(1)));
        assert!(!s.remove(EdgeId(1)));
        assert!(s.is_empty());
    }

    #[test]
    fn iter_in_order() {
        let g = path5();
        let mut s = EdgeSet::new(&g);
        s.insert(EdgeId(3));
        s.insert(EdgeId(0));
        s.insert(EdgeId(2));
        let ids: Vec<u32> = s.iter().map(|e| e.0).collect();
        assert_eq!(ids, vec![0, 2, 3]);
    }

    #[test]
    fn full_and_to_graph() {
        let g = path5();
        let s = EdgeSet::full(&g);
        assert_eq!(s.len(), 4);
        let h = s.to_graph(&g);
        assert_eq!(h.edge_count(), 4);
    }

    #[test]
    fn union_with_counts() {
        let g = path5();
        let mut a = EdgeSet::new(&g);
        a.insert(EdgeId(0));
        a.insert(EdgeId(1));
        let mut b = EdgeSet::new(&g);
        b.insert(EdgeId(1));
        b.insert(EdgeId(3));
        a.union_with(&b);
        assert_eq!(a.len(), 3);
        assert!(a.contains(EdgeId(3)));
    }

    #[test]
    fn extend_from_iter() {
        let g = path5();
        let mut s = EdgeSet::new(&g);
        s.extend([EdgeId(0), EdgeId(2)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_universe() {
        let s = EdgeSet::with_universe(0);
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(EdgeId(0)));
    }

    #[test]
    fn word_boundary() {
        let mut s = EdgeSet::with_universe(130);
        for i in [0u32, 63, 64, 127, 128, 129] {
            s.insert(EdgeId(i));
        }
        let ids: Vec<u32> = s.iter().map(|e| e.0).collect();
        assert_eq!(ids, vec![0, 63, 64, 127, 128, 129]);
    }
}
