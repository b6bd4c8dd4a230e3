//! Message routing shared by every executor.
//!
//! [`stage`] is the one outbox check: it validates and accounts one
//! sender's outbox — budget check, message and word counts, trace counters
//! — and hands each accepted send to its caller, which stages it, feeds it
//! to the fault engine, or schedules it on the asynchronous executor's
//! event heap. [`route`] is the one delivery path: it regroups a round's
//! deliveries by receiver into [`Mailbox`] arenas — one mailbox per worker
//! chunk of the round-synchronous executor (a single one over all n nodes
//! at one worker, and for the asynchronous executor) — whether they come
//! straight from [`stage`], from the fault engine's due messages, or from
//! the asynchronous executor's arrivals. Every executor therefore applies
//! the same checks in the same global sender order, and fills inboxes the
//! same way, by construction.
//!
//! A broadcast leaves the outbox as one entry addressed to [`ALL`], and
//! [`stage`] checks and accounts it once for all of the sender's
//! neighbors. Where each copy has a fate or a latency of its own (under
//! faults, and on the asynchronous executor) the caller [`expand`]s it;
//! otherwise it travels through the router unexpanded: [`route`]
//! posts the message once on a sender-indexed [`Board`] and flags each
//! neighbor of the sender as having broadcast mail. A flagged receiver
//! gathers its inbox in [`Mailbox::take_into`] by walking its own CSR
//! neighbor run, which is sorted and, the graph being symmetric, lists
//! every node that can have broadcast to it; the posted messages are
//! merged with its unicasts by sender. A node that broadcast sent no
//! unicast that round, so the merge is exact, and inboxes, metrics,
//! budget errors and trace bytes are those of one send per neighbor.
//!
//! A mailbox also carries the round's *active set*: a bitmap of the nodes
//! that must run, filled by routing (receivers) and by the executor
//! (nodes whose wake round has come). Executors step the set bits in
//! ascending id, so a round costs O(messages + active nodes + n/64) and
//! never a pass over all n nodes.

use std::ops::DerefMut;

use spanner_graph::NodeId;

use crate::budget::{BudgetViolation, MessageBudget};
use crate::metrics::RunMetrics;
use crate::sync::MessageSize;
use crate::trace::Tracer;
use spanner_graph::CsrAdjacency;

/// The receiver of a broadcast: every neighbor of the sender. Never a
/// real node, since a network holds fewer than `u32::MAX` nodes
/// ([`assert_addressable`]).
pub(crate) const ALL: NodeId = NodeId(u32::MAX);

/// Asserts that `n` nodes leave [`ALL`] free as a receiver.
pub(crate) fn assert_addressable(n: usize) {
    assert!(
        n < u32::MAX as usize,
        "a network holds fewer than u32::MAX nodes"
    );
}

/// The broadcasts of one round, indexed by sender: `msgs[u]` is what `u`
/// broadcast, posted once by [`route`] and read by every neighbor of `u`
/// in [`Mailbox::take_into`].
#[derive(Debug)]
pub(crate) struct Board<M> {
    msgs: Vec<Option<M>>,
    /// The senders posted since the last [`route`], which unposts them.
    posted: Vec<u32>,
}

impl<M> Board<M> {
    /// A board for senders `0..n`, nothing posted. A board of length 0
    /// serves routers that never see a broadcast.
    pub(crate) fn new(n: usize) -> Self {
        Board {
            msgs: (0..n).map(|_| None).collect(),
            posted: Vec::new(),
        }
    }

    /// Removes every message posted in the previous round.
    fn clear(&mut self) {
        for u in self.posted.drain(..) {
            self.msgs[u as usize] = None;
        }
    }

    fn post(&mut self, sender: NodeId, msg: M) {
        let slot = &mut self.msgs[sender.index()];
        debug_assert!(slot.is_none(), "{sender} broadcast twice in one round");
        *slot = Some(msg);
        self.posted.push(sender.0);
    }
}

/// The inboxes and active set of a contiguous node range `base..base+len`.
///
/// Receiver `i`'s unicasts are `flat[end[i] - count[i]..end[i]]`,
/// sender-sorted; if bit `i` of `bmail` is set, some neighbor of `i` also
/// broadcast, and its message waits on the round's [`Board`].
/// [`Mailbox::take_into`] hands out the merged inbox and zeroes `count[i]`
/// and the `bmail` bit, so an executor that takes every active node leaves
/// the mailbox clear for the next routing pass — no per-round clearing
/// over the range.
#[derive(Debug)]
pub(crate) struct Mailbox<M> {
    base: usize,
    flat: Vec<(NodeId, M)>,
    end: Vec<u32>,
    count: Vec<u32>,
    /// Bit `i` set: local node `i` runs this round.
    active: Vec<u64>,
    /// Bit `i` set: local node `i` has broadcast mail on the board.
    bmail: Vec<u64>,
    /// Number of set bits in `bmail`.
    pending: usize,
    /// Word of `active` that [`Mailbox::pop_active`] resumes from.
    scan: usize,
}

impl<M> Mailbox<M> {
    /// Empty inboxes for nodes `base..base + len`, none active.
    pub(crate) fn new(base: usize, len: usize) -> Self {
        Mailbox {
            base,
            flat: Vec::new(),
            end: vec![0; len],
            count: vec![0; len],
            active: vec![0; len.div_ceil(64)],
            bmail: vec![0; len.div_ceil(64)],
            pending: 0,
            scan: 0,
        }
    }

    /// Marks local node `i` to run this round.
    #[inline]
    pub(crate) fn mark(&mut self, i: usize) {
        self.active[i >> 6] |= 1 << (i & 63);
    }

    /// Marks the nodes whose bits are set in `bits` (a bitmap over the
    /// range) and clears `bits`.
    pub(crate) fn mark_words(&mut self, bits: &mut [u64]) {
        for (a, b) in self.active.iter_mut().zip(bits) {
            *a |= std::mem::take(b);
        }
    }

    /// Marks every node of the range to run this round.
    pub(crate) fn mark_all(&mut self) {
        let tail = self.count.len() % 64;
        self.active.fill(u64::MAX);
        if tail != 0 {
            if let Some(last) = self.active.last_mut() {
                *last = (1 << tail) - 1;
            }
        }
    }

    /// Removes and returns the lowest active local node; `None` once the
    /// round's set is exhausted (which also rewinds the scan for the next
    /// round). Marks made during a round's scan are not supported: every
    /// mark for round `r` happens before its first pop.
    #[inline]
    pub(crate) fn pop_active(&mut self) -> Option<usize> {
        while let Some(&bits) = self.active.get(self.scan) {
            if bits != 0 {
                self.active[self.scan] = bits & (bits - 1);
                return Some(self.scan * 64 + bits.trailing_zeros() as usize);
            }
            self.scan += 1;
        }
        self.scan = 0;
        None
    }

    /// Local node `i`'s unicasts for this round, which are then consumed:
    /// a second `take` in the same round returns an empty slice. The whole
    /// inbox only where no broadcast is routed; see [`Mailbox::take_into`].
    #[inline]
    pub(crate) fn take(&mut self, i: usize) -> &[(NodeId, M)] {
        let c = std::mem::take(&mut self.count[i]) as usize;
        if c == 0 {
            return &[];
        }
        let e = self.end[i] as usize;
        &self.flat[e - c..e]
    }

    /// Clears local node `i`'s broadcast flag; whether it was set.
    //
    // Branching on purpose: rustc 1.95.0 drops the store of the branchless
    // `pending -= usize::from(had)` once this is inlined into `take_into`.
    #[inline]
    fn take_bmail(&mut self, i: usize) -> bool {
        let word = &mut self.bmail[i >> 6];
        let bit = 1 << (i & 63);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        self.pending -= 1;
        true
    }

    /// Local node `i`'s whole inbox for this round, sender-sorted, which
    /// is then consumed. Without broadcast mail this is the unicast slice
    /// itself; otherwise the posts on `board` of `i`'s `neighbors` are
    /// gathered into `scratch` and merged with the unicasts by sender.
    /// The merge is exact: a node that broadcast sent no unicast that
    /// round.
    #[inline]
    pub(crate) fn take_into<'a>(
        &'a mut self,
        i: usize,
        neighbors: &[NodeId],
        board: &Board<M>,
        scratch: &'a mut Vec<(NodeId, M)>,
    ) -> &'a [(NodeId, M)]
    where
        M: Clone,
    {
        if !self.take_bmail(i) {
            return self.take(i);
        }
        let mut rest = self.take(i);
        scratch.clear();
        // Every sender is a neighbor, and appears once.
        scratch.reserve(neighbors.len());
        for &u in neighbors {
            let Some(msg) = &board.msgs[u.index()] else {
                continue;
            };
            while let Some((first, tail)) = rest.split_first() {
                if first.0 > u {
                    break;
                }
                scratch.push(first.clone());
                rest = tail;
            }
            scratch.push((u, msg.clone()));
        }
        scratch.extend_from_slice(rest);
        debug_assert!(scratch.windows(2).all(|w| w[0].0 < w[1].0));
        scratch
    }

    /// Drops local node `i`'s inbox for this round unread.
    pub(crate) fn discard(&mut self, i: usize) {
        self.take_bmail(i);
        self.take(i);
    }
}

/// Regroups `staging` — (receiver, sender, msg), a broadcast as one entry
/// to [`ALL`] — into the receivers' mailboxes and `board`, and marks every
/// receiver active. `boxes[c]` covers nodes `c * span..`; every inbox of
/// the last round must have been taken.
///
/// Unicasts go through a stable counting scatter over the receivers only:
/// one counting pass, offsets assigned by walking each mailbox's active
/// bits (O(n/64 + its receivers)), one placement pass. Each unicast slice
/// keeps staging order, so it comes out in ascending sender order whenever
/// each receiver's entries are staged that way: global send order, the
/// fault engine's receiver-grouped runs (a duplicate's two copies stay
/// older first), or arrivals sorted by sender. A broadcast is moved onto
/// `board` once, after the counting pass has flagged the sender's
/// neighbors in their mailboxes' `bmail` bits; it takes no arena slot.
/// Drains `staging`; every buffer keeps its capacity.
///
/// Message counts fit `u32`: a round delivers about one message per
/// directed edge (a few under duplicate and delay faults), and
/// [`CsrAdjacency`] already bounds half-edges to `u32`.
pub(crate) fn route<M, B>(
    staging: &mut Vec<(NodeId, NodeId, M)>,
    boxes: &mut [B],
    span: usize,
    adjacency: &CsrAdjacency,
    board: &mut Board<M>,
) where
    B: DerefMut<Target = Mailbox<M>>,
{
    board.clear();
    if let [one] = boxes {
        scatter(staging, [one.dest()], adjacency, board, |_| 0);
    } else {
        let dests: Vec<Dest<'_, M>> = boxes.iter_mut().map(|b| b.dest()).collect();
        scatter(staging, dests, adjacency, board, |v| v / span);
    }
}

/// One mailbox's slices, borrowed for one [`route`] call.
struct Dest<'a, M> {
    base: usize,
    flat: &'a mut Vec<(NodeId, M)>,
    end: &'a mut [u32],
    count: &'a mut [u32],
    active: &'a mut [u64],
    bmail: &'a mut [u64],
    pending: &'a mut usize,
    /// Unicasts the counting pass assigned to this mailbox.
    routed: usize,
}

impl<M> Mailbox<M> {
    fn dest(&mut self) -> Dest<'_, M> {
        Dest {
            base: self.base,
            flat: &mut self.flat,
            end: &mut self.end,
            count: &mut self.count,
            active: &mut self.active,
            bmail: &mut self.bmail,
            pending: &mut self.pending,
            routed: 0,
        }
    }
}

/// Hands `msg` to `deliver` once per receiver of a send addressed to `to`
/// by a node with `neighbors` — `to` itself, or every neighbor for
/// [`ALL`] — in ascending order; the last receiver gets `msg` itself and
/// the others a clone.
#[inline(always)]
pub(crate) fn expand<M: Clone>(
    to: NodeId,
    msg: M,
    neighbors: &[NodeId],
    mut deliver: impl FnMut(NodeId, M),
) {
    if to != ALL {
        deliver(to, msg);
    } else if let Some((&last, rest)) = neighbors.split_last() {
        for &to in rest {
            deliver(to, msg.clone());
        }
        deliver(last, msg);
    }
}

/// [`route`] over `dests`, where receiver `v` belongs to `dests[slot(v)]`.
/// Taking the destinations by value keeps their slices in registers when
/// there is one, so the per-message loops reload nothing.
#[inline(always)]
fn scatter<'a, M: 'a, D>(
    staging: &mut Vec<(NodeId, NodeId, M)>,
    mut dests: D,
    adjacency: &CsrAdjacency,
    board: &mut Board<M>,
    slot: impl Fn(usize) -> usize,
) where
    D: AsMut<[Dest<'a, M>]>,
{
    let dests = dests.as_mut();
    // Broadcast flags left over from an inbox nobody took would be merged
    // into the wrong round.
    let untaken = dests.iter().any(|d| *d.pending != 0);
    let mut unicasts = 0usize;
    for &(to, sender, _) in staging.iter() {
        if to == ALL {
            for to in adjacency.neighbors(sender) {
                let d = &mut dests[slot(to.index())];
                let i = to.index() - d.base;
                d.active[i >> 6] |= 1 << (i & 63);
                d.bmail[i >> 6] |= 1 << (i & 63);
            }
        } else {
            unicasts += 1;
            let d = &mut dests[slot(to.index())];
            let i = to.index() - d.base;
            d.count[i] += 1;
            d.active[i >> 6] |= 1 << (i & 63);
        }
    }
    for d in dests.iter_mut() {
        // `end[i]` starts as receiver `i`'s first slot and ends one past
        // its last, after the placement pass below.
        let mut next = 0u32;
        for (w, &bits) in d.active.iter().enumerate() {
            if bits == 0 {
                continue;
            }
            // Broadcast flags are a subset of the active bits.
            *d.pending += d.bmail[w].count_ones() as usize;
            let mut bits = bits;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                d.end[i] = next;
                next += d.count[i];
            }
        }
        d.routed = next as usize;
        d.flat.clear();
        d.flat.reserve(d.routed);
    }
    // Counts left over from an inbox nobody took would leave unwritten
    // gaps in an arena; then the counts would sum to more than the unicasts.
    assert!(
        !untaken && dests.iter().map(|d| d.routed).sum::<usize>() == unicasts,
        "route: every inbox of the previous round must have been taken"
    );
    // SAFETY: by the assertion above the counts are exactly this round's
    // unicasts, so each receiver's slots `end[i]..end[i] + count[i]` tile
    // `0..routed` of its mailbox's reserved arena exactly, and the
    // placement pass writes each slot exactly once before `set_len`.
    // Nothing touches an arena's allocation between its `reserve` and its
    // `set_len`, and no user code runs between the raw writes: a broadcast
    // is moved onto the board, whose slot `route` emptied, so posting it
    // drops nothing. Should a post panic (a sender out of the board's
    // range, which is a bug), the arenas' lengths are still zero: the
    // messages written so far leak and nothing uninitialized is observed.
    unsafe {
        for (to, sender, msg) in staging.drain(..) {
            if to == ALL {
                board.post(sender, msg);
                continue;
            }
            let d = &mut dests[slot(to.index())];
            let i = to.index() - d.base;
            let at = d.end[i];
            std::ptr::write(d.flat.as_mut_ptr().add(at as usize), (sender, msg));
            d.end[i] = at + 1;
        }
        for d in dests.iter_mut() {
            d.flat.set_len(d.routed);
        }
    }
}

/// Validates `sender`'s outbox of this round and hands each accepted send,
/// in send order, to `accept(to, msg)`: the budget check, message/word
/// accounting and trace counters of every executor, applied in one place.
/// A broadcast — one entry to [`ALL`] — is checked once, accounted as one
/// message per entry of `neighbors` (the sender's neighbor run) and
/// accepted unexpanded; where it goes is the caller's choice (the staging
/// buffer, or [`expand`] into the fault engine or the event heap).
///
/// # Errors
///
/// The first message over `budget` (for a broadcast, the one to its lowest
/// neighbor); everything before it stays accounted, which is the partial
/// accounting every executor reports for a failed run.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn stage<M, I, const TRACED: bool>(
    sender: NodeId,
    neighbors: &[NodeId],
    round: u32,
    sends: I,
    budget: MessageBudget,
    metrics: &mut RunMetrics,
    tracer: &mut Tracer<'_>,
    mut accept: impl FnMut(NodeId, M),
) -> Result<(), BudgetViolation>
where
    M: MessageSize,
    I: ExactSizeIterator<Item = (NodeId, M)>,
{
    if TRACED {
        tracer.on_outbox(sends.len());
    }
    for (to, msg) in sends {
        let words = msg.words();
        // `to` itself, or every neighbor for a broadcast.
        let receivers = if to == ALL {
            neighbors
        } else {
            std::slice::from_ref(&to)
        };
        if !budget.allows(words) {
            return Err(BudgetViolation {
                sender,
                receiver: receivers[0],
                round,
                words,
                budget,
            });
        }
        let count = receivers.len();
        metrics.messages += count as u64;
        metrics.words += (count * words) as u64;
        metrics.max_message_words = metrics.max_message_words.max(words);
        if TRACED {
            tracer.on_messages(count, words);
        }
        accept(to, msg);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spanner_graph::generators;
    use std::sync::Arc;

    fn staged(sends: &[(u32, u32, u64)]) -> Vec<(NodeId, NodeId, u64)> {
        sends
            .iter()
            .map(|&(to, from, m)| (NodeId(to), NodeId(from), m))
            .collect()
    }

    /// One round's routing state over `adjacency`, in chunks of `span`.
    struct Router {
        adjacency: Arc<CsrAdjacency>,
        span: usize,
        boxes: Vec<Mailbox<u64>>,
        board: Board<u64>,
    }

    impl Router {
        fn new(adjacency: Arc<CsrAdjacency>, span: usize) -> Self {
            let n = adjacency.node_count();
            let boxes = (0..n.div_ceil(span))
                .map(|c| Mailbox::new(c * span, span.min(n - c * span)))
                .collect();
            Router {
                adjacency,
                span,
                boxes,
                board: Board::new(n),
            }
        }

        fn route(&mut self, staging: &mut Vec<(NodeId, NodeId, u64)>) {
            route(
                staging,
                &mut self.boxes.iter_mut().collect::<Vec<_>>(),
                self.span,
                &self.adjacency,
                &mut self.board,
            );
            assert!(staging.is_empty());
        }

        /// Takes every active inbox, as an executor steps a round:
        /// (global receiver, inbox) in ascending receiver order.
        fn drain(&mut self) -> Vec<(u32, Vec<(NodeId, u64)>)> {
            let mut inboxes = Vec::new();
            let mut scratch = Vec::new();
            for b in &mut self.boxes {
                while let Some(i) = b.pop_active() {
                    let v = NodeId((b.base + i) as u32);
                    let neighbors = self.adjacency.neighbors(v);
                    let inbox = b.take_into(i, neighbors, &self.board, &mut scratch);
                    inboxes.push((v.0, inbox.to_vec()));
                }
            }
            inboxes
        }
    }

    /// Every pair adjacent, so any staged unicast is along an edge.
    fn k5() -> Arc<CsrAdjacency> {
        generators::complete(5).csr().clone()
    }

    fn inbox(sends: &[(u32, u64)]) -> Vec<(NodeId, u64)> {
        sends.iter().map(|&(s, m)| (NodeId(s), m)).collect()
    }

    #[test]
    fn routes_into_chunks_in_sender_order() {
        let mut r = Router::new(k5(), 3);
        r.route(&mut staged(&[
            (4, 0, 10),
            (1, 0, 11),
            (4, 2, 12),
            (1, 3, 13),
            (0, 4, 14),
        ]));
        assert_eq!(
            r.drain(),
            [
                (0, inbox(&[(4, 14)])),
                (1, inbox(&[(0, 11), (3, 13)])),
                (4, inbox(&[(0, 10), (2, 12)])),
            ]
        );
        // Every inbox taken: the next round routes into the same buffers.
        r.route(&mut staged(&[(2, 1, 20)]));
        assert_eq!(r.drain(), [(2, inbox(&[(1, 20)]))]);
    }

    #[test]
    fn broadcast_expands_over_the_senders_neighbors() {
        let mut r = Router::new(k5(), 3);
        r.route(&mut staged(&[(4, 0, 10), (ALL.0, 2, 12), (1, 3, 13)]));
        assert_eq!(
            r.drain(),
            [
                (0, inbox(&[(2, 12)])),
                (1, inbox(&[(2, 12), (3, 13)])),
                (3, inbox(&[(2, 12)])),
                (4, inbox(&[(0, 10), (2, 12)])),
            ]
        );
    }

    #[test]
    fn broadcast_merges_between_lower_and_higher_unicasts() {
        let mut r = Router::new(k5(), 5);
        r.route(&mut staged(&[(3, 0, 10), (ALL.0, 1, 11), (3, 4, 14)]));
        let inboxes = r.drain();
        assert_eq!(inboxes[2], (3, inbox(&[(0, 10), (1, 11), (4, 14)])));
    }

    #[test]
    fn broadcast_only_receiver_reads_the_board() {
        let mut r = Router::new(generators::star(4).csr().clone(), 4);
        r.route(&mut staged(&[(ALL.0, 0, 7)]));
        assert_eq!(
            r.drain(),
            [
                (1, inbox(&[(0, 7)])),
                (2, inbox(&[(0, 7)])),
                (3, inbox(&[(0, 7)]))
            ]
        );
        // The next round's board no longer holds the broadcast.
        r.route(&mut staged(&[(0, 2, 9)]));
        assert_eq!(r.drain(), [(0, inbox(&[(2, 9)]))]);
    }

    #[test]
    fn broadcasts_gather_across_two_chunks() {
        let mut r = Router::new(k5(), 3);
        r.route(&mut staged(&[(ALL.0, 1, 11), (ALL.0, 4, 14), (2, 3, 13)]));
        assert_eq!(
            r.drain(),
            [
                (0, inbox(&[(1, 11), (4, 14)])),
                (1, inbox(&[(4, 14)])),
                (2, inbox(&[(1, 11), (3, 13), (4, 14)])),
                (3, inbox(&[(1, 11), (4, 14)])),
                (4, inbox(&[(1, 11)])),
            ]
        );
    }

    #[test]
    fn broadcast_takes_no_arena_slot() {
        let mut r = Router::new(k5(), 5);
        r.route(&mut staged(&[(ALL.0, 0, 1), (2, 1, 2), (ALL.0, 3, 3)]));
        assert_eq!(r.boxes[0].flat.len(), 1);
        assert_eq!(r.boxes[0].pending, 5);
        r.drain();
        assert_eq!(r.boxes[0].pending, 0);
    }

    #[test]
    #[should_panic(expected = "must have been taken")]
    fn untaken_inbox_is_caught_before_placement() {
        let mut r = Router::new(k5(), 2);
        r.route(&mut staged(&[(1, 0, 1)]));
        r.route(&mut staged(&[(0, 1, 2)]));
    }

    #[test]
    #[should_panic(expected = "must have been taken")]
    fn untaken_broadcast_inbox_is_caught_before_placement() {
        let mut r = Router::new(k5(), 5);
        r.route(&mut staged(&[(ALL.0, 0, 1)]));
        r.route(&mut staged(&[(0, 1, 2)]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn inboxes_match_per_neighbor_expansion(
            n in 1usize..=80,
            density in 0.5f64..4.0,
            span in 1usize..=40,
            seed in any::<u64>(),
            faulted in any::<bool>(),
        ) {
            let m = (((n as f64) * density) as usize).min(n * (n - 1) / 2);
            let g = generators::erdos_renyi_gnm(n, m, seed);
            let mut r = Router::new(g.csr().clone(), span);
            // Two rounds through the same buffers. Each node broadcasts,
            // unicasts to a subset of its neighbors, or stays silent.
            // `faulted` stages in the fault engine's order instead.
            for round in 0..2u64 {
                let mut staging = Vec::new();
                let mut naive = vec![Vec::new(); n];
                for v in 0..n as u32 {
                    let h = (seed ^ round.wrapping_mul(0x9E37)).wrapping_add(u64::from(v))
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let msg = h >> 8;
                    let neighbors = r.adjacency.neighbors(NodeId(v));
                    match h % 3 {
                        0 if !neighbors.is_empty() => {
                            staging.push((ALL, NodeId(v), msg));
                            for u in neighbors {
                                naive[u.index()].push((NodeId(v), msg));
                            }
                        }
                        1 => {
                            for (k, &u) in neighbors.iter().enumerate() {
                                if (h >> (k % 64)) & 1 == 1 {
                                    staging.push((u, NodeId(v), msg + k as u64));
                                    naive[u.index()].push((NodeId(v), msg + k as u64));
                                }
                            }
                        }
                        _ => {}
                    }
                }
                if faulted {
                    // Receiver-grouped runs sorted by sender, broadcasts
                    // expanded, and some senders repeated (older copy
                    // first) as a duplicate or a late delayed message is.
                    staging.clear();
                    for (to, inbox) in naive.iter_mut().enumerate() {
                        let mut run = Vec::new();
                        for &(s, m) in inbox.iter() {
                            run.push((s, m));
                            if m % 3 == 0 {
                                run.push((s, m ^ 1));
                            }
                        }
                        staging.extend(run.iter().map(|&(s, m)| (NodeId(to as u32), s, m)));
                        *inbox = run;
                    }
                }
                r.route(&mut staging);
                let expected: Vec<_> = naive
                    .into_iter()
                    .enumerate()
                    .filter(|(_, inbox)| !inbox.is_empty())
                    .map(|(v, inbox)| (v as u32, inbox))
                    .collect();
                prop_assert_eq!(r.drain(), expected);
            }
        }
    }
}
