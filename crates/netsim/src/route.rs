//! Message routing shared by every executor.
//!
//! [`stage`] validates and accounts one sender's outbox — budget check,
//! message and word counts, trace counters, fault fates — and appends it to
//! the staging buffer; [`route`] regroups the staged sends by receiver into
//! [`Mailbox`] arenas: one mailbox per worker chunk of the round-synchronous
//! executor (a single one over all n nodes at one worker), and one over all
//! n nodes for the asynchronous executor, so every executor applies the
//! same checks in the same global sender order by construction.
//!
//! A broadcast travels as one entry addressed to [`ALL`] from the outbox
//! to the router: [`stage`] checks and accounts it once for all of the
//! sender's neighbors, and only [`route`] expands it over the sender's
//! CSR neighbor run, straight into the receivers' slots. Staging is in
//! global sender order and the expansion in ascending neighbor order, so
//! inboxes, metrics, budget errors and trace bytes are those of one send
//! per neighbor.
//!
//! A mailbox also carries the round's *active set*: a bitmap of the nodes
//! that must run, filled by routing (receivers) and by the executor
//! (nodes whose wake round has come). Executors step the set bits in
//! ascending id, so a round costs O(messages + active nodes + n/64) and
//! never a pass over all n nodes.

use std::ops::DerefMut;

use spanner_graph::NodeId;

use crate::budget::{BudgetViolation, MessageBudget};
use crate::csr::CsrAdjacency;
use crate::faults::FaultState;
use crate::metrics::RunMetrics;
use crate::sync::MessageSize;
use crate::trace::Tracer;

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

/// The inboxes and active set of a contiguous node range `base..base+len`.
///
/// Receiver `i`'s inbox is `flat[end[i] - count[i]..end[i]]`, sender-sorted.
/// [`Mailbox::take`] hands it out and zeroes `count[i]`, so an executor that
/// takes every active node leaves all counts zero for the next routing
/// pass — no per-round clearing over the range.
#[derive(Debug)]
pub(crate) struct Mailbox<M> {
    base: usize,
    flat: Vec<(NodeId, M)>,
    end: Vec<u32>,
    count: Vec<u32>,
    /// Bit `i` set: local node `i` runs this round.
    active: Vec<u64>,
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

    /// Local node `i`'s inbox for this round, which is then consumed: a
    /// second `take` in the same round returns an empty slice.
    #[inline]
    pub(crate) fn take(&mut self, i: usize) -> &mut [(NodeId, M)] {
        let c = std::mem::take(&mut self.count[i]) as usize;
        if c == 0 {
            return &mut [];
        }
        let e = self.end[i] as usize;
        &mut self.flat[e - c..e]
    }

    /// Drops the previous round's arena before [`Mailbox::push`] delivery.
    pub(crate) fn clear(&mut self) {
        self.flat.clear();
    }

    /// Appends one delivery to `to`'s inbox and marks `to` active.
    /// Deliveries must arrive grouped by receiver (the fault engine emits
    /// them in ascending receiver order), since each inbox is one range.
    pub(crate) fn push(&mut self, to: NodeId, sender: NodeId, msg: M) {
        let i = to.index() - self.base;
        debug_assert!(self.count[i] == 0 || self.end[i] as usize == self.flat.len());
        self.flat.push((sender, msg));
        self.end[i] = self.flat.len() as u32;
        self.count[i] += 1;
        self.mark(i);
    }
}

/// Regroups `staging` — (receiver, sender, msg) in global send order, a
/// broadcast as one entry to [`ALL`] — into the receivers' mailboxes and
/// marks every receiver active. `boxes[c]` covers nodes `c * span..`;
/// every count must be zero on entry (all of the last round's inboxes
/// taken).
///
/// A stable counting scatter over the receivers only: one counting pass,
/// offsets assigned by walking each mailbox's active bits (O(n/64 + its
/// receivers)), one placement pass. Both passes expand a broadcast over
/// `adjacency`'s neighbor run of its sender. Each inbox comes out in
/// ascending sender order because the staging order is global sender
/// order. Drains `staging`; every buffer keeps its capacity.
///
/// Message counts fit `u32`: a round delivers at most one message per
/// directed edge, and [`CsrAdjacency`] already bounds half-edges to `u32`.
pub(crate) fn route<M, B>(
    staging: &mut Vec<(NodeId, NodeId, M)>,
    boxes: &mut [B],
    span: usize,
    adjacency: &CsrAdjacency,
) where
    M: Clone,
    B: DerefMut<Target = Mailbox<M>>,
{
    if let [one] = boxes {
        scatter(staging, [one.dest()], adjacency, |_| 0);
    } else {
        let dests: Vec<Dest<'_, M>> = boxes.iter_mut().map(|b| b.dest()).collect();
        scatter(staging, dests, adjacency, |v| v / span);
    }
}

/// One mailbox's slices, borrowed for one [`route`] call.
struct Dest<'a, M> {
    base: usize,
    flat: &'a mut Vec<(NodeId, M)>,
    end: &'a mut [u32],
    count: &'a mut [u32],
    active: &'a mut [u64],
    /// Messages the counting pass assigned to this mailbox.
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
            routed: 0,
        }
    }
}

/// The receivers of a send addressed to `to` by a node with `neighbors`:
/// `to` itself, or every neighbor for [`ALL`].
#[inline(always)]
pub(crate) fn receivers<'a>(to: &'a NodeId, neighbors: &'a [NodeId]) -> &'a [NodeId] {
    if *to == ALL {
        neighbors
    } else {
        std::slice::from_ref(to)
    }
}

/// Hands `msg` to `deliver` once per receiver of a send addressed to `to`
/// (see [`receivers`]), in ascending order; the last receiver gets `msg`
/// itself and the others a clone. `neighbors` is only called for [`ALL`].
#[inline(always)]
pub(crate) fn expand<'n, M: Clone>(
    to: NodeId,
    msg: M,
    neighbors: impl FnOnce() -> &'n [NodeId],
    mut deliver: impl FnMut(NodeId, M),
) {
    if to != ALL {
        deliver(to, msg);
    } else if let Some((&last, rest)) = neighbors().split_last() {
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
fn scatter<'a, M: Clone + 'a, D>(
    staging: &mut Vec<(NodeId, NodeId, M)>,
    mut dests: D,
    adjacency: &CsrAdjacency,
    slot: impl Fn(usize) -> usize,
) where
    D: AsMut<[Dest<'a, M>]>,
{
    let dests = dests.as_mut();
    let mut sends = 0usize;
    for &(to, sender, _) in staging.iter() {
        let receivers = if to == ALL {
            adjacency.neighbors(sender)
        } else {
            std::slice::from_ref(&to)
        };
        sends += receivers.len();
        for to in receivers {
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
    // gaps in an arena; then the counts would sum to more than the sends.
    assert_eq!(
        dests.iter().map(|d| d.routed).sum::<usize>(),
        sends,
        "route: every inbox of the previous round must have been taken"
    );
    // SAFETY: by the assertion above the counts are exactly this round's
    // sends, broadcasts expanded over the same neighbor runs as in the
    // counting pass, so each receiver's slots `end[i]..end[i] + count[i]`
    // tile `0..routed` of its mailbox's reserved arena exactly, and each
    // slot is written exactly once before `set_len`. Nothing touches an
    // arena's allocation between its `reserve` and its `set_len`. The only
    // call that can panic between the writes is a broadcast's
    // `msg.clone()`; the arenas' lengths are still zero then, so the
    // messages written so far leak and nothing uninitialized is ever
    // observed.
    unsafe {
        let mut place = |to: NodeId, sender: NodeId, msg: M| {
            let d = &mut dests[slot(to.index())];
            let i = to.index() - d.base;
            let at = d.end[i];
            std::ptr::write(d.flat.as_mut_ptr().add(at as usize), (sender, msg));
            d.end[i] = at + 1;
        };
        for (to, sender, msg) in staging.drain(..) {
            expand(
                to,
                msg,
                || adjacency.neighbors(sender),
                |to, msg| place(to, sender, msg),
            );
        }
        for d in dests.iter_mut() {
            d.flat.set_len(d.routed);
        }
    }
}

/// Validates `sender`'s outbox of this round and stages it in send order:
/// the budget check, message/word accounting and trace counters of every
/// executor, applied in one place. A broadcast — one entry to [`ALL`] —
/// is checked once and accounted as one message per entry of `neighbors`,
/// the sender's neighbor run. Under `FAULTS` accepted messages go to the
/// fault engine instead of `staging`, a broadcast expanded in ascending
/// neighbor order so fault fates are drawn per message.
///
/// # Errors
///
/// The first message over `budget` (for a broadcast, the one to its lowest
/// neighbor); everything before it stays accounted, which is the partial
/// accounting every executor reports for a failed run.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn stage<M, I, const TRACED: bool, const FAULTS: bool>(
    sender: NodeId,
    neighbors: &[NodeId],
    round: u32,
    sends: I,
    budget: MessageBudget,
    metrics: &mut RunMetrics,
    fstate: &mut FaultState<M>,
    tracer: &mut Tracer<'_>,
    staging: &mut Vec<(NodeId, NodeId, M)>,
) -> Result<(), BudgetViolation>
where
    M: MessageSize + Clone,
    I: ExactSizeIterator<Item = (NodeId, M)>,
{
    if TRACED {
        tracer.on_outbox(sends.len());
    }
    for (to, msg) in sends {
        let words = msg.words();
        let receivers = receivers(&to, neighbors);
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
        if FAULTS {
            expand(
                to,
                msg,
                || neighbors,
                |to, msg| {
                    fstate.accept(round, sender, to, msg);
                },
            );
        } else {
            staging.push((to, sender, msg));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::generators;

    fn staged(sends: &[(u32, u32, u64)]) -> Vec<(NodeId, NodeId, u64)> {
        sends
            .iter()
            .map(|&(to, from, m)| (NodeId(to), NodeId(from), m))
            .collect()
    }

    fn drain(b: &mut Mailbox<u64>) -> Vec<(usize, Vec<(NodeId, u64)>)> {
        let mut inboxes = Vec::new();
        while let Some(i) = b.pop_active() {
            inboxes.push((i, b.take(i).to_vec()));
        }
        inboxes
    }

    /// Every pair adjacent, so any staged unicast is along an edge.
    fn k5() -> CsrAdjacency {
        CsrAdjacency::from_graph(&generators::complete(5))
    }

    #[test]
    fn routes_into_chunks_in_sender_order() {
        let adjacency = k5();
        let mut boxes = [Mailbox::new(0, 3), Mailbox::new(3, 2)];
        let mut staging = staged(&[(4, 0, 10), (1, 0, 11), (4, 2, 12), (1, 3, 13), (0, 4, 14)]);
        route(
            &mut staging,
            &mut boxes.iter_mut().collect::<Vec<_>>(),
            3,
            &adjacency,
        );
        assert!(staging.is_empty());
        assert_eq!(
            drain(&mut boxes[0]),
            [
                (0, vec![(NodeId(4), 14)]),
                (1, vec![(NodeId(0), 11), (NodeId(3), 13)]),
            ]
        );
        assert_eq!(
            drain(&mut boxes[1]),
            [(1, vec![(NodeId(0), 10), (NodeId(2), 12)])]
        );
        // Every inbox taken: the next round routes into the same buffers.
        let mut staging = staged(&[(2, 1, 20)]);
        route(
            &mut staging,
            &mut boxes.iter_mut().collect::<Vec<_>>(),
            3,
            &adjacency,
        );
        assert_eq!(drain(&mut boxes[0]), [(2, vec![(NodeId(1), 20)])]);
        assert!(drain(&mut boxes[1]).is_empty());
    }

    #[test]
    fn broadcast_expands_over_the_senders_neighbors() {
        let adjacency = k5();
        let mut boxes = [Mailbox::new(0, 3), Mailbox::new(3, 2)];
        let mut staging = staged(&[(4, 0, 10), (ALL.0, 2, 12), (1, 3, 13)]);
        route(
            &mut staging,
            &mut boxes.iter_mut().collect::<Vec<_>>(),
            3,
            &adjacency,
        );
        assert!(staging.is_empty());
        assert_eq!(
            drain(&mut boxes[0]),
            [
                (0, vec![(NodeId(2), 12)]),
                (1, vec![(NodeId(2), 12), (NodeId(3), 13)]),
            ]
        );
        assert_eq!(
            drain(&mut boxes[1]),
            [
                (0, vec![(NodeId(2), 12)]),
                (1, vec![(NodeId(0), 10), (NodeId(2), 12)]),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "must have been taken")]
    fn untaken_inbox_is_caught_before_placement() {
        let adjacency = k5();
        let mut one = Mailbox::new(0, 2);
        route(&mut staged(&[(1, 0, 1)]), &mut [&mut one], 2, &adjacency);
        route(&mut staged(&[(0, 1, 2)]), &mut [&mut one], 2, &adjacency);
    }

    #[test]
    #[should_panic(expected = "must have been taken")]
    fn untaken_broadcast_inbox_is_caught_before_placement() {
        let adjacency = k5();
        let mut one = Mailbox::new(0, 5);
        route(
            &mut staged(&[(ALL.0, 0, 1)]),
            &mut [&mut one],
            5,
            &adjacency,
        );
        route(&mut staged(&[(0, 1, 2)]), &mut [&mut one], 5, &adjacency);
    }
}
