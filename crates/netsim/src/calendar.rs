//! The wake calendar of the round-synchronous executors.
//!
//! It holds each node's [`Protocol::next_wake`](crate::Protocol::next_wake)
//! answer and files the node under that round, so a round finds its due
//! nodes in time proportional to their number instead of walking all n.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::route::Mailbox;

/// Rounds ahead covered by the ring; later wakes go to the overflow heap.
const RING: u32 = 64;

/// Wake rounds of a contiguous node range, by local index.
///
/// Wakes for the very next round — every node of an every-round protocol
/// — are bits in `soon`, merged into the active set by one word-wise OR.
/// A ring of [`RING`] round buckets holds the other wakes of the next
/// `RING` rounds and a min-heap the later ones, so memory follows the
/// number of sleeping nodes, never `max_rounds`. A fired bucket's `Vec`
/// goes to a spare list and is reused by the next bucket that fills,
/// which keeps the ring's capacity near one round's worth of wakes.
///
/// An entry can go stale (the node ran early on a delivery and asked for
/// another round), so firing re-checks `wake`: a filed node is due iff
/// its wake round is at or before the fired round — exactly the rule of
/// an executor that tests every node every round. A node whose wake round
/// is still pending always has a live entry for it: [`WakeCalendar::set`]
/// files every new answer, and a stuttered due node is re-filed for the
/// next round ([`WakeCalendar::retry`]).
#[derive(Debug)]
pub(crate) struct WakeCalendar {
    /// `wake[i]`: the first round local node `i` must run in with an empty
    /// inbox; `u32::MAX` sleeps until a delivery.
    wake: Vec<u32>,
    /// Bit `i` set: node `i` is due in the round after the current one.
    soon: Vec<u64>,
    ring: Vec<Vec<u32>>,
    spare: Vec<Vec<u32>>,
    far: BinaryHeap<Reverse<(u32, u32)>>,
}

impl WakeCalendar {
    /// A calendar for `len` nodes, all asleep.
    pub(crate) fn new(len: usize) -> Self {
        WakeCalendar {
            wake: vec![u32::MAX; len],
            soon: vec![0; len.div_ceil(64)],
            ring: (0..RING).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            far: BinaryHeap::new(),
        }
    }

    /// Records `next`, node `i`'s [`next_wake`](crate::Protocol::next_wake)
    /// answer after it ran in `round`. An answer at or before `round` means
    /// the next round, as for an executor that tests every node each round.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, round: u32, next: u32) {
        let at = next.max(round.saturating_add(1));
        if at == self.wake[i] {
            // Still filed under `at` from an earlier answer.
            return;
        }
        self.wake[i] = at;
        if at != u32::MAX {
            self.file(i, at, round);
        }
    }

    /// Re-files node `i`, kept from running in `round` by a stutter, for
    /// the next round if it was due.
    pub(crate) fn retry(&mut self, i: usize, round: u32) {
        if self.wake[i] <= round {
            self.file(i, round + 1, round);
        }
    }

    /// Marks in `mailbox` every node due in `round`. Called once per round,
    /// for every round after 0 in order, before that round's nodes run.
    pub(crate) fn fire<M>(&mut self, round: u32, mailbox: &mut Mailbox<M>) {
        // Filed during the previous round, so their wake is this round.
        mailbox.mark_words(&mut self.soon);
        let slot = (round % RING) as usize;
        if !self.ring[slot].is_empty() {
            let mut bucket = std::mem::take(&mut self.ring[slot]);
            for &i in &bucket {
                if self.wake[i as usize] <= round {
                    mailbox.mark(i as usize);
                }
            }
            bucket.clear();
            self.spare.push(bucket);
        }
        while let Some(&Reverse((at, i))) = self.far.peek() {
            if at > round {
                break;
            }
            self.far.pop();
            if self.wake[i as usize] <= round {
                mailbox.mark(i as usize);
            }
        }
    }

    /// Files node `i` under round `at`, asked in round `now < at`. Bucket
    /// `at % RING` holds only round `at`: every round up to `now` has been
    /// fired, so its previous round is gone.
    fn file(&mut self, i: usize, at: u32, now: u32) {
        if at - now == 1 {
            self.soon[i >> 6] |= 1 << (i & 63);
            return;
        }
        if at - now > RING {
            self.far.push(Reverse((at, i as u32)));
            return;
        }
        let bucket = &mut self.ring[(at % RING) as usize];
        if bucket.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *bucket = spare;
            }
        }
        bucket.push(i as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fires `round` and returns its due nodes.
    fn due(cal: &mut WakeCalendar, mb: &mut Mailbox<()>, round: u32) -> Vec<usize> {
        cal.fire(round, mb);
        std::iter::from_fn(|| mb.pop_active()).collect()
    }

    #[test]
    fn near_and_far_wakes_fire_on_their_round() {
        let mut cal = WakeCalendar::new(4);
        let mut mb = Mailbox::<()>::new(0, 4);
        cal.set(0, 0, 3);
        cal.set(1, 0, RING);
        cal.set(2, 0, RING + 1);
        cal.set(3, 0, 10 * RING);
        let mut seen = Vec::new();
        for r in 1..=10 * RING {
            for i in due(&mut cal, &mut mb, r) {
                seen.push((r, i));
            }
        }
        assert_eq!(seen, [(3, 0), (RING, 1), (RING + 1, 2), (10 * RING, 3)]);
    }

    #[test]
    fn stale_entries_do_not_fire_and_retry_refiles() {
        let mut cal = WakeCalendar::new(2);
        let mut mb = Mailbox::<()>::new(0, 2);
        cal.set(0, 0, 5);
        // Node 0 runs early in round 2 (a delivery) and now wants round 7.
        cal.set(0, 2, 7);
        cal.set(1, 0, 4);
        assert_eq!(due(&mut cal, &mut mb, 4), [1]);
        // Node 1 stutters in round 4: it is due again in round 5.
        cal.retry(1, 4);
        assert_eq!(due(&mut cal, &mut mb, 5), [1]);
        cal.set(1, 5, u32::MAX);
        assert!(due(&mut cal, &mut mb, 6).is_empty());
        assert_eq!(due(&mut cal, &mut mb, 7), [0]);
    }
}
