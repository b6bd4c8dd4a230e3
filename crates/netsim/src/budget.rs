//! Message-length budgets.
//!
//! The paper pins down the precise message length of each algorithm in
//! units of O(log n) bits (a *word*): unit-length messages (CONGEST),
//! O(log^ε n) words (Theorem 2), O(n^{1/t}) words (Theorem 8), or unbounded
//! (LOCAL). [`MessageBudget`] captures this knob; the runner rejects a send
//! exceeding the budget with a [`BudgetViolation`], which makes accidental
//! over-long messages a hard error in tests rather than a silent model
//! violation.

use std::fmt;

use spanner_graph::NodeId;

/// Maximum allowed message length in words of O(log n) bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageBudget {
    /// No limit (Peleg's LOCAL model).
    Unbounded,
    /// At most this many words per message (`Words(1)` is CONGEST).
    Words(usize),
}

impl MessageBudget {
    /// The standard CONGEST budget: unit-length messages.
    pub const CONGEST: MessageBudget = MessageBudget::Words(1);

    /// Whether a message of `words` words fits the budget.
    pub fn allows(self, words: usize) -> bool {
        match self {
            MessageBudget::Unbounded => true,
            MessageBudget::Words(w) => words <= w,
        }
    }

    /// The word limit, or `None` if unbounded.
    pub fn limit(self) -> Option<usize> {
        match self {
            MessageBudget::Unbounded => None,
            MessageBudget::Words(w) => Some(w),
        }
    }
}

impl fmt::Display for MessageBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageBudget::Unbounded => write!(f, "unbounded"),
            MessageBudget::Words(w) => write!(f, "{w} words"),
        }
    }
}

/// A send that exceeded the message budget: reported as a hard error by the
/// runner, identifying the offender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetViolation {
    /// The sending node.
    pub sender: NodeId,
    /// The receiving node.
    pub receiver: NodeId,
    /// The round in which the send happened.
    pub round: u32,
    /// The message length in words.
    pub words: usize,
    /// The budget in force.
    pub budget: MessageBudget,
}

impl fmt::Display for BudgetViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "message of {} words from {} to {} in round {} exceeds budget of {}",
            self.words, self.sender, self.receiver, self.round, self.budget
        )
    }
}

impl std::error::Error for BudgetViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_allows_everything() {
        assert!(MessageBudget::Unbounded.allows(usize::MAX));
        assert_eq!(MessageBudget::Unbounded.limit(), None);
    }

    #[test]
    fn words_budget() {
        let b = MessageBudget::Words(4);
        assert!(b.allows(4));
        assert!(!b.allows(5));
        assert_eq!(b.limit(), Some(4));
        assert_eq!(MessageBudget::CONGEST, MessageBudget::Words(1));
    }

    #[test]
    fn violation_display() {
        let v = BudgetViolation {
            sender: NodeId(1),
            receiver: NodeId(2),
            round: 3,
            words: 9,
            budget: MessageBudget::Words(4),
        };
        let s = v.to_string();
        assert!(s.contains("9 words"));
        assert!(s.contains("round 3"));
    }
}
