//! Result verification by redundant execution.
//!
//! TaskVM is deterministic, so every honest executor of a task produces
//! identical outputs. Integrity checking therefore reduces to comparing
//! content digests: [`digest_outputs`] hashes an output stream and
//! [`majority_vote`] takes an unweighted quorum over executor digests.

use crate::hash::{sha256, Digest};
use std::collections::BTreeMap;

/// Digest of a TaskVM output stream (little-endian word encoding).
pub fn digest_outputs(outputs: &[i64]) -> Digest {
    let mut bytes = Vec::with_capacity(outputs.len() * 8);
    for &w in outputs {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    sha256(&bytes)
}

/// Outcome of a vote over redundant executions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A digest won the vote.
    Accepted {
        /// The winning digest.
        digest: Digest,
        /// Executors that reported the winning digest.
        agreeing: Vec<u64>,
        /// Executors that reported something else (candidates for
        /// reputation penalties).
        dissenting: Vec<u64>,
    },
    /// No digest reached the required quorum.
    Inconclusive {
        /// Number of distinct digests observed.
        distinct: usize,
    },
}

impl Verdict {
    /// The accepted digest, if any.
    pub fn accepted_digest(&self) -> Option<Digest> {
        match self {
            Verdict::Accepted { digest, .. } => Some(*digest),
            Verdict::Inconclusive { .. } => None,
        }
    }
}

/// Unweighted majority vote: a digest wins if strictly more than half of
/// the executors report it *and* at least `min_votes` did.
///
/// Ties and empty inputs are [`Verdict::Inconclusive`].
pub fn majority_vote(results: &[(u64, Digest)], min_votes: usize) -> Verdict {
    if results.is_empty() {
        return Verdict::Inconclusive { distinct: 0 };
    }
    let mut tally: BTreeMap<Digest, f64> = BTreeMap::new();
    let mut total = 0.0;
    for &(_, digest) in results {
        *tally.entry(digest).or_insert(0.0) += 1.0;
        total += 1.0;
    }
    let distinct = tally.len();
    let Some((&winner, &votes)) = tally
        .iter()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("vote counts are finite"))
    else {
        return Verdict::Inconclusive { distinct };
    };
    if votes < min_votes as f64 || total <= 0.0 || votes / total <= 0.5 {
        return Verdict::Inconclusive { distinct };
    }
    let mut agreeing = Vec::new();
    let mut dissenting = Vec::new();
    for &(node, digest) in results {
        if digest == winner {
            agreeing.push(node);
        } else {
            dissenting.push(node);
        }
    }
    Verdict::Accepted {
        digest: winner,
        agreeing,
        dissenting,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(tag: u8) -> Digest {
        sha256(&[tag])
    }

    #[test]
    fn digest_outputs_is_order_sensitive() {
        assert_eq!(digest_outputs(&[1, 2, 3]), digest_outputs(&[1, 2, 3]));
        assert_ne!(digest_outputs(&[1, 2, 3]), digest_outputs(&[3, 2, 1]));
        assert_ne!(digest_outputs(&[]), digest_outputs(&[0]));
    }

    #[test]
    fn unanimous_majority_accepts() {
        let results = [(1, d(0)), (2, d(0)), (3, d(0))];
        match majority_vote(&results, 2) {
            Verdict::Accepted {
                agreeing,
                dissenting,
                ..
            } => {
                assert_eq!(agreeing, vec![1, 2, 3]);
                assert!(dissenting.is_empty());
            }
            v => panic!("expected acceptance, got {v:?}"),
        }
    }

    #[test]
    fn lone_dissenter_is_identified() {
        let results = [(1, d(0)), (2, d(0)), (3, d(9))];
        match majority_vote(&results, 2) {
            Verdict::Accepted {
                digest, dissenting, ..
            } => {
                assert_eq!(digest, d(0));
                assert_eq!(dissenting, vec![3]);
            }
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn tie_is_inconclusive() {
        let results = [(1, d(0)), (2, d(1))];
        assert_eq!(
            majority_vote(&results, 1),
            Verdict::Inconclusive { distinct: 2 }
        );
    }

    #[test]
    fn quorum_floor_is_enforced() {
        let results = [(1, d(0))];
        assert_eq!(
            majority_vote(&results, 2),
            Verdict::Inconclusive { distinct: 1 }
        );
        assert!(matches!(
            majority_vote(&results, 1),
            Verdict::Accepted { .. }
        ));
    }

    #[test]
    fn empty_vote_is_inconclusive() {
        assert_eq!(majority_vote(&[], 1), Verdict::Inconclusive { distinct: 0 });
    }
}
