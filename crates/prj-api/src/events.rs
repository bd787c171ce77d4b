//! Standing-query change events: the minimal diff algebra between two
//! certified top-K lists, and its exact replay.
//!
//! A subscription's notification carries *events*, not the new list: the
//! server diffs the previously delivered certified top-K against the
//! re-merged one and ships only what changed. The algebra is closed under
//! replay — [`apply_events`] over the old list reproduces the new list
//! bit-identically (ids, score bits, order) — which is what the
//! differential harness asserts after every mutation.
//!
//! ## Event semantics
//!
//! A combination's identity is its member-tuple id list (`ResultRow::
//! tuples`); scores are attributes of an identity, not part of it.
//! Diffing old against new emits, in this delivery order:
//!
//! 1. [`ChangeEvent::Exit`] — an old combination left the top-K; `rank` is
//!    its *old* rank. Ascending by old rank.
//! 2. [`ChangeEvent::RankChange`] — a surviving combination moved from old
//!    rank `from` to new rank `to`. A survivor whose rank is unchanged
//!    emits nothing and implicitly keeps its slot.
//! 3. [`ChangeEvent::Enter`] — a combination new to the top-K, with its
//!    full row; `rank` is its new rank. 2 and 3 interleave ascending by
//!    target rank.
//! 4. [`ChangeEvent::ScoreChange`] — a surviving combination's score bits
//!    changed (possible when its member tuples' relation re-registers
//!    identical ids under a different scoring context); `rank` is its
//!    *new* rank, applied after all placements. Ascending by rank.
//!
//! Replay fills every slot of the new list exactly once: unexited,
//! unmoved old rows stay put, moves and enters claim their target ranks,
//! and any double-fill or hole is a protocol error — a corrupted or
//! reordered event stream can never silently produce a plausible list.

use crate::response::ResultRow;
use std::collections::HashMap;

/// One minimal change between two certified top-K lists. See the
/// [module docs](self) for identity and ordering semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeEvent {
    /// A combination entered the top-K at `rank`, with its full row.
    Enter {
        /// The new rank (0-based, best first).
        rank: usize,
        /// The entering combination.
        row: ResultRow,
    },
    /// The combination at old rank `rank` left the top-K.
    Exit {
        /// The departing combination's *old* rank.
        rank: usize,
    },
    /// A surviving combination moved ranks.
    RankChange {
        /// Its old rank.
        from: usize,
        /// Its new rank.
        to: usize,
    },
    /// A surviving combination's aggregate score changed without its rank
    /// placement being expressible as identity change.
    ScoreChange {
        /// Its *new* rank (after all placements).
        rank: usize,
        /// The new aggregate score.
        score: f64,
    },
}

/// A pushed change notification for one standing query.
///
/// `seq` starts at 1 for the first notification after the
/// [`crate::Response::Subscribed`] ack and increments by exactly 1; a gap
/// means the connection lost a line and the subscription's materialized
/// view can no longer be trusted. `total` is the length of the new top-K
/// list, validated by replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The subscription this notification belongs to.
    pub id: u64,
    /// Per-subscription delivery sequence number (1-based, gapless).
    pub seq: u64,
    /// Length of the top-K list after applying `events`.
    pub total: usize,
    /// The ordered change events (may be empty on a terminal
    /// notification).
    pub events: Vec<ChangeEvent>,
    /// `Some` on the final notification of a subscription the *server*
    /// closed: `"drop"` (a queried relation was dropped; `events` empties
    /// the list) or `"error"` (re-evaluation failed irrecoverably). After
    /// a `fin` notification the id is dead and will never be used again.
    pub fin: Option<String>,
}

/// Diffs two certified top-K lists into the minimal ordered event stream
/// whose [`apply_events`] replay over `old` reproduces `new` bit-exactly.
pub fn diff_top_k(old: &[ResultRow], new: &[ResultRow]) -> Vec<ChangeEvent> {
    let old_index: HashMap<&[(usize, usize)], usize> = old
        .iter()
        .enumerate()
        .map(|(i, row)| (row.tuples.as_slice(), i))
        .collect();
    let new_index: HashMap<&[(usize, usize)], usize> = new
        .iter()
        .enumerate()
        .map(|(j, row)| (row.tuples.as_slice(), j))
        .collect();
    let mut events = Vec::new();
    for (i, row) in old.iter().enumerate() {
        if !new_index.contains_key(row.tuples.as_slice()) {
            events.push(ChangeEvent::Exit { rank: i });
        }
    }
    let mut rescores = Vec::new();
    for (j, row) in new.iter().enumerate() {
        match old_index.get(row.tuples.as_slice()) {
            Some(&i) => {
                if i != j {
                    events.push(ChangeEvent::RankChange { from: i, to: j });
                }
                if old[i].score.to_bits() != row.score.to_bits() {
                    rescores.push(ChangeEvent::ScoreChange {
                        rank: j,
                        score: row.score,
                    });
                }
            }
            None => events.push(ChangeEvent::Enter {
                rank: j,
                row: row.clone(),
            }),
        }
    }
    events.extend(rescores);
    events
}

fn place(
    slots: &mut [Option<ResultRow>],
    rank: usize,
    row: ResultRow,
    what: &str,
) -> Result<(), String> {
    match slots.get_mut(rank) {
        Some(slot @ None) => {
            *slot = Some(row);
            Ok(())
        }
        Some(Some(_)) => Err(format!("{what} fills rank {rank} twice")),
        None => Err(format!(
            "{what} targets rank {rank} beyond total {}",
            slots.len()
        )),
    }
}

/// Replays an event stream over the previously delivered top-K,
/// reconstructing the new list of length `total`. Every slot must be
/// filled exactly once (see the [module docs](self)); any violation —
/// double fill, hole, out-of-range rank, an old rank consumed twice —
/// returns a description of the corruption instead of a list.
pub fn apply_events(
    old: &[ResultRow],
    events: &[ChangeEvent],
    total: usize,
) -> Result<Vec<ResultRow>, String> {
    let mut slots: Vec<Option<ResultRow>> = vec![None; total];
    let mut consumed = vec![false; old.len()];
    for event in events {
        match event {
            ChangeEvent::Exit { rank } => {
                match consumed.get_mut(*rank) {
                    Some(c @ false) => *c = true,
                    Some(true) => return Err(format!("old rank {rank} consumed twice")),
                    None => return Err(format!("exit of unknown old rank {rank}")),
                };
            }
            ChangeEvent::RankChange { from, to } => {
                match consumed.get_mut(*from) {
                    Some(c @ false) => *c = true,
                    Some(true) => return Err(format!("old rank {from} consumed twice")),
                    None => return Err(format!("move of unknown old rank {from}")),
                };
                place(&mut slots, *to, old[*from].clone(), "move")?;
            }
            ChangeEvent::Enter { rank, row } => {
                place(&mut slots, *rank, row.clone(), "enter")?;
            }
            ChangeEvent::ScoreChange { .. } => {}
        }
    }
    for (i, row) in old.iter().enumerate() {
        if !consumed[i] {
            place(&mut slots, i, row.clone(), "survivor")?;
        }
    }
    for event in events {
        if let ChangeEvent::ScoreChange { rank, score } = event {
            match slots.get_mut(*rank) {
                Some(Some(row)) => row.score = *score,
                _ => return Err(format!("score change at unfilled rank {rank}")),
            }
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(rank, slot)| slot.ok_or_else(|| format!("rank {rank} never filled")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(score: f64, id: usize) -> ResultRow {
        ResultRow {
            score,
            tuples: vec![(0, id), (1, id)],
        }
    }

    fn bits(rows: &[ResultRow]) -> Vec<(u64, Vec<(usize, usize)>)> {
        rows.iter()
            .map(|r| (r.score.to_bits(), r.tuples.clone()))
            .collect()
    }

    #[test]
    fn identical_lists_diff_to_nothing() {
        let list = vec![row(1.0, 0), row(2.0, 1)];
        assert!(diff_top_k(&list, &list).is_empty());
    }

    #[test]
    fn enter_exit_move_and_replay_round_trip() {
        let old = vec![row(1.0, 0), row(2.0, 1), row(3.0, 2)];
        let new = vec![row(0.5, 9), row(1.0, 0), row(3.0, 2)];
        let events = diff_top_k(&old, &new);
        assert_eq!(
            events,
            vec![
                ChangeEvent::Exit { rank: 1 },
                ChangeEvent::Enter {
                    rank: 0,
                    row: row(0.5, 9)
                },
                ChangeEvent::RankChange { from: 0, to: 1 },
            ]
        );
        let replayed = apply_events(&old, &events, new.len()).expect("replay");
        assert_eq!(bits(&replayed), bits(&new));
    }

    #[test]
    fn unmoved_survivors_emit_nothing() {
        let old = vec![row(1.0, 0), row(2.0, 1)];
        let new = vec![row(1.0, 0), row(2.0, 1), row(3.0, 2)];
        let events = diff_top_k(&old, &new);
        assert_eq!(
            events,
            vec![ChangeEvent::Enter {
                rank: 2,
                row: row(3.0, 2)
            }]
        );
        assert_eq!(bits(&apply_events(&old, &events, 3).unwrap()), bits(&new));
    }

    #[test]
    fn score_changes_preserve_bits() {
        let old = vec![row(1.0, 0), row(2.0, 1)];
        let mut new = vec![row(1.0, 0), row(2.0, 1)];
        new[1].score = f64::from_bits(2.0f64.to_bits() + 1);
        let events = diff_top_k(&old, &new);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            ChangeEvent::ScoreChange { rank: 1, .. }
        ));
        assert_eq!(bits(&apply_events(&old, &events, 2).unwrap()), bits(&new));
    }

    #[test]
    fn shrink_to_empty_is_all_exits() {
        let old = vec![row(1.0, 0), row(2.0, 1)];
        let events = diff_top_k(&old, &[]);
        assert_eq!(
            events,
            vec![ChangeEvent::Exit { rank: 0 }, ChangeEvent::Exit { rank: 1 }]
        );
        assert!(apply_events(&old, &events, 0).unwrap().is_empty());
    }

    #[test]
    fn replay_rejects_corrupted_streams() {
        let old = vec![row(1.0, 0), row(2.0, 1)];
        // A hole: rank 1 never filled.
        let err = apply_events(&old, &[ChangeEvent::Exit { rank: 1 }], 2).unwrap_err();
        assert!(err.contains("never filled"), "{err}");
        // A double fill: survivor keeps rank 0, enter also claims it.
        let err = apply_events(
            &old,
            &[ChangeEvent::Enter {
                rank: 0,
                row: row(9.0, 7),
            }],
            2,
        )
        .unwrap_err();
        assert!(err.contains("twice"), "{err}");
        // An old rank consumed twice.
        let err = apply_events(
            &old,
            &[
                ChangeEvent::Exit { rank: 0 },
                ChangeEvent::RankChange { from: 0, to: 0 },
            ],
            1,
        )
        .unwrap_err();
        assert!(err.contains("consumed twice"), "{err}");
    }

    #[test]
    fn randomized_diffs_always_replay_exactly() {
        // A tiny LCG keeps this deterministic without a rand dependency.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        for _ in 0..200 {
            let old_len = next(6);
            let new_len = next(6);
            let old: Vec<ResultRow> = (0..old_len)
                .map(|i| row(i as f64 + next(3) as f64 * 0.25, next(8)))
                .collect();
            // Dedup identities (identity = tuples) to honor the precondition
            // that a certified list never repeats a combination.
            let mut old_unique: Vec<ResultRow> = Vec::new();
            for r in old {
                if !old_unique.iter().any(|o| o.tuples == r.tuples) {
                    old_unique.push(r);
                }
            }
            let new: Vec<ResultRow> = (0..new_len)
                .map(|i| row(i as f64 + next(3) as f64 * 0.25, next(8)))
                .collect();
            let mut new_unique: Vec<ResultRow> = Vec::new();
            for r in new {
                if !new_unique.iter().any(|o| o.tuples == r.tuples) {
                    new_unique.push(r);
                }
            }
            let events = diff_top_k(&old_unique, &new_unique);
            let replayed = apply_events(&old_unique, &events, new_unique.len()).expect("replay");
            assert_eq!(bits(&replayed), bits(&new_unique));
        }
    }
}
