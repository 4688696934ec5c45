//! [`RowBits`]: a dense, lock-free `row -> bool` memo.
//!
//! Row ids are dense integers in `[0, num_rows)`, so a memo of boolean
//! answers needs no hashing and no locks: two bit planes — `known`
//! (has this row been answered?) and `answer` — one bit per row each.
//! A lookup is two loads — for up to 64 neighbouring rows at once
//! ([`RowBits::word`]); an insert is at most two atomic ORs, and the
//! *previous* value of the `known` bit tells the caller whether it was
//! the one that made the row known (what keeps a promotion charged
//! exactly once when two workers race on the same row).
//!
//! # Publication order
//!
//! A writer lands the `answer` bit before it sets the `known` bit
//! (`Release`); a reader loads `known` (`Acquire`) before `answer`. A
//! reader that sees a row as known therefore sees its answer.

use std::sync::atomic::{AtomicU64, Ordering};

/// A zeroed plane of `words` atomic 64-bit words.
pub(crate) fn zeroed_plane(words: usize) -> Box<[AtomicU64]> {
    (0..words).map(|_| AtomicU64::new(0)).collect()
}

/// Makes the bits of `mask` in `word` equal `value`'s bits, touching the
/// cache line for writing only when something actually changes.
#[inline]
pub(crate) fn assign_bits(word: &AtomicU64, mask: u64, value: u64, order: Ordering) {
    let current = word.load(Ordering::Relaxed);
    let set = value & mask & !current;
    let clear = !value & mask & current;
    if set != 0 {
        word.fetch_or(set, order);
    }
    if clear != 0 {
        word.fetch_and(!clear, order);
    }
}

/// A concurrent `row -> bool` memo over the rows `[0, rows)`.
///
/// All operations take `&self` and never block. Answers are expected to
/// be row-deterministic (every writer of a row writes the same answer);
/// a conflicting re-insert simply overwrites.
#[derive(Debug)]
pub struct RowBits {
    known: Box<[AtomicU64]>,
    answer: Box<[AtomicU64]>,
}

impl RowBits {
    /// An empty memo able to hold rows `[0, rows)`.
    pub fn new(rows: usize) -> Self {
        let words = rows.div_ceil(64);
        Self {
            known: zeroed_plane(words),
            answer: zeroed_plane(words),
        }
    }

    /// The `(known, answer)` planes of rows `[64 * word, 64 * word + 64)`
    /// — bit `i` speaks for row `64 * word + i`; both zero past the end.
    /// `answer` bits are meaningful only where `known` is set.
    #[inline]
    pub fn word(&self, word: usize) -> (u64, u64) {
        match self.known.get(word) {
            Some(known) => (
                known.load(Ordering::Acquire),
                self.answer[word].load(Ordering::Relaxed),
            ),
            None => (0, 0),
        }
    }

    /// The memoized answer for `row`; `None` for unknown rows, including
    /// rows past the end.
    #[inline]
    pub fn get(&self, row: usize) -> Option<bool> {
        let (known, answer) = self.word(row / 64);
        let bit = 1u64 << (row % 64);
        (known & bit != 0).then_some(answer & bit != 0)
    }

    /// Memoizes `answer` for `row`. Returns whether this call made the
    /// row known (`false` when it already was).
    ///
    /// # Panics
    ///
    /// If `row` is past the end the memo was sized for.
    #[inline]
    pub fn insert(&self, row: usize, answer: bool) -> bool {
        let bit = 1u64 << (row % 64);
        self.merge_word(row / 64, bit, if answer { bit } else { 0 }) != 0
    }

    /// Memoizes up to 64 rows of one word at once: the rows whose bits
    /// are set in `known`, with their answers in `answer`. Returns the
    /// mask of rows this call made known.
    ///
    /// # Panics
    ///
    /// If `word` is past the end the memo was sized for.
    #[inline]
    pub fn merge_word(&self, word: usize, known: u64, answer: u64) -> u64 {
        assign_bits(&self.answer[word], known, answer, Ordering::Release);
        known & !self.known[word].fetch_or(known, Ordering::AcqRel)
    }

    /// Forgets `row`, returning the answer it held.
    pub fn remove(&self, row: usize) -> Option<bool> {
        let bit = 1u64 << (row % 64);
        let known = self.known.get(row / 64)?.fetch_and(!bit, Ordering::AcqRel);
        (known & bit != 0).then(|| self.answer[row / 64].load(Ordering::Relaxed) & bit != 0)
    }

    /// Number of memoized rows (exact only while no writers are active).
    pub fn len(&self) -> usize {
        self.known
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Whether no row is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_round_trips_at_word_boundaries() {
        let memo = RowBits::new(130);
        assert!(memo.is_empty());
        for row in [0, 63, 64, 127, 128, 129] {
            assert_eq!(memo.get(row), None);
            assert!(memo.insert(row, row % 2 == 0), "row {row} is new");
            assert_eq!(memo.get(row), Some(row % 2 == 0));
            assert!(!memo.insert(row, row % 2 == 0), "row {row} was known");
        }
        assert_eq!(memo.len(), 6);
        assert_eq!(memo.get(1), None, "neighbours stay unknown");
        assert_eq!(memo.get(130), None, "past the end is unknown");
        assert_eq!(memo.get(usize::MAX), None);
    }

    #[test]
    fn reinsert_overwrites_the_answer() {
        let memo = RowBits::new(8);
        memo.insert(3, true);
        assert!(!memo.insert(3, false));
        assert_eq!(memo.get(3), Some(false));
        assert_eq!(memo.remove(3), Some(false));
        assert_eq!(
            (memo.remove(3), memo.get(3), memo.remove(8)),
            (None, None, None)
        );
        assert!(memo.insert(3, true), "a removed row is new again");
        assert_eq!(RowBits::new(0).get(0), None);
    }

    #[test]
    fn merge_word_reports_only_newly_known_rows() {
        let memo = RowBits::new(128);
        memo.insert(64, true);
        let fresh = memo.merge_word(1, 0b111, 0b010);
        assert_eq!(fresh, 0b110, "row 64 was already known");
        assert_eq!(memo.get(64), Some(false), "merge overwrites answers");
        assert_eq!(memo.get(65), Some(true));
        assert_eq!(memo.get(66), Some(false));
        assert_eq!(memo.merge_word(1, 0, 0), 0);
    }

    #[test]
    fn exactly_one_racing_inserter_wins_each_row() {
        let memo = RowBits::new(4_096);
        let barrier = std::sync::Barrier::new(8);
        let wins: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        (0..4_096)
                            .filter(|&row| memo.insert(row, row % 3 == 0))
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, 4_096, "every row has exactly one first writer");
        for row in 0..4_096 {
            assert_eq!(memo.get(row), Some(row % 3 == 0));
        }
    }
}
