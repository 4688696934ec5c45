//! [`RowSet`]: a set of dense row ids as one packed bit plane.
//!
//! Row ids are dense integers in `[0, num_rows)`, so a set of them — a
//! query's answer, the ground truth, a labelled sample — is a plane of
//! 64-row words: membership is a load, a union is an OR per word, the
//! size of an intersection a popcount per word, and the ascending id
//! list is the plane read out in order (no sort). Word `w`, bit `i`
//! speaks for row `64 * w + i` — the layout [`crate::table::GroupBy::runs`]
//! and the evaluation caches' planes share, so a group's rows meet a set
//! one `mask & word` at a time.

pub use expred_stats::bits::bits;

/// A set of row ids drawn from `[0, rows)`. Equality compares planes:
/// two sets are equal when they hold the same rows *and* were sized for
/// the same number of 64-row words — always so for answers over one table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowSet {
    words: Vec<u64>,
}

impl RowSet {
    /// The empty set over rows `[0, rows)`.
    pub fn new(rows: usize) -> Self {
        Self {
            words: vec![0; rows.div_ceil(64)],
        }
    }

    /// Every row of `[0, rows)`.
    pub fn full(rows: usize) -> Self {
        let mut words = vec![u64::MAX; rows.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - rows % 64) % 64;
        }
        Self { words }
    }

    /// The set whose word `w` is `words[w]` (the layout of
    /// [`RowSet::words`]). Bits past the last row the set is meant to
    /// hold must be clear.
    pub fn from_words(words: Vec<u64>) -> Self {
        Self { words }
    }

    /// The set of `ids` over rows `[0, rows)` (any order, repeats merge).
    ///
    /// # Panics
    ///
    /// If an id is past the end the set is sized for.
    pub fn from_ids(rows: usize, ids: impl IntoIterator<Item = u32>) -> Self {
        let mut set = Self::new(rows);
        for id in ids {
            set.insert(id as usize);
        }
        set
    }

    /// The rows of `[0, flags.len())` whose flag is set, in one pass.
    pub fn from_flags(flags: impl ExactSizeIterator<Item = bool>) -> Self {
        let mut set = Self::new(flags.len());
        for (row, flag) in flags.enumerate() {
            set.words[row / 64] |= u64::from(flag) << (row % 64);
        }
        set
    }

    /// Grows the set to rows `[0, rows)`, `rows` at least what it was
    /// sized for: the words a longer table needs are appended empty.
    pub(crate) fn grow(&mut self, rows: usize) {
        self.words.resize(rows.div_ceil(64), 0);
    }

    /// Adds `row`.
    ///
    /// # Panics
    ///
    /// If `row` is past the end the set was sized for.
    #[inline]
    pub fn insert(&mut self, row: usize) {
        self.words[row / 64] |= 1 << (row % 64);
    }

    /// Adds the rows of word `word` whose bits are set in `rows`.
    ///
    /// # Panics
    ///
    /// If `word` is past the end the set was sized for.
    #[inline]
    pub fn insert_word(&mut self, word: usize, rows: u64) {
        self.words[word] |= rows;
    }

    /// Whether `row` is in the set (`false` past the end).
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        self.word(row / 64) & (1 << (row % 64)) != 0
    }

    /// The members among rows `[64 * word, 64 * word + 64)`; zero past
    /// the end.
    #[inline]
    pub fn word(&self, word: usize) -> u64 {
        self.words.get(word).copied().unwrap_or(0)
    }

    /// The whole plane, word 0 first — what a consumer that walks set
    /// bits itself (the JSON id writer) reads instead of an id list.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Adds every row of `other`, a set over the same rows.
    pub fn union_with(&mut self, other: &RowSet) {
        for (word, &add) in self.words.iter_mut().zip(&other.words) {
            *word |= add;
        }
    }

    /// Removes every row of `other`, a set over the same rows.
    pub fn difference_with(&mut self, other: &RowSet) {
        for (word, &remove) in self.words.iter_mut().zip(&other.words) {
            *word &= !remove;
        }
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        crate::bitcount::count(&self.words)
    }

    /// Whether the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of rows in both `self` and `other`.
    pub fn intersection_len(&self, other: &RowSet) -> usize {
        crate::bitcount::count_and(&self.words, &other.words)
    }

    /// The rows of the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| bits(word).map(move |bit| w as u32 * 64 + bit))
    }

    /// The rows of the set as an ascending id list.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut rows = Vec::with_capacity(self.len());
        rows.extend(self.iter());
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_come_out_ascending() {
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(bits(1 << 63 | 1).collect::<Vec<_>>(), vec![0, 63]);
        assert_eq!(bits(u64::MAX).count(), 64);
    }

    #[test]
    fn membership_and_read_out_across_word_boundaries() {
        let mut set = RowSet::new(130);
        assert!(set.is_empty());
        for row in [129, 0, 64, 63, 64] {
            set.insert(row);
        }
        set.insert_word(1, 0b110);
        assert_eq!(set.to_vec(), vec![0, 63, 64, 65, 66, 129]);
        assert_eq!(set.len(), 6);
        assert!(set.contains(65) && !set.contains(1));
        assert!(!set.contains(130) && !set.contains(usize::MAX));
        assert_eq!((set.word(1), set.word(9)), (0b111, 0));
    }

    #[test]
    fn iter_is_the_ascending_read_out() {
        assert_eq!(RowSet::new(0).iter().count(), 0);
        assert_eq!(RowSet::new(200).iter().count(), 0);
        let mut set = RowSet::new(200);
        for row in [199, 64, 0, 63, 128] {
            set.insert(row);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 128, 199]);
        assert_eq!(set.iter().collect::<Vec<_>>(), set.to_vec());
        assert_eq!(set.words().len(), 4);
        assert_eq!(set.words()[1], 1);
    }

    #[test]
    fn from_ids_ignores_order_and_repeats() {
        let set = RowSet::from_ids(130, [129, 5, 64, 5, 0]);
        assert_eq!(set.to_vec(), vec![0, 5, 64, 129]);
        assert_eq!(set, RowSet::from_ids(130, set.iter()));
        // Equality is of planes: the same ids over a longer table differ.
        assert_ne!(set, RowSet::from_ids(300, set.iter()));
        assert!(RowSet::from_ids(0, []).is_empty());
    }

    #[test]
    #[should_panic]
    fn from_ids_rejects_an_id_past_the_end() {
        RowSet::from_ids(64, [64]);
    }

    #[test]
    fn from_flags_and_intersections() {
        let flags: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let thirds = RowSet::from_flags(flags.iter().copied());
        assert_eq!(thirds.len(), 67);
        let want: Vec<u32> = (0..200).filter(|i| i % 3 == 0).collect();
        assert_eq!(thirds.to_vec(), want);
        let evens = RowSet::from_flags((0..200).map(|i| i % 2 == 0));
        assert_eq!(thirds.intersection_len(&evens), 34);
        assert_eq!(thirds.intersection_len(&RowSet::new(200)), 0);
    }

    #[test]
    fn full_sets_and_plane_algebra() {
        for rows in [0, 1, 63, 64, 65, 200] {
            let full = RowSet::full(rows);
            assert_eq!(full.to_vec(), (0..rows as u32).collect::<Vec<_>>());
            assert_eq!(full, RowSet::from_flags((0..rows).map(|_| true)));
        }
        let thirds = RowSet::from_flags((0..200).map(|i| i % 3 == 0));
        let evens = RowSet::from_flags((0..200).map(|i| i % 2 == 0));
        let mut either = thirds.clone();
        either.union_with(&evens);
        assert_eq!(
            either,
            RowSet::from_flags((0..200).map(|i| i % 3 == 0 || i % 2 == 0))
        );
        let mut odd_thirds = thirds.clone();
        odd_thirds.difference_with(&evens);
        assert_eq!(odd_thirds, RowSet::from_flags((0..200).map(|i| i % 6 == 3)));
        assert_eq!(RowSet::from_words(thirds.words().to_vec()), thirds);
    }
}
