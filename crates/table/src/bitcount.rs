//! The bit-count kernels of the read path: whole-plane counts
//! ([`crate::RowSet::len`], [`crate::RowSet::intersection_len`]), the
//! per-group counts of planes over a grouping ([`GroupBy::counts`]) and
//! the rank cut of a group's runs ([`GroupBy::window`]).
//!
//! Each is defined through [`expred_stats::bit_kernels`], so it exists
//! twice: the copy named here, which runs with the POPCNT instruction on
//! an x86-64 CPU that reports it, and its [`portable`] copy, which is the
//! only one elsewhere and the reference the tests hold the other to.
//! Their answers are equal; only the instructions differ.

use crate::table::GroupBy;

expred_stats::bit_kernels! {
    /// The set bits of `plane`.
    pub fn count(plane: &[u64]) -> usize {
        let mut count = 0;
        for &word in plane {
            count += word.count_ones() as usize;
        }
        count
    }

    /// The set bits of `a & b`, over the words both planes hold.
    pub fn count_and(a: &[u64], b: &[u64]) -> usize {
        let mut count = 0;
        for (&a, &b) in a.iter().zip(b) {
            count += (a & b).count_ones() as usize;
        }
        count
    }

    /// Per group of `groups`, in group order, how many of its rows each
    /// of `planes` holds: a popcount of `plane[word] & mask` per run
    /// `(word, mask)` of the group and plane. Words past a plane's end
    /// hold no row.
    pub fn group_counts<const N: usize>(
        groups: &GroupBy,
        planes: [&[u64]; N],
    ) -> Vec<[usize; N]> {
        let mut counts = Vec::with_capacity(groups.num_groups());
        for g in 0..groups.num_groups() {
            let runs = groups.run_starts[g]..groups.run_starts[g + 1];
            let (words, masks) = (&groups.run_words[runs.clone()], &groups.run_masks[runs]);
            let mut count = [0; N];
            for (&word, &mask) in words.iter().zip(masks) {
                for (plane, count) in planes.iter().zip(&mut count) {
                    if let Some(&rows) = plane.get(word as usize) {
                        *count += (rows & mask).count_ones() as usize;
                    }
                }
            }
            counts.push(count);
        }
        counts
    }

    /// Where the rank range `lo..hi` of a group's rows falls among its
    /// runs' masks `masks` (ascending, as [`GroupBy::runs`] yields them):
    /// the run holding the row of rank `lo` and the run holding the row
    /// of rank `hi - 1`, each with the number of rows in the runs before
    /// it. Needs `lo < hi` and at most as many rows as `masks` hold.
    pub fn rank_cut(masks: &[u64], lo: usize, hi: usize) -> [(usize, usize); 2] {
        let (mut run, mut before) = (0, 0);
        loop {
            let count = masks[run].count_ones() as usize;
            if before + count > lo {
                break;
            }
            before += count;
            run += 1;
        }
        let first = (run, before);
        loop {
            let count = masks[run].count_ones() as usize;
            if before + count >= hi {
                break;
            }
            before += count;
            run += 1;
        }
        [first, (run, before)]
    }
}
