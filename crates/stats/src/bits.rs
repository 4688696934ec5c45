//! Bit-plane helpers shared by every layer that keeps rows as 64-row
//! words (row sets, the evaluation caches, the durable index).

/// Rows per page: 64 words of 64 rows. The one page size of the
/// workspace — the live cache's pages, the durable tier's WAL frames and
/// snapshot images, and the synthetic generator's per-page streams.
pub const PAGE_ROWS: usize = 4_096;

/// The positions of `word`'s set bits, ascending.
#[inline]
pub fn bits(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            bit
        })
    })
}
