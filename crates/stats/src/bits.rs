//! Bit-plane helpers shared by every layer that keeps rows as 64-row
//! words (row sets, the evaluation caches, the durable index), and
//! [`bit_kernels!`](crate::bit_kernels), which compiles a bit-count
//! kernel twice — with POPCNT where the CPU has it, and portably.
//!
//! [`PagePlanes`] is the one plain page type of the workspace: what the
//! live cache offers its spill sink, what the durable index holds and
//! writes as snapshot images, and what rehydration copies back into the
//! live cache. A crossing between those layers is a slice of `(page
//! number, PagePlanes)`, page `p` holding rows `PAGE_ROWS * p ..
//! PAGE_ROWS * (p + 1)`, so no layer translates pages into rows and back.

/// Rows per page: 64 words of 64 rows. The one page size of the
/// workspace — the live cache's pages, the durable tier's WAL frames and
/// snapshot images, and the synthetic generator's per-page streams.
pub const PAGE_ROWS: usize = 4_096;

/// 64-row words per page.
pub const PAGE_WORDS: usize = PAGE_ROWS / 64;

/// Defines bit-count kernels twice over: a portable copy of each, and a
/// copy compiled for POPCNT that runs where the CPU reports it.
///
/// The default x86-64 target promises only SSE2, so a plain
/// `count_ones` compiles to a software count of about a dozen
/// instructions. Each kernel given here becomes
///
/// * `portable::name` — the body as written, `#[inline(always)]`: the
///   only copy off x86-64, and the reference the selected copy is
///   tested against;
/// * `name` — the copy callers use: on x86-64, the body compiled under
///   `#[target_feature(enable = "popcnt")]` when
///   `is_x86_feature_detected!("popcnt")` holds, else the portable copy.
///
/// Only code inlined into the feature-enabled copy gets the instruction:
/// a closure or an iterator adaptor compiles as a function of its own,
/// without the feature. So write a body as plain loops, and mark any
/// helper holding a count `#[inline(always)]`.
///
/// One invocation per module (it defines the modules `portable` and
/// `popcnt` there); the kernels' argument types resolve as in that
/// module.
#[macro_export]
macro_rules! bit_kernels {
    ($(
        $(#[$attr:meta])*
        pub fn $name:ident $(<const $n:ident: usize>)? ($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty
        $body:block
    )*) => {
        /// The portable copy of every kernel of this module: the only
        /// copy off x86-64, and the reference the selected copies are
        /// tested against.
        pub mod portable {
            #[allow(unused_imports)]
            use super::*;
            $(
                $(#[$attr])*
                #[inline(always)]
                pub fn $name $(<const $n: usize>)? ($($arg: $ty),*) -> $ret $body
            )*
        }

        #[cfg(target_arch = "x86_64")]
        mod popcnt {
            #[allow(unused_imports)]
            use super::*;
            $(
                #[target_feature(enable = "popcnt")]
                pub(super) fn $name $(<const $n: usize>)? ($($arg: $ty),*) -> $ret {
                    super::portable::$name($($arg),*)
                }
            )*
        }

        $(
            $(#[$attr])*
            #[inline]
            pub fn $name $(<const $n: usize>)? ($($arg: $ty),*) -> $ret {
                #[cfg(target_arch = "x86_64")]
                if ::std::arch::is_x86_feature_detected!("popcnt") {
                    // SAFETY: this copy needs POPCNT, and the CPU running
                    // it has just reported the feature.
                    return unsafe { popcnt::$name($($arg),*) };
                }
                portable::$name($($arg),*)
            }
        )*
    };
}

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

/// The answers of one page as bit planes: bit `i` of `known[w]` says row
/// `64 * w + i` of the page has an answer, the same bit of `answer[w]` is
/// that answer (zero where `known` is).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagePlanes {
    /// Which rows of the page hold an answer.
    pub known: [u64; PAGE_WORDS],
    /// The answers, under `known`.
    pub answer: [u64; PAGE_WORDS],
}

impl PagePlanes {
    /// A page without answers.
    pub const fn empty() -> Self {
        Self {
            known: [0; PAGE_WORDS],
            answer: [0; PAGE_WORDS],
        }
    }

    /// Merges the rows of `known` in word `word`, answers in `answer`;
    /// the first write per row wins. Returns the mask of rows that were
    /// new.
    #[inline]
    pub fn merge(&mut self, word: usize, known: u64, answer: u64) -> u64 {
        let new = known & !self.known[word];
        self.known[word] |= new;
        self.answer[word] |= answer & new;
        new
    }

    /// Every answer as `(row, answer)`, ascending, for the page whose
    /// first row is `first`.
    pub fn rows(&self, first: usize) -> impl Iterator<Item = (usize, bool)> + '_ {
        (0..PAGE_WORDS).flat_map(move |w| {
            let (known, answer) = (self.known[w], self.answer[w]);
            bits(known).map(move |bit| (first + w * 64 + bit as usize, answer >> bit & 1 != 0))
        })
    }

    /// Number of answers on the page.
    pub fn len(&self) -> usize {
        self.known.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the page holds no answer.
    pub fn is_empty(&self) -> bool {
        self.known.iter().all(|&w| w == 0)
    }
}

/// `(row, answer)` pairs as the pages they touch, ascending by page; the
/// first answer heard per row wins. A row on the page of the row before
/// it goes straight to that page; any other finds its page through a
/// sorted index of page numbers. So a batch costs one merge per row and a
/// lookup per change of page.
pub fn pages_of(rows: impl IntoIterator<Item = (usize, bool)>) -> Vec<(usize, PagePlanes)> {
    let mut pages = Vec::new();
    // `(page number, position in pages)`, ascending by page number.
    let mut index: Vec<(usize, usize)> = Vec::new();
    let (mut page, mut at) = (usize::MAX, 0);
    for (row, answer) in rows {
        if row / PAGE_ROWS != page {
            page = row / PAGE_ROWS;
            at = match index.binary_search_by_key(&page, |&(page, _)| page) {
                Ok(found) => index[found].1,
                Err(place) => {
                    index.insert(place, (page, pages.len()));
                    pages.push((page, PagePlanes::empty()));
                    pages.len() - 1
                }
            };
        }
        let bit = row % 64;
        pages[at]
            .1
            .merge(row % PAGE_ROWS / 64, 1 << bit, u64::from(answer) << bit);
    }
    pages.sort_unstable_by_key(|&(page, _)| page);
    pages
}

/// Every answer of `pages` as `(row, answer)`, in page order.
pub fn rows_of(pages: &[(usize, PagePlanes)]) -> impl Iterator<Item = (usize, bool)> + '_ {
    pages
        .iter()
        .flat_map(|(page, planes)| planes.rows(page * PAGE_ROWS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_keeps_the_first_write_and_reports_new_rows() {
        let mut planes = PagePlanes::empty();
        assert!(planes.is_empty());
        assert_eq!(planes.merge(1, 0b110, 0b100), 0b110);
        assert_eq!(
            planes.merge(1, 0b100, 0b000),
            0,
            "a known row keeps its answer"
        );
        assert_eq!(planes.merge(1, 0b1001, 0b1111), 0b1001);
        assert_eq!((planes.known[1], planes.answer[1]), (0b1111, 0b1101));
        assert_eq!(planes.len(), 4);
        let rows: Vec<(usize, bool)> = planes.rows(0).collect();
        assert_eq!(rows, [(64, true), (65, false), (66, true), (67, true)]);
    }

    #[test]
    fn pages_of_and_rows_of_round_trip_across_page_edges() {
        let rows = [
            (8_192, true),
            (4_095, false),
            (0, true),
            (4_096, true),
            (4_095, true),
        ];
        let pages = pages_of(rows);
        assert_eq!(
            pages.iter().map(|p| (p.0, p.1.len())).collect::<Vec<_>>(),
            [(0, 2), (1, 1), (2, 1)]
        );
        let back: Vec<(usize, bool)> = rows_of(&pages).collect();
        assert_eq!(
            back,
            [(0, true), (4_095, false), (4_096, true), (8_192, true)]
        );
        assert!(pages_of([]).is_empty());
    }
}
