//! A selection of rows: one bit per row, 64 rows to a `u64` word.
//!
//! A table scan filters each morsel into a [`Selection`] and then
//! materialises only the rows it keeps. A filter ANDs verdict words into it
//! ([`Selection::refine`]) or clears the kept rows it rejects
//! ([`Selection::retain`]), and neither looks at a word that keeps nothing
//! any more. Columns are gathered from the words ([`Selection::for_each_range`]):
//! a run of words that keep all 64 rows is one contiguous range, and any
//! other word is walked by its set bits — or, when it keeps most of them, by
//! the rows it drops, copying the stretches in between. Storage gathers
//! encoded chunks this way (`EncodedChunk::decode_filtered`), and a decoded
//! [`crate::Column`] is gathered the same way by [`crate::Column::select`].

use std::convert::Infallible;
use std::ops::Range;

/// Rows per word.
const WORD: usize = 64;

/// Kept rows from which a word is gathered by the stretches between the
/// rows it drops rather than one kept row at a time: at 16 dropped rows or
/// fewer the stretches average three rows or more, and a copy of three
/// rows costs less than three single ones.
const DENSE: u32 = 48;

/// Rows `0..len`, some of them kept: bit `i % 64` of word `i / 64` keeps row
/// `i`. Bits at or past `len` are always clear, and `count` is the number of
/// set bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    words: Vec<u64>,
    len: usize,
    count: usize,
}

impl Selection {
    /// Every row of `0..len`.
    pub fn all(len: usize) -> Selection {
        let mut words = vec![u64::MAX; len.div_ceil(WORD)];
        if let Some(last) = words.last_mut().filter(|_| !len.is_multiple_of(WORD)) {
            *last = (1 << (len % WORD)) - 1;
        }
        Selection {
            words,
            len,
            count: len,
        }
    }

    /// The rows whose flag is set.
    pub fn from_bools(flags: &[bool]) -> Selection {
        let mut selection = Selection::all(flags.len());
        selection.refine_flags(flags, |keep| keep);
        selection
    }

    /// The rows of `0..len` whose bit is set in an LSB-first bitmap of
    /// `len.div_ceil(8)` bytes, such as a chunk's validity header: eight
    /// bytes, little-endian, are one word. Bits past `len` are ignored.
    pub fn from_bitmap(bytes: &[u8], len: usize) -> Selection {
        let mut selection = Selection::all(len);
        for (word, eight) in selection.words.iter_mut().zip(bytes.chunks(8)) {
            let mut le = [0u8; 8];
            le[..eight.len()].copy_from_slice(eight);
            *word &= u64::from_le_bytes(le);
        }
        selection.recount();
        selection
    }

    /// Rows covered, kept or not.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows kept.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether row `row` is kept.
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        self.words[row / WORD] >> (row % WORD) & 1 == 1
    }

    /// One flag per row.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|row| self.contains(row)).collect()
    }

    /// Keep no row.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Keep only the rows `other` (over the same rows) keeps too.
    pub fn and(&mut self, other: &Selection) {
        self.combine(other, |a, b| a & b);
    }

    /// Keep only the rows `other` (over the same rows) does not keep.
    pub fn and_not(&mut self, other: &Selection) {
        self.combine(other, |a, b| a & !b);
    }

    fn combine(&mut self, other: &Selection, f: impl Fn(u64, u64) -> u64) {
        assert_eq!(self.len, other.len, "selections over different rows");
        for (word, &theirs) in self.words.iter_mut().zip(&other.words) {
            *word = f(*word, theirs);
        }
        self.recount();
    }

    fn recount(&mut self) {
        self.count = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// AND into every word that still keeps a row the word `verdict` gives
    /// for that word's rows (bit `i` for row `rows.start + i`; bits at or past
    /// `rows.len()` do not matter). Words that keep nothing are skipped, so
    /// `verdict` sees ascending ranges of rows and never one of theirs.
    #[inline]
    pub fn refine(&mut self, mut verdict: impl FnMut(Range<usize>) -> u64) {
        let mut count = 0;
        for (w, word) in self.words.iter_mut().enumerate() {
            if *word != 0 {
                let start = w * WORD;
                *word &= verdict(start..(start + WORD).min(self.len));
                count += word.count_ones() as usize;
            }
        }
        self.count = count;
    }

    /// [`Selection::refine`] by one flag per row: `flag(src[row])`, where
    /// `src` holds one element per row. The flags of a word are computed in
    /// one loop without a branch, which LLVM vectorises, then packed.
    #[inline]
    pub fn refine_flags<S: Copy>(&mut self, src: &[S], flag: impl Fn(S) -> bool) {
        assert_eq!(src.len(), self.len, "one flag per row");
        self.refine(|rows| pack(src[rows].iter().map(|&s| flag(s))));
    }

    /// Clear every kept row that `keep` rejects. `keep` is asked about kept
    /// rows only, in row order; its first error stops the walk and is
    /// returned, with the rows it had not reached still kept.
    pub fn try_retain<E>(
        &mut self,
        mut keep: impl FnMut(usize) -> Result<bool, E>,
    ) -> Result<(), E> {
        let mut result = Ok(());
        'words: for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                match keep(w * WORD + bit as usize) {
                    Ok(true) => {}
                    Ok(false) => *word &= !(1 << bit),
                    Err(e) => {
                        result = Err(e);
                        break 'words;
                    }
                }
            }
        }
        self.recount();
        result
    }

    /// [`Selection::try_retain`] for a test that cannot fail.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let Ok(()) = self.try_retain(|row| Ok::<_, Infallible>(keep(row)));
    }

    /// The kept rows in order, as ranges. A word that keeps at least 48 of
    /// its rows (`DENSE`) is walked by the rows it drops: the stretches
    /// between them are ranges, and a stretch that reaches the word's end
    /// goes on into the next word, so a run of words that keep every row is
    /// one range. Any other word is walked by its set bits, a range of one
    /// row each.
    #[inline]
    pub fn for_each_range(&self, mut f: impl FnMut(Range<usize>)) {
        // The start of a stretch of kept rows that reaches the current word.
        let mut open: Option<usize> = None;
        for (w, &word) in self.words.iter().enumerate() {
            let start = w * WORD;
            if word.count_ones() >= DENSE {
                let mut from = open.take().unwrap_or(start);
                let mut dropped = !word;
                while dropped != 0 {
                    let row = start + dropped.trailing_zeros() as usize;
                    dropped &= dropped - 1;
                    if row > from {
                        f(from..row);
                    }
                    from = row + 1;
                }
                open = (from < start + WORD).then_some(from);
                continue;
            }
            if let Some(from) = open.take() {
                f(from..start);
            }
            let mut bits = word;
            while bits != 0 {
                let row = start + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(row..row + 1);
            }
        }
        if let Some(from) = open {
            f(from..self.len);
        }
    }

    /// `map` of the kept rows' elements of `src` (one element per row), in
    /// row order: a range of rows is one pass over a subslice.
    #[inline]
    pub fn gather_map<S: Copy, T>(&self, src: &[S], map: impl Fn(S) -> T) -> Vec<T> {
        assert_eq!(src.len(), self.len, "one element per row");
        let mut out = Vec::with_capacity(self.count);
        self.for_each_range(|rows| {
            if rows.len() == 1 {
                out.push(map(src[rows.start]));
            } else {
                out.extend(src[rows].iter().map(|&s| map(s)));
            }
        });
        out
    }

    /// The kept rows' elements of `src` (one element per row), in row order.
    pub fn gather<T: Copy>(&self, src: &[T]) -> Vec<T> {
        self.gather_map(src, |x| x)
    }

    /// Whether `of` (over the same rows) keeps each row this selection
    /// keeps, in row order: a validity header narrowed to the kept rows.
    pub fn gather_bits(&self, of: &Selection) -> Vec<bool> {
        assert_eq!(self.len, of.len, "selections over different rows");
        let mut out = Vec::with_capacity(self.count);
        self.for_each_range(|rows| out.extend(rows.map(|row| of.contains(row))));
        out
    }
}

/// Up to 64 flags as the bits of a word, flag `i` at bit `i`. The flags are
/// written as bytes by a loop without a branch, then gathered eight at a
/// time by the multiply that moves the low bit of each of eight bytes into
/// the top byte.
#[inline]
fn pack(flags: impl Iterator<Item = bool>) -> u64 {
    let mut bytes = [0u8; WORD];
    for (byte, flag) in bytes.iter_mut().zip(flags) {
        *byte = u8::from(flag);
    }
    let mut word = 0;
    for (i, eight) in bytes.as_chunks::<8>().0.iter().enumerate() {
        let packed = u64::from_le_bytes(*eight).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        word |= packed << (8 * i);
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flags of every shape the words have an edge for, at lengths around a
    /// word: none, all, alternating, the first and last row of each word, and
    /// whole words beside partial ones.
    fn shapes(len: usize) -> Vec<Vec<bool>> {
        vec![
            vec![false; len],
            vec![true; len],
            (0..len).map(|i| i % 2 == 0).collect(),
            (0..len).map(|i| i % 64 == 0 || i % 64 == 63).collect(),
            (0..len).map(|i| (i / 64) % 2 == 0 || i % 7 == 3).collect(),
            (0..len).map(|i| i + 1 == len).collect(),
            // Dense words: a few dropped rows, at either end and together.
            (0..len)
                .map(|i| !matches!(i % 64, 0 | 5 | 6 | 63))
                .collect(),
            (0..len).map(|i| i % 64 != 17 || i / 64 % 2 == 1).collect(),
        ]
    }

    #[test]
    fn words_agree_with_flags() {
        for len in [0, 1, 63, 64, 65, 128, 200] {
            for flags in shapes(len) {
                let s = Selection::from_bools(&flags);
                assert_eq!(s.len(), len);
                assert_eq!(s.count(), flags.iter().filter(|&&f| f).count());
                assert_eq!(s.to_bools(), flags);
                // Bits past the end stay clear.
                assert_eq!(Selection::all(len).count(), len);
                let mut bitmap = vec![0xffu8; len.div_ceil(8)];
                for (i, &f) in flags.iter().enumerate() {
                    if !f {
                        bitmap[i / 8] &= !(1 << (i % 8));
                    }
                }
                assert_eq!(Selection::from_bitmap(&bitmap, len), s, "len {len}");
            }
        }
    }

    #[test]
    fn gathers_and_ranges_keep_row_order() {
        for len in [1, 63, 64, 65, 130, 300] {
            let src: Vec<usize> = (0..len).collect();
            for flags in shapes(len) {
                let s = Selection::from_bools(&flags);
                let kept: Vec<usize> = (0..len).filter(|&i| flags[i]).collect();
                assert_eq!(s.gather(&src), kept);
                assert_eq!(
                    s.gather_map(&src, |i| i * 2),
                    kept.iter().map(|i| i * 2).collect::<Vec<_>>()
                );
                let mut ranges = Vec::new();
                s.for_each_range(|r| ranges.push(r));
                assert_eq!(
                    ranges.iter().flat_map(|r| r.clone()).collect::<Vec<_>>(),
                    kept
                );
                // Ascending, disjoint, none empty; every row kept is one range.
                assert!(ranges.iter().all(|r| !r.is_empty()));
                assert!(ranges.windows(2).all(|p| p[0].end <= p[1].start));
                if flags.iter().all(|&f| f) && len % 64 == 0 {
                    assert_eq!(ranges.len(), 1);
                    assert_eq!(ranges[0], 0..len);
                }
                let other =
                    Selection::from_bools(&(0..len).map(|i| i % 3 == 0).collect::<Vec<_>>());
                assert_eq!(
                    s.gather_bits(&other),
                    kept.iter().map(|i| i % 3 == 0).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn refine_and_retain_skip_what_is_already_gone() {
        let len = 200;
        let mut s = Selection::from_bools(&(0..len).map(|i| i >= 64).collect::<Vec<_>>());
        let mut seen = Vec::new();
        s.refine(|rows| {
            seen.push(rows.clone());
            !0 << 1
        });
        // The first word keeps nothing and is never asked about.
        assert_eq!(seen, [64..128, 128..192, 192..200]);
        assert_eq!(s.count(), len - 64 - 3);
        let mut asked = Vec::new();
        s.retain(|row| {
            asked.push(row);
            row % 2 == 0
        });
        assert_eq!(asked, (64..200).filter(|r| r % 64 != 0).collect::<Vec<_>>());
        assert_eq!(
            s.count(),
            (64..200).filter(|r| r % 64 != 0 && r % 2 == 0).count()
        );
        // An error stops the walk and leaves the rows it did not reach.
        let before = s.count();
        let err = s.try_retain(|row| if row > 100 { Err(row) } else { Ok(false) });
        assert_eq!(err, Err(102));
        assert_eq!(
            s.count(),
            before - (66..=100).filter(|r| r % 2 == 0).count()
        );
        let mut t = Selection::all(len);
        t.and_not(&s);
        assert_eq!(t.count(), len - s.count());
        t.and(&s);
        assert_eq!(t.count(), 0);
    }
}
