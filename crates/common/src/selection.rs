//! A selection of rows: one bit per row, 64 rows to a `u64` word.
//!
//! `Selection` is the engine's one row set: a column's valid rows
//! ([`crate::Column::validity`], parsed from and written back to a chunk's
//! validity header by [`Selection::from_bitmap`] and [`Selection::to_bitmap`])
//! and the rows a predicate keeps.
//!
//! A table scan filters each morsel into a selection and then materialises
//! only the rows it keeps. A filter ANDs verdict words into it
//! ([`Selection::refine`]) or clears the kept rows it rejects
//! ([`Selection::retain`]), and neither looks at a word that keeps nothing
//! any more. Columns are gathered from the words ([`Selection::for_each_range`]):
//! a run of words that keep all 64 rows is one contiguous range, and any
//! other word is walked by its set bits — or, when it keeps most of them, by
//! the rows it drops, copying the stretches in between. Storage gathers
//! encoded chunks this way (`EncodedChunk::decode_filtered`), and a decoded
//! [`crate::Column`] is gathered the same way by [`crate::Column::select`],
//! its validity by [`Selection::select`].

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// The rows of `0..len` for which `keep(row)` holds. A word's flags are
    /// computed in one loop, then packed.
    #[inline]
    pub fn from_fn(len: usize, keep: impl Fn(usize) -> bool) -> Selection {
        let mut selection = Selection::all(len);
        selection.refine(|rows| pack(rows.map(&keep)));
        selection
    }

    /// No rows yet, with room for `rows` before a word is reallocated.
    pub(crate) fn with_capacity(rows: usize) -> Selection {
        Selection {
            words: Vec::with_capacity(rows.div_ceil(WORD)),
            ..Selection::default()
        }
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

    /// The inverse of [`Selection::from_bitmap`]: `len.div_ceil(8)` bytes,
    /// row `i` at bit `i % 8` of byte `i / 8`, and the bits past `len` clear.
    pub fn to_bitmap(&self) -> Vec<u8> {
        let mut bytes: Vec<u8> = self.words.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.truncate(self.len.div_ceil(8));
        bytes
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

    /// Rows `row..row + n` (`n` in `1..=64`, all below `len`)
    /// as bits `0..n` of a word.
    #[inline]
    fn bits_at(&self, row: usize, n: usize) -> u64 {
        let (w, at) = (row / WORD, row % WORD);
        let next = (self.words.get(w + 1).filter(|_| at > 0)).map_or(0, |next| next << (WORD - at));
        (self.words[w] >> at | next) & u64::MAX >> (WORD - n)
    }

    /// Append `n` rows (`n` in `1..=64`), kept as bits `0..n` of `bits` say
    /// (no bit at or past `n` set): the low ones fill the last word's room,
    /// the rest start a new word.
    #[inline]
    fn append(&mut self, bits: u64, n: usize) {
        match self.len % WORD {
            0 => self.words.push(bits),
            at => {
                *self.words.last_mut().expect("a partial word") |= bits << at;
                if at + n > WORD {
                    self.words.push(bits >> (WORD - at));
                }
            }
        }
        self.len += n;
        self.count += bits.count_ones() as usize;
    }

    /// Append one row, kept or not.
    pub fn push(&mut self, keep: bool) {
        self.append(u64::from(keep), 1);
    }

    /// Append rows `rows` of `src`, kept as `src` keeps them: a word at a
    /// time, shifted to where this selection ends.
    pub fn extend_from(&mut self, src: &Selection, rows: Range<usize>) {
        assert!(rows.end <= src.len, "rows past the end of a selection");
        for row in rows.clone().step_by(WORD) {
            let n = (rows.end - row).min(WORD);
            self.append(src.bits_at(row, n), n);
        }
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

    /// Keep the rows `other` (over the same rows) keeps as well.
    pub fn or(&mut self, other: &Selection) {
        self.combine(other, |a, b| a | b);
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

    /// The rows `selection` (over the same rows) keeps, in row order, each
    /// kept when this selection keeps it: a validity narrowed to the kept
    /// rows, as [`crate::Column::select`] narrows the payload. A word that
    /// keeps every row is appended whole; any other has the bits at its kept
    /// rows moved down together, one kept row at a time.
    pub fn select(&self, selection: &Selection) -> Selection {
        assert_eq!(self.len, selection.len, "selections over different rows");
        let mut out = Selection::with_capacity(selection.count);
        for (&keep, &bits) in selection.words.iter().zip(&self.words) {
            let n = keep.count_ones() as usize;
            if n == WORD {
                out.append(bits, n);
            } else if n > 0 {
                let (mut packed, mut rows) = (0, keep);
                for k in 0..n {
                    packed |= (bits >> rows.trailing_zeros() & 1) << k;
                    rows &= rows - 1;
                }
                out.append(packed, n);
            }
        }
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

    fn of(flags: &[bool]) -> Selection {
        Selection::from_fn(flags.len(), |row| flags[row])
    }

    fn flags(s: &Selection) -> Vec<bool> {
        (0..s.len()).map(|row| s.contains(row)).collect()
    }

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
                let s = of(&flags);
                assert_eq!(s.len(), len);
                assert_eq!(s.count(), flags.iter().filter(|&&f| f).count());
                assert_eq!(self::flags(&s), flags);
                // Bits past the end stay clear.
                assert_eq!(Selection::all(len).count(), len);
                let mut bitmap = vec![0xffu8; len.div_ceil(8)];
                for (i, &f) in flags.iter().enumerate() {
                    if !f {
                        bitmap[i / 8] &= !(1 << (i % 8));
                    }
                }
                assert_eq!(Selection::from_bitmap(&bitmap, len), s, "len {len}");
                // Written back LSB first, with the bits past `len` clear.
                let mut lsb_first = vec![0u8; len.div_ceil(8)];
                for (i, _) in flags.iter().enumerate().filter(|&(_, &f)| f) {
                    lsb_first[i / 8] |= 1 << (i % 8);
                }
                assert_eq!(s.to_bitmap(), lsb_first, "len {len}");
                assert_eq!(Selection::from_bitmap(&s.to_bitmap(), len), s, "len {len}");
                // Pushed one row at a time, the same words.
                let mut pushed = Selection::default();
                flags.iter().for_each(|&f| pushed.push(f));
                assert_eq!(pushed, s, "len {len}");
            }
        }
    }

    #[test]
    fn gathers_and_ranges_keep_row_order() {
        for len in [1, 63, 64, 65, 130, 300] {
            let src: Vec<usize> = (0..len).collect();
            for flags in shapes(len) {
                let s = of(&flags);
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
                let other = Selection::from_fn(len, |i| i % 3 == 0);
                let narrowed = other.select(&s);
                assert_eq!(
                    self::flags(&narrowed),
                    kept.iter().map(|i| i % 3 == 0).collect::<Vec<_>>()
                );
                assert_eq!(
                    narrowed.count(),
                    kept.iter().filter(|&i| i % 3 == 0).count()
                );
            }
        }
    }

    #[test]
    fn refine_and_retain_skip_what_is_already_gone() {
        let len = 200;
        let mut s = Selection::from_fn(len, |i| i >= 64);
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

    /// Appending a range of another selection, at every offset into a word on
    /// either side: the bits and the count match a row-by-row copy.
    #[test]
    fn extend_from_copies_any_range_to_any_offset() {
        for len in [1, 63, 64, 65, 130] {
            for src in shapes(len).iter().map(|f| of(f)) {
                for start in [0, 1, 63, 64].into_iter().filter(|&s| s <= len) {
                    for end in [start, start + 1, start + 64, len]
                        .into_iter()
                        .filter(|&e| e <= len)
                    {
                        for before in [0, 1, 63, 64] {
                            let head = Selection::from_fn(before, |i| i % 2 == 1);
                            let mut s = head.clone();
                            s.extend_from(&src, start..end);
                            let mut expect = flags(&head);
                            expect.extend((start..end).map(|i| src.contains(i)));
                            assert_eq!(s, of(&expect), "{len} {start}..{end} after {before}");
                        }
                    }
                }
            }
        }
    }
}
