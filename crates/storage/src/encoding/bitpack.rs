//! Bit-level packing primitives: boolean/validity bitmaps and fixed-width
//! packed unsigned integers (used for dictionary codes).

/// Pack booleans LSB-first into bytes.
pub fn pack_bools(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Unpack `n` booleans packed by [`pack_bools`].
pub fn unpack_bools(bytes: &[u8], n: usize) -> Vec<bool> {
    (0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect()
}

/// Minimum bit width needed to represent `max_value` (at least 1).
pub fn bit_width(max_value: u32) -> u8 {
    (32 - max_value.leading_zeros()).max(1) as u8
}

/// Pack `values` using `width` bits each, LSB-first across the byte stream.
///
/// # Panics
/// Debug-asserts that every value fits in `width` bits.
pub fn pack_u32(values: &[u32], width: u8) -> Vec<u8> {
    debug_assert!((1..=32).contains(&width));
    let total_bits = values.len() * width as usize;
    let mut out = vec![0u8; total_bits.div_ceil(8)];
    let mut bit_pos = 0usize;
    for &v in values {
        debug_assert!(
            width == 32 || v < (1u32 << width),
            "value {v} exceeds width {width}"
        );
        for b in 0..width as usize {
            if v & (1 << b) != 0 {
                out[(bit_pos + b) / 8] |= 1 << ((bit_pos + b) % 8);
            }
        }
        bit_pos += width as usize;
    }
    out
}

/// Unpack `n` values of `width` bits each, packed by [`pack_u32`], from
/// `bytes`, which must hold all `n * width` bits.
pub fn unpack_u32(bytes: &[u8], n: usize, width: u8) -> Vec<u32> {
    let width = width as usize;
    let mask = (1u64 << width) - 1;
    // A value of up to 32 bits starting at any bit of a byte lies within the
    // eight bytes from that byte on. Values whose eight bytes are all in the
    // input read them in place: those that start before bit
    // `(len - 7) * 8`. The last few read what is left, zero-padded.
    let in_place = (bytes.len().saturating_sub(7) * 8).div_ceil(width).min(n);
    let value =
        |i: usize, window: [u8; 8]| ((u64::from_le_bytes(window) >> (i * width % 8)) & mask) as u32;
    let mut out = Vec::with_capacity(n);
    out.extend((0..in_place).map(|i| {
        let at = i * width / 8;
        value(i, bytes[at..at + 8].try_into().expect("8 bytes"))
    }));
    out.extend((in_place..n).map(|i| {
        let tail = &bytes[i * width / 8..];
        let mut window = [0u8; 8];
        window[..tail.len().min(8)].copy_from_slice(&tail[..tail.len().min(8)]);
        value(i, window)
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bools_roundtrip() {
        let bits: Vec<bool> = (0..37).map(|i| i % 3 == 0).collect();
        let packed = pack_bools(&bits);
        assert_eq!(packed.len(), 5);
        assert_eq!(unpack_bools(&packed, bits.len()), bits);
    }

    /// A validity header is written from a column's `Selection`: the bytes
    /// `pack_bools` writes of the same flags, so a written file does not
    /// change by a byte, and they read back as the same selection.
    #[test]
    fn validity_bitmaps_are_the_packed_flags() {
        use pixels_common::Selection;
        for len in [0, 1, 63, 64, 65, 129] {
            for keep in [|i: usize| i % 3 != 1, |i| i % 64 == 63, |_| true, |_| false] {
                let flags: Vec<bool> = (0..len).map(keep).collect();
                let valid = Selection::from_fn(len, keep);
                assert_eq!(valid.to_bitmap(), pack_bools(&flags), "len {len}");
                assert_eq!(Selection::from_bitmap(&valid.to_bitmap(), len), valid);
            }
        }
    }

    #[test]
    fn empty_bools() {
        assert!(pack_bools(&[]).is_empty());
        assert!(unpack_bools(&[], 0).is_empty());
    }

    #[test]
    fn bit_width_values() {
        assert_eq!(bit_width(0), 1);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 2);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
        assert_eq!(bit_width(u32::MAX), 32);
    }

    #[test]
    fn u32_roundtrip_narrow() {
        let values: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let width = bit_width(6);
        let packed = pack_u32(&values, width);
        assert!(packed.len() < values.len() * 4, "packing should compress");
        assert_eq!(unpack_u32(&packed, values.len(), width), values);
    }

    #[test]
    fn u32_roundtrip_full_width() {
        let values = vec![u32::MAX, 0, 12345, u32::MAX - 1];
        let packed = pack_u32(&values, 32);
        assert_eq!(unpack_u32(&packed, values.len(), 32), values);
    }

    #[test]
    fn u32_roundtrip_odd_widths() {
        for width in [1u8, 3, 5, 11, 17, 23, 31] {
            let max = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let values: Vec<u32> = (0..50)
                .map(|i| (i * 2654435761_u64) as u32 % (max + 1).max(1))
                .collect();
            let packed = pack_u32(&values, width);
            assert_eq!(
                unpack_u32(&packed, values.len(), width),
                values,
                "width {width}"
            );
        }
    }

    /// The copying implementation `unpack_u32` replaced: the input padded
    /// with eight zero bytes, every value read from an 8-byte window.
    fn unpack_u32_padded(bytes: &[u8], n: usize, width: u8) -> Vec<u32> {
        let width = width as usize;
        let mask = (1u64 << width) - 1;
        let mut padded = bytes.to_vec();
        padded.extend_from_slice(&[0; 8]);
        (0..n)
            .map(|i| {
                let bit = i * width;
                let window: [u8; 8] = padded[bit / 8..bit / 8 + 8].try_into().unwrap();
                ((u64::from_le_bytes(window) >> (bit % 8)) & mask) as u32
            })
            .collect()
    }

    /// At every width, over row counts whose last value ends on the last
    /// byte and ones that leave bits over, `unpack_u32` equals the padded
    /// copy. Each input is a vector of exactly the packed length, followed
    /// in the same allocation by nothing: a read past it would panic.
    #[test]
    fn unpack_in_place_equals_the_padded_copy_and_stays_in_bounds() {
        for width in 1u8..=32 {
            let max = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            for n in (0..=80usize).chain([8 * 33, 1000, 4096]) {
                let values: Vec<u32> = (0..n)
                    .map(|i| ((i as u64 * 2654435761) as u32 ^ 0x5A5A_5A5A) & max)
                    .collect();
                let packed = pack_u32(&values, width);
                assert_eq!(packed.len(), (n * width as usize).div_ceil(8));
                let exact = packed.to_vec().into_boxed_slice();
                let unpacked = unpack_u32(&exact, n, width);
                assert_eq!(unpacked, values, "width {width} n {n}");
                assert_eq!(
                    unpacked,
                    unpack_u32_padded(&exact, n, width),
                    "width {width} n {n}"
                );
            }
        }
    }
}
