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

/// Unpack `n` values of `width` bits each, packed by [`pack_u32`].
pub fn unpack_u32(bytes: &[u8], n: usize, width: u8) -> Vec<u32> {
    let width = width as usize;
    let mask = (1u64 << width) - 1;
    // A value of up to 32 bits starting at any bit of a byte lies within the
    // eight bytes from that byte on; pad so the last values have them too.
    let mut padded = Vec::with_capacity(bytes.len() + 8);
    padded.extend_from_slice(bytes);
    padded.extend_from_slice(&[0; 8]);
    (0..n)
        .map(|i| {
            let bit = i * width;
            let window: [u8; 8] = padded[bit / 8..bit / 8 + 8].try_into().expect("8 bytes");
            ((u64::from_le_bytes(window) >> (bit % 8)) & mask) as u32
        })
        .collect()
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
}
