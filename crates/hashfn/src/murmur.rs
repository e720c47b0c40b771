//! MurmurHash3 x64 128-bit variant.
//!
//! Ported from Austin Appleby's public-domain reference implementation
//! (`MurmurHash3_x64_128` in MurmurHash3.cpp) and validated against known
//! digests in the unit tests.

const C1: u64 = 0x87C37B91114253D5;
const C2: u64 = 0x4CF5AD432745937F;

#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51AFD7ED558CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CEB9FE1A85EC53);
    k ^= k >> 33;
    k
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// Computes the 128-bit MurmurHash3 (x64 variant) of `data` under `seed`,
/// returned as `(low, high)` 64-bit halves.
pub fn murmur3_x64_128(data: &[u8], seed: u32) -> (u64, u64) {
    let len = data.len();
    let nblocks = len / 16;

    let mut h1 = seed as u64;
    let mut h2 = seed as u64;

    for i in 0..nblocks {
        let mut k1 = read_u64(&data[i * 16..]);
        let mut k2 = read_u64(&data[i * 16 + 8..]);

        k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        h1 ^= k1;
        h1 = h1
            .rotate_left(27)
            .wrapping_add(h2)
            .wrapping_mul(5)
            .wrapping_add(0x52DCE729);

        k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
        h2 ^= k2;
        h2 = h2
            .rotate_left(31)
            .wrapping_add(h1)
            .wrapping_mul(5)
            .wrapping_add(0x38495AB5);
    }

    let tail = &data[nblocks * 16..];
    let mut k1: u64 = 0;
    let mut k2: u64 = 0;
    // Intentional fallthrough ladder, as in the reference implementation.
    let t = tail.len();
    if t >= 9 {
        for i in (8..t).rev() {
            k2 ^= (tail[i] as u64) << ((i - 8) * 8);
        }
        k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
        h2 ^= k2;
    }
    if t >= 1 {
        for i in (0..t.min(8)).rev() {
            k1 ^= (tail[i] as u64) << (i * 8);
        }
        k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        h1 ^= k1;
    }

    h1 ^= len as u64;
    h2 ^= len as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);

    (h1, h2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_seed0() {
        // murmur3_x64_128("", 0) == 0 for both halves.
        assert_eq!(murmur3_x64_128(b"", 0), (0, 0));
    }

    #[test]
    fn known_digests() {
        // Widely published vectors for MurmurHash3 x64 128.
        // "The quick brown fox jumps over the lazy dog", seed 0 =>
        // 0x6c1b07bc7bbc4be347939ac4a93c437a (big-endian digest), i.e.
        // h1 = 0xe34bbc7bbc071b6c, h2 = 0x7a433ca9c49a9347 little-endian.
        let (h1, h2) = murmur3_x64_128(b"The quick brown fox jumps over the lazy dog", 0);
        assert_eq!(h1, 0xE34BBC7BBC071B6C);
        assert_eq!(h2, 0x7A433CA9C49A9347);
    }

    #[test]
    fn hello_seed0() {
        // "hello", seed 0 => digest cbd8a7b341bd9b02 5b1e906a48ae1d19
        let (h1, h2) = murmur3_x64_128(b"hello", 0);
        assert_eq!(h1, 0xCBD8A7B341BD9B02);
        assert_eq!(h2, 0x5B1E906A48AE1D19);
    }

    #[test]
    fn tail_lengths_all_distinct() {
        let data = [0xABu8; 32];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=32 {
            assert!(seen.insert(murmur3_x64_128(&data[..len], 9)));
        }
    }

    #[test]
    fn seed_sensitivity() {
        assert_ne!(murmur3_x64_128(b"abc", 1), murmur3_x64_128(b"abc", 2));
    }
}
