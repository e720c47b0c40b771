//! DRAM-resident per-cell fingerprint cache.
//!
//! One volatile tag byte per cell, per level, derived from a third hash
//! stream ([`HashPair::h3`]) so the tag carries information the slot index
//! does not already encode. The cache is a **pure accelerator**: nothing
//! is persisted, no flush or fence is ever issued on its behalf, and the
//! table's NVM state is bit-identical with the cache on or off. On
//! `open`/`recover` it is rebuilt from the occupancy bitmaps + cells, the
//! only authoritative state.
//!
//! Group scans consult the cache word-wise: eight tags load as one `u64`
//! and are compared against the probe tag with the SWAR zero-byte trick
//! ([`match_bits`](nvm_table::probe::match_bits), shared with the other
//! schemes via the probe-plan layer), then ANDed with the corresponding
//! occupancy bits so only plausible cells have their key bytes read from
//! the pool.
//!
//! # Writers and readers
//!
//! Every tag write runs under `&mut GroupHash` — the sharded wrapper and
//! `Store` both give each table one latched writer — and the lock-free
//! readers never consult the cache
//! ([`GroupReadView`](crate::GroupReadView) carries none). So the tags
//! are plain DRAM words behind `&mut self` setters: a lane write is a
//! load, a mask and a store.
//!
//! [`HashPair::h3`]: nvm_hashfn::HashPair::h3

/// The volatile tag arrays for a two-level table. Indexed by level
/// (0 = level 1, 1 = level 2) and cell index; eight tags per word.
#[derive(Debug, Clone)]
pub(crate) struct FpCache {
    levels: [Vec<u64>; 2],
}

impl FpCache {
    /// A zeroed cache for `cells_per_level` cells in each level. The
    /// arrays are padded to a multiple of 64 tags (8 words) so word loads
    /// near the end of tiny tables never index out of bounds (padding
    /// tags are never candidates — their occupancy bits are always
    /// clear).
    pub fn new(cells_per_level: u64) -> FpCache {
        let words = (cells_per_level as usize).next_multiple_of(64) / 8;
        let make = || vec![0u64; words];
        FpCache {
            levels: [make(), make()],
        }
    }

    /// The cached tag for `(level, idx)`. Only meaningful while the
    /// cell's occupancy bit is set.
    #[inline]
    pub fn get(&self, level: usize, idx: u64) -> u8 {
        let w = self.levels[level][idx as usize / 8];
        (w >> (8 * (idx % 8))) as u8
    }

    /// Records `tag` for `(level, idx)` (on insert / bulk load /
    /// rebuild): one byte lane of the word owning `idx`, leaving the
    /// other seven lanes as they are.
    #[inline]
    pub fn set(&mut self, level: usize, idx: u64, tag: u8) {
        let shift = 8 * (idx % 8);
        let w = &mut self.levels[level][idx as usize / 8];
        *w = (*w & !(0xFFu64 << shift)) | u64::from(tag) << shift;
    }

    /// Zeroes the tag for `(level, idx)` (on delete; keeps the cache
    /// canonical so rebuilds compare bit-for-bit).
    #[inline]
    pub fn clear(&mut self, level: usize, idx: u64) {
        self.set(level, idx, 0);
    }

    /// Loads the eight tags `[byte_base, byte_base + 8)` of `level` as a
    /// little-endian word. `byte_base` must be 8-byte aligned.
    #[inline]
    pub fn word(&self, level: usize, byte_base: u64) -> u64 {
        debug_assert_eq!(byte_base % 8, 0);
        self.levels[level][byte_base as usize / 8]
    }

    /// Zeroes every tag (rebuild preamble).
    pub fn reset(&mut self) {
        for l in &mut self.levels {
            l.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_table::probe::match_bits;

    #[test]
    fn word_loads_tags_in_lane_order() {
        let mut fp = FpCache::new(64);
        for i in 0..8u64 {
            fp.set(1, 8 + i, 0x10 + i as u8);
        }
        let w = fp.word(1, 8);
        assert_eq!(match_bits(w, 0x13), 1 << 3);
        fp.clear(1, 11);
        assert_eq!(match_bits(fp.word(1, 8), 0x13), 0);
    }

    #[test]
    fn padding_allows_word_loads_on_tiny_tables() {
        let fp = FpCache::new(4); // padded to 64
        assert_eq!(fp.word(0, 0), 0);
        assert_eq!(fp.word(1, 56), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut fp = FpCache::new(128);
        fp.set(0, 3, 9);
        fp.set(1, 100, 7);
        fp.reset();
        assert_eq!(fp.get(0, 3), 0);
        assert_eq!(fp.get(1, 100), 0);
    }

    #[test]
    fn clone_copies_current_tags() {
        let mut fp = FpCache::new(64);
        fp.set(0, 5, 0xAB);
        let c = fp.clone();
        fp.set(0, 5, 0xCD);
        assert_eq!(c.get(0, 5), 0xAB);
        assert_eq!(fp.get(0, 5), 0xCD);
    }
}
