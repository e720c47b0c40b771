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
//! `Store` both give each table one latched writer — so no two writers
//! ever race on a lane, and the lock-free readers never consult the
//! cache ([`GroupReadView`](crate::GroupReadView) carries none). The
//! tags still sit in [`AtomicU64`] words behind `&self` setters, which
//! lets the rebuild loop and the stage helpers set a tag while they
//! borrow the table for its hash streams. Relaxed loads compile to plain
//! loads; a commit pays one lane read-modify-write on a DRAM word.
//!
//! [`HashPair::h3`]: nvm_hashfn::HashPair::h3

use std::sync::atomic::{AtomicU64, Ordering};

/// The volatile tag arrays for a two-level table. Indexed by level
/// (0 = level 1, 1 = level 2) and cell index; eight tags per word.
#[derive(Debug)]
pub(crate) struct FpCache {
    levels: [Vec<AtomicU64>; 2],
}

impl Clone for FpCache {
    fn clone(&self) -> Self {
        let copy = |l: &Vec<AtomicU64>| {
            l.iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect()
        };
        FpCache {
            levels: [copy(&self.levels[0]), copy(&self.levels[1])],
        }
    }
}

impl FpCache {
    /// A zeroed cache for `cells_per_level` cells in each level. The
    /// arrays are padded to a multiple of 64 tags (8 words) so word loads
    /// near the end of tiny tables never index out of bounds (padding
    /// tags are never candidates — their occupancy bits are always
    /// clear).
    pub fn new(cells_per_level: u64) -> FpCache {
        let words = (cells_per_level as usize).next_multiple_of(64) / 8;
        let make = || (0..words).map(|_| AtomicU64::new(0)).collect();
        FpCache {
            levels: [make(), make()],
        }
    }

    /// The cached tag for `(level, idx)`. Only meaningful while the
    /// cell's occupancy bit is set.
    #[inline]
    pub fn get(&self, level: usize, idx: u64) -> u8 {
        let w = self.levels[level][idx as usize / 8].load(Ordering::Relaxed);
        (w >> (8 * (idx % 8))) as u8
    }

    /// Stores `tag` into one byte lane of the word owning `idx` with a
    /// single RMW, leaving the other seven lanes as their current values.
    #[inline]
    fn store_lane(&self, level: usize, idx: u64, tag: u8) {
        let shift = 8 * (idx % 8);
        let mask = 0xFFu64 << shift;
        let lane = u64::from(tag) << shift;
        self.levels[level][idx as usize / 8]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
                Some((w & !mask) | lane)
            })
            .expect("fetch_update closure never fails");
    }

    /// Records `tag` for `(level, idx)` (on insert / bulk load / rebuild).
    #[inline]
    pub fn set(&self, level: usize, idx: u64, tag: u8) {
        self.store_lane(level, idx, tag);
    }

    /// Zeroes the tag for `(level, idx)` (on delete; keeps the cache
    /// canonical so rebuilds compare bit-for-bit).
    #[inline]
    pub fn clear(&self, level: usize, idx: u64) {
        self.store_lane(level, idx, 0);
    }

    /// Loads the eight tags `[byte_base, byte_base + 8)` of `level` as a
    /// little-endian word. `byte_base` must be 8-byte aligned.
    #[inline]
    pub fn word(&self, level: usize, byte_base: u64) -> u64 {
        debug_assert_eq!(byte_base % 8, 0);
        self.levels[level][byte_base as usize / 8].load(Ordering::Relaxed)
    }

    /// Zeroes every tag (rebuild preamble).
    pub fn reset(&self) {
        for l in &self.levels {
            for w in l {
                w.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_table::probe::match_bits;

    #[test]
    fn word_loads_tags_in_lane_order() {
        let fp = FpCache::new(64);
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
        let fp = FpCache::new(128);
        fp.set(0, 3, 9);
        fp.set(1, 100, 7);
        fp.reset();
        assert_eq!(fp.get(0, 3), 0);
        assert_eq!(fp.get(1, 100), 0);
    }

    #[test]
    fn clone_copies_current_tags() {
        let fp = FpCache::new(64);
        fp.set(0, 5, 0xAB);
        let c = fp.clone();
        fp.set(0, 5, 0xCD);
        assert_eq!(c.get(0, 5), 0xAB);
        assert_eq!(fp.get(0, 5), 0xCD);
    }

    #[test]
    fn concurrent_writers_on_one_word_keep_all_lanes() {
        // Eight threads each own one lane of the same tag word; every
        // update must survive its neighbours' RMWs.
        let fp = std::sync::Arc::new(FpCache::new(64));
        let threads: Vec<_> = (0..8u64)
            .map(|lane| {
                let fp = std::sync::Arc::clone(&fp);
                std::thread::spawn(move || {
                    for round in 0..1000u64 {
                        fp.set(1, lane, (lane as u8) ^ (round as u8));
                    }
                    fp.set(1, lane, 0x40 + lane as u8);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for lane in 0..8u64 {
            assert_eq!(fp.get(1, lane), 0x40 + lane as u8);
        }
    }
}
