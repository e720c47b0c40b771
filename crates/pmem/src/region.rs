//! Pool-relative region bookkeeping.
//!
//! Persistent structures carve a pool into named, cacheline-aligned regions
//! (header, bitmaps, cell arrays, log area, ...). `RegionAllocator` is a
//! bump allocator over offsets — it allocates *address space*, not memory;
//! the pool's bytes already exist.

/// Cacheline width in bytes (matches [`nvm_cachesim::LINE_BYTES`]).
pub const CACHELINE: usize = 64;

/// Rounds `x` up to a multiple of `align` (power of two).
#[inline]
pub const fn align_up(x: usize, align: usize) -> usize {
    debug_assert!(align.is_power_of_two());
    (x + align - 1) & !(align - 1)
}

/// A contiguous byte range inside a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    pub off: usize,
    pub len: usize,
}

impl Region {
    pub fn new(off: usize, len: usize) -> Self {
        Region { off, len }
    }

    /// End offset (exclusive).
    pub fn end(&self) -> usize {
        self.off + self.len
    }

    /// True if `[off, off+len)` lies within this region.
    pub fn contains(&self, off: usize, len: usize) -> bool {
        off >= self.off && off + len <= self.end()
    }

    /// Splits off the first `n` bytes.
    pub fn take_prefix(&mut self, n: usize) -> Region {
        assert!(
            n <= self.len,
            "prefix {n} exceeds region length {}",
            self.len
        );
        let r = Region::new(self.off, n);
        self.off += n;
        self.len -= n;
        r
    }
}

/// Bump allocator over a pool's offset space.
#[derive(Debug, Clone)]
pub struct RegionAllocator {
    cursor: usize,
    limit: usize,
}

impl RegionAllocator {
    /// Allocates offsets in `[start, limit)`.
    pub fn new(start: usize, limit: usize) -> Self {
        assert!(start <= limit);
        RegionAllocator {
            cursor: start,
            limit,
        }
    }

    /// Allocates `len` bytes aligned to `align`. Panics on exhaustion —
    /// pool sizing is a construction-time decision, not a runtime fallible
    /// path.
    pub fn alloc(&mut self, len: usize, align: usize) -> Region {
        let off = align_up(self.cursor, align);
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.limit),
            "pool exhausted: need {len} bytes at {off}, limit {}",
            self.limit
        );
        self.cursor = off + len;
        Region::new(off, len)
    }

    /// Allocates a cacheline-aligned region.
    pub fn alloc_lines(&mut self, len: usize) -> Region {
        self.alloc(len, CACHELINE)
    }

    /// Remaining bytes (before alignment padding).
    pub fn remaining(&self) -> usize {
        self.limit - self.cursor
    }

    /// Current cursor offset.
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 8), 72);
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut a = RegionAllocator::new(0, 1024);
        let r1 = a.alloc(10, 8);
        let r2 = a.alloc(100, 64);
        let r3 = a.alloc_lines(64);
        assert!(r1.end() <= r2.off);
        assert!(r2.end() <= r3.off);
        assert_eq!(r2.off % 64, 0);
        assert_eq!(r3.off % 64, 0);
    }

    #[test]
    fn contains_checks_bounds() {
        let r = Region::new(64, 128);
        assert!(r.contains(64, 128));
        assert!(r.contains(100, 10));
        assert!(!r.contains(63, 2));
        assert!(!r.contains(190, 3));
    }

    #[test]
    fn take_prefix_advances() {
        let mut r = Region::new(0, 100);
        let p = r.take_prefix(30);
        assert_eq!(p, Region::new(0, 30));
        assert_eq!(r, Region::new(30, 70));
    }

    #[test]
    #[should_panic(expected = "pool exhausted")]
    fn alloc_past_limit_panics() {
        let mut a = RegionAllocator::new(0, 64);
        a.alloc(65, 1);
    }
}
