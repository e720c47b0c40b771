//! Contiguous arrays of fixed-size key/value cells.
//!
//! A cell is `K::SIZE + V::SIZE` bytes, padded to 8-byte alignment so
//! every cell (and thus the atomic commit of any word inside it) is
//! naturally aligned. The paper's traces use 16-byte cells (u64 key +
//! u64 value) and 32-byte cells (16-byte MD5 key + 16-byte value).

use nvm_hashfn::Pod;
use nvm_pmem::{align_up, Pmem, PmemRead, Region};
use std::marker::PhantomData;

/// A persistent array of `n` cells of type `(K, V)`.
#[derive(Debug)]
pub struct CellArray<K: Pod, V: Pod> {
    region: Region,
    n: u64,
    _marker: PhantomData<(K, V)>,
}

// PhantomData<(K,V)> would otherwise require K, V: Clone for derive.
impl<K: Pod, V: Pod> Clone for CellArray<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Pod, V: Pod> Copy for CellArray<K, V> {}

impl<K: Pod, V: Pod> CellArray<K, V> {
    /// Bytes per cell: key + value, rounded up to 8.
    pub const CELL_SIZE: usize = {
        let raw = K::SIZE + V::SIZE;
        (raw + 7) & !7
    };

    /// Region size for `n` cells.
    pub fn region_size(n: u64) -> usize {
        align_up(n as usize * Self::CELL_SIZE, 8)
    }

    /// Attaches to a region holding `n` cells (no initialization — cells
    /// are interpreted through the occupancy bitmap).
    pub fn attach(region: Region, n: u64) -> Self {
        assert_eq!(region.off % 8, 0, "cell array must be 8-byte aligned");
        assert!(
            region.len >= Self::region_size(n),
            "cell region too small: {} < {}",
            region.len,
            Self::region_size(n)
        );
        CellArray {
            region,
            n,
            _marker: PhantomData,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when the array holds zero cells.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Pool offset of cell `idx`.
    #[inline]
    pub fn cell_off(&self, idx: u64) -> usize {
        debug_assert!(idx < self.n, "cell {idx} out of range {}", self.n);
        self.region.off + idx as usize * Self::CELL_SIZE
    }

    /// Reads the key of cell `idx`.
    #[inline]
    pub fn read_key<R: PmemRead>(&self, pm: &R, idx: u64) -> K {
        let mut buf = [0u8; 64];
        debug_assert!(K::SIZE <= 64);
        pm.read(self.cell_off(idx), &mut buf[..K::SIZE]);
        K::read_from(&buf[..K::SIZE])
    }

    /// Reads the value of cell `idx`.
    #[inline]
    pub fn read_value<R: PmemRead>(&self, pm: &R, idx: u64) -> V {
        let mut buf = [0u8; 64];
        debug_assert!(V::SIZE <= 64);
        pm.read(self.cell_off(idx) + K::SIZE, &mut buf[..V::SIZE]);
        V::read_from(&buf[..V::SIZE])
    }

    /// Writes key and value into cell `idx` (volatile until persisted).
    #[inline]
    pub fn write_entry<P: Pmem>(&self, pm: &mut P, idx: u64, key: &K, value: &V) {
        let mut buf = [0u8; 128];
        debug_assert!(K::SIZE + V::SIZE <= 128);
        key.write_to(&mut buf[..K::SIZE]);
        value.write_to(&mut buf[K::SIZE..K::SIZE + V::SIZE]);
        pm.write(self.cell_off(idx), &buf[..K::SIZE + V::SIZE]);
    }

    /// Zeroes cell `idx` (volatile until persisted). Used by deletion and
    /// by the paper's recovery step ("Reset(key,value)").
    #[inline]
    pub fn clear_entry<P: Pmem>(&self, pm: &mut P, idx: u64) {
        let zeros = [0u8; 128];
        pm.write(self.cell_off(idx), &zeros[..K::SIZE + V::SIZE]);
    }

    /// True if every byte of cell `idx` is zero.
    pub fn is_zeroed<R: PmemRead>(&self, pm: &R, idx: u64) -> bool {
        let mut buf = [0u8; 128];
        pm.read(self.cell_off(idx), &mut buf[..K::SIZE + V::SIZE]);
        buf[..K::SIZE + V::SIZE].iter().all(|&b| b == 0)
    }

    /// Persists cell `idx` (`clflush` + `mfence`).
    #[inline]
    pub fn persist_entry<P: Pmem>(&self, pm: &mut P, idx: u64) {
        pm.persist(self.cell_off(idx), K::SIZE + V::SIZE);
    }

    /// Byte length of one entry (un-padded).
    pub fn entry_len(&self) -> usize {
        K::SIZE + V::SIZE
    }

    /// The array's region.
    pub fn region(&self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{SimConfig, SimPmem};

    type A16 = CellArray<u64, u64>; // 16-byte cells (RandomNum/Bag-of-Words)
    type A32 = CellArray<[u8; 16], [u8; 16]>; // 32-byte cells (Fingerprint)

    fn pool() -> SimPmem {
        SimPmem::new(1 << 16, SimConfig::fast_test())
    }

    #[test]
    fn cell_sizes_match_paper() {
        assert_eq!(A16::CELL_SIZE, 16);
        assert_eq!(A32::CELL_SIZE, 32);
        // An odd-sized payload pads to 8.
        assert_eq!(CellArray::<u32, u8>::CELL_SIZE, 8);
    }

    #[test]
    fn entry_roundtrip() {
        let mut pm = pool();
        let a = A16::attach(Region::new(0, A16::region_size(100)), 100);
        a.write_entry(&mut pm, 5, &0xAAAA, &0xBBBB);
        assert_eq!(a.read_key(&pm, 5), 0xAAAA);
        assert_eq!(a.read_value(&pm, 5), 0xBBBB);
    }

    #[test]
    fn wide_entry_roundtrip() {
        let mut pm = pool();
        let a = A32::attach(Region::new(64, A32::region_size(10)), 10);
        let k = [7u8; 16];
        let v = [9u8; 16];
        a.write_entry(&mut pm, 9, &k, &v);
        assert_eq!(a.read_key(&pm, 9), k);
        assert_eq!(a.read_value(&pm, 9), v);
    }

    #[test]
    fn cells_do_not_overlap() {
        let mut pm = pool();
        let a = A16::attach(Region::new(0, A16::region_size(10)), 10);
        for i in 0..10 {
            a.write_entry(&mut pm, i, &(i * 10), &(i * 100));
        }
        for i in 0..10 {
            assert_eq!(a.read_key(&pm, i), i * 10);
            assert_eq!(a.read_value(&pm, i), i * 100);
        }
    }

    #[test]
    fn clear_and_is_zeroed() {
        let mut pm = pool();
        let a = A16::attach(Region::new(0, A16::region_size(4)), 4);
        a.write_entry(&mut pm, 2, &1, &2);
        assert!(!a.is_zeroed(&pm, 2));
        a.clear_entry(&mut pm, 2);
        assert!(a.is_zeroed(&pm, 2));
        assert!(a.is_zeroed(&pm, 3)); // untouched pool is zeroed
    }

    #[test]
    fn offsets_are_contiguous() {
        let a = A16::attach(Region::new(128, A16::region_size(8)), 8);
        assert_eq!(a.cell_off(0), 128);
        assert_eq!(a.cell_off(1), 144);
        assert_eq!(a.cell_off(7), 128 + 7 * 16);
    }
}
