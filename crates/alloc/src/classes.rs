//! The pure size-class and slab-layout layer.
//!
//! Everything in this module is arithmetic: class tables, blob-to-class
//! rounding, and per-slab freelist geometry. Nothing here touches
//! persistent memory (the `ci.sh` layering lint fails the build if
//! `nvm_pmem` is ever named in this file), which makes the layer
//! unit-testable exactly like the table crate's `probe::*` plans — and
//! proptestable: rounding is minimal and monotone, geometry round-trips.
//!
//! The default class table follows memcached's slab design: a small base
//! slot grown by a fixed factor (80 bytes × 1.25) until the largest
//! class covers the biggest supported blob. Offsets produced here are
//! *slab-relative*; the slab store (one layer down the stack) anchors
//! them in a pool region.

use crate::AllocError;

/// Per-slot length-prefix bytes (`[len u32-LE | blob]`). Four bytes
/// cover any blob a class can hold (slots are far below 4 GiB) and keep
/// a KV record of a 16 B key and a 104 B value inside the 128 B class.
pub const LEN_PREFIX: usize = 4;

/// Maximum size classes a heap may declare.
pub const MAX_CLASSES: usize = 32;

/// Maximum slabs per size class.
pub const MAX_SLABS_PER_CLASS: u64 = 64;

/// Memcached's base slot size (bytes) for the default geometric table.
pub const DEFAULT_BASE: u64 = 80;

/// Memcached's growth factor, as an integer ratio (1.25 = 5/4).
pub const DEFAULT_GROWTH: (u64, u64) = (5, 4);

/// One size class: a fixed slot width in bytes, including the
/// [`LEN_PREFIX`]-byte length prefix. Always a multiple of 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeClass {
    /// Slot width in bytes, including the length prefix. Must be a
    /// multiple of 8 and strictly larger than [`LEN_PREFIX`].
    pub slot_size: u64,
}

impl SizeClass {
    /// Largest blob this class stores.
    pub fn max_blob(&self) -> usize {
        self.slot_size as usize - LEN_PREFIX
    }
}

/// An ascending table of size classes with minimal-fit rounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassTable {
    classes: Vec<SizeClass>,
}

impl ClassTable {
    /// Builds a table from explicit slot sizes (each a multiple of 8,
    /// strictly ascending, `> LEN_PREFIX`).
    pub fn new(slot_sizes: &[u64]) -> Result<ClassTable, AllocError> {
        let t = ClassTable {
            classes: slot_sizes
                .iter()
                .map(|&s| SizeClass { slot_size: s })
                .collect(),
        };
        t.validate()?;
        Ok(t)
    }

    /// The memcached-style geometric table: slots of `base` bytes grown
    /// by `growth = (num, den)` (each size rounded up to a multiple of 8,
    /// duplicates collapsed) until one class holds `max_blob` bytes.
    pub fn geometric(
        base: u64,
        growth: (u64, u64),
        max_blob: u64,
    ) -> Result<ClassTable, AllocError> {
        let (num, den) = growth;
        if den == 0 || num <= den {
            return Err(AllocError::BadGrowth { num, den });
        }
        if base <= LEN_PREFIX as u64 {
            return Err(AllocError::BadSlotSize {
                class: 0,
                slot_size: base,
            });
        }
        let mut sizes: Vec<u64> = Vec::new();
        let mut want = base;
        loop {
            let slot = round_up8(want);
            if sizes.last() != Some(&slot) {
                sizes.push(slot);
            }
            if slot - LEN_PREFIX as u64 >= max_blob {
                break;
            }
            if sizes.len() > MAX_CLASSES {
                return Err(AllocError::BadClassCount(sizes.len()));
            }
            want = (want * num).div_ceil(den);
        }
        ClassTable::new(&sizes)
    }

    /// Validates the table's invariants.
    pub fn validate(&self) -> Result<(), AllocError> {
        if self.classes.is_empty() || self.classes.len() > MAX_CLASSES {
            return Err(AllocError::BadClassCount(self.classes.len()));
        }
        let mut prev = 0;
        for (i, c) in self.classes.iter().enumerate() {
            if c.slot_size % 8 != 0 || c.slot_size <= LEN_PREFIX as u64 {
                return Err(AllocError::BadSlotSize {
                    class: i,
                    slot_size: c.slot_size,
                });
            }
            if c.slot_size <= prev {
                return Err(AllocError::NonAscendingClasses { class: i });
            }
            prev = c.slot_size;
        }
        Ok(())
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when the table holds no classes (never, post-validation).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The class at index `i`.
    pub fn get(&self, i: usize) -> SizeClass {
        self.classes[i]
    }

    /// Iterates the classes in ascending slot-size order.
    pub fn iter(&self) -> impl Iterator<Item = SizeClass> + '_ {
        self.classes.iter().copied()
    }

    /// The smallest class index whose slot fits a `len`-byte blob —
    /// minimal and monotone in `len` by construction (ascending table,
    /// first fit).
    pub fn class_for(&self, len: usize) -> Result<usize, AllocError> {
        self.classes
            .iter()
            .position(|c| c.max_blob() >= len)
            .ok_or(AllocError::TooLarge(len))
    }

    /// The largest blob any class stores.
    pub fn largest_blob(&self) -> usize {
        self.classes.last().map_or(0, |c| c.max_blob())
    }
}

/// Rounds `n` up to the next multiple of 8.
fn round_up8(n: u64) -> u64 {
    n.div_ceil(8) * 8
}

/// Freelist geometry of one slab: `slots` fixed-width slots of
/// `slot_size` bytes, addressed by slab-relative byte offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabGeometry {
    /// Slot width in bytes (includes the length prefix).
    pub slot_size: u64,
    /// Number of slots in the slab.
    pub slots: u64,
}

impl SlabGeometry {
    /// Slab-relative byte offset of slot `i`.
    pub fn slot_off(&self, i: u64) -> u64 {
        debug_assert!(i < self.slots);
        i * self.slot_size
    }

    /// Slot index of slab-relative offset `rel`, if it names a slot
    /// start ([`SlabGeometry::slot_off`] round-trips through this).
    pub fn slot_of(&self, rel: u64) -> Option<u64> {
        let i = rel / self.slot_size;
        (i < self.slots && rel.is_multiple_of(self.slot_size)).then_some(i)
    }

    /// Total slot-storage bytes.
    pub fn slots_bytes(&self) -> usize {
        (self.slot_size * self.slots) as usize
    }

    /// Bytes of occupancy bitmap (one bit per slot, whole 8-byte words —
    /// the same packing as the table crate's persistent bitmap).
    pub fn bitmap_bytes(&self) -> usize {
        (self.slots.div_ceil(64) * 8) as usize
    }
}

/// Heap geometry: the class table plus how many slabs each class gets
/// and how many slots each of those slabs holds. Pure configuration —
/// regions and headers belong to the layers above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapConfig {
    /// Slot sizes (ascending) and per-slab slot counts, one per class.
    pub classes: Vec<ClassSpec>,
    /// Slabs per class (the rotation set the wear policy steers over).
    pub slabs_per_class: u64,
}

/// One class's spec in a [`HeapConfig`]: slot width plus per-slab slot
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSpec {
    /// Slot width in bytes, including the length prefix.
    pub slot_size: u64,
    /// Slots in each of the class's slabs.
    pub slots_per_slab: u64,
}

impl HeapConfig {
    /// A general-purpose split of roughly `budget_bytes` of slot storage
    /// over the default memcached-style table (80 B × 1.25, up to 4 KiB
    /// blobs) and 4 slabs per class. Byte share per class is weighted by
    /// `1/slot_size` — every class gets roughly the same *slot count* —
    /// because small-value churn dominates the memcached-class workloads
    /// the classes are modeled on.
    pub fn balanced(budget_bytes: u64) -> HeapConfig {
        Self::balanced_with(budget_bytes, 4, 4096 - LEN_PREFIX as u64)
    }

    /// [`HeapConfig::balanced`] with explicit slab count and largest
    /// supported blob.
    pub fn balanced_with(budget_bytes: u64, slabs_per_class: u64, max_blob: u64) -> HeapConfig {
        let table = ClassTable::geometric(DEFAULT_BASE, DEFAULT_GROWTH, max_blob)
            .expect("default geometric table is valid");
        let weights: Vec<f64> = table.iter().map(|c| 1.0 / c.slot_size as f64).collect();
        let total: f64 = weights.iter().sum();
        let classes = table
            .iter()
            .zip(&weights)
            .map(|(c, w)| {
                let class_bytes = (budget_bytes as f64 * w / total) as u64;
                ClassSpec {
                    slot_size: c.slot_size,
                    slots_per_slab: (class_bytes / slabs_per_class / c.slot_size).max(1),
                }
            })
            .collect();
        HeapConfig {
            classes,
            slabs_per_class,
        }
    }

    /// Validates geometry.
    pub fn validate(&self) -> Result<(), AllocError> {
        self.class_table()?;
        if self.slabs_per_class == 0 || self.slabs_per_class > MAX_SLABS_PER_CLASS {
            return Err(AllocError::BadSlabCount(self.slabs_per_class));
        }
        for (i, c) in self.classes.iter().enumerate() {
            if c.slots_per_slab == 0 {
                return Err(AllocError::ZeroSlots { class: i });
            }
        }
        Ok(())
    }

    /// The config's class table (validated as part of construction).
    pub fn class_table(&self) -> Result<ClassTable, AllocError> {
        ClassTable::new(&self.classes.iter().map(|c| c.slot_size).collect::<Vec<_>>())
    }

    /// The freelist geometry of every slab of class `i`.
    pub fn slab_geometry(&self, i: usize) -> SlabGeometry {
        SlabGeometry {
            slot_size: self.classes[i].slot_size,
            slots: self.classes[i].slots_per_slab,
        }
    }

    /// Total slabs across all classes.
    pub fn total_slabs(&self) -> u64 {
        self.classes.len() as u64 * self.slabs_per_class
    }

    /// Total slots across all slabs.
    pub fn total_slots(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.slots_per_slab * self.slabs_per_class)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_matches_memcached_shape() {
        let t = ClassTable::geometric(DEFAULT_BASE, DEFAULT_GROWTH, 4096 - 8).unwrap();
        assert_eq!(t.get(0).slot_size, 80);
        // 80 * 1.25 = 100 -> rounds to 104.
        assert_eq!(t.get(1).slot_size, 104);
        // Strictly ascending, all multiples of 8, covers the max blob.
        let sizes: Vec<u64> = t.iter().map(|c| c.slot_size).collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert!(sizes.iter().all(|s| s % 8 == 0));
        assert!(t.largest_blob() >= 4096 - 8);
        assert!(t.len() <= MAX_CLASSES);
    }

    #[test]
    fn class_for_is_minimal_and_monotone() {
        let t = ClassTable::geometric(80, (5, 4), 2048).unwrap();
        let mut prev = 0;
        for len in 0..=2048usize {
            let ci = t.class_for(len).unwrap();
            assert!(t.get(ci).max_blob() >= len, "class must fit");
            if ci > 0 {
                assert!(t.get(ci - 1).max_blob() < len, "class must be minimal");
            }
            assert!(ci >= prev, "rounding must be monotone");
            prev = ci;
        }
        assert_eq!(
            t.class_for(t.largest_blob() + 1),
            Err(AllocError::TooLarge(t.largest_blob() + 1))
        );
    }

    #[test]
    fn geometric_rejects_bad_growth() {
        assert!(matches!(
            ClassTable::geometric(80, (1, 1), 1024),
            Err(AllocError::BadGrowth { .. })
        ));
        assert!(matches!(
            ClassTable::geometric(80, (3, 0), 1024),
            Err(AllocError::BadGrowth { .. })
        ));
        // A base slot no wider than the length prefix holds no blob.
        assert!(matches!(
            ClassTable::geometric(LEN_PREFIX as u64, (5, 4), 1024),
            Err(AllocError::BadSlotSize { .. })
        ));
        assert!(ClassTable::geometric(LEN_PREFIX as u64 + 1, (5, 4), 1024).is_ok());
    }

    #[test]
    fn explicit_tables_validate() {
        assert!(ClassTable::new(&[32, 64, 128]).is_ok());
        assert!(matches!(
            ClassTable::new(&[]),
            Err(AllocError::BadClassCount(0))
        ));
        assert!(matches!(
            ClassTable::new(&[32, 30]),
            Err(AllocError::BadSlotSize { class: 1, .. })
        ));
        assert!(matches!(
            ClassTable::new(&[64, 64]),
            Err(AllocError::NonAscendingClasses { class: 1 })
        ));
    }

    #[test]
    fn slab_geometry_round_trips() {
        let g = SlabGeometry {
            slot_size: 104,
            slots: 13,
        };
        for i in 0..g.slots {
            assert_eq!(g.slot_of(g.slot_off(i)), Some(i));
        }
        assert_eq!(g.slot_of(1), None); // not a slot start
        assert_eq!(g.slot_of(104 * 13), None); // one past the end
        assert_eq!(g.slots_bytes(), 104 * 13);
        assert_eq!(g.bitmap_bytes(), 8);
    }

    #[test]
    fn balanced_weights_small_classes() {
        let cfg = HeapConfig::balanced(1 << 20);
        cfg.validate().unwrap();
        let small = &cfg.classes[0];
        let large = cfg.classes.last().unwrap();
        // Smaller slots get more slots per slab, not just more bytes.
        assert!(small.slots_per_slab > large.slots_per_slab);
        assert_eq!(cfg.slabs_per_class, 4);
    }

    #[test]
    fn config_validation_catches_bad_slab_counts() {
        let mut cfg = HeapConfig::balanced(1 << 16);
        cfg.slabs_per_class = 0;
        assert_eq!(cfg.validate(), Err(AllocError::BadSlabCount(0)));
        cfg.slabs_per_class = MAX_SLABS_PER_CLASS + 1;
        assert!(matches!(cfg.validate(), Err(AllocError::BadSlabCount(_))));
        let mut cfg = HeapConfig::balanced(1 << 16);
        cfg.classes[2].slots_per_slab = 0;
        assert_eq!(cfg.validate(), Err(AllocError::ZeroSlots { class: 2 }));
    }
}
