//! Probe plans: pure, I/O-free candidate-cell geometry.
//!
//! A *probe plan* answers one question — "for this hash, which cells may
//! hold the key, and in what order?" — with plain arithmetic. No pool, no
//! reads, no persistence: plans are unit-testable without pmem and are the
//! seam where the DRAM fingerprint gate (and, later, batched/SIMD probing)
//! plugs in. The pmem-facing half lives in the cell store
//! ([`crate::CellStore`]); the ops layer of each scheme composes the two.
//!
//! One plan per scheme family:
//!
//! * [`GroupPlan`] — the paper's two-level group sharing: a level-1 slot
//!   maps to a level-2 *group* of `group_size` contiguous cells, so a
//!   collision scan walks adjacent cachelines (the paper's observation 2).
//! * [`LinearPlan`] — classic linear probing over a power-of-two array.
//! * [`PfhtPlan`] — PFHT's two 4-cell buckets plus a linear stash.
//! * [`PathPlan`] — path hashing's binary-tree descent from two leaves.
//!
//! The SWAR fingerprint matcher ([`match_bits`]) also lives here: it is
//! pure bit-twiddling over a tag word and belongs with the planning logic
//! that decides which cells are worth a key read.

/// The group table's two-level geometry (paper §3): `n_groups` groups of
/// `group_size` cells per level; group *i* of level 2 is the contiguous
/// range `[i * group_size, (i+1) * group_size)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupPlan {
    group_size: u64,
    n_groups: u64,
}

impl GroupPlan {
    /// Builds the plan. `group_size` and `n_groups` must both be non-zero
    /// powers of two (validated by the scheme's config).
    pub fn new(group_size: u64, n_groups: u64) -> Self {
        debug_assert!(group_size.is_power_of_two());
        debug_assert!(n_groups > 0);
        GroupPlan {
            group_size,
            n_groups,
        }
    }

    /// Cells in one level (`group_size * n_groups`).
    pub fn cells_per_level(&self) -> u64 {
        self.group_size * self.n_groups
    }

    /// Cells per group.
    pub fn group_size(&self) -> u64 {
        self.group_size
    }

    /// Number of groups per level.
    pub fn n_groups(&self) -> u64 {
        self.n_groups
    }

    /// Which group a level-1 slot belongs to.
    pub fn group_of_slot(&self, slot: u64) -> u64 {
        slot / self.group_size
    }

    /// The level-2 cell index of member `i` of group `g`.
    pub fn cell(&self, g: u64, i: u64) -> u64 {
        g * self.group_size + i
    }

    /// Inverse of [`GroupPlan::cell`]: which group owns level-2 cell `idx`.
    pub fn group_of_cell(&self, idx: u64) -> u64 {
        idx / self.group_size
    }

    /// The level-2 scan sequence for group `g`, in probe order.
    pub fn group_cells(&self, g: u64) -> impl Iterator<Item = u64> + '_ {
        (0..self.group_size).map(move |i| self.cell(g, i))
    }
}

/// Linear probing over a power-of-two cell array: home slot, then
/// successive cells with wraparound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearPlan {
    n: u64,
}

impl LinearPlan {
    /// Builds the plan over `n` cells (`n` must be a power of two).
    pub fn new(n: u64) -> Self {
        debug_assert!(n.is_power_of_two());
        LinearPlan { n }
    }

    /// Total cells.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The home slot of a hash.
    pub fn home(&self, hash: u64) -> u64 {
        hash & (self.n - 1)
    }

    /// The next cell in probe order (wraps).
    pub fn step(&self, i: u64) -> u64 {
        (i + 1) & (self.n - 1)
    }

    /// The full probe sequence from `home`: `n` cells, wrapping once.
    pub fn sequence(&self, home: u64) -> impl Iterator<Item = u64> + '_ {
        let n = self.n;
        (0..n).map(move |step| (home + step) & (n - 1))
    }

    /// Backward-shift predicate: with a hole at `hole`, may the entry at
    /// `i` (whose home slot is `home`) stay where it is? True when the
    /// hole does *not* lie on the entry's probe path from its home — i.e.
    /// moving it into the hole would break its reachability invariant.
    pub fn must_stay(hole: u64, home: u64, i: u64) -> bool {
        // Cyclic interval test: is `home` in the half-open ring interval
        // (hole, i]? If so the entry never probed through the hole.
        if hole < i {
            hole < home && home <= i
        } else {
            home > hole || home <= i
        }
    }
}

/// PFHT geometry: `n_buckets` buckets of `bucket_cells` cells addressed by
/// two hashes, then a linear stash of `stash_cells` cells at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfhtPlan {
    n_buckets: u64,
    bucket_cells: u64,
    stash_cells: u64,
}

impl PfhtPlan {
    /// Builds the plan (`n_buckets` must be a power of two).
    pub fn new(n_buckets: u64, bucket_cells: u64, stash_cells: u64) -> Self {
        debug_assert!(n_buckets.is_power_of_two());
        debug_assert!(bucket_cells > 0);
        PfhtPlan {
            n_buckets,
            bucket_cells,
            stash_cells,
        }
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> u64 {
        self.n_buckets
    }

    /// Cells per bucket.
    pub fn bucket_cells(&self) -> u64 {
        self.bucket_cells
    }

    /// Cells in the stash.
    pub fn stash_cells(&self) -> u64 {
        self.stash_cells
    }

    /// Total cells (buckets + stash).
    pub fn total_cells(&self) -> u64 {
        self.n_buckets * self.bucket_cells + self.stash_cells
    }

    /// The two candidate buckets of a key's hash pair.
    pub fn buckets(&self, h1: u64, h2: u64) -> (u64, u64) {
        (h1 & (self.n_buckets - 1), h2 & (self.n_buckets - 1))
    }

    /// The cell index of slot `s` of bucket `b`.
    pub fn cell(&self, b: u64, s: u64) -> u64 {
        b * self.bucket_cells + s
    }

    /// The cells of bucket `b`, in probe order.
    pub fn bucket_range(&self, b: u64) -> impl Iterator<Item = u64> {
        let base = b * self.bucket_cells;
        base..base + self.bucket_cells
    }

    /// First cell of the stash.
    pub fn stash_base(&self) -> u64 {
        self.n_buckets * self.bucket_cells
    }

    /// The bucket owning `idx`, or `None` for stash cells.
    pub fn bucket_of_cell(&self, idx: u64) -> Option<u64> {
        (idx < self.stash_base()).then(|| idx / self.bucket_cells)
    }
}

/// Path hashing geometry: a truncated binary tree, `1 << leaf_bits` leaf
/// cells at level 0 and each higher level half the size; a key probes the
/// root-ward paths of two leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPlan {
    leaf_bits: u64,
    levels: u64,
    level_base: Vec<u64>,
}

impl PathPlan {
    /// Builds the plan. `levels` is clamped to the tree height implied by
    /// `leaf_bits` (as [`PathPlan::cell_count`] does).
    pub fn new(leaf_bits: u64, levels: u64) -> Self {
        let levels = levels.min(leaf_bits + 1);
        let mut level_base = Vec::with_capacity(levels as usize);
        let mut base = 0u64;
        for i in 0..levels {
            level_base.push(base);
            base += 1u64 << (leaf_bits - i);
        }
        PathPlan {
            leaf_bits,
            levels,
            level_base,
        }
    }

    /// Total cells of a `(leaf_bits, levels)` tree.
    pub fn cell_count(leaf_bits: u64, levels: u64) -> u64 {
        (0..levels.min(leaf_bits + 1))
            .map(|i| 1u64 << (leaf_bits - i))
            .sum()
    }

    /// log2 of the leaf level's size.
    pub fn leaf_bits(&self) -> u64 {
        self.leaf_bits
    }

    /// Levels kept (after clamping).
    pub fn levels(&self) -> u64 {
        self.levels
    }

    /// Total cells.
    pub fn total_cells(&self) -> u64 {
        Self::cell_count(self.leaf_bits, self.levels)
    }

    /// The two candidate leaves of a key's hash pair.
    pub fn leaves(&self, h1: u64, h2: u64) -> (u64, u64) {
        let mask = (1u64 << self.leaf_bits) - 1;
        (h1 & mask, h2 & mask)
    }

    /// The cell index of `leaf`'s ancestor at `level`.
    pub fn cell(&self, leaf: u64, level: u64) -> u64 {
        self.level_base[level as usize] + (leaf >> level)
    }

    /// First cell index of `level`.
    pub fn level_base(&self, level: u64) -> u64 {
        self.level_base[level as usize]
    }

    /// Cells in `level`.
    pub fn level_size(&self, level: u64) -> u64 {
        1u64 << (self.leaf_bits - level)
    }

    /// Which level a flat cell index belongs to.
    pub fn level_of_cell(&self, idx: u64) -> u64 {
        self.level_base
            .iter()
            .rposition(|&b| b <= idx)
            .expect("level 0 starts at cell 0") as u64
    }

    /// Is `idx` on the root-ward path of `leaf`?
    pub fn on_path(&self, leaf: u64, idx: u64) -> bool {
        let level = self.level_of_cell(idx);
        self.cell(leaf, level) == idx
    }

    /// The probe sequence of leaves `(l1, l2)`: per level the two
    /// ancestors, visiting the shared ancestor once where the paths have
    /// merged.
    pub fn path_cells(&self, l1: u64, l2: u64) -> impl Iterator<Item = u64> + '_ {
        (0..self.levels).flat_map(move |level| {
            let c1 = self.cell(l1, level);
            let c2 = self.cell(l2, level);
            std::iter::once(c1).chain((c2 != c1).then_some(c2))
        })
    }
}

/// Lanes per iceberg bucket: fixed at 8 so one bucket's fingerprint tags
/// pack into a single `u64` metadata word matched by [`match_bits`].
pub const ICEBERG_LANES: u64 = 8;

/// IcebergHT-style level geometry: wide level-1 buckets addressed by one
/// hash, a small level-2 of *paired* backup buckets chosen by
/// power-of-two-choices, and a "backyard" of overflow buckets probed
/// linearly from a hashed home. Every bucket holds [`ICEBERG_LANES`] cells,
/// so each bucket owns exactly one 8-lane fingerprint word — the metadata
/// array a scheme keeps in DRAM and rebuilds on open.
///
/// The flat cell index space is `[0, total_cells)`: level-1 cells first,
/// then level-2, then the backyard. An entry, once placed in a cell, never
/// moves (stability) — the plan therefore has no displacement predicates,
/// only candidate enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcebergPlan {
    l1_buckets: u64,
    l2_buckets: u64,
    backyard_buckets: u64,
}

impl IcebergPlan {
    /// Builds the plan. All three bucket counts must be non-zero powers of
    /// two (validated by the scheme's config).
    pub fn new(l1_buckets: u64, l2_buckets: u64, backyard_buckets: u64) -> Self {
        debug_assert!(l1_buckets.is_power_of_two());
        debug_assert!(l2_buckets.is_power_of_two());
        debug_assert!(backyard_buckets.is_power_of_two());
        IcebergPlan {
            l1_buckets,
            l2_buckets,
            backyard_buckets,
        }
    }

    /// Level-1 bucket count.
    pub fn l1_buckets(&self) -> u64 {
        self.l1_buckets
    }

    /// Level-2 bucket count.
    pub fn l2_buckets(&self) -> u64 {
        self.l2_buckets
    }

    /// Backyard bucket count.
    pub fn backyard_buckets(&self) -> u64 {
        self.backyard_buckets
    }

    /// Total bucket count across all three levels (== metadata words).
    pub fn n_buckets(&self) -> u64 {
        self.l1_buckets + self.l2_buckets + self.backyard_buckets
    }

    /// Total cells across all three levels.
    pub fn total_cells(&self) -> u64 {
        self.n_buckets() * ICEBERG_LANES
    }

    /// The global bucket index of a key's level-1 bucket.
    pub fn l1_bucket(&self, h1: u64) -> u64 {
        h1 & (self.l1_buckets - 1)
    }

    /// The key's *paired* level-2 candidates (global bucket indices): the
    /// scheme inserts into whichever of the two is emptier
    /// (power-of-two-choices) and probes both on lookup.
    pub fn l2_pair(&self, h2: u64, h3: u64) -> (u64, u64) {
        let base = self.l1_buckets;
        (
            base + (h2 & (self.l2_buckets - 1)),
            base + (h3 & (self.l2_buckets - 1)),
        )
    }

    /// First global bucket index of the backyard.
    pub fn backyard_base(&self) -> u64 {
        self.l1_buckets + self.l2_buckets
    }

    /// The backyard home bucket of a hash (global bucket index).
    pub fn backyard_home(&self, h: u64) -> u64 {
        self.backyard_base() + (h & (self.backyard_buckets - 1))
    }

    /// The backyard probe sequence from `h`'s home: every backyard bucket
    /// once, wrapping — the overflow chain, in probe order.
    pub fn backyard_sequence(&self, h: u64) -> impl Iterator<Item = u64> + '_ {
        let base = self.backyard_base();
        let n = self.backyard_buckets;
        let home = h & (n - 1);
        (0..n).map(move |step| base + ((home + step) & (n - 1)))
    }

    /// The cell index of `lane` of global bucket `b`.
    pub fn cell(&self, b: u64, lane: u64) -> u64 {
        b * ICEBERG_LANES + lane
    }

    /// The cells of global bucket `b`, in lane order.
    pub fn bucket_cells(&self, b: u64) -> impl Iterator<Item = u64> {
        let base = b * ICEBERG_LANES;
        base..base + ICEBERG_LANES
    }

    /// Which global bucket owns cell `idx`.
    pub fn bucket_of_cell(&self, idx: u64) -> u64 {
        idx / ICEBERG_LANES
    }

    /// Which lane of its bucket cell `idx` occupies.
    pub fn lane_of_cell(&self, idx: u64) -> u64 {
        idx % ICEBERG_LANES
    }

    /// Which level (0, 1, or 2) cell `idx` belongs to.
    pub fn level_of_cell(&self, idx: u64) -> u64 {
        let b = self.bucket_of_cell(idx);
        if b < self.l1_buckets {
            0
        } else if b < self.backyard_base() {
            1
        } else {
            2
        }
    }

    /// Is `idx` a legal resting place for a key hashing to
    /// `(h1, h2, h3)`? Level-1 cells must sit in the key's level-1 bucket,
    /// level-2 cells in either paired candidate; any backyard cell is
    /// reachable (the overflow chain scans the whole backyard).
    pub fn cell_reachable(&self, idx: u64, h1: u64, h2: u64, h3: u64) -> bool {
        let b = self.bucket_of_cell(idx);
        match self.level_of_cell(idx) {
            0 => b == self.l1_bucket(h1),
            1 => {
                let (a, c) = self.l2_pair(h2, h3);
                b == a || b == c
            }
            _ => true,
        }
    }
}

/// A reusable selection vector: the positions of a batch still in flight.
///
/// The vectorized multi-get pipeline runs in phases (hash every key, check
/// every level-1 slot, scan every still-unresolved group). Between phases
/// the set of live keys shrinks; a selection vector carries exactly that
/// set as indices into the caller's flat per-key arrays, so each phase
/// loops over survivors only and no per-key state is ever moved. The
/// buffer is retained across batches — steady-state multi-gets allocate
/// nothing.
#[derive(Debug, Default, Clone)]
pub struct Selection {
    idx: Vec<u32>,
}

impl Selection {
    /// An empty selection with no retained capacity.
    pub fn new() -> Self {
        Selection::default()
    }

    /// Resets to the identity selection `0..n` (every batch position live).
    pub fn reset(&mut self, n: usize) {
        self.idx.clear();
        self.idx.extend(0..n as u32);
    }

    /// Drops every selected position.
    pub fn clear(&mut self) {
        self.idx.clear();
    }

    /// Number of live positions.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// The live positions, in ascending batch order.
    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// Adds a position (callers keep insertions ordered).
    pub fn push(&mut self, i: u32) {
        self.idx.push(i);
    }

    /// Keeps only the positions for which `keep` returns true, compacting
    /// in place (order preserved, no allocation).
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        self.idx.retain(|&i| keep(i));
    }
}

/// One fingerprint tag word matched against many keys' tags at once: for
/// each `(position, tag)` pair whose key probes the group behind `word`,
/// reports the 8-lane candidate mask via `out`. The word stays in a
/// register across the whole run — the batch analogue of [`match_bits`],
/// and the reason the vectorized path loads each fp-cache word once per
/// *group* instead of once per key.
pub fn match_bits_many(word: u64, tags: &[(u32, u8)], mut out: impl FnMut(u32, u64)) {
    for &(pos, tag) in tags {
        out(pos, match_bits(word, tag));
    }
}

/// Fills every byte lane of a word with `tag`.
pub fn broadcast(tag: u8) -> u64 {
    u64::from(tag) * 0x0101_0101_0101_0101
}

/// Exact SWAR tag match: returns a bitmask with bit `i` set iff byte lane
/// `i` of `word` equals `tag`. Eight fingerprint comparisons in a handful
/// of ALU ops, no false positives at the lane level.
pub fn match_bits(word: u64, tag: u8) -> u64 {
    const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let x = word ^ broadcast(tag);
    // Per-byte zero test without carries leaking across lanes: a byte of
    // `x` is zero iff its low 7 bits don't carry into bit 7 *and* bit 7 is
    // clear.
    let y = (x & LO7).wrapping_add(LO7);
    let hi = !(y | x | LO7);
    // Compress each lane's bit 7 down to one bit per lane.
    ((hi >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

#[cfg(test)]
mod tests {
    use super::*;

    fn match_bits_reference(word: u64, tag: u8) -> u64 {
        let mut m = 0u64;
        for lane in 0..8 {
            if (word >> (lane * 8)) as u8 == tag {
                m |= 1 << lane;
            }
        }
        m
    }

    #[test]
    fn swar_matches_scalar_reference() {
        let words = [
            0u64,
            u64::MAX,
            0x0102_0304_0506_0708,
            0x8080_8080_8080_8080,
            0x7F00_FF01_807E_0081,
            0xDEAD_BEEF_CAFE_BABE,
        ];
        for &w in &words {
            for tag in [0u8, 1, 0x7F, 0x80, 0xFF, 0xAD, 0xBE] {
                assert_eq!(
                    match_bits(w, tag),
                    match_bits_reference(w, tag),
                    "word {w:#018x} tag {tag:#04x}"
                );
            }
        }
    }

    #[test]
    fn match_bits_all_and_none() {
        assert_eq!(match_bits(broadcast(0x5A), 0x5A), 0xFF);
        assert_eq!(match_bits(broadcast(0x5A), 0xA5), 0);
        assert_eq!(match_bits(0, 0), 0xFF);
    }

    #[test]
    fn match_bits_many_equals_per_key_matches() {
        let word = 0x7F00_FF01_807E_0081u64;
        let tags: Vec<(u32, u8)> = [0u8, 1, 0x7E, 0x7F, 0x80, 0x81, 0xFF, 0xAB]
            .iter()
            .enumerate()
            .map(|(i, &t)| (i as u32 * 3, t))
            .collect();
        let mut got = Vec::new();
        match_bits_many(word, &tags, |pos, mask| got.push((pos, mask)));
        let want: Vec<(u32, u64)> = tags
            .iter()
            .map(|&(pos, t)| (pos, match_bits_reference(word, t)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn selection_reset_retain_compacts_in_order() {
        let mut sel = Selection::new();
        assert!(sel.is_empty());
        sel.reset(6);
        assert_eq!(sel.len(), 6);
        assert_eq!(sel.indices(), &[0, 1, 2, 3, 4, 5]);
        sel.retain(|i| i % 2 == 1);
        assert_eq!(sel.indices(), &[1, 3, 5]);
        sel.push(9);
        assert_eq!(sel.indices(), &[1, 3, 5, 9]);
        sel.clear();
        assert!(sel.is_empty());
        // Reuse after clear: the identity selection comes back whole.
        sel.reset(3);
        assert_eq!(sel.indices(), &[0, 1, 2]);
    }

    #[test]
    fn group_plan_contiguous_sequences() {
        let p = GroupPlan::new(4, 8);
        assert_eq!(p.cells_per_level(), 32);
        assert_eq!(p.group_cells(0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(p.group_cells(3).collect::<Vec<_>>(), vec![12, 13, 14, 15]);
        assert_eq!(p.group_of_slot(13), 3);
        for g in 0..8 {
            for c in p.group_cells(g) {
                assert_eq!(p.group_of_cell(c), g);
            }
        }
    }

    #[test]
    fn group_plan_partitions_the_level() {
        let p = GroupPlan::new(8, 16);
        let mut seen: Vec<u64> = (0..16).flat_map(|g| p.group_cells(g)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..128).collect::<Vec<_>>());
    }

    #[test]
    fn linear_plan_wraps() {
        let p = LinearPlan::new(8);
        assert_eq!(p.home(0x1234_5678), 0x1234_5678 & 7);
        assert_eq!(p.step(7), 0);
        assert_eq!(
            p.sequence(6).collect::<Vec<_>>(),
            vec![6, 7, 0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn linear_must_stay_matches_probe_reachability() {
        // Brute force: the entry at `i` with home `home` may stay iff its
        // probe path home..=i (cyclic) does not pass through the hole.
        let p = LinearPlan::new(8);
        for hole in 0..8u64 {
            for home in 0..8u64 {
                for i in 0..8u64 {
                    if i == hole {
                        continue;
                    }
                    let path_hits_hole =
                        p.sequence(home).take_while(|&c| c != i).any(|c| c == hole);
                    assert_eq!(
                        LinearPlan::must_stay(hole, home, i),
                        !path_hits_hole,
                        "hole {hole} home {home} i {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pfht_plan_buckets_and_stash() {
        let p = PfhtPlan::new(16, 4, 3);
        assert_eq!(p.total_cells(), 67);
        assert_eq!(p.stash_base(), 64);
        assert_eq!(p.bucket_range(2).collect::<Vec<_>>(), vec![8, 9, 10, 11]);
        assert_eq!(p.cell(15, 3), 63);
        assert_eq!(p.buckets(0x21, 0x33), (1, 3));
        assert_eq!(p.bucket_of_cell(11), Some(2));
        assert_eq!(p.bucket_of_cell(64), None);
        assert_eq!(p.bucket_of_cell(66), None);
    }

    #[test]
    fn path_plan_known_geometry() {
        // leaf_bits 3, 3 levels: sizes 8 + 4 + 2 = 14 cells,
        // bases [0, 8, 12].
        let p = PathPlan::new(3, 3);
        assert_eq!(p.total_cells(), 14);
        assert_eq!(PathPlan::cell_count(3, 3), 14);
        assert_eq!(p.level_base(0), 0);
        assert_eq!(p.level_base(1), 8);
        assert_eq!(p.level_base(2), 12);
        assert_eq!(p.cell(5, 0), 5);
        assert_eq!(p.cell(5, 1), 8 + 2);
        assert_eq!(p.cell(5, 2), 12 + 1);
        assert_eq!(p.level_of_cell(7), 0);
        assert_eq!(p.level_of_cell(8), 1);
        assert_eq!(p.level_of_cell(13), 2);
        assert!(p.on_path(5, 10));
        assert!(!p.on_path(5, 9));
    }

    #[test]
    fn path_plan_sequence_dedups_merged_ancestors() {
        let p = PathPlan::new(3, 3);
        // Leaves 2 and 3 share ancestors from level 1 up.
        assert_eq!(p.path_cells(2, 3).collect::<Vec<_>>(), vec![2, 3, 9, 12]);
        // Distinct paths all the way up to the last kept level.
        assert_eq!(
            p.path_cells(0, 7).collect::<Vec<_>>(),
            vec![0, 7, 8, 11, 12, 13]
        );
        // Same leaf twice: each cell once.
        assert_eq!(p.path_cells(4, 4).collect::<Vec<_>>(), vec![4, 10, 13]);
    }

    #[test]
    fn path_plan_clamps_levels() {
        let p = PathPlan::new(2, 10);
        assert_eq!(p.levels(), 3);
        assert_eq!(p.total_cells(), 4 + 2 + 1);
    }

    #[test]
    fn iceberg_plan_level_bases_and_totals() {
        // 8 L1 + 4 L2 + 4 backyard buckets of 8 lanes = 128 cells.
        let p = IcebergPlan::new(8, 4, 4);
        assert_eq!(p.n_buckets(), 16);
        assert_eq!(p.total_cells(), 128);
        assert_eq!(p.backyard_base(), 12);
        assert_eq!(p.l1_bucket(0x35), 0x35 & 7);
        assert_eq!(p.l2_pair(0x11, 0x22), (8 + 1, 8 + 2));
        assert_eq!(p.cell(3, 5), 29);
        assert_eq!(p.bucket_of_cell(29), 3);
        assert_eq!(p.lane_of_cell(29), 5);
    }

    #[test]
    fn iceberg_plan_levels_partition_the_cells() {
        let p = IcebergPlan::new(8, 4, 4);
        let mut counts = [0u64; 3];
        for idx in 0..p.total_cells() {
            counts[p.level_of_cell(idx) as usize] += 1;
        }
        assert_eq!(counts, [64, 32, 32]);
    }

    #[test]
    fn iceberg_backyard_sequence_visits_every_bucket_once() {
        let p = IcebergPlan::new(8, 4, 4);
        for h in 0..16u64 {
            let mut seq: Vec<u64> = p.backyard_sequence(h).collect();
            assert_eq!(seq[0], p.backyard_home(h));
            seq.sort_unstable();
            assert_eq!(seq, vec![12, 13, 14, 15]);
        }
    }

    #[test]
    fn iceberg_reachability_matches_levels() {
        let p = IcebergPlan::new(8, 4, 4);
        let (h1, h2, h3) = (5u64, 2u64, 7u64);
        // L1: only the key's own bucket.
        assert!(p.cell_reachable(p.cell(5, 0), h1, h2, h3));
        assert!(!p.cell_reachable(p.cell(4, 0), h1, h2, h3));
        // L2: either paired candidate, nothing else.
        let (a, b) = p.l2_pair(h2, h3);
        assert!(p.cell_reachable(p.cell(a, 3), h1, h2, h3));
        assert!(p.cell_reachable(p.cell(b, 3), h1, h2, h3));
        assert!(
            !p.cell_reachable(p.cell(8 + 1, 0), h1, 2, 2),
            "bucket 9 not in pair for (2,2)"
        );
        // Backyard: every bucket is on the overflow chain.
        for by in p.backyard_base()..p.n_buckets() {
            assert!(p.cell_reachable(p.cell(by, 7), h1, h2, h3));
        }
    }
}
