//! Unified construction and dispatch over the compared hashing schemes.

use group_hash::{ChoiceMode, GroupHash, GroupHashConfig};
use nvm_baselines::{Iceberg, LinearProbing, MetaMode, PathHash, Pfht};
use nvm_hashfn::{HashKey, Pod};
use nvm_pmem::{Pmem, Region, SimConfig, SimPmem};
use nvm_table::{BatchError, ConsistencyMode, HashScheme, InsertError, TableError};

/// The configurations compared in the paper's figures, plus the two
/// post-paper extensions (group-2c and the stable iceberg scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    Linear,
    LinearL,
    Pfht,
    PfhtL,
    Path,
    PathL,
    /// Extension (ROADMAP): an IcebergHT-style stable scheme — entries
    /// never move after insert, lookups are filtered by volatile
    /// fingerprint metadata words.
    Iceberg,
    /// Iceberg with the undo log armed (uniform `-L` treatment; its ops
    /// are single-word publishes, so the log is belt and braces).
    IcebergL,
    Group,
    /// Extension (paper §4.4): group hashing with a second hash function.
    Group2C,
}

impl SchemeKind {
    /// Everything, bare baselines included (Figure 2's cast).
    pub const ALL: [SchemeKind; 10] = [
        SchemeKind::Linear,
        SchemeKind::LinearL,
        SchemeKind::Pfht,
        SchemeKind::PfhtL,
        SchemeKind::Path,
        SchemeKind::PathL,
        SchemeKind::Iceberg,
        SchemeKind::IcebergL,
        SchemeKind::Group,
        SchemeKind::Group2C,
    ];

    /// The consistent schemes compared in Figures 5–6 (logged baselines +
    /// group hashing).
    pub const CONSISTENT: [SchemeKind; 4] = [
        SchemeKind::LinearL,
        SchemeKind::PfhtL,
        SchemeKind::PathL,
        SchemeKind::Group,
    ];

    /// The schemes with a bounded space-utilization ratio (Figure 7;
    /// linear probing fills to 1.0 and is excluded by the paper).
    pub const BOUNDED_UTIL: [SchemeKind; 5] = [
        SchemeKind::Pfht,
        SchemeKind::Path,
        SchemeKind::Iceberg,
        SchemeKind::Group,
        SchemeKind::Group2C,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Linear => "linear",
            SchemeKind::LinearL => "linear-L",
            SchemeKind::Pfht => "PFHT",
            SchemeKind::PfhtL => "PFHT-L",
            SchemeKind::Path => "path",
            SchemeKind::PathL => "path-L",
            SchemeKind::Iceberg => "iceberg",
            SchemeKind::IcebergL => "iceberg-L",
            SchemeKind::Group => "group",
            SchemeKind::Group2C => "group-2c",
        }
    }

    /// Parses a label as printed in figures/CSVs (case-insensitive), for
    /// `--schemes` on the command line.
    pub fn from_label(s: &str) -> Option<SchemeKind> {
        SchemeKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(s))
    }

    fn mode(self) -> ConsistencyMode {
        match self {
            SchemeKind::LinearL | SchemeKind::PfhtL | SchemeKind::PathL | SchemeKind::IcebergL => {
                ConsistencyMode::UndoLog
            }
            _ => ConsistencyMode::None,
        }
    }
}

/// A scheme-erased persistent hash table (enum dispatch keeps everything
/// monomorphized and `HashScheme`'s `&mut P` signatures object-unsafe-free).
pub enum AnyScheme<P: Pmem, K: HashKey, V: Pod> {
    Linear(LinearProbing<P, K, V>),
    Pfht(Pfht<P, K, V>),
    Path(PathHash<P, K, V>),
    Iceberg(Iceberg<P, K, V>),
    Group(GroupHash<P, K, V>),
}

macro_rules! dispatch {
    ($self:ident, $t:ident => $e:expr) => {
        match $self {
            AnyScheme::Linear($t) => $e,
            AnyScheme::Pfht($t) => $e,
            AnyScheme::Path($t) => $e,
            AnyScheme::Iceberg($t) => $e,
            AnyScheme::Group($t) => $e,
        }
    };
}

impl<P: Pmem, K: HashKey, V: Pod> HashScheme<P, K, V> for AnyScheme<P, K, V> {
    fn name(&self) -> &'static str {
        dispatch!(self, t => HashScheme::<P, K, V>::name(t))
    }
    fn insert(&mut self, pm: &mut P, key: K, value: V) -> Result<(), InsertError> {
        dispatch!(self, t => HashScheme::<P, K, V>::insert(t, pm, key, value))
    }
    fn insert_batch(&mut self, pm: &mut P, items: &[(K, V)]) -> Result<(), BatchError> {
        dispatch!(self, t => HashScheme::<P, K, V>::insert_batch(t, pm, items))
    }
    fn remove_batch(&mut self, pm: &mut P, keys: &[K]) -> usize {
        dispatch!(self, t => HashScheme::<P, K, V>::remove_batch(t, pm, keys))
    }
    fn get(&self, pm: &P, key: &K) -> Option<V> {
        dispatch!(self, t => HashScheme::<P, K, V>::get(t, pm, key))
    }
    fn remove(&mut self, pm: &mut P, key: &K) -> bool {
        dispatch!(self, t => HashScheme::<P, K, V>::remove(t, pm, key))
    }
    fn len(&self, pm: &P) -> u64 {
        dispatch!(self, t => HashScheme::<P, K, V>::len(t, pm))
    }
    fn capacity(&self) -> u64 {
        dispatch!(self, t => HashScheme::<P, K, V>::capacity(t))
    }
    fn recover(&mut self, pm: &mut P) {
        dispatch!(self, t => HashScheme::<P, K, V>::recover(t, pm))
    }
    fn check_consistency(&self, pm: &P) -> Result<(), TableError> {
        dispatch!(self, t => HashScheme::<P, K, V>::check_consistency(t, pm))
    }
    fn instrumentation(&self) -> Option<&nvm_metrics::SchemeInstrumentation> {
        dispatch!(self, t => HashScheme::<P, K, V>::instrumentation(t))
    }
}

/// The shared tail of every `build_any` arm: allocate a fresh simulated
/// pool of `$size` bytes, run the scheme's `create` over the whole region,
/// and wrap the table in the matching [`AnyScheme`] variant. Adding scheme
/// N+1 is one `built!` entry (geometry + create call), not another copy of
/// the pool/region/expect plumbing.
macro_rules! built {
    ($variant:ident, $size:expr, $sim:expr, |$pm:ident, $region:ident| $create:expr) => {{
        let size = $size;
        let mut $pm = SimPmem::new(size, $sim);
        let $region = Region::new(0, size);
        let t = $create.expect(concat!(stringify!($variant), " create"));
        ($pm, AnyScheme::$variant(t))
    }};
}

/// Builds `kind` sized for a `total_cells` budget (a power of two) on a
/// fresh simulated pool. `group_size` applies to group hashing only.
pub fn build_any<K: HashKey, V: Pod>(
    kind: SchemeKind,
    total_cells: u64,
    seed: u64,
    sim: SimConfig,
    group_size: u64,
) -> (SimPmem, AnyScheme<SimPmem, K, V>) {
    assert!(total_cells.is_power_of_two(), "cell budget must be 2^k");
    match kind {
        SchemeKind::Linear | SchemeKind::LinearL => built!(
            Linear,
            LinearProbing::<SimPmem, K, V>::required_size(total_cells),
            sim,
            |pm, region| LinearProbing::create(&mut pm, region, total_cells, seed, kind.mode())
        ),
        SchemeKind::Pfht | SchemeKind::PfhtL => {
            let (buckets, stash) = Pfht::<SimPmem, K, V>::geometry_for(total_cells);
            built!(
                Pfht,
                Pfht::<SimPmem, K, V>::required_size(buckets, stash),
                sim,
                |pm, region| Pfht::create(&mut pm, region, buckets, stash, seed, kind.mode())
            )
        }
        SchemeKind::Path | SchemeKind::PathL => {
            let (leaf_bits, levels) = PathHash::<SimPmem, K, V>::geometry_for(total_cells);
            built!(
                Path,
                PathHash::<SimPmem, K, V>::required_size(leaf_bits, levels),
                sim,
                |pm, region| PathHash::create(
                    &mut pm,
                    region,
                    leaf_bits,
                    levels,
                    seed,
                    kind.mode()
                )
            )
        }
        SchemeKind::Iceberg | SchemeKind::IcebergL => {
            let (l1, l2, yard) = Iceberg::<SimPmem, K, V>::geometry_for(total_cells);
            built!(
                Iceberg,
                Iceberg::<SimPmem, K, V>::required_size(l1, l2, yard),
                sim,
                |pm, region| Iceberg::create(
                    &mut pm,
                    region,
                    (l1, l2, yard),
                    seed,
                    kind.mode(),
                    MetaMode::On,
                )
            )
        }
        SchemeKind::Group | SchemeKind::Group2C => {
            let choice = if kind == SchemeKind::Group2C {
                ChoiceMode::TwoChoice
            } else {
                ChoiceMode::Single
            };
            let cfg = GroupHashConfig::new(total_cells / 2, group_size.min(total_cells / 2))
                .with_seed(seed)
                .with_choice(choice);
            built!(
                Group,
                GroupHash::<SimPmem, K, V>::required_size(&cfg),
                sim,
                |pm, region| GroupHash::create(&mut pm, region, cfg)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemes_build_and_roundtrip() {
        for kind in SchemeKind::ALL {
            let (mut pm, mut t) =
                build_any::<u64, u64>(kind, 1 << 10, 7, SimConfig::fast_test(), 64);
            if kind != SchemeKind::Group2C {
                assert_eq!(t.name(), kind.label());
            }
            for k in 0..200u64 {
                t.insert(&mut pm, k, k + 1).unwrap();
            }
            for k in 0..200u64 {
                assert_eq!(t.get(&pm, &k), Some(k + 1), "{kind:?} key {k}");
            }
            for k in 0..100u64 {
                assert!(t.remove(&mut pm, &k), "{kind:?} remove {k}");
            }
            assert_eq!(t.len(&pm), 100);
            t.check_consistency(&pm)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    /// Every scheme surfaces probe/occupancy/displacement histograms,
    /// one probe sample per operation.
    #[test]
    fn every_scheme_records_instrumentation() {
        for kind in SchemeKind::ALL {
            let (mut pm, mut t) =
                build_any::<u64, u64>(kind, 1 << 10, 11, SimConfig::fast_test(), 64);
            for k in 0..100u64 {
                t.insert(&mut pm, k, k + 1).unwrap();
            }
            for k in 0..100u64 {
                assert!(t.get(&pm, &k).is_some());
            }
            let i = t.instrumentation().expect("every scheme records");
            assert_eq!(i.probe.count(), 200, "{kind:?}: inserts + gets");
            assert_eq!(i.occupancy.count(), 100, "{kind:?}: one per insert");
            assert_eq!(i.displacement.count(), 100, "{kind:?}: one per insert");
        }
    }

    #[test]
    fn capacities_respect_budget() {
        for kind in SchemeKind::ALL {
            let (_pm, t) = build_any::<u64, u64>(kind, 1 << 12, 1, SimConfig::fast_test(), 256);
            let cap = t.capacity();
            // PFHT carries the paper's 3% extra stash on top of the budget.
            assert!(
                cap <= (1 << 12) + (1 << 12) * 3 / 100 + 1,
                "{kind:?}: {cap}"
            );
            assert!(cap >= (1 << 12) * 9 / 10, "{kind:?} wastes budget: {cap}");
        }
    }

    #[test]
    fn wide_items_build() {
        for kind in [SchemeKind::Group, SchemeKind::PfhtL, SchemeKind::Iceberg] {
            let (mut pm, mut t) =
                build_any::<[u8; 16], [u8; 16]>(kind, 1 << 8, 2, SimConfig::fast_test(), 64);
            let k = [9u8; 16];
            t.insert(&mut pm, k, k).unwrap();
            assert_eq!(t.get(&pm, &k), Some(k));
        }
    }

    /// The stability property the iceberg scheme advertises, observed
    /// through the scheme-erased facade: a key's probe cost never changes
    /// as later keys pour in around it.
    #[test]
    fn iceberg_entries_stay_put_behind_the_facade() {
        let (mut pm, mut t) =
            build_any::<u64, u64>(SchemeKind::Iceberg, 1 << 9, 3, SimConfig::fast_test(), 64);
        for k in 0..64u64 {
            t.insert(&mut pm, k, k).unwrap();
        }
        for k in 64..400u64 {
            if t.insert(&mut pm, k, k).is_err() {
                break;
            }
        }
        for k in 0..64u64 {
            assert_eq!(t.get(&pm, &k), Some(k));
        }
        t.check_consistency(&pm).unwrap();
    }
}
