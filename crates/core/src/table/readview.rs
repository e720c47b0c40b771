//! Algorithm 2 — the group table's lookup — and the read-only,
//! `Copy`-able [`GroupReadView`] that runs it.
//!
//! There is one implementation of the lookup, generic over any
//! [`PmemRead`] implementor: probe the key's level-1 slot(s), then scan
//! the matched group(s) word-wise (one bitmap load covers 64 cells, and
//! the occupied cells are compared in ascending address order — the
//! access pattern behind the paper's "a single memory access can
//! prefetch the following cells"). The batch form pipelines the same
//! steps: hash, prefetch level 1, resolve, prefetch groups, scan.
//!
//! Both entry points run this machine. The owning
//! [`GroupHash`](super::GroupHash) lends it two [`Aids`]: its DRAM
//! fingerprint cache (under `FpMode::On`, so the scans go tag-first) and
//! its [`SchemeInstrumentation`]. The view lends neither: it holds only
//! the table's *volatile* description — the config, the hash streams and
//! the two cell-store handles (regions + geometry, no pool bytes) — so it
//! runs key-first and records nothing. That makes it the minimal probe
//! machine concurrent readers clone and run lock-free (the seqlock in
//! `crate::concurrent` validates each optimistic read).
//!
//! The view stays correct across any number of inserts/removes on the
//! owning table because everything it holds is layout, not contents: the
//! paper's 8-byte atomic bitmap publish means the pool itself is always
//! in a consistent committed state between (not during) bit flips.
//!
//! Layering: this module may name only the read-side pool surface — the
//! `ci.sh` lint rejects any use of the write-capable trait here.
//!
//! # Hit revalidation
//!
//! After reading a matched cell's value the view re-checks the
//! occupancy bit and the key. If either changed, the lookup ends as a
//! miss: a retract beat the read, so the miss is linearized after the
//! remove's commit. Under the sharded wrapper every write runs at odd
//! sequence, so the seqlock already rejects any read that overlapped a
//! retract; the recheck is a second, local line of defence that keeps a
//! view used without a seqlock from returning a value the scrub is
//! already overwriting.

use super::{probe, Level};
use crate::config::GroupHashConfig;
use crate::fpcache::FpCache;
use nvm_hashfn::{HashKey, HashPair, Pod};
use nvm_metrics::SchemeInstrumentation;
use nvm_pmem::PmemRead;
use nvm_table::probe::{match_bits, Selection};
use nvm_table::CellStore;

/// A read-only snapshot of a group-hash table's geometry: enough to run
/// Algorithm 2 (`get`) against any read handle, nothing more.
///
/// `Copy` by construction — cloning a view is moving ~100 bytes of plain
/// data, so every reader thread can own one.
#[derive(Debug)]
pub struct GroupReadView<K: HashKey, V: Pod> {
    pub(super) config: GroupHashConfig,
    pub(super) hash: HashPair,
    /// Level-1 cells (the direct-mapped slots).
    pub(super) store1: CellStore<K, V>,
    /// Level-2 cells (the shared groups).
    pub(super) store2: CellStore<K, V>,
}

// Manual impls for the same reason as `CellStore`: a derive would
// wrongly require `K: Copy, V: Copy`.
impl<K: HashKey, V: Pod> Clone for GroupReadView<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: HashKey, V: Pod> Copy for GroupReadView<K, V> {}

/// What the owning table lends a lookup beyond the layout: its DRAM tag
/// cache (`Some` exactly under `FpMode::On`) and its recorder. A detached
/// view lends neither ([`Aids::default`]).
#[derive(Clone, Copy, Default)]
pub(super) struct Aids<'a> {
    pub(super) fp: Option<&'a FpCache>,
    pub(super) instr: Option<&'a SchemeInstrumentation>,
}

impl Aids<'_> {
    /// Records a completed lookup's probe length (cells examined).
    #[inline]
    fn note_probe(&self, cells: u64) {
        if let Some(instr) = self.instr {
            instr.record_probe(cells);
        }
    }

    /// Records one key load from the pool (in both fingerprint modes, so
    /// filtered and unfiltered runs report the probe path's NVM traffic
    /// in the same counter).
    #[inline]
    fn note_key_read(&self) {
        if let Some(instr) = self.instr {
            instr.fingerprint.key_reads.add(1);
        }
    }

    /// Records fingerprint-filter outcomes: occupied cells skipped on a
    /// tag mismatch, tag matches whose key compared unequal, and tag
    /// matches confirmed by the key bytes.
    #[inline]
    fn note_fp(&self, skips: u64, false_positives: u64, hits: u64) {
        if let Some(instr) = self.instr {
            instr.fingerprint.skips.add(skips);
            instr.fingerprint.false_positives.add(false_positives);
            instr.fingerprint.hits.add(hits);
        }
    }
}

/// One key's DRAM tag filter: the owner's cache plus the key's tag.
#[derive(Clone, Copy)]
struct Sieve<'a> {
    fp: &'a FpCache,
    tag: u8,
}

impl Sieve<'_> {
    /// Whether level-1 slot `k`'s cached tag matches.
    #[inline]
    fn passes_level1(&self, k: u64) -> bool {
        self.fp.get(Level::One.idx(), k) == self.tag
    }

    /// The cells of one level-2 occupancy word (`occ`, based at cell
    /// `word_base`) whose cached tag matches: eight tags load as one
    /// word, a SWAR compare against the probe tag ANDed with the
    /// occupancy bits selects the candidates.
    #[inline]
    fn candidates(&self, word_base: u64, occ: u64) -> u64 {
        let mut cand = 0u64;
        let mut sub = 0u64;
        while sub < 64 {
            let lanes = occ >> sub & 0xFF;
            if lanes != 0 {
                let tags = self.fp.word(Level::Two.idx(), word_base + sub);
                cand |= (match_bits(tags, self.tag) & lanes) << sub;
            }
            sub += 8;
        }
        cand
    }
}

/// One key's lookup in flight: its candidate level-1 slots (primary
/// first) and, when the owner lends a tag cache, its sieve — hashed
/// once — plus the cells examined so far.
struct Lookup<'a> {
    k1: u64,
    k2: Option<u64>,
    sieve: Option<Sieve<'a>>,
    cells: u64,
}

impl<K: HashKey, V: Pod> GroupReadView<K, V> {
    /// The configuration the view was captured from.
    pub fn config(&self) -> &GroupHashConfig {
        &self.config
    }

    /// Algorithm 2 against a bare read handle: candidate level-1 slot(s),
    /// then the matched level-2 group(s). Key-first (no fingerprint
    /// filter — the DRAM tag cache belongs to the owning table, whose
    /// mutators keep it coherent; a detached view could not see updates).
    pub fn get<R: PmemRead>(&self, pm: &R, key: &K) -> Option<V> {
        let (level, idx) = self.locate(pm, key, Aids::default())?;
        self.read_hit(pm, level, idx, key)
    }

    /// Batched Algorithm 2: one lookup per key, answers in input order,
    /// same results as calling [`GroupReadView::get`] per element. The
    /// batch is pipelined — hash everything, software-prefetch every
    /// candidate line, then resolve the probes against warm cache — so
    /// the per-key NVM latency overlaps instead of serializing.
    ///
    /// ```
    /// use group_hash::{GroupHash, GroupHashConfig};
    /// use nvm_pmem::{Pmem, PmemRead, Region, SimConfig, SimPmem};
    ///
    /// let cfg = GroupHashConfig::new(1 << 10, 64);
    /// let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    /// let mut pm = SimPmem::new(size, SimConfig::fast_test());
    /// let mut t = GroupHash::create(&mut pm, Region::new(0, size), cfg).unwrap();
    /// for k in 0..64u64 {
    ///     t.insert(&mut pm, k, !k).unwrap();
    /// }
    ///
    /// // A view + read handle answer batches without the owning table.
    /// let view = t.read_view();
    /// let reader = pm.read_handle();
    /// let hits = view.get_batch(&reader, &[1u64, 63, 9999]);
    /// assert_eq!(hits, vec![Some(!1), Some(!63), None]);
    /// ```
    pub fn get_batch<R: PmemRead>(&self, pm: &R, keys: &[K]) -> Vec<Option<V>> {
        let mut out = Vec::new();
        self.get_batch_into(pm, keys, &mut out);
        out
    }

    /// Scratch-reusing form of [`GroupReadView::get_batch`]: clears `out`
    /// and fills it with one answer per key. The sharded concurrent path
    /// calls this once per seqlock attempt, reusing the same buffer across
    /// shards and retries so validation failures cost no allocation.
    pub fn get_batch_into<R: PmemRead>(&self, pm: &R, keys: &[K], out: &mut Vec<Option<V>>) {
        out.clear();
        out.resize(keys.len(), None);
        self.locate_batch(pm, keys, Aids::default(), |i, level, idx| {
            out[i] = self.read_hit(pm, level, idx, &keys[i]);
        });
    }

    /// Whether `key` is present.
    pub fn contains<R: PmemRead>(&self, pm: &R, key: &K) -> bool {
        self.get(pm, key).is_some()
    }

    /// The cell store of a level.
    #[inline]
    pub(super) fn store(&self, level: Level) -> CellStore<K, V> {
        match level {
            Level::One => self.store1,
            Level::Two => self.store2,
        }
    }

    /// Finds the `(level, cell)` holding `key`, probing the candidate
    /// slot(s) then the matched group(s). Records one probe-length sample
    /// (cells examined) per call.
    pub(super) fn locate<R: PmemRead>(
        &self,
        pm: &R,
        key: &K,
        aids: Aids<'_>,
    ) -> Option<(Level, u64)> {
        let mut look = self.start(key, aids);
        let found = match self.resolve_level1(pm, key, &mut look, aids) {
            Some(k) => Some((Level::One, k)),
            None => self
                .resolve_groups(pm, key, &mut look, aids)
                .map(|idx| (Level::Two, idx)),
        };
        aids.note_probe(look.cells);
        found
    }

    /// Vectorized [`locate`](Self::locate): calls `hit(i, level, cell)`
    /// for every `keys[i]` found, in resolution order, with the same
    /// probe and fingerprint recording as one `locate` per key — but
    /// pipelined so NVM read latencies overlap instead of serializing:
    ///
    /// 1. hash the whole key vector up front (slots, tags);
    /// 2. software-prefetch every key's level-1 bitmap word and cell line;
    /// 3. resolve all level-1 probes against the now-warm lines; keys
    ///    still unresolved survive into a [`Selection`] vector;
    /// 4. prefetch the matched groups' occupancy words for the survivors,
    ///    then the cells the group scan will read first;
    /// 5. run the group scans — every line they touch was prefetched.
    ///
    /// A pure read: zero flushes, zero fences, zero (atomic) writes.
    pub(super) fn locate_batch<R: PmemRead>(
        &self,
        pm: &R,
        keys: &[K],
        aids: Aids<'_>,
        mut hit: impl FnMut(usize, Level, u64),
    ) {
        // Phase 1: hash everything before touching the pool.
        let mut looks: Vec<Lookup<'_>> = keys.iter().map(|key| self.start(key, aids)).collect();
        // Phase 2: issue the level-1 prefetches for the whole batch.
        for look in &looks {
            self.prefetch_level1(pm, look.k1, look.sieve);
            if let Some(k2) = look.k2 {
                self.prefetch_level1(pm, k2, look.sieve);
            }
        }
        // Phase 3: resolve level 1 for every key; survivors go on.
        let mut sel = Selection::new();
        for (i, (key, look)) in keys.iter().zip(&mut looks).enumerate() {
            match self.resolve_level1(pm, key, look, aids) {
                Some(k) => {
                    aids.note_probe(look.cells);
                    hit(i, Level::One, k);
                }
                None => sel.push(i as u32),
            }
        }
        // Phase 4: warm the survivors' groups before scanning any of them.
        for &i in sel.indices() {
            let look = &looks[i as usize];
            let (g1, g2) = self.groups(look);
            self.prefetch_group(pm, g1, look.sieve);
            if let Some(g2) = g2 {
                self.prefetch_group(pm, g2, look.sieve);
            }
        }
        // Phase 5: the scans themselves — the single-key code, now
        // against warm lines.
        for &i in sel.indices() {
            let i = i as usize;
            let look = &mut looks[i];
            let found = self.resolve_groups(pm, &keys[i], look, aids);
            aids.note_probe(look.cells);
            if let Some(idx) = found {
                hit(i, Level::Two, idx);
            }
        }
    }

    /// Starts a lookup of `key`: hashes it once.
    #[inline]
    fn start<'a>(&self, key: &K, aids: Aids<'a>) -> Lookup<'a> {
        let (k1, k2) = probe::candidate_slots(&self.hash, &self.config, key);
        Lookup {
            k1,
            k2,
            sieve: aids.fp.map(|fp| Sieve {
                fp,
                tag: probe::fp_tag(&self.hash, key),
            }),
            cells: 0,
        }
    }

    /// The matched group(s) of a lookup: the primary slot's, plus the
    /// second slot's when it differs.
    #[inline]
    fn groups(&self, look: &Lookup<'_>) -> (u64, Option<u64>) {
        let plan = probe::plan(&self.config);
        let g1 = plan.group_of_slot(look.k1);
        let g2 = look
            .k2
            .map(|k2| plan.group_of_slot(k2))
            .filter(|&g2| g2 != g1);
        (g1, g2)
    }

    /// Algorithm 2's level-1 step: the candidate slot holding `key`, if
    /// any.
    #[inline]
    fn resolve_level1<R: PmemRead>(
        &self,
        pm: &R,
        key: &K,
        look: &mut Lookup<'_>,
        aids: Aids<'_>,
    ) -> Option<u64> {
        look.cells += 1;
        if self.level1_holds(pm, look.k1, key, look.sieve, aids) {
            return Some(look.k1);
        }
        let k2 = look.k2?;
        look.cells += 1;
        self.level1_holds(pm, k2, key, look.sieve, aids)
            .then_some(k2)
    }

    /// Algorithm 2's level-2 step: the cell of the matched group(s)
    /// holding `key`, if any.
    #[inline]
    fn resolve_groups<R: PmemRead>(
        &self,
        pm: &R,
        key: &K,
        look: &mut Lookup<'_>,
        aids: Aids<'_>,
    ) -> Option<u64> {
        let (g1, g2) = self.groups(look);
        for g in std::iter::once(g1).chain(g2) {
            let (found, examined) = self.find_key_in_group(pm, g, key, look.sieve, aids);
            look.cells += examined;
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Checks whether level-1 slot `k` holds `key`, reading the key bytes
    /// only when the slot is occupied and (under a sieve) its cached tag
    /// matches.
    #[inline]
    fn level1_holds<R: PmemRead>(
        &self,
        pm: &R,
        k: u64,
        key: &K,
        sieve: Option<Sieve<'_>>,
        aids: Aids<'_>,
    ) -> bool {
        if !self.store1.is_occupied(pm, k) {
            return false;
        }
        if sieve.is_some_and(|s| !s.passes_level1(k)) {
            aids.note_fp(1, 0, 0);
            return false;
        }
        aids.note_key_read();
        let hit = self.store1.read_key(pm, k) == *key;
        if sieve.is_some() {
            aids.note_fp(0, u64::from(!hit), u64::from(hit));
        }
        hit
    }

    /// The level-2 occupancy words of group `g`, one `(word_base, bits)`
    /// per 64-cell bitmap word the group spans, with the bits outside the
    /// group masked off (only relevant for groups smaller than 64).
    /// Lazy: a scan that stops early reads no further word.
    fn group_words<'a, R: PmemRead>(
        &'a self,
        pm: &'a R,
        g: u64,
    ) -> impl Iterator<Item = (u64, u64)> + 'a {
        let start = g * self.config.group_size;
        let end = start + self.config.group_size;
        (start - start % 64..end).step_by(64).map(move |word_base| {
            let mut word = self.store2.bitmap.word_containing(pm, word_base);
            if start > word_base {
                word &= u64::MAX << (start - word_base);
            }
            if end - word_base < 64 {
                word &= (1u64 << (end - word_base)) - 1;
            }
            (word_base, word)
        })
    }

    /// Scans group `g`'s level-2 cells for `key`; returns the cell index.
    ///
    /// Word-wise: one bitmap read covers 64 cells, and the candidate
    /// cells are compared in ascending address order — an access pattern
    /// the hardware stream prefetcher locks onto. Without a sieve every
    /// occupied cell is a candidate; with one the scan goes *tag-first*
    /// ([`Sieve::candidates`]) and only the tag matches have their key
    /// bytes read from the pool.
    ///
    /// The second return value counts occupied cells examined in scan
    /// order up to (and including) the hit — the same value with or
    /// without a sieve, so probe histograms stay mode-independent and
    /// comparable (under a sieve an "examined" cell may have been
    /// resolved from its DRAM tag alone).
    fn find_key_in_group<R: PmemRead>(
        &self,
        pm: &R,
        g: u64,
        key: &K,
        sieve: Option<Sieve<'_>>,
        aids: Aids<'_>,
    ) -> (Option<u64>, u64) {
        let mut examined = 0u64;
        for (word_base, occ) in self.group_words(pm, g) {
            let cand = sieve.map_or(occ, |s| s.candidates(word_base, occ));
            let mut c = cand;
            while c != 0 {
                let bit = c.trailing_zeros();
                let idx = word_base + u64::from(bit);
                aids.note_key_read();
                if self.store2.read_key(pm, idx) == *key {
                    let upto = occ & (u64::MAX >> (63 - bit));
                    examined += u64::from(upto.count_ones());
                    if sieve.is_some() {
                        aids.note_fp(u64::from((upto & !cand).count_ones()), 0, 1);
                    }
                    return (Some(idx), examined);
                }
                if sieve.is_some() {
                    aids.note_fp(0, 1, 0);
                }
                c &= c - 1;
            }
            examined += u64::from(occ.count_ones());
            if sieve.is_some() {
                aids.note_fp(u64::from((occ & !cand).count_ones()), 0, 0);
            }
        }
        (None, examined)
    }

    /// Prefetches the lines a level-1 probe of slot `k` will touch: the
    /// occupancy word, and — unless the sieve already rejects the slot —
    /// the cell's key/value bytes. Under a sieve the resolve phase never
    /// reads a mismatching slot's key, so warming that line would be pure
    /// issue overhead (the sieve rejects ~255/256 of wrong slots).
    #[inline]
    fn prefetch_level1<R: PmemRead>(&self, pm: &R, k: u64, sieve: Option<Sieve<'_>>) {
        pm.prefetch(self.store1.bitmap.word_off_of(k), 8);
        if sieve.is_none_or(|s| s.passes_level1(k)) {
            pm.prefetch(self.store1.cells.cell_off(k), self.store1.cells.entry_len());
        }
    }

    /// Prefetches what a group scan of `g` will read, without duplicating
    /// the hardware stream prefetcher:
    ///
    /// * the group's occupancy words, always (the scan's first load, and
    ///   a random access no streamer predicts);
    /// * without a sieve, only the *head* of the group's cell range — the
    ///   scan walks the cells in ascending line order, which is exactly
    ///   the pattern the L2 streamer locks onto after the first touches,
    ///   so issuing a software prefetch per line would pay the issue cost
    ///   for lines the streamer covers free;
    /// * with a sieve, exactly the cells whose cached tag matches — the
    ///   sieve leaves a sparse candidate set that forms no stream, so each
    ///   survivor is prefetched individually (peeking at the just-warmed
    ///   occupancy words plus the DRAM tag cache; the peek re-reads lines
    ///   the scan reads again later, and neither read is a persistence
    ///   event).
    fn prefetch_group<R: PmemRead>(&self, pm: &R, g: u64, sieve: Option<Sieve<'_>>) {
        let start = g * self.config.group_size;
        let end = start + self.config.group_size;
        let bits_lo = self.store2.bitmap.word_off_of(start);
        let bits_hi = self.store2.bitmap.word_off_of(end - 1) + 8;
        pm.prefetch(bits_lo, bits_hi - bits_lo);
        let Some(sieve) = sieve else {
            let lo = self.store2.cells.cell_off(start);
            let span = self.store2.cells.cell_off(end - 1) + self.store2.cells.entry_len() - lo;
            pm.prefetch(lo, span.min(2 * 64));
            return;
        };
        for (word_base, occ) in self.group_words(pm, g) {
            let mut cand = sieve.candidates(word_base, occ);
            while cand != 0 {
                let idx = word_base + u64::from(cand.trailing_zeros());
                pm.prefetch(
                    self.store2.cells.cell_off(idx),
                    self.store2.cells.entry_len(),
                );
                cand &= cand - 1;
            }
        }
    }

    /// Reads a matched cell's value, then revalidates the match (bit
    /// still set, key still ours). `None` means a concurrent retract beat
    /// the read, and the lookup ends as a miss linearized after the
    /// remove's commit.
    #[inline]
    fn read_hit<R: PmemRead>(&self, pm: &R, level: Level, idx: u64, key: &K) -> Option<V> {
        let store = self.store(level);
        let v = store.read_value(pm, idx);
        (store.is_occupied(pm, idx) && store.read_key(pm, idx) == *key).then_some(v)
    }
}
