//! The *Fingerprint* trace (paper §4.1) — synthetic equivalent.
//!
//! The paper uses 16-byte MD5 fingerprints of files from daily snapshots
//! of a Mac OS X server (the FSL dedup corpus, Tarasov et al. ATC'12);
//! items are 32 bytes. We regenerate the key *shape* faithfully: keys are
//! genuine MD5 digests — computed with this workspace's own RFC 1321
//! implementation — of synthetic file identities drawn from a simulated
//! snapshot series (host, path id, content version). Cryptographic
//! digests of distinct inputs are uniformly distributed 16-byte strings,
//! exactly like the original trace's keys.
//!
//! The generator models a snapshot server: most files persist unchanged
//! across snapshots (same digest — skipped by the dedup layer, i.e. our
//! dedup filter), a fraction are modified (new version ⇒ new digest), and
//! new files appear. Only first-seen digests are emitted, matching a
//! dedup index's insert stream.

use crate::Trace;
use nvm_hashfn::md5;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Synthetic file-snapshot MD5 fingerprint stream (16-byte keys).
#[derive(Debug, Clone)]
pub struct Fingerprint {
    rng: ChaCha8Rng,
    emitted: HashSet<[u8; 16]>,
    /// Next fresh file id.
    next_file: u64,
    /// Live files as (file_id, version).
    live: Vec<(u64, u32)>,
    /// Queue of digests to emit.
    pending: Vec<[u8; 16]>,
}

impl Fingerprint {
    /// Fraction of live files modified per simulated snapshot.
    const MODIFY_RATE: f64 = 0.05;
    /// New files added per snapshot, as a fraction of live files.
    const GROWTH_RATE: f64 = 0.10;
    /// Files in the first snapshot.
    const INITIAL_FILES: usize = 4096;

    pub fn new(seed: u64) -> Self {
        Fingerprint {
            rng: ChaCha8Rng::seed_from_u64(seed),
            emitted: HashSet::new(),
            next_file: 0,
            live: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn digest_of(file: u64, version: u32) -> [u8; 16] {
        let mut ident = [0u8; 20];
        ident[..8].copy_from_slice(&file.to_le_bytes());
        ident[8..12].copy_from_slice(&version.to_le_bytes());
        ident[12..].copy_from_slice(b"osxsnap\0");
        md5(&ident)
    }

    fn add_file(&mut self) {
        let f = self.next_file;
        self.next_file += 1;
        self.live.push((f, 0));
        self.pending.push(Self::digest_of(f, 0));
    }

    /// Simulates one snapshot: grow, modify, enqueue the *new* digests.
    fn next_snapshot(&mut self) {
        if self.live.is_empty() {
            for _ in 0..Self::INITIAL_FILES {
                self.add_file();
            }
            return;
        }
        let grow = ((self.live.len() as f64 * Self::GROWTH_RATE) as usize).max(1);
        for _ in 0..grow {
            self.add_file();
        }
        let n = self.live.len();
        let modify = ((n as f64 * Self::MODIFY_RATE) as usize).max(1);
        for _ in 0..modify {
            let i = self.rng.gen_range(0..n);
            let (f, v) = self.live[i];
            self.live[i] = (f, v + 1);
            self.pending.push(Self::digest_of(f, v + 1));
        }
    }
}

impl Trace for Fingerprint {
    type Key = [u8; 16];

    fn name(&self) -> &'static str {
        "Fingerprint"
    }

    fn next_key(&mut self) -> [u8; 16] {
        loop {
            if let Some(d) = self.pending.pop() {
                if self.emitted.insert(d) {
                    return d;
                }
                continue; // dedup: already-seen digest
            }
            self.next_snapshot();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_md5_digests() {
        let mut t = Fingerprint::new(3);
        let keys = t.take_keys(20_000);
        let set: HashSet<[u8; 16]> = keys.iter().copied().collect();
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn digests_match_md5_of_identity() {
        // Spot-check the construction against a direct MD5 call.
        let d = Fingerprint::digest_of(42, 7);
        let mut ident = [0u8; 20];
        ident[..8].copy_from_slice(&42u64.to_le_bytes());
        ident[8..12].copy_from_slice(&7u32.to_le_bytes());
        ident[12..].copy_from_slice(b"osxsnap\0");
        assert_eq!(d, md5(&ident));
    }

    #[test]
    fn digest_bytes_look_uniform() {
        // Each of the 16 byte positions should use the full byte range.
        let mut t = Fingerprint::new(4);
        let keys = t.take_keys(8_000);
        for pos in 0..16 {
            let distinct: HashSet<u8> = keys.iter().map(|k| k[pos]).collect();
            assert!(
                distinct.len() > 200,
                "byte {pos}: {} values",
                distinct.len()
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(
            Fingerprint::new(11).take_keys(1000),
            Fingerprint::new(11).take_keys(1000)
        );
    }

    #[test]
    fn snapshots_mix_new_and_modified() {
        let mut t = Fingerprint::new(5);
        // Drain several snapshots; file ids must grow and versions churn.
        let _ = t.take_keys(30_000);
        assert!(t.next_file > Fingerprint::INITIAL_FILES as u64);
        assert!(t.live.iter().any(|&(_, v)| v > 0), "no file ever modified");
    }
}
