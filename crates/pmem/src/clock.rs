//! Simulated time accounting.
//!
//! The simulator charges each memory event a configurable cost and
//! accumulates nanoseconds on a [`SimClock`]. The defaults approximate the
//! paper's testbed (Table 2 Xeon, Table 1 memory technologies, and the
//! 300 ns emulated NVM write latency from §4.1). Absolute values are a
//! model, not a measurement — the experiments compare schemes under the
//! *same* model, which is what reproduces the paper's relative shapes.

use nvm_cachesim::HitLevel;

/// Cost, in nanoseconds, of each simulated memory event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Load/store hitting L1.
    pub l1_ns: f64,
    /// ... hitting L2.
    pub l2_ns: f64,
    /// ... hitting L3.
    pub l3_ns: f64,
    /// ... missing all caches (DRAM/NVM read; the paper emulates NVM reads
    /// at DRAM latency).
    pub mem_ns: f64,
    /// `clflush` of a dirty line: write-back reaching the NVM media. The
    /// paper adds 300 ns after each clflush to emulate slow NVM writes.
    pub nvm_writeback_ns: f64,
    /// `clflush` of a clean line (invalidate only).
    pub clean_flush_ns: f64,
    /// `mfence`.
    pub fence_ns: f64,
    /// Issue cost of a software prefetch (`prefetcht0`). The fill itself
    /// overlaps with other work, so the clock only pays the issue slot;
    /// the line still lands in the simulated hierarchy, which is what
    /// makes the *next* access to it a cache hit.
    pub prefetch_issue_ns: f64,
}

impl LatencyModel {
    /// The paper's configuration: DRAM-like reads, 300 ns extra per flushed
    /// dirty line.
    pub fn paper_default() -> Self {
        LatencyModel {
            l1_ns: 1.5,
            l2_ns: 5.0,
            l3_ns: 20.0,
            mem_ns: 85.0,
            nvm_writeback_ns: 300.0,
            clean_flush_ns: 40.0,
            fence_ns: 15.0,
            prefetch_issue_ns: 5.0,
        }
    }

    /// A PCM-flavoured preset (Table 1: slower writes).
    pub fn pcm() -> Self {
        LatencyModel {
            nvm_writeback_ns: 500.0,
            ..Self::paper_default()
        }
    }

    /// An STT-MRAM-flavoured preset (Table 1: near-DRAM writes).
    pub fn stt_mram() -> Self {
        LatencyModel {
            nvm_writeback_ns: 30.0,
            ..Self::paper_default()
        }
    }

    /// Cost of an access that resolved at `level`.
    #[inline]
    pub fn access_cost(&self, level: HitLevel) -> f64 {
        match level {
            HitLevel::L1 => self.l1_ns,
            HitLevel::L2 => self.l2_ns,
            HitLevel::L3 => self.l3_ns,
            HitLevel::Memory => self.mem_ns,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Accumulates simulated nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimClock {
    ns: f64,
}

impl SimClock {
    pub fn new() -> Self {
        SimClock::default()
    }

    #[inline]
    pub fn advance(&mut self, ns: f64) {
        debug_assert!(ns >= 0.0);
        self.ns += ns;
    }

    /// Elapsed simulated time, truncated to whole nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns as u64
    }

    pub fn reset(&mut self) {
        self.ns = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates() {
        let mut c = SimClock::new();
        c.advance(1.5);
        c.advance(2.0);
        assert_eq!(c.now_ns(), 3);
        c.reset();
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn access_cost_ordering() {
        let m = LatencyModel::paper_default();
        assert!(m.access_cost(HitLevel::L1) < m.access_cost(HitLevel::L2));
        assert!(m.access_cost(HitLevel::L2) < m.access_cost(HitLevel::L3));
        assert!(m.access_cost(HitLevel::L3) < m.access_cost(HitLevel::Memory));
        // The paper's central premise: an NVM write-back costs much more
        // than any read.
        assert!(m.nvm_writeback_ns > m.mem_ns);
    }

    #[test]
    fn presets_differ_in_write_latency() {
        assert!(
            LatencyModel::pcm().nvm_writeback_ns > LatencyModel::paper_default().nvm_writeback_ns
        );
        assert!(
            LatencyModel::stt_mram().nvm_writeback_ns
                < LatencyModel::paper_default().nvm_writeback_ns
        );
    }

    #[test]
    fn prefetch_issue_is_cheaper_than_any_miss() {
        // The entire point of prefetching: issuing the hint costs less
        // than the L2 hit it might save, let alone a memory miss.
        let m = LatencyModel::paper_default();
        assert!(m.prefetch_issue_ns > 0.0);
        assert!(m.prefetch_issue_ns <= m.l2_ns);
        assert!(m.prefetch_issue_ns < m.mem_ns);
    }
}
