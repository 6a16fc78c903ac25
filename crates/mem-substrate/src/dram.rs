//! DRAM traffic and energy model.
//!
//! The paper models DRAM energy as 20 pJ/bit (the sum of the Idd4 and
//! Idd7RW terms of Vogelsang's model) and a flat 100-cycle latency
//! (Table 1). We track demand line transfers and SLIP distribution-
//! metadata transfers separately, since Figures 12 and 16 report the
//! metadata overhead and DRAM traffic deltas explicitly.

use energy_model::{Energy, EnergyAccount, EnergyCategory};

/// Default DRAM latency in cycles (Table 1).
pub const DRAM_LATENCY_CYCLES: u32 = 100;

/// The DRAM backing store: pure traffic/energy accounting.
///
/// Energy is derived from the transfer counters on demand (one multiply
/// per counter), so two models' counters can be summed and the combined
/// energy is bit-identical to one model that saw both streams.
///
/// # Example
///
/// ```
/// use mem_substrate::Dram;
/// use energy_model::Energy;
///
/// let mut dram = Dram::new(Energy::from_pj(20.0 * 512.0),
///                          Energy::from_pj(20.0 * 32.0), 100);
/// dram.read_line();
/// dram.write_line();
/// assert_eq!(dram.demand_transfers(), 2);
/// assert_eq!(dram.energy().total().as_nj(), 2.0 * 10.24);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dram {
    line_energy: Energy,
    metadata_energy: Energy,
    latency: u32,
    /// Demand line reads.
    pub reads: u64,
    /// Demand line writes (writebacks reaching DRAM).
    pub writes: u64,
    /// Distribution-metadata reads.
    pub metadata_reads: u64,
    /// Distribution-metadata writes.
    pub metadata_writes: u64,
}

impl Dram {
    /// Creates a DRAM model with explicit energies and latency.
    pub fn new(line_energy: Energy, metadata_energy: Energy, latency: u32) -> Self {
        Dram {
            line_energy,
            metadata_energy,
            latency,
            reads: 0,
            writes: 0,
            metadata_reads: 0,
            metadata_writes: 0,
        }
    }

    /// Creates a DRAM model from a technology's pJ/bit figure: 512 b per
    /// demand line, 32 b per distribution-metadata transfer.
    pub fn from_pj_per_bit(pj_per_bit: f64) -> Self {
        Dram::new(
            Energy::from_pj(pj_per_bit * 512.0),
            Energy::from_pj(pj_per_bit * 32.0),
            DRAM_LATENCY_CYCLES,
        )
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Reads one demand line; returns the latency.
    pub fn read_line(&mut self) -> u32 {
        self.reads += 1;
        self.latency
    }

    /// Writes one demand line (a writeback that reached DRAM).
    pub fn write_line(&mut self) {
        self.writes += 1;
    }

    /// Reads one page's 32 b distribution metadata; returns the latency.
    pub fn read_metadata(&mut self) -> u32 {
        self.metadata_reads += 1;
        self.latency
    }

    /// Writes one page's distribution metadata back.
    pub fn write_metadata(&mut self) {
        self.metadata_writes += 1;
    }

    /// Demand line transfers (reads + writes), the paper's "DRAM
    /// traffic".
    pub fn demand_transfers(&self) -> u64 {
        self.reads + self.writes
    }

    /// Energy account (Dram and Metadata categories), rebuilt from the
    /// transfer counters.
    pub fn energy(&self) -> EnergyAccount {
        let mut acct = EnergyAccount::new();
        if self.demand_transfers() != 0 {
            acct.charge(
                EnergyCategory::Dram,
                self.line_energy * self.demand_transfers() as f64,
            );
        }
        let metadata = self.metadata_reads + self.metadata_writes;
        if metadata != 0 {
            acct.charge(
                EnergyCategory::Metadata,
                self.metadata_energy * metadata as f64,
            );
        }
        acct
    }

    /// Clears all counters (for post-warmup measurement).
    pub fn reset_measurements(&mut self) {
        self.reads = 0;
        self.writes = 0;
        self.metadata_reads = 0;
        self.metadata_writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram_45nm() -> Dram {
        Dram::from_pj_per_bit(20.0)
    }

    #[test]
    fn line_transfer_energy_matches_paper() {
        let mut d = dram_45nm();
        assert_eq!(d.read_line(), 100);
        assert_eq!(d.energy().get(EnergyCategory::Dram).as_pj(), 10_240.0);
    }

    #[test]
    fn metadata_is_32_bits_worth() {
        let mut d = dram_45nm();
        d.read_metadata();
        d.write_metadata();
        assert_eq!(
            d.energy().get(EnergyCategory::Metadata).as_pj(),
            2.0 * 640.0
        );
        assert_eq!(d.metadata_reads, 1);
        assert_eq!(d.metadata_writes, 1);
        // Metadata does not count as demand traffic.
        assert_eq!(d.demand_transfers(), 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut d = dram_45nm();
        d.read_line();
        d.read_line();
        d.write_line();
        assert_eq!(d.reads, 2);
        assert_eq!(d.writes, 1);
        assert_eq!(d.demand_transfers(), 3);
    }
}
