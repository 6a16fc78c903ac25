//! Declarative hierarchy specs: a std-only text format describing the
//! whole L1/L2/L3/DRAM topology — per-level size/ways/banks/ports and
//! latencies, plus per-sublevel read/write/insertion energies — so a
//! sweep can range over arbitrary hierarchies instead of the paper's
//! 45 nm node (`slip sweep --topology FILE`).
//!
//! # Grammar
//!
//! The format is line-oriented — one directive per line; `#` starts a
//! comment, blank lines are ignored, tokens are whitespace-separated:
//!
//! ```text
//! node NAME                  # technology-node name (reports, dedup keys)
//! wire PJ_PER_BIT_MM NS_PER_MM
//! dram PJ_PER_BIT
//! eou PJ                     # one EOU optimization operation
//! mvq PJ                     # one movement-queue lookup
//!
//! level l1
//!   size 32KiB               # optional; checked against sets*ways*64B
//!   sets N                   # power of two
//!   ways N                   # power of two, <= 16
//!   banks N                  # optional physical description, default 1
//!   ports N                  # optional, default 1
//!   latency CYCLES
//!   read PJ
//! end
//!
//! level l2                   # same for l3
//!   size 256KiB
//!   sets N                   # power of two
//!   banks N
//!   ports N
//!   metadata PJ              # SLIP metadata read/write energy
//!   uniform-latency CYCLES   # flat latency of the regular cache
//!   baseline PJ              # optional flat access energy (reporting)
//!   sublevel WAYS read PJ [write PJ] [insert PJ] latency CYCLES
//!   ...                      # 1..=8 sublevels; ways sum to a power of
//! end                        # two <= 32
//! ```
//!
//! `write` defaults to `read` (SRAM); `insert` defaults to `write`.
//! Asymmetric values model STT-RAM LLCs after "Reuse Detector"
//! (Rodríguez-Rodríguez et al.), where a write costs several times a
//! read and SLIP's insertion-energy term dominates.
//!
//! Parse errors carry line, column, *and byte offset* diagnostics.
//! [`HierarchySpec::format`] renders the canonical text; format →
//! parse → format is the identity (property-tested).
//!
//! Built-in nodes ([`HierarchySpec::builtin`]) are themselves stored as
//! spec text, so `--topology 45nm` exercises the same parser as a file.

use crate::params::{LevelEnergyParams, TechnologyParams, LINE_BYTES};
use crate::Energy;
use core::fmt;
use std::sync::LazyLock;

/// A parse/validation error with its position in the spec text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte within the line).
    pub col: usize,
    /// Byte offset of the offending token in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology spec error at line {}, col {} (byte {}): {}",
            self.line, self.col, self.offset, self.message
        )
    }
}

impl std::error::Error for SpecError {}

/// The L1 level of a hierarchy spec (uniform SRAM).
#[derive(Debug, Clone, PartialEq)]
pub struct L1Spec {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Ways per set (power of two, at most 16 — the packed-LRU bound).
    pub ways: usize,
    /// Physical banks (descriptive; recorded and round-tripped).
    pub banks: usize,
    /// Access ports (descriptive).
    pub ports: usize,
    /// Hit latency in cycles.
    pub latency: u32,
    /// Access energy in pJ (read == write at L1).
    pub read_pj: f64,
}

/// One sublevel of an L2/L3 level spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SublevelSpec {
    /// Ways in this sublevel.
    pub ways: usize,
    /// Read energy in pJ.
    pub read_pj: f64,
    /// Write energy in pJ; `None` means same as read.
    pub write_pj: Option<f64>,
    /// Insertion energy in pJ; `None` means same as write.
    pub insert_pj: Option<f64>,
    /// Hit latency in cycles.
    pub latency: u32,
}

/// An L2 or L3 level of a hierarchy spec.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSpec {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Physical banks (descriptive).
    pub banks: usize,
    /// Access ports (descriptive).
    pub ports: usize,
    /// SLIP metadata read/write energy in pJ.
    pub metadata_pj: f64,
    /// Flat latency of the regular (baseline) cache, in cycles.
    pub uniform_latency: u32,
    /// Flat access energy in pJ for reporting; `None` means the
    /// capacity-weighted mean of the sublevel read energies.
    pub baseline_pj: Option<f64>,
    /// Sublevels, nearest first (1..=8; ways sum to a power of two).
    pub sublevels: Vec<SublevelSpec>,
}

impl LevelSpec {
    /// Total ways per set over all sublevels.
    pub fn total_ways(&self) -> usize {
        self.sublevels.iter().map(|s| s.ways).sum()
    }

    /// Builds the [`LevelEnergyParams`] for this level.
    pub fn energy_params(&self) -> LevelEnergyParams {
        let read: Vec<Energy> = self
            .sublevels
            .iter()
            .map(|s| Energy::from_pj(s.read_pj))
            .collect();
        let lines: Vec<usize> = self.sublevels.iter().map(|s| s.ways * self.sets).collect();
        let baseline = match self.baseline_pj {
            Some(pj) => Energy::from_pj(pj),
            None => {
                let total: usize = lines.iter().sum();
                read.iter()
                    .zip(&lines)
                    .map(|(&e, &l)| e * (l as f64 / total as f64))
                    .sum()
            }
        };
        let any_write = self.sublevels.iter().any(|s| s.write_pj.is_some());
        let any_insert = self.sublevels.iter().any(|s| s.insert_pj.is_some());
        let write: Option<Vec<Energy>> = any_write.then(|| {
            self.sublevels
                .iter()
                .map(|s| Energy::from_pj(s.write_pj.unwrap_or(s.read_pj)))
                .collect()
        });
        let insert: Option<Vec<Energy>> = any_insert.then(|| {
            self.sublevels
                .iter()
                .map(|s| {
                    Energy::from_pj(
                        s.insert_pj
                            .unwrap_or_else(|| s.write_pj.unwrap_or(s.read_pj)),
                    )
                })
                .collect()
        });
        LevelEnergyParams {
            baseline_access: baseline,
            sublevel_access: read,
            sublevel_lines: lines,
            metadata_access: Energy::from_pj(self.metadata_pj),
            sublevel_write: write,
            sublevel_insert: insert,
        }
    }
}

/// A full parsed hierarchy spec: one technology node plus the geometry
/// and energy of all three cache levels (DRAM is the fourth level,
/// described by its per-bit transfer energy).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchySpec {
    /// Node name, e.g. `"45nm"` or `"stt-llc"`.
    pub name: String,
    /// Wire energy per transition, pJ/bit/mm.
    pub wire_pj_per_bit_mm: f64,
    /// Wire delay, ns/mm.
    pub wire_delay_ns_per_mm: f64,
    /// DRAM access energy, pJ/bit.
    pub dram_pj_per_bit: f64,
    /// Energy of one EOU optimization operation, pJ.
    pub eou_op_pj: f64,
    /// Energy of one movement-queue lookup, pJ.
    pub mvq_lookup_pj: f64,
    /// L1 level.
    pub l1: L1Spec,
    /// L2 level.
    pub l2: LevelSpec,
    /// L3 (LLC) level.
    pub l3: LevelSpec,
}

/// Maximum ways the packed-nibble L1 LRU stack can order.
pub const MAX_L1_WAYS: usize = 16;
/// Maximum ways per L2/L3 set (the `WayMask` bound).
pub const MAX_LEVEL_WAYS: usize = 32;
/// Maximum sublevels per level (EOU candidate enumeration is `2^S`).
pub const MAX_SUBLEVELS: usize = 8;

/// The built-in 45 nm node: paper Table 1 + Table 2 verbatim, plus the
/// Section 5 EOU and movement-queue costs. This text is the only copy
/// of those numbers: `SystemConfig::paper_45nm` loads it, and the
/// `pinned_golden` test pins the results it produces.
pub const BUILTIN_45NM: &str = "\
# SLIP built-in node: 45 nm (paper Table 1 + Table 2).
node 45nm
wire 0.16 0.3
dram 20
eou 1.27
mvq 0.3
level l1
  size 32KiB
  sets 64
  ways 8
  banks 1
  ports 1
  latency 4
  read 5
end
level l2
  size 256KiB
  sets 256
  banks 16
  ports 1
  metadata 1
  uniform-latency 7
  baseline 39
  sublevel 4 read 21 latency 4
  sublevel 4 read 33 latency 6
  sublevel 8 read 50 latency 8
end
level l3
  size 2MiB
  sets 2048
  banks 16
  ports 1
  metadata 2.5
  uniform-latency 20
  baseline 136
  sublevel 4 read 67 latency 15
  sublevel 4 read 113 latency 19
  sublevel 8 read 176 latency 23
end
";

/// The built-in 22 nm node of the Section 6 technology study (see
/// DESIGN.md: bank energy scales faster than wire energy, growing the
/// near/far asymmetry).
pub const BUILTIN_22NM: &str = "\
# SLIP built-in node: derived 22 nm (paper Section 6 node study).
node 22nm
wire 0.11 0.35
dram 14
eou 0.7
mvq 0.18
level l1
  size 32KiB
  sets 64
  ways 8
  banks 1
  ports 1
  latency 4
  read 5
end
level l2
  size 256KiB
  sets 256
  banks 16
  ports 1
  metadata 0.6
  uniform-latency 7
  baseline 20.5
  sublevel 4 read 10 latency 4
  sublevel 4 read 17 latency 6
  sublevel 8 read 27.5 latency 8
end
level l3
  size 2MiB
  sets 2048
  banks 16
  ports 1
  metadata 1.5
  uniform-latency 20
  baseline 72
  sublevel 4 read 33 latency 15
  sublevel 4 read 59 latency 19
  sublevel 8 read 98 latency 23
end
";

/// The built-in STT-RAM LLC node: 45 nm SRAM L1/L2 with an STT-RAM L3
/// whose reads cost ~0.6x the SRAM read (denser, lower-leakage array)
/// but whose writes cost 6x the read, after "Reuse Detector"
/// (Rodríguez-Rodríguez et al.). Under these parameters SLIP's
/// insertion-energy term dominates the L3 account — see DESIGN.md §14
/// and EXPERIMENTS.md for the measured ordering.
pub const BUILTIN_STT_LLC: &str = "\
# SLIP built-in node: stt-llc (45 nm SRAM L1/L2, STT-RAM L3).
# STT-RAM reads ~0.6x the SRAM read; writes 6x the read.
node stt-llc
wire 0.16 0.3
dram 20
eou 1.27
mvq 0.3
level l1
  size 32KiB
  sets 64
  ways 8
  banks 1
  ports 1
  latency 4
  read 5
end
level l2
  size 256KiB
  sets 256
  banks 16
  ports 1
  metadata 1
  uniform-latency 7
  baseline 39
  sublevel 4 read 21 latency 4
  sublevel 4 read 33 latency 6
  sublevel 8 read 50 latency 8
end
level l3
  size 2MiB
  sets 2048
  banks 16
  ports 1
  metadata 2.5
  uniform-latency 20
  baseline 80
  sublevel 4 read 40 write 240 latency 15
  sublevel 4 read 68 write 408 latency 19
  sublevel 8 read 106 write 636 latency 23
end
";

/// Names of the built-in nodes, in presentation order.
pub const BUILTIN_NAMES: [&str; 3] = ["45nm", "22nm", "stt-llc"];

impl HierarchySpec {
    /// Returns a built-in node by name (`45nm`, `22nm`, `stt-llc`).
    /// Each built-in text is parsed once per process; callers get a
    /// clone.
    pub fn builtin(name: &str) -> Option<HierarchySpec> {
        static PARSED: LazyLock<[HierarchySpec; 3]> = LazyLock::new(|| {
            [BUILTIN_45NM, BUILTIN_22NM, BUILTIN_STT_LLC]
                .map(|text| HierarchySpec::parse(text).expect("built-in specs parse"))
        });
        let index = BUILTIN_NAMES.iter().position(|&n| n == name)?;
        Some(PARSED[index].clone())
    }

    /// Loads a spec from a built-in name or a file path: the CLI's
    /// `--topology` / `SLIP_TOPOLOGY` resolution. Errors are rendered
    /// with the source (name or path) prefixed.
    pub fn load(arg: &str) -> Result<HierarchySpec, String> {
        if let Some(spec) = Self::builtin(arg) {
            return Ok(spec);
        }
        let text = std::fs::read_to_string(arg).map_err(|e| {
            format!(
                "topology {arg:?}: not a built-in node ({}) and not a readable file: {e}",
                BUILTIN_NAMES.join(", ")
            )
        })?;
        Self::parse(&text).map_err(|e| format!("{arg}: {e}"))
    }

    /// Parses a spec from text. See the module docs for the grammar.
    pub fn parse(text: &str) -> Result<HierarchySpec, SpecError> {
        Parser::new(text).parse()
    }

    /// Renders the canonical text form. `parse(format(spec)) == spec`
    /// for any valid spec (property-tested round trip).
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("node {}\n", self.name));
        out.push_str(&format!(
            "wire {} {}\n",
            self.wire_pj_per_bit_mm, self.wire_delay_ns_per_mm
        ));
        out.push_str(&format!("dram {}\n", self.dram_pj_per_bit));
        out.push_str(&format!("eou {}\n", self.eou_op_pj));
        out.push_str(&format!("mvq {}\n", self.mvq_lookup_pj));
        out.push_str("level l1\n");
        out.push_str(&format!("  sets {}\n", self.l1.sets));
        out.push_str(&format!("  ways {}\n", self.l1.ways));
        out.push_str(&format!("  banks {}\n", self.l1.banks));
        out.push_str(&format!("  ports {}\n", self.l1.ports));
        out.push_str(&format!("  latency {}\n", self.l1.latency));
        out.push_str(&format!("  read {}\n", self.l1.read_pj));
        out.push_str("end\n");
        for (name, level) in [("l2", &self.l2), ("l3", &self.l3)] {
            out.push_str(&format!("level {name}\n"));
            out.push_str(&format!("  sets {}\n", level.sets));
            out.push_str(&format!("  banks {}\n", level.banks));
            out.push_str(&format!("  ports {}\n", level.ports));
            out.push_str(&format!("  metadata {}\n", level.metadata_pj));
            out.push_str(&format!("  uniform-latency {}\n", level.uniform_latency));
            if let Some(b) = level.baseline_pj {
                out.push_str(&format!("  baseline {b}\n"));
            }
            for s in &level.sublevels {
                out.push_str(&format!("  sublevel {} read {}", s.ways, s.read_pj));
                if let Some(w) = s.write_pj {
                    out.push_str(&format!(" write {w}"));
                }
                if let Some(i) = s.insert_pj {
                    out.push_str(&format!(" insert {i}"));
                }
                out.push_str(&format!(" latency {}\n", s.latency));
            }
            out.push_str("end\n");
        }
        out
    }

    /// FNV-1a 64 hash of the canonical text: the topology identity used
    /// in sweep cell keys and `slip serve` dedup.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.format().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Semantic validation, independent of parsing — re-checked when a
    /// spec is constructed programmatically (the parser enforces the
    /// same rules with positions). The limits exist so every spec stays
    /// eligible for the optimized execution paths: power-of-two sets
    /// index with a mask instead of a division, `ways <= 16` at
    /// L1 fits the packed-nibble LRU stack, `ways <= 32` fits
    /// `WayMask`, and `sublevels <= 8` bounds the EOU's `2^S`
    /// enumeration.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        {
            return Err(format!(
                "node name {:?} must be non-empty [A-Za-z0-9._-]",
                self.name
            ));
        }
        for (what, v) in [
            ("wire energy", self.wire_pj_per_bit_mm),
            ("wire delay", self.wire_delay_ns_per_mm),
            ("dram energy", self.dram_pj_per_bit),
            ("eou energy", self.eou_op_pj),
            ("mvq energy", self.mvq_lookup_pj),
            ("l1 read energy", self.l1.read_pj),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{what} must be positive and finite, got {v}"));
            }
        }
        if !self.l1.sets.is_power_of_two() {
            return Err(format!(
                "l1 sets must be a power of two, got {}",
                self.l1.sets
            ));
        }
        if !self.l1.ways.is_power_of_two() || self.l1.ways > MAX_L1_WAYS {
            return Err(format!(
                "l1 ways must be a power of two <= {MAX_L1_WAYS}, got {}",
                self.l1.ways
            ));
        }
        if self.l1.latency == 0 || self.l1.banks == 0 || self.l1.ports == 0 {
            return Err("l1 latency/banks/ports must be at least 1".to_owned());
        }
        for (name, level) in [("l2", &self.l2), ("l3", &self.l3)] {
            if !level.sets.is_power_of_two() {
                return Err(format!(
                    "{name} sets must be a power of two, got {}",
                    level.sets
                ));
            }
            if level.banks == 0 || level.ports == 0 || level.uniform_latency == 0 {
                return Err(format!(
                    "{name} banks/ports/uniform-latency must be at least 1"
                ));
            }
            if !(level.metadata_pj > 0.0 && level.metadata_pj.is_finite()) {
                return Err(format!("{name} metadata energy must be positive"));
            }
            if let Some(b) = level.baseline_pj {
                if !(b > 0.0 && b.is_finite()) {
                    return Err(format!("{name} baseline energy must be positive"));
                }
            }
            if level.sublevels.is_empty() || level.sublevels.len() > MAX_SUBLEVELS {
                return Err(format!(
                    "{name} needs 1..={MAX_SUBLEVELS} sublevels, got {}",
                    level.sublevels.len()
                ));
            }
            let ways = level.total_ways();
            if !ways.is_power_of_two() || ways > MAX_LEVEL_WAYS {
                return Err(format!(
                    "{name} sublevel ways must sum to a power of two <= {MAX_LEVEL_WAYS}, got {ways}"
                ));
            }
            for s in &level.sublevels {
                if s.ways == 0 || s.latency == 0 {
                    return Err(format!("{name} sublevel ways/latency must be at least 1"));
                }
                for e in [Some(s.read_pj), s.write_pj, s.insert_pj]
                    .into_iter()
                    .flatten()
                {
                    if !(e > 0.0 && e.is_finite()) {
                        return Err(format!("{name} sublevel energies must be positive"));
                    }
                }
            }
        }
        // The MMU's per-line sublevel metadata is one field shared by
        // both SLIP levels, so the hierarchy must give L2 and L3 the
        // same sublevel count.
        if self.l2.sublevels.len() != self.l3.sublevels.len() {
            return Err(format!(
                "l2 and l3 must have the same sublevel count, got {} and {}",
                self.l2.sublevels.len(),
                self.l3.sublevels.len()
            ));
        }
        Ok(())
    }

    /// Builds the [`TechnologyParams`] this spec describes.
    pub fn technology(&self) -> TechnologyParams {
        TechnologyParams {
            name: self.name.clone(),
            wire_pj_per_bit_mm: self.wire_pj_per_bit_mm,
            wire_delay_ns_per_mm: self.wire_delay_ns_per_mm,
            l2: self.l2.energy_params(),
            l3: self.l3.energy_params(),
            dram_pj_per_bit: self.dram_pj_per_bit,
            eou_op: Energy::from_pj(self.eou_op_pj),
            movement_queue_lookup: Energy::from_pj(self.mvq_lookup_pj),
        }
    }
}

/// One token with its position.
#[derive(Clone, Copy)]
struct Tok<'a> {
    text: &'a str,
    line: usize,
    col0: usize,
    offset: usize,
}

struct Parser<'a> {
    text: &'a str,
    /// All tokens of all lines, grouped per line.
    lines: Vec<Vec<Tok<'a>>>,
    /// End-of-input position for "missing X" errors.
    eof: (usize, usize), // (line, offset)
}

/// Partially parsed L2/L3 block.
#[derive(Default)]
struct LevelDraft {
    size_bytes: Option<usize>,
    sets: Option<usize>,
    banks: Option<usize>,
    ports: Option<usize>,
    metadata: Option<f64>,
    uniform_latency: Option<u32>,
    baseline: Option<f64>,
    sublevels: Vec<SublevelSpec>,
}

/// Partially parsed L1 block.
#[derive(Default)]
struct L1Draft {
    size_bytes: Option<usize>,
    sets: Option<usize>,
    ways: Option<usize>,
    banks: Option<usize>,
    ports: Option<usize>,
    latency: Option<u32>,
    read: Option<f64>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let mut lines = Vec::new();
        let mut offset = 0usize;
        for (li, line) in text.split('\n').enumerate() {
            let mut toks = Vec::new();
            let bytes = line.as_bytes();
            let mut i = 0usize;
            while i < bytes.len() {
                if bytes[i] == b'#' {
                    break;
                }
                if bytes[i].is_ascii_whitespace() {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'#' {
                    i += 1;
                }
                toks.push(Tok {
                    text: &line[start..i],
                    line: li + 1,
                    col0: start,
                    offset: offset + start,
                });
            }
            lines.push(toks);
            offset += line.len() + 1;
        }
        let eof = (text.split('\n').count(), text.len());
        Parser { text, lines, eof }
    }

    fn err(&self, tok: &Tok<'_>, message: impl Into<String>) -> SpecError {
        SpecError {
            line: tok.line,
            col: tok.col0 + 1,
            offset: tok.offset,
            message: message.into(),
        }
    }

    fn err_eof(&self, message: impl Into<String>) -> SpecError {
        SpecError {
            line: self.eof.0,
            col: 1,
            offset: self.eof.1,
            message: message.into(),
        }
    }

    fn f64_pos(&self, tok: &Tok<'_>, what: &str) -> Result<f64, SpecError> {
        let v: f64 = tok.text.parse().map_err(|_| {
            self.err(
                tok,
                format!("{what}: expected a number, got {:?}", tok.text),
            )
        })?;
        if !(v > 0.0 && v.is_finite()) {
            return Err(self.err(tok, format!("{what} must be positive, got {}", tok.text)));
        }
        Ok(v)
    }

    fn usize_pos(&self, tok: &Tok<'_>, what: &str) -> Result<usize, SpecError> {
        let v: usize = tok.text.parse().map_err(|_| {
            self.err(
                tok,
                format!("{what}: expected an integer, got {:?}", tok.text),
            )
        })?;
        if v == 0 {
            return Err(self.err(tok, format!("{what} must be at least 1")));
        }
        Ok(v)
    }

    fn pow2(&self, tok: &Tok<'_>, what: &str) -> Result<usize, SpecError> {
        let v = self.usize_pos(tok, what)?;
        if !v.is_power_of_two() {
            return Err(self.err(tok, format!("{what} must be a power of two, got {v}")));
        }
        Ok(v)
    }

    fn size_bytes(&self, tok: &Tok<'_>) -> Result<usize, SpecError> {
        let t = tok.text;
        let (num, mult) = if let Some(n) = t.strip_suffix("KiB") {
            (n, 1024usize)
        } else if let Some(n) = t.strip_suffix("MiB") {
            (n, 1024 * 1024)
        } else if let Some(n) = t.strip_suffix('B') {
            (n, 1)
        } else {
            return Err(self.err(
                tok,
                format!("size: expected e.g. 256KiB or 2MiB, got {t:?}"),
            ));
        };
        let v: usize = num
            .parse()
            .map_err(|_| self.err(tok, format!("size: expected an integer count, got {t:?}")))?;
        Ok(v * mult)
    }

    fn set_once<T>(
        &self,
        slot: &mut Option<T>,
        value: T,
        tok: &Tok<'_>,
        what: &str,
    ) -> Result<(), SpecError> {
        if slot.is_some() {
            return Err(self.err(tok, format!("duplicate `{what}`")));
        }
        *slot = Some(value);
        Ok(())
    }

    fn parse(self) -> Result<HierarchySpec, SpecError> {
        let mut name: Option<String> = None;
        let mut wire: Option<(f64, f64)> = None;
        let mut dram: Option<f64> = None;
        let mut eou: Option<f64> = None;
        let mut mvq: Option<f64> = None;
        let mut l1: Option<L1Spec> = None;
        let mut l2: Option<LevelSpec> = None;
        let mut l3: Option<LevelSpec> = None;

        let mut li = 0usize;
        while li < self.lines.len() {
            let toks = &self.lines[li];
            li += 1;
            let Some(head) = toks.first() else { continue };
            let arity = |n: usize| -> Result<(), SpecError> {
                if toks.len() != n + 1 {
                    Err(self.err(
                        head,
                        format!("`{}` takes {n} value(s), got {}", head.text, toks.len() - 1),
                    ))
                } else {
                    Ok(())
                }
            };
            match head.text {
                "node" => {
                    arity(1)?;
                    let t = &toks[1];
                    if !t
                        .text
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
                    {
                        return Err(
                            self.err(t, format!("node name {:?} must be [A-Za-z0-9._-]", t.text))
                        );
                    }
                    self.set_once(&mut name, t.text.to_owned(), head, "node")?;
                }
                "wire" => {
                    arity(2)?;
                    let e = self.f64_pos(&toks[1], "wire energy")?;
                    let d = self.f64_pos(&toks[2], "wire delay")?;
                    self.set_once(&mut wire, (e, d), head, "wire")?;
                }
                "dram" => {
                    arity(1)?;
                    let v = self.f64_pos(&toks[1], "dram energy")?;
                    self.set_once(&mut dram, v, head, "dram")?;
                }
                "eou" => {
                    arity(1)?;
                    let v = self.f64_pos(&toks[1], "eou energy")?;
                    self.set_once(&mut eou, v, head, "eou")?;
                }
                "mvq" => {
                    arity(1)?;
                    let v = self.f64_pos(&toks[1], "mvq energy")?;
                    self.set_once(&mut mvq, v, head, "mvq")?;
                }
                "level" => {
                    arity(1)?;
                    let which = &toks[1];
                    match which.text {
                        "l1" => {
                            if l1.is_some() {
                                return Err(self.err(which, "duplicate `level l1` block"));
                            }
                            l1 = Some(self.parse_l1(&mut li)?);
                        }
                        "l2" | "l3" => {
                            let slot = if which.text == "l2" { &mut l2 } else { &mut l3 };
                            if slot.is_some() {
                                return Err(self.err(
                                    which,
                                    format!("duplicate `level {}` block", which.text),
                                ));
                            }
                            *slot = Some(self.parse_level(which.text, &mut li)?);
                        }
                        other => {
                            return Err(self.err(
                                which,
                                format!("unknown level {other:?} (expected l1, l2, or l3)"),
                            ))
                        }
                    }
                }
                "end" => return Err(self.err(head, "`end` without an open `level` block")),
                other => {
                    return Err(self.err(head, format!("unknown directive {other:?}")));
                }
            }
        }

        let (wire_e, wire_d) = wire.ok_or_else(|| self.err_eof("missing `wire` directive"))?;
        let spec = HierarchySpec {
            name: name.ok_or_else(|| self.err_eof("missing `node` directive"))?,
            wire_pj_per_bit_mm: wire_e,
            wire_delay_ns_per_mm: wire_d,
            dram_pj_per_bit: dram.ok_or_else(|| self.err_eof("missing `dram` directive"))?,
            eou_op_pj: eou.ok_or_else(|| self.err_eof("missing `eou` directive"))?,
            mvq_lookup_pj: mvq.ok_or_else(|| self.err_eof("missing `mvq` directive"))?,
            l1: l1.ok_or_else(|| self.err_eof("missing `level l1` block"))?,
            l2: l2.ok_or_else(|| self.err_eof("missing `level l2` block"))?,
            l3: l3.ok_or_else(|| self.err_eof("missing `level l3` block"))?,
        };
        // The parser enforced everything positionally; this is a cheap
        // belt-and-braces pass so parse and programmatic construction
        // share one rulebook.
        spec.validate().map_err(|m| self.err_eof(m))?;
        Ok(spec)
    }

    /// Parses an `level l1 ... end` body starting at line index `*li`.
    fn parse_l1(&self, li: &mut usize) -> Result<L1Spec, SpecError> {
        let mut d = L1Draft::default();
        let end = self.walk_block(li, |toks, head| {
            let kv = |what: &str| -> Result<&Tok<'a>, SpecError> {
                if toks.len() != 2 {
                    Err(self.err(
                        head,
                        format!("`{what}` takes 1 value, got {}", toks.len() - 1),
                    ))
                } else {
                    Ok(&toks[1])
                }
            };
            match head.text {
                "size" => {
                    let v = self.size_bytes(kv("size")?)?;
                    self.set_once(&mut d.size_bytes, v, head, "size")
                }
                "sets" => {
                    let v = self.pow2(kv("sets")?, "sets")?;
                    self.set_once(&mut d.sets, v, head, "sets")
                }
                "ways" => {
                    let t = kv("ways")?;
                    let v = self.pow2(t, "ways")?;
                    if v > MAX_L1_WAYS {
                        return Err(self.err(
                            t,
                            format!("l1 ways must be at most {MAX_L1_WAYS} (packed LRU), got {v}"),
                        ));
                    }
                    self.set_once(&mut d.ways, v, head, "ways")
                }
                "banks" => {
                    let v = self.usize_pos(kv("banks")?, "banks")?;
                    self.set_once(&mut d.banks, v, head, "banks")
                }
                "ports" => {
                    let v = self.usize_pos(kv("ports")?, "ports")?;
                    self.set_once(&mut d.ports, v, head, "ports")
                }
                "latency" => {
                    let v = self.usize_pos(kv("latency")?, "latency")? as u32;
                    self.set_once(&mut d.latency, v, head, "latency")
                }
                "read" => {
                    let v = self.f64_pos(kv("read")?, "read energy")?;
                    self.set_once(&mut d.read, v, head, "read")
                }
                other => Err(self.err(head, format!("unknown l1 key {other:?}"))),
            }
        })?;
        let missing = |what: &str| self.err(&end, format!("level l1 is missing `{what}`"));
        let spec = L1Spec {
            sets: d.sets.ok_or_else(|| missing("sets"))?,
            ways: d.ways.ok_or_else(|| missing("ways"))?,
            banks: d.banks.unwrap_or(1),
            ports: d.ports.unwrap_or(1),
            latency: d.latency.ok_or_else(|| missing("latency"))?,
            read_pj: d.read.ok_or_else(|| missing("read"))?,
        };
        if let Some(size) = d.size_bytes {
            let actual = spec.sets * spec.ways * LINE_BYTES;
            if size != actual {
                return Err(self.err(
                    &end,
                    format!("l1 size {size} B != sets*ways*{LINE_BYTES} B = {actual} B"),
                ));
            }
        }
        Ok(spec)
    }

    /// Parses an `level l2|l3 ... end` body starting at line index `*li`.
    fn parse_level(&self, name: &str, li: &mut usize) -> Result<LevelSpec, SpecError> {
        let mut d = LevelDraft::default();
        let end = self.walk_block(li, |toks, head| {
            let kv = |what: &str| -> Result<&Tok<'a>, SpecError> {
                if toks.len() != 2 {
                    Err(self.err(
                        head,
                        format!("`{what}` takes 1 value, got {}", toks.len() - 1),
                    ))
                } else {
                    Ok(&toks[1])
                }
            };
            match head.text {
                "size" => {
                    let v = self.size_bytes(kv("size")?)?;
                    self.set_once(&mut d.size_bytes, v, head, "size")
                }
                "sets" => {
                    let v = self.pow2(kv("sets")?, "sets")?;
                    self.set_once(&mut d.sets, v, head, "sets")
                }
                "banks" => {
                    let v = self.usize_pos(kv("banks")?, "banks")?;
                    self.set_once(&mut d.banks, v, head, "banks")
                }
                "ports" => {
                    let v = self.usize_pos(kv("ports")?, "ports")?;
                    self.set_once(&mut d.ports, v, head, "ports")
                }
                "metadata" => {
                    let v = self.f64_pos(kv("metadata")?, "metadata energy")?;
                    self.set_once(&mut d.metadata, v, head, "metadata")
                }
                "uniform-latency" => {
                    let v = self.usize_pos(kv("uniform-latency")?, "uniform-latency")? as u32;
                    self.set_once(&mut d.uniform_latency, v, head, "uniform-latency")
                }
                "baseline" => {
                    let v = self.f64_pos(kv("baseline")?, "baseline energy")?;
                    self.set_once(&mut d.baseline, v, head, "baseline")
                }
                "sublevel" => {
                    d.sublevels.push(self.parse_sublevel(toks, head)?);
                    Ok(())
                }
                other => Err(self.err(head, format!("unknown level key {other:?}"))),
            }
        })?;
        let missing = |what: &str| self.err(&end, format!("level {name} is missing `{what}`"));
        let spec = LevelSpec {
            sets: d.sets.ok_or_else(|| missing("sets"))?,
            banks: d.banks.unwrap_or(1),
            ports: d.ports.unwrap_or(1),
            metadata_pj: d.metadata.ok_or_else(|| missing("metadata"))?,
            uniform_latency: d
                .uniform_latency
                .ok_or_else(|| missing("uniform-latency"))?,
            baseline_pj: d.baseline,
            sublevels: d.sublevels,
        };
        if spec.sublevels.is_empty() {
            return Err(missing("sublevel"));
        }
        if spec.sublevels.len() > MAX_SUBLEVELS {
            return Err(self.err(
                &end,
                format!(
                    "level {name} has {} sublevels, at most {MAX_SUBLEVELS} supported",
                    spec.sublevels.len()
                ),
            ));
        }
        let ways = spec.total_ways();
        if !ways.is_power_of_two() || ways > MAX_LEVEL_WAYS {
            return Err(self.err(
                &end,
                format!(
                    "level {name} sublevel ways must sum to a power of two <= {MAX_LEVEL_WAYS}, \
                     got {ways}"
                ),
            ));
        }
        if let Some(size) = d.size_bytes {
            let actual = spec.sets * ways * LINE_BYTES;
            if size != actual {
                return Err(self.err(
                    &end,
                    format!("{name} size {size} B != sets*ways*{LINE_BYTES} B = {actual} B"),
                ));
            }
        }
        Ok(spec)
    }

    /// Parses one `sublevel WAYS read PJ [write PJ] [insert PJ] latency N`.
    fn parse_sublevel(&self, toks: &[Tok<'a>], head: &Tok<'a>) -> Result<SublevelSpec, SpecError> {
        if toks.len() < 2 {
            return Err(self.err(head, "`sublevel` needs a way count"));
        }
        let ways = self.usize_pos(&toks[1], "sublevel ways")?;
        let mut read: Option<f64> = None;
        let mut write: Option<f64> = None;
        let mut insert: Option<f64> = None;
        let mut latency: Option<u32> = None;
        let mut i = 2usize;
        while i < toks.len() {
            let key = &toks[i];
            let Some(value) = toks.get(i + 1) else {
                return Err(self.err(key, format!("`{}` needs a value", key.text)));
            };
            match key.text {
                "read" => {
                    let v = self.f64_pos(value, "read energy")?;
                    self.set_once(&mut read, v, key, "read")?;
                }
                "write" => {
                    let v = self.f64_pos(value, "write energy")?;
                    self.set_once(&mut write, v, key, "write")?;
                }
                "insert" => {
                    let v = self.f64_pos(value, "insert energy")?;
                    self.set_once(&mut insert, v, key, "insert")?;
                }
                "latency" => {
                    let v = self.usize_pos(value, "latency")? as u32;
                    self.set_once(&mut latency, v, key, "latency")?;
                }
                other => {
                    return Err(self.err(
                        key,
                        format!("unknown sublevel key {other:?} (read/write/insert/latency)"),
                    ))
                }
            }
            i += 2;
        }
        Ok(SublevelSpec {
            ways,
            read_pj: read.ok_or_else(|| self.err(head, "sublevel is missing `read`"))?,
            write_pj: write,
            insert_pj: insert,
            latency: latency.ok_or_else(|| self.err(head, "sublevel is missing `latency`"))?,
        })
    }

    /// Runs `body` on each non-empty line until the matching `end`,
    /// advancing `*li` past it. Returns the `end` token for positioned
    /// "missing key" errors.
    fn walk_block(
        &self,
        li: &mut usize,
        mut body: impl FnMut(&[Tok<'a>], &Tok<'a>) -> Result<(), SpecError>,
    ) -> Result<Tok<'a>, SpecError> {
        while *li < self.lines.len() {
            let toks = &self.lines[*li];
            *li += 1;
            let Some(head) = toks.first() else { continue };
            if head.text == "end" {
                if toks.len() != 1 {
                    return Err(self.err(head, "`end` takes no values"));
                }
                return Ok(*head);
            }
            if head.text == "level" {
                return Err(self.err(head, "`level` blocks cannot nest (missing `end`?)"));
            }
            body(toks, head)?;
        }
        let _ = self.text;
        Err(self.err_eof("unterminated `level` block (missing `end`)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — the same tiny deterministic generator the serve
    /// protocol property tests use.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn pick(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_spec(rng: &mut Rng) -> HierarchySpec {
        let sublevel = |rng: &mut Rng, ways: usize| SublevelSpec {
            ways,
            read_pj: 1.0 + rng.pick(500) as f64 / 4.0,
            write_pj: (rng.pick(3) == 0).then(|| 1.0 + rng.pick(4000) as f64 / 4.0),
            insert_pj: (rng.pick(4) == 0).then(|| 1.0 + rng.pick(4000) as f64 / 4.0),
            latency: 1 + rng.pick(40) as u32,
        };
        let level = |rng: &mut Rng, n_sub: u64| {
            // Sublevels whose ways sum to a power of two. The count is
            // shared by l2 and l3 (the validator requires it).
            let total: usize = 1 << (2 + rng.pick(4)); // 4..=32
            let splits: Vec<usize> = match n_sub {
                0 => vec![total],
                1 => vec![total / 2, total / 2],
                _ => vec![total / 4, total / 4, total / 2],
            };
            LevelSpec {
                sets: 1 << (4 + rng.pick(8)),
                banks: 1 + rng.pick(16) as usize,
                ports: 1 + rng.pick(4) as usize,
                metadata_pj: 0.25 + rng.pick(40) as f64 / 8.0,
                uniform_latency: 1 + rng.pick(30) as u32,
                baseline_pj: (rng.pick(2) == 0).then(|| 1.0 + rng.pick(800) as f64 / 4.0),
                sublevels: splits.iter().map(|&w| sublevel(rng, w)).collect(),
            }
        };
        let n_sub = rng.pick(3);
        HierarchySpec {
            name: format!("node-{:x}", rng.next() & 0xffff),
            wire_pj_per_bit_mm: 0.01 + rng.pick(100) as f64 / 100.0,
            wire_delay_ns_per_mm: 0.01 + rng.pick(100) as f64 / 100.0,
            dram_pj_per_bit: 1.0 + rng.pick(50) as f64,
            eou_op_pj: 0.1 + rng.pick(30) as f64 / 10.0,
            mvq_lookup_pj: 0.05 + rng.pick(10) as f64 / 10.0,
            l1: L1Spec {
                sets: 1 << (3 + rng.pick(5)),
                ways: 1 << (1 + rng.pick(4)), // 2..=16
                banks: 1 + rng.pick(4) as usize,
                ports: 1 + rng.pick(2) as usize,
                latency: 1 + rng.pick(6) as u32,
                read_pj: 0.5 + rng.pick(80) as f64 / 8.0,
            },
            l2: level(rng, n_sub),
            l3: level(rng, n_sub),
        }
    }

    #[test]
    fn builtins_parse_and_are_named() {
        for name in BUILTIN_NAMES {
            let spec = HierarchySpec::builtin(name).expect("builtin exists");
            assert_eq!(spec.name, name);
            assert!(spec.validate().is_ok(), "{name}");
        }
        assert!(HierarchySpec::builtin("7nm").is_none());
    }

    #[test]
    fn stt_llc_has_asymmetric_l3_and_symmetric_l2() {
        let spec = HierarchySpec::builtin("stt-llc").unwrap();
        let tech = spec.technology();
        assert!(tech.l2.is_symmetric());
        assert!(!tech.l3.is_symmetric());
        // Writes are 6x reads at every L3 sublevel.
        let w = tech.l3.resolved_write();
        for (r, w) in tech.l3.sublevel_access.iter().zip(&w) {
            assert_eq!(w.as_pj(), r.as_pj() * 6.0);
        }
        // Insertions default to the write cost.
        assert_eq!(tech.l3.resolved_insert(), w);
        // L2 matches the 45 nm SRAM table.
        let sram = HierarchySpec::builtin("45nm").unwrap().technology();
        assert_eq!(tech.l2, sram.l2);
    }

    #[test]
    fn format_parse_round_trips_builtins() {
        for name in BUILTIN_NAMES {
            let spec = HierarchySpec::builtin(name).unwrap();
            let text = spec.format();
            let reparsed = HierarchySpec::parse(&text).expect("canonical text parses");
            assert_eq!(reparsed, spec, "{name}");
            assert_eq!(reparsed.format(), text, "{name}");
            assert_eq!(reparsed.fingerprint(), spec.fingerprint());
        }
    }

    #[test]
    fn format_parse_round_trips_random_specs() {
        // Satellite property test: format -> parse -> format is the
        // identity over randomized valid specs.
        let mut rng = Rng(0x511b);
        for i in 0..200 {
            let spec = random_spec(&mut rng);
            assert!(spec.validate().is_ok(), "iter {i}: {spec:?}");
            let text = spec.format();
            let reparsed =
                HierarchySpec::parse(&text).unwrap_or_else(|e| panic!("iter {i}: {e}\n{text}"));
            assert_eq!(reparsed, spec, "iter {i}");
            assert_eq!(reparsed.format(), text, "iter {i}");
        }
    }

    #[test]
    fn fingerprints_differ_across_builtins() {
        let fps: Vec<u64> = BUILTIN_NAMES
            .iter()
            .map(|n| HierarchySpec::builtin(n).unwrap().fingerprint())
            .collect();
        assert_eq!(
            fps.iter().collect::<std::collections::HashSet<_>>().len(),
            fps.len()
        );
    }

    /// Asserts that parsing fails and the error's position points
    /// `skip` bytes past the first occurrence of the (unique) `context`
    /// string — a byte-offset assertion on the diagnostic.
    fn assert_rejects_at(text: &str, context: &str, skip: usize, msg_contains: &str) {
        let err = HierarchySpec::parse(text).expect_err("should reject");
        assert!(
            err.message.contains(msg_contains),
            "message {:?} should contain {:?}",
            err.message,
            msg_contains
        );
        let expect_offset = text.find(context).expect("marker present in test input") + skip;
        assert_eq!(
            err.offset, expect_offset,
            "error offset {} should point {skip} bytes into {:?} (offset {}): {}",
            err.offset, context, expect_offset, err
        );
        // Line/col must agree with the byte offset.
        let line = text[..err.offset].matches('\n').count() + 1;
        let col = err.offset - text[..err.offset].rfind('\n').map_or(0, |p| p + 1) + 1;
        assert_eq!((err.line, err.col), (line, col), "{err}");
    }

    #[test]
    fn rejects_duplicate_levels() {
        let dup = BUILTIN_45NM.replace(
            "level l3\n",
            "level l2X\n", // placeholder so only one l3 edit below
        );
        // Turn the l3 block into a second l2 block.
        let dup = dup.replace("level l2X", "level l2");
        let err = HierarchySpec::parse(&dup).expect_err("duplicate l2");
        assert!(err.message.contains("duplicate `level l2` block"), "{err}");
        // The error points at the *second* `l2` token.
        let second = dup.match_indices("level l2").nth(1).unwrap().0 + "level ".len();
        assert_eq!(err.offset, second, "{err}");
    }

    #[test]
    fn rejects_non_power_of_two_sets_and_ways() {
        assert_rejects_at(
            &BUILTIN_45NM.replace("  sets 256\n", "  sets 300\n"),
            "sets 300",
            "sets ".len(),
            "power of two",
        );
        assert_rejects_at(
            &BUILTIN_45NM.replace("  ways 8\n", "  ways 6\n"),
            "ways 6",
            "ways ".len(),
            "power of two",
        );
        // Sublevel ways summing to 12 (4+4+4) are caught at `end`.
        let text = BUILTIN_45NM.replace(
            "sublevel 8 read 50 latency 8",
            "sublevel 4 read 50 latency 8",
        );
        let err = HierarchySpec::parse(&text).expect_err("non-pow2 total");
        assert!(err.message.contains("sum to a power of two"), "{err}");
    }

    #[test]
    fn rejects_zero_energies() {
        assert_rejects_at(
            &BUILTIN_45NM.replace("  read 5\n", "  read 0\n"),
            "read 0",
            "read ".len(),
            "must be positive",
        );
        assert_rejects_at(
            &BUILTIN_45NM.replace("dram 20", "dram 0"),
            "dram 0",
            "dram ".len(),
            "must be positive",
        );
        assert_rejects_at(
            &BUILTIN_45NM.replace(
                "sublevel 4 read 21 latency 4",
                "sublevel 4 read 0 latency 4",
            ),
            "read 0 latency 4",
            "read ".len(),
            "must be positive",
        );
    }

    #[test]
    fn rejects_unknown_directives_with_position() {
        assert_rejects_at(
            &format!("{BUILTIN_45NM}bogus 1\n"),
            "bogus",
            0,
            "unknown directive",
        );
        assert_rejects_at(
            &BUILTIN_45NM.replace("  ports 1\n  metadata 1\n", "  ports 1\n  shiny 1\n"),
            "shiny",
            0,
            "unknown level key",
        );
    }

    #[test]
    fn rejects_missing_pieces() {
        let err = HierarchySpec::parse("node x\n").expect_err("incomplete");
        assert!(err.message.contains("missing"), "{err}");
        let err = HierarchySpec::parse(&BUILTIN_45NM.replace("end\nlevel l2", "level l2"))
            .expect_err("unterminated block");
        assert!(err.message.contains("cannot nest"), "{err}");
        let unterminated = &BUILTIN_45NM[..BUILTIN_45NM.rfind("end").unwrap()];
        let err = HierarchySpec::parse(unterminated).expect_err("missing final end");
        assert!(err.message.contains("unterminated"), "{err}");
    }

    #[test]
    fn rejects_size_mismatch() {
        let err = HierarchySpec::parse(&BUILTIN_45NM.replace("size 256KiB", "size 128KiB"))
            .expect_err("size mismatch");
        assert!(err.message.contains("size"), "{err}");
    }

    #[test]
    fn load_resolves_builtins_and_reports_unknown() {
        assert_eq!(HierarchySpec::load("stt-llc").unwrap().name, "stt-llc");
        let err = HierarchySpec::load("no-such-node-or-file").expect_err("unknown");
        assert!(err.contains("45nm, 22nm, stt-llc"), "{err}");
    }

    #[test]
    fn validate_catches_programmatic_violations() {
        let mut spec = HierarchySpec::builtin("45nm").unwrap();
        spec.l1.ways = 12;
        assert!(spec.validate().unwrap_err().contains("power of two"));
        let mut spec = HierarchySpec::builtin("45nm").unwrap();
        spec.l2.sublevels[0].read_pj = -1.0;
        assert!(spec.validate().unwrap_err().contains("positive"));
        let mut spec = HierarchySpec::builtin("45nm").unwrap();
        spec.name = "bad name".to_owned();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn mismatched_l2_l3_sublevel_counts_are_rejected() {
        // The MMU keys one per-line sublevel field for both SLIP
        // levels; a 2-vs-3 hierarchy must die in the parser, not on an
        // assert deep inside system construction.
        let mut spec = HierarchySpec::builtin("45nm").unwrap();
        let merged = SublevelSpec {
            ways: spec.l2.sublevels[0].ways + spec.l2.sublevels[1].ways,
            ..spec.l2.sublevels[0].clone()
        };
        spec.l2.sublevels = vec![merged, spec.l2.sublevels[2].clone()];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("same sublevel count"), "{err}");
        let err = HierarchySpec::parse(&spec.format()).unwrap_err();
        assert!(err.message.contains("same sublevel count"), "{err}");
    }
}
