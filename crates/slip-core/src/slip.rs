//! The Sub-Level Insertion Policy representation (paper Section 3.1).
//!
//! A cache level with `S` sublevels admits exactly `2^S` SLIPs: pick how
//! many leading sublevels `m ∈ 0..=S` the policy uses (trailing
//! sublevels are bypassed — "skipping" interior sublevels is excluded,
//! as in the paper's footnote 1), then pick one of the `2^(m-1)` ways to
//! split those `m` sublevels into contiguous chunks. Summing,
//! `1 + Σ_{m=1..S} 2^(m-1) = 2^S`.
//!
//! A SLIP is stored in `S` bits using a self-delimiting code:
//!
//! * code `0` is the All-Bypass Policy (no chunks);
//! * for `m ≥ 1`, code `= 2^(m-1) | boundaries`, where bit `i` of
//!   `boundaries` (for `i < m-1`) marks a chunk boundary after sublevel
//!   `i`. The most-significant set bit of the code recovers `m`.
//!
//! For the paper's 3-sublevel levels this is the 3 b-per-level encoding
//! stored in the PTE.

use core::fmt;

/// Maximum number of sublevels supported by the 8-bit code.
pub const MAX_SUBLEVELS: usize = 8;

/// Error returned when constructing a [`Slip`] from invalid parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlipError {
    /// The sublevel count is 0 or exceeds [`MAX_SUBLEVELS`].
    BadSublevelCount(usize),
    /// The code does not denote a SLIP for the given sublevel count.
    BadCode(u8),
    /// The chunk list is not a partition of a prefix of the sublevels.
    BadChunks,
}

impl fmt::Display for SlipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlipError::BadSublevelCount(s) => {
                write!(f, "sublevel count {s} not in 1..={MAX_SUBLEVELS}")
            }
            SlipError::BadCode(c) => write!(f, "code {c} is not a valid SLIP code"),
            SlipError::BadChunks => write!(
                f,
                "chunks must partition a prefix of the sublevels in order"
            ),
        }
    }
}

impl std::error::Error for SlipError {}

/// One Sub-Level Insertion Policy over `S` sublevels.
///
/// # Example
///
/// ```
/// use slip_core::Slip;
///
/// // The paper's third motivating policy for a 3-sublevel L2:
/// // insert into sublevel 0; on eviction move into sublevels 1-2.
/// let slip = Slip::from_chunk_ends(3, &[0, 2]).unwrap();
/// assert_eq!(slip.num_chunks(), 2);
/// assert_eq!(slip.used_sublevels(), 3);
/// assert!(!slip.is_default() && !slip.is_all_bypass());
///
/// // Round-trips through its S-bit code.
/// let code = slip.code();
/// assert_eq!(Slip::from_code(3, code).unwrap(), slip);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slip {
    sublevels: u8,
    code: u8,
}

impl Slip {
    /// The All-Bypass Policy (no chunks) for `sublevels` sublevels.
    ///
    /// # Errors
    ///
    /// Fails if `sublevels` is not in `1..=8`.
    pub fn all_bypass(sublevels: usize) -> Result<Slip, SlipError> {
        check_sublevels(sublevels)?;
        Ok(Slip {
            sublevels: sublevels as u8,
            code: 0,
        })
    }

    /// The Default SLIP: one chunk containing every sublevel (the level
    /// behaves as a regular cache).
    ///
    /// # Errors
    ///
    /// Fails if `sublevels` is not in `1..=8`.
    pub fn default_slip(sublevels: usize) -> Result<Slip, SlipError> {
        check_sublevels(sublevels)?;
        Ok(Slip {
            sublevels: sublevels as u8,
            code: 1 << (sublevels - 1),
        })
    }

    /// Decodes a SLIP from its `S`-bit code.
    ///
    /// # Errors
    ///
    /// Fails if `sublevels` is out of range or `code >= 2^S`.
    pub fn from_code(sublevels: usize, code: u8) -> Result<Slip, SlipError> {
        check_sublevels(sublevels)?;
        if (code as usize) >= (1usize << sublevels) {
            return Err(SlipError::BadCode(code));
        }
        Ok(Slip {
            sublevels: sublevels as u8,
            code,
        })
    }

    /// Builds a SLIP from the (inclusive) end sublevel of each chunk.
    ///
    /// `ends` must be strictly increasing and start chunking at sublevel
    /// 0; e.g. `&[0, 2]` means chunk 0 = sublevel 0, chunk 1 = sublevels
    /// 1..=2. An empty slice yields the All-Bypass Policy.
    ///
    /// # Errors
    ///
    /// Fails if the ends are not strictly increasing within range.
    pub fn from_chunk_ends(sublevels: usize, ends: &[usize]) -> Result<Slip, SlipError> {
        check_sublevels(sublevels)?;
        if ends.is_empty() {
            return Slip::all_bypass(sublevels);
        }
        let m = *ends.last().expect("nonempty") + 1;
        if m > sublevels {
            return Err(SlipError::BadChunks);
        }
        let mut boundaries = 0u8;
        let mut prev: Option<usize> = None;
        for (i, &e) in ends.iter().enumerate() {
            if let Some(p) = prev {
                if e <= p {
                    return Err(SlipError::BadChunks);
                }
            }
            prev = Some(e);
            // Every chunk end but the last marks a boundary after it.
            if i + 1 < ends.len() {
                boundaries |= 1 << e;
            }
        }
        let code = (1u8 << (m - 1)) | boundaries;
        debug_assert!((code as usize) < (1usize << sublevels));
        Ok(Slip {
            sublevels: sublevels as u8,
            code,
        })
    }

    /// Enumerates all `2^S` SLIPs for `sublevels` sublevels, in code
    /// order (code 0 = All-Bypass first).
    ///
    /// # Panics
    ///
    /// Panics if `sublevels` is not in `1..=8`.
    pub fn enumerate(sublevels: usize) -> Vec<Slip> {
        check_sublevels(sublevels).expect("sublevels in 1..=8");
        (0..(1u16 << sublevels))
            .map(|c| Slip {
                sublevels: sublevels as u8,
                code: c as u8,
            })
            .collect()
    }

    /// The `S`-bit code of this SLIP.
    pub fn code(self) -> u8 {
        self.code
    }

    /// Number of sublevels of the level this SLIP applies to.
    pub fn sublevels(self) -> usize {
        self.sublevels as usize
    }

    /// Number of leading sublevels this SLIP uses (`m`); bypassed
    /// trailing sublevels are not counted.
    pub fn used_sublevels(self) -> usize {
        if self.code == 0 {
            0
        } else {
            8 - self.code.leading_zeros() as usize
        }
    }

    /// Number of chunks (`M`).
    pub fn num_chunks(self) -> usize {
        if self.code == 0 {
            0
        } else {
            let m = self.used_sublevels();
            let boundaries = self.code & !(1 << (m - 1));
            1 + boundaries.count_ones() as usize
        }
    }

    /// `true` for the All-Bypass Policy.
    pub fn is_all_bypass(self) -> bool {
        self.code == 0
    }

    /// `true` for the Default SLIP (one chunk of all sublevels).
    pub fn is_default(self) -> bool {
        self.code == 1 << (self.sublevels - 1)
    }

    /// `true` if this SLIP bypasses at least one sublevel (including the
    /// All-Bypass Policy).
    pub fn bypasses_sublevels(self) -> bool {
        self.used_sublevels() < self.sublevels()
    }

    /// The chunks of this SLIP as inclusive sublevel ranges, nearest
    /// chunk first, decoded straight from the code's bits (no
    /// allocation).
    pub fn chunks(self) -> SlipChunks {
        let used = self.used_sublevels();
        SlipChunks {
            next_start: 0,
            used: used as u8,
            // The length bit is not a boundary; bits below it are.
            boundaries: if used == 0 {
                0
            } else {
                self.code & !(1 << (used - 1))
            },
        }
    }

    /// The chunk index containing sublevel `s`, if this SLIP uses it.
    pub fn chunk_of_sublevel(self, s: usize) -> Option<usize> {
        self.chunks().position(|c| c.contains(&s))
    }
}

/// Iterator over a [`Slip`]'s chunks, nearest first (see
/// [`Slip::chunks`]).
#[derive(Debug, Clone)]
pub struct SlipChunks {
    /// First sublevel of the next chunk.
    next_start: u8,
    /// Sublevels the SLIP uses (`m`); iteration ends there.
    used: u8,
    /// Bit `i` marks a chunk boundary after sublevel `i`.
    boundaries: u8,
}

impl Iterator for SlipChunks {
    type Item = core::ops::RangeInclusive<usize>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.next_start >= self.used {
            return None;
        }
        let start = self.next_start;
        // `start < used <= 8`, so the shift is in range.
        let ahead = self.boundaries >> start;
        let end = if ahead == 0 {
            self.used - 1
        } else {
            start + ahead.trailing_zeros() as u8
        };
        self.next_start = end + 1;
        Some(usize::from(start)..=usize::from(end))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = if self.next_start >= self.used {
            0
        } else {
            1 + (self.boundaries >> self.next_start).count_ones() as usize
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for SlipChunks {}

impl fmt::Display for Slip {
    /// Formats in the paper's notation, e.g. `{[0],[1,2]}` (sublevel
    /// indices), `{}` for the All-Bypass Policy.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.chunks().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "[")?;
            for (j, s) in c.enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, "]")?;
        }
        write!(f, "}}")
    }
}

fn check_sublevels(s: usize) -> Result<(), SlipError> {
    if (1..=MAX_SUBLEVELS).contains(&s) {
        Ok(())
    } else {
        Err(SlipError::BadSublevelCount(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn enumeration_count_is_two_to_the_s() {
        for s in 1..=8 {
            assert_eq!(Slip::enumerate(s).len(), 1 << s, "S = {s}");
        }
    }

    #[test]
    fn three_sublevel_enumeration_matches_paper_example() {
        // Paper §3.1 lists for a 3-way cache (1 way per sublevel):
        // {}, {[0]}, {[0,1]}, {[0],[1]}, {[0,1,2]}, {[0,1],[2]},
        // {[0],[1,2]}, {[0],[1],[2]}.
        let all: HashSet<String> = Slip::enumerate(3)
            .into_iter()
            .map(|s| s.to_string())
            .collect();
        for expect in [
            "{}",
            "{[0]}",
            "{[0,1]}",
            "{[0],[1]}",
            "{[0,1,2]}",
            "{[0,1],[2]}",
            "{[0],[1,2]}",
            "{[0],[1],[2]}",
        ] {
            assert!(all.contains(expect), "missing {expect} in {all:?}");
        }
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn code_round_trips() {
        for s in 1..=8 {
            for slip in Slip::enumerate(s) {
                let back = Slip::from_code(s, slip.code()).unwrap();
                assert_eq!(back, slip);
                assert!(back.chunks().eq(slip.chunks()));
            }
        }
    }

    #[test]
    fn chunk_ends_round_trip() {
        for slip in Slip::enumerate(4) {
            let ends: Vec<usize> = slip.chunks().map(|c| *c.end()).collect();
            let back = Slip::from_chunk_ends(4, &ends).unwrap();
            assert_eq!(back, slip, "ends {ends:?}");
        }
    }

    #[test]
    fn special_slips() {
        let abp = Slip::all_bypass(3).unwrap();
        assert!(abp.is_all_bypass());
        assert_eq!(abp.num_chunks(), 0);
        assert_eq!(abp.used_sublevels(), 0);
        assert_eq!(abp.to_string(), "{}");

        let def = Slip::default_slip(3).unwrap();
        assert!(def.is_default());
        assert_eq!(def.num_chunks(), 1);
        assert_eq!(def.used_sublevels(), 3);
        assert_eq!(def.to_string(), "{[0,1,2]}");
        assert_eq!(def.code(), 0b100);
    }

    #[test]
    fn chunks_partition_used_prefix() {
        for s in 1..=6 {
            for slip in Slip::enumerate(s) {
                let mut next = 0usize;
                for c in slip.chunks() {
                    assert_eq!(*c.start(), next, "{slip}");
                    next = *c.end() + 1;
                }
                assert_eq!(next, slip.used_sublevels(), "{slip}");
            }
        }
    }

    #[test]
    fn chunk_of_sublevel_consistency() {
        let slip = Slip::from_chunk_ends(3, &[0, 2]).unwrap();
        assert_eq!(slip.chunk_of_sublevel(0), Some(0));
        assert_eq!(slip.chunk_of_sublevel(1), Some(1));
        assert_eq!(slip.chunk_of_sublevel(2), Some(1));
        let partial = Slip::from_chunk_ends(3, &[1]).unwrap();
        assert_eq!(partial.chunk_of_sublevel(2), None);
        assert!(partial.bypasses_sublevels());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert_eq!(Slip::from_code(0, 0), Err(SlipError::BadSublevelCount(0)));
        assert_eq!(Slip::from_code(9, 0), Err(SlipError::BadSublevelCount(9)));
        assert_eq!(Slip::from_code(3, 8), Err(SlipError::BadCode(8)));
        assert_eq!(Slip::from_chunk_ends(3, &[1, 1]), Err(SlipError::BadChunks));
        assert_eq!(Slip::from_chunk_ends(3, &[2, 1]), Err(SlipError::BadChunks));
        assert_eq!(Slip::from_chunk_ends(3, &[3]), Err(SlipError::BadChunks));
    }

    #[test]
    fn display_of_errors() {
        assert!(SlipError::BadCode(9).to_string().contains("9"));
        assert!(SlipError::BadSublevelCount(0).to_string().contains("0"));
        assert!(!SlipError::BadChunks.to_string().is_empty());
    }

    #[test]
    fn paper_way_notation_example() {
        // The paper's {[0,1,2,3],[4..15]} over ways maps to sublevel
        // chunks {[0],[1,2]} with the 4/4/8 sublevel split.
        let slip = Slip::from_chunk_ends(3, &[0, 2]).unwrap();
        assert_eq!(slip.to_string(), "{[0],[1,2]}");
    }
}
