//! Canonical mode-flag machinery and the draw-path selector.
//!
//! Every mode-style flag in the system (`--sync-mode`, `--sampling-mode`,
//! `--draw-mode`, `--policy`) follows one discipline: a canonical `NAMES`
//! table is the single source the CLI usage text, the `FromStr` impl, and
//! the parse error all derive from, so they can never drift apart. The
//! shared error type and lookup body live here — the lowest crate that
//! defines a mode enum — and the multi-GPU layer re-exports them for its
//! own enums ([`SyncMode`], [`SamplingMode`], `PartitionPolicy`).
//!
//! [`SyncMode`]: https://docs.rs/culda-multigpu
//! [`SamplingMode`]: https://docs.rs/culda-multigpu
//!
//! [`DrawMode`] itself selects how a sampler turns its per-token weight
//! prefix into a topic: the classic private index-tree walk (`tree`), the
//! Steele–Tristan butterfly-patterned partial-sum path (`butterfly`, see
//! [`crate::butterfly`]), or a per-block cost-model choice (`auto`). Like
//! every other mode flag, the choice is **cost-model only**: both paths
//! compute the same serially-accumulated f32 prefix and the same
//! lower-bound search over it, so sampled topics are bit-identical.

use std::fmt;

/// A mode-style flag (`--sync-mode`, `--sampling-mode`, `--draw-mode`,
/// `--policy`) did not match any canonical name.
///
/// All mode enums share this one error type, and its `expected` list is
/// the same canonical table the CLI usage text renders — so the help
/// screen, the parse error, and the accepted spellings can never drift
/// apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeParseError {
    /// Which flag family failed (`"sync mode"`, `"sampling mode"`,
    /// `"draw mode"`, `"partition policy"`).
    pub kind: &'static str,
    /// The rejected token.
    pub given: String,
    /// The canonical names that would have been accepted.
    pub expected: &'static [&'static str],
}

impl fmt::Display for ModeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} {:?} (expected {})",
            self.kind,
            self.given,
            self.expected.join("|")
        )
    }
}

impl std::error::Error for ModeParseError {}

/// Looks `s` up in a spelling table; the shared body behind every mode
/// enum's `FromStr` (here and in the multi-GPU crate's config layer).
pub fn parse_mode<T: Copy>(
    kind: &'static str,
    spellings: &[(&'static str, T)],
    expected: &'static [&'static str],
    s: &str,
) -> Result<T, ModeParseError> {
    spellings
        .iter()
        .find(|(name, _)| *name == s)
        .map(|&(_, v)| v)
        .ok_or_else(|| ModeParseError {
            kind,
            given: s.to_string(),
            expected,
        })
}

/// How each sampler turns its per-token weight prefix into a drawn topic.
///
/// Every mode computes the exact same draw (same RNG stream, same f32 sum
/// order, same lower-bound rule), so checkpoints are byte-identical across
/// modes; only the modelled memory traffic of the `p1` phase differs. See
/// [`crate::butterfly`] for the layouts and the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrawMode {
    /// Resolve per block from the shared-memory budget: the tree walk when
    /// the per-sampler `p1` scratch fits on-chip, the butterfly when it
    /// would spill to DRAM.
    Auto,
    /// The classic path: each sampler (one warp) rebuilds a Figure-5 index
    /// tree over its token's `p1` weights and walks it. On-chip when the
    /// scratch fits; when it spills, the warp writes its leaves coalesced
    /// and reads one 128-byte DRAM segment per tree level.
    Tree,
    /// Steele–Tristan butterfly-patterned partial sums: the 32 samplers'
    /// prefixes interleave so every scan step is one coalesced 128-byte
    /// segment, and the search runs over register-resident transposed
    /// partials via `shfl_xor` exchanges.
    Butterfly,
}

impl DrawMode {
    /// Canonical flag names, in CLI order — the single source the usage
    /// text, the `FromStr` impl, and the parse error all derive from.
    pub const NAMES: &'static [&'static str] = &["auto", "tree", "butterfly"];

    const SPELLINGS: &'static [(&'static str, DrawMode)] = &[
        ("auto", DrawMode::Auto),
        ("tree", DrawMode::Tree),
        ("butterfly", DrawMode::Butterfly),
    ];

    /// The canonical name (`Display` and the usage text both use this).
    pub fn name(self) -> &'static str {
        match self {
            DrawMode::Auto => "auto",
            DrawMode::Tree => "tree",
            DrawMode::Butterfly => "butterfly",
        }
    }

    /// `"auto|tree|butterfly"` — derived from [`Self::NAMES`] for usage
    /// text, never hand-kept.
    pub fn usage() -> String {
        Self::NAMES.join("|")
    }
}

impl fmt::Display for DrawMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl std::str::FromStr for DrawMode {
    type Err = ModeParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_mode("draw mode", Self::SPELLINGS, Self::NAMES, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_mode_round_trips_through_strings() {
        for &name in DrawMode::NAMES {
            let m: DrawMode = name.parse().unwrap();
            assert_eq!(m.to_string(), name);
        }
    }

    #[test]
    fn draw_mode_usage_derives_from_names() {
        assert_eq!(DrawMode::usage(), "auto|tree|butterfly");
        for &name in DrawMode::NAMES {
            assert!(DrawMode::usage().contains(name));
        }
    }

    #[test]
    fn unknown_draw_mode_reports_canonical_names() {
        let e = "warp".parse::<DrawMode>().unwrap_err();
        assert_eq!(e.kind, "draw mode");
        assert_eq!(e.given, "warp");
        assert_eq!(e.expected, DrawMode::NAMES);
        let msg = e.to_string();
        assert!(msg.contains("auto|tree|butterfly"), "{msg}");
    }

    #[test]
    fn parse_mode_is_reusable_for_other_tables() {
        let table: &[(&'static str, u8)] = &[("a", 1), ("b", 2)];
        const EXPECTED: &[&str] = &["a", "b"];
        assert_eq!(parse_mode("demo", table, EXPECTED, "b").unwrap(), 2);
        assert!(parse_mode("demo", table, EXPECTED, "c").is_err());
    }
}
