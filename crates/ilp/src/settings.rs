//! The constraint set `C` of the paper: everything that bounds the search.
//!
//! April was "configured to perform a top-down breadth-first search" with "a
//! threshold on the number of rules that can be generated on each search"
//! (paper §5.2). [`Settings`] carries that configuration surface.

use p2mdie_logic::prover::ProofLimits;

/// How candidate rules are scored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ScoreFn {
    /// `pos_cover - neg_cover` — the paper's "heuristic that relies on the
    /// number of positive and negative examples".
    Coverage,
    /// `pos_cover - neg_cover - body_length` (Progol-style compression).
    Compression,
}
p2mdie_logic::wire_enum!(ScoreFn, "score fn tag" {
    0 => Coverage,
    1 => Compression,
});

impl ScoreFn {
    /// Computes the score of a rule.
    #[inline]
    pub fn score(self, pos: u32, neg: u32, body_len: usize) -> i64 {
        match self {
            ScoreFn::Coverage => pos as i64 - neg as i64,
            ScoreFn::Compression => pos as i64 - neg as i64 - body_len as i64,
        }
    }
}

/// The constraints `C` given to both the sequential and parallel algorithms.
/// Every field travels to the workers with each job, in the order of the
/// wire table below.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Settings {
    /// Maximum negative examples a "good" (consistent) rule may cover.
    pub noise: u32,
    /// Minimum positive examples a "good" rule must cover.
    pub min_pos: u32,
    /// Maximum number of body literals.
    pub max_body: usize,
    /// Node budget per search ("threshold on the number of rules generated
    /// on each search", §5.2).
    pub max_nodes: usize,
    /// Default recall bound for mode declarations using `*`.
    pub default_recall: u32,
    /// Variable depth `i` for bottom-clause saturation.
    pub max_var_depth: u32,
    /// Cap on bottom-clause body size (keeps saturation bounded).
    pub max_bottom_literals: usize,
    /// Per-example proof resource limits.
    pub proof: ProofLimits,
    /// Scoring function for the search.
    pub score: ScoreFn,
    /// Cap on how many good rules one search retains (memory guard). A
    /// caller that keeps fewer asks for fewer (`Search::keep`): a pipeline stage the width `W`, the sequential loop one.
    pub good_cap: usize,
    /// Thread count for coverage evaluation: `1` = on the calling thread,
    /// `0` = one thread per available core, `n` = exactly `n` threads. The
    /// result is bit-identical for every setting; only wall-clock changes.
    pub eval_threads: usize,
}
p2mdie_logic::wire_struct!(Settings {
    noise,
    min_pos,
    max_body,
    max_nodes,
    default_recall,
    max_var_depth,
    max_bottom_literals,
    proof,
    score,
    good_cap,
    eval_threads,
});

impl Default for Settings {
    fn default() -> Self {
        Settings {
            noise: 0,
            min_pos: 2,
            max_body: 4,
            max_nodes: 2_000,
            default_recall: 8,
            max_var_depth: 2,
            max_bottom_literals: 200,
            proof: ProofLimits {
                max_depth: 6,
                max_steps: 4_000,
            },
            score: ScoreFn::Coverage,
            good_cap: 20_000,
            eval_threads: 0,
        }
    }
}

impl Settings {
    /// True when a rule with this coverage satisfies the "good" criteria
    /// (consistency under noise + minimum positive cover).
    #[inline]
    pub fn is_good(&self, pos: u32, neg: u32) -> bool {
        pos >= self.min_pos && neg <= self.noise
    }
}

/// The pipeline width `W`: how many good rules each stage forwards.
/// `Unlimited` is the paper's "nolimit" configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Width {
    /// Forward every good rule.
    Unlimited,
    /// Forward at most this many rules per stage.
    Limit(u32),
}
p2mdie_logic::wire_enum!(Width, "width tag" {
    0 => Unlimited,
    1 => Limit(n),
});

impl Width {
    /// The limit as a usize cap (`usize::MAX` when unlimited).
    #[inline]
    pub fn cap(self) -> usize {
        match self {
            Width::Unlimited => usize::MAX,
            Width::Limit(w) => w as usize,
        }
    }

    /// Label used in tables ("nolimit" / "10"), matching the paper.
    pub fn label(self) -> String {
        match self {
            Width::Unlimited => "nolimit".to_owned(),
            Width::Limit(w) => w.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoring_functions() {
        assert_eq!(ScoreFn::Coverage.score(10, 3, 2), 7);
        assert_eq!(ScoreFn::Compression.score(10, 3, 2), 5);
    }

    #[test]
    fn goodness_criteria() {
        let s = Settings {
            noise: 1,
            min_pos: 2,
            ..Settings::default()
        };
        assert!(s.is_good(2, 0));
        assert!(s.is_good(5, 1));
        assert!(!s.is_good(1, 0)); // too few positives
        assert!(!s.is_good(5, 2)); // too noisy
    }

    #[test]
    fn width_caps() {
        assert_eq!(Width::Unlimited.cap(), usize::MAX);
        assert_eq!(Width::Limit(10).cap(), 10);
        assert_eq!(Width::Unlimited.label(), "nolimit");
        assert_eq!(Width::Limit(10).label(), "10");
    }
}
