//! Lazy-correction scrub: lightweight detection with a write-back
//! threshold.

use pcm_memsim::{AccessResult, LineAddr, SimTime, SweepRule};
use scrub_checkpoint::{CheckpointError, Reader, Writer};

use crate::policy::{BatchPlan, ScrubAction, ScrubContext, ScrubPolicy, SweepCursor};

/// Threshold scrub: probe every line each sweep, but only pay the
/// write-back once the accumulated *persistent* error count reaches `Θ`.
///
/// This is the paper's "lightweight error detection" mechanism: a probe is
/// a read plus a syndrome check (cheap); with a `t`-correcting code,
/// errors up to `Θ ≤ t` can safely accumulate across sweeps before one
/// corrective write clears them all. The write-rate reduction is roughly
/// the number of sweeps it takes a line to accumulate Θ errors.
///
/// # Examples
///
/// ```
/// use scrub_core::ThresholdScrub;
/// // BCH-6 line code: let 5 errors accumulate before writing back.
/// let p = ThresholdScrub::new(900.0, 65_536, 5);
/// assert_eq!(p.theta(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdScrub {
    interval_s: f64,
    num_lines: u32,
    theta: u32,
    cursor: SweepCursor,
}

impl ThresholdScrub {
    /// Creates a threshold scrubber: sweep every `interval_s`, write back
    /// at `theta` accumulated errors.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s <= 0`, `num_lines == 0`, or `theta == 0`
    /// (θ=0 would be [`crate::BasicScrub`]).
    pub fn new(interval_s: f64, num_lines: u32, theta: u32) -> Self {
        assert!(interval_s > 0.0, "scrub interval must be positive");
        assert!(num_lines > 0, "need at least one line");
        assert!(
            theta >= 1,
            "theta must be >= 1; use BasicScrub for eager write-back"
        );
        Self {
            interval_s,
            num_lines,
            theta,
            cursor: SweepCursor::new(),
        }
    }

    /// The write-back threshold.
    pub fn theta(&self) -> u32 {
        self.theta
    }

    /// The full-sweep interval.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Shared write-back rule: uncorrectable always, otherwise when the
    /// line's resident error count reaches θ.
    pub(crate) fn threshold_rule(theta: u32, result: &AccessResult) -> bool {
        result.outcome.is_uncorrectable() || result.persistent_bits >= theta
    }
}

impl ScrubPolicy for ThresholdScrub {
    fn name(&self) -> &str {
        "threshold"
    }

    fn probe_gap_s(&self, _ctx: &ScrubContext<'_>) -> f64 {
        self.interval_s / self.num_lines as f64
    }

    fn next_action(&mut self, _ctx: &ScrubContext<'_>) -> ScrubAction {
        let (addr, _) = self.cursor.advance(self.num_lines);
        ScrubAction::Probe(addr)
    }

    fn wants_writeback(
        &mut self,
        _addr: LineAddr,
        result: &AccessResult,
        _ctx: &ScrubContext<'_>,
    ) -> bool {
        Self::threshold_rule(self.theta, result)
    }

    fn on_demand_write(&mut self, _addr: LineAddr, _now: SimTime) {}

    fn can_batch(&self) -> bool {
        true
    }

    fn plan_batch(&mut self, slots: u64) -> Option<BatchPlan> {
        Some(BatchPlan {
            first: self.cursor.advance_by(slots, self.num_lines),
            min_age_s: 0.0,
            // Uncorrectable lines are written back unconditionally by the
            // sweep, matching the engine's forced-write-back path.
            rule: SweepRule::Threshold { theta: self.theta },
        })
    }

    fn save_state(&self, w: &mut Writer) {
        w.put_u32(self.cursor.position());
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let pos = r.u32()?;
        self.cursor.set_position(pos, self.num_lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_ecc::ClassifyOutcome;

    fn res(bits: u32, outcome: ClassifyOutcome) -> AccessResult {
        AccessResult {
            outcome,
            persistent_bits: bits,
            new_ue: false,
        }
    }

    #[test]
    fn holds_below_threshold() {
        let theta = 4;
        for bits in 0..4 {
            let r = res(bits, ClassifyOutcome::Corrected { bits });
            assert!(!ThresholdScrub::threshold_rule(theta, &r), "bits={bits}");
        }
    }

    #[test]
    fn fires_at_threshold() {
        let r = res(4, ClassifyOutcome::Corrected { bits: 4 });
        assert!(ThresholdScrub::threshold_rule(4, &r));
        let r = res(7, ClassifyOutcome::Corrected { bits: 7 });
        assert!(ThresholdScrub::threshold_rule(4, &r));
    }

    #[test]
    fn always_fires_on_uncorrectable() {
        let r = res(1, ClassifyOutcome::DetectedUncorrectable);
        assert!(ThresholdScrub::threshold_rule(10, &r));
        let r = res(0, ClassifyOutcome::Miscorrected);
        assert!(ThresholdScrub::threshold_rule(10, &r));
    }

    #[test]
    #[should_panic(expected = "theta must be >= 1")]
    fn rejects_zero_theta() {
        ThresholdScrub::new(900.0, 16, 0);
    }
}
