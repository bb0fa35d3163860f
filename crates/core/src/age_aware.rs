//! Drift-age-aware scrub: skip lines too young to have drifted.

use pcm_memsim::{AccessResult, LineAddr, SimTime, SweepRule};
use scrub_checkpoint::{CheckpointError, Reader, Writer};

use crate::policy::{BatchPlan, ScrubAction, ScrubContext, ScrubPolicy, SweepCursor};
use crate::threshold::ThresholdScrub;

/// Age-aware scrub: sweep as usual, but *skip* any line whose data is
/// younger than `min_age_s` — drift error probability is a function of
/// time-since-write, so young lines are provably (nearly) clean and
/// probing them wastes energy and bandwidth.
///
/// Combines with the lazy write-back threshold. Hardware-wise this models
/// a controller that keeps a coarse per-region last-write timestamp, which
/// memory controllers already maintain for scheduling.
///
/// # Examples
///
/// ```
/// use scrub_core::AgeAwareScrub;
/// let p = AgeAwareScrub::new(900.0, 65_536, 5, 600.0);
/// assert_eq!(p.min_age_s(), 600.0);
/// ```
#[derive(Debug, Clone)]
pub struct AgeAwareScrub {
    interval_s: f64,
    num_lines: u32,
    theta: u32,
    min_age_s: f64,
    cursor: SweepCursor,
    /// Probes skipped because the line was younger than `min_age_s`.
    skipped: u64,
}

impl AgeAwareScrub {
    /// Creates an age-aware scrubber.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s <= 0`, `num_lines == 0`, `theta == 0`, or
    /// `min_age_s < 0`.
    pub fn new(interval_s: f64, num_lines: u32, theta: u32, min_age_s: f64) -> Self {
        assert!(interval_s > 0.0, "scrub interval must be positive");
        assert!(num_lines > 0, "need at least one line");
        assert!(theta >= 1, "theta must be >= 1");
        assert!(min_age_s >= 0.0, "min age must be nonnegative");
        Self {
            interval_s,
            num_lines,
            theta,
            min_age_s,
            cursor: SweepCursor::new(),
            skipped: 0,
        }
    }

    /// Minimum data age before a line is worth probing.
    pub fn min_age_s(&self) -> f64 {
        self.min_age_s
    }

    /// Probes skipped so far thanks to age awareness.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

impl ScrubPolicy for AgeAwareScrub {
    fn name(&self) -> &str {
        "age-aware"
    }

    fn probe_gap_s(&self, _ctx: &ScrubContext<'_>) -> f64 {
        self.interval_s / self.num_lines as f64
    }

    fn next_action(&mut self, ctx: &ScrubContext<'_>) -> ScrubAction {
        let (addr, _) = self.cursor.advance(self.num_lines);
        let age = ctx.mem.line(addr).age_at(ctx.now);
        if age < self.min_age_s {
            self.skipped += 1;
            ScrubAction::Idle
        } else {
            ScrubAction::Probe(addr)
        }
    }

    fn wants_writeback(
        &mut self,
        _addr: LineAddr,
        result: &AccessResult,
        _ctx: &ScrubContext<'_>,
    ) -> bool {
        ThresholdScrub::threshold_rule(self.theta, result)
    }

    fn on_demand_write(&mut self, _addr: LineAddr, _now: SimTime) {}

    fn can_batch(&self) -> bool {
        true
    }

    fn plan_batch(&mut self, slots: u64) -> Option<BatchPlan> {
        Some(BatchPlan {
            first: self.cursor.advance_by(slots, self.num_lines),
            min_age_s: self.min_age_s,
            rule: SweepRule::Threshold { theta: self.theta },
        })
    }

    fn on_batch_idle(&mut self, skipped: u64) {
        self.skipped += skipped;
    }

    fn save_state(&self, w: &mut Writer) {
        w.put_u32(self.cursor.position());
        w.put_u64(self.skipped);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let pos = r.u32()?;
        let skipped = r.u64()?;
        self.cursor.set_position(pos, self.num_lines)?;
        self.skipped = skipped;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_ecc::CodeSpec;
    use pcm_memsim::{MemGeometry, Memory};
    use pcm_model::DeviceConfig;

    fn mem() -> Memory {
        Memory::new(
            MemGeometry::new(8, 2),
            DeviceConfig::default(),
            CodeSpec::bch_line(6),
            2,
        )
    }

    #[test]
    fn skips_young_lines() {
        let mut m = mem();
        // Refresh line 0 just now; leave others at age 1000.
        let now = SimTime::from_secs(1000.0);
        m.demand_write(LineAddr(0), now);
        let mut p = AgeAwareScrub::new(80.0, 8, 3, 600.0);
        let ctx = ScrubContext { now, mem: &m };
        assert_eq!(p.next_action(&ctx), ScrubAction::Idle, "line 0 is fresh");
        assert_eq!(p.next_action(&ctx), ScrubAction::Probe(LineAddr(1)));
        assert_eq!(p.skipped(), 1);
    }

    #[test]
    fn probes_everything_when_min_age_zero() {
        let m = mem();
        let mut p = AgeAwareScrub::new(80.0, 8, 3, 0.0);
        let ctx = ScrubContext {
            now: SimTime::from_secs(5.0),
            mem: &m,
        };
        for i in 0..8 {
            assert_eq!(p.next_action(&ctx), ScrubAction::Probe(LineAddr(i)));
        }
    }
}
