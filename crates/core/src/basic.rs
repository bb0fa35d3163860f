//! The baseline: DRAM-style basic scrub.

use pcm_memsim::{AccessResult, LineAddr, SimTime, SweepRule};
use scrub_checkpoint::{CheckpointError, Reader, Writer};

use crate::policy::{BatchPlan, ScrubAction, ScrubContext, ScrubPolicy, SweepCursor};

/// DRAM-heritage scrub: sweep every line once per `interval`, and write
/// back whenever the probe finds *any* error.
///
/// This is the comparison baseline for every headline number in the paper:
/// it neither exploits strong-ECC headroom (every single-bit error triggers
/// a full write-back) nor line age (freshly written lines are probed as
/// eagerly as week-old ones).
///
/// # Examples
///
/// ```
/// use scrub_core::BasicScrub;
/// let p = BasicScrub::new(900.0, 65_536);
/// assert_eq!(p.interval_s(), 900.0);
/// ```
#[derive(Debug, Clone)]
pub struct BasicScrub {
    interval_s: f64,
    num_lines: u32,
    cursor: SweepCursor,
}

impl BasicScrub {
    /// Creates a basic scrubber sweeping `num_lines` once per
    /// `interval_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s` is not positive or `num_lines` is zero.
    pub fn new(interval_s: f64, num_lines: u32) -> Self {
        assert!(interval_s > 0.0, "scrub interval must be positive");
        assert!(num_lines > 0, "need at least one line");
        Self {
            interval_s,
            num_lines,
            cursor: SweepCursor::new(),
        }
    }

    /// The full-sweep interval.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// The scrub slot times (seconds) the engine will execute up to and
    /// including `horizon_s`, replicated bit-for-bit: the same integer
    /// tick-grid accumulation as [`crate::ScrubEngine`] (starting at
    /// tick zero; see [`crate::tick`]), *not* a freestanding `k·gap` in
    /// floating point, which would diverge from the engine's schedule.
    ///
    /// Slot `j` probes line `j mod num_lines`. This is the expected-value
    /// hook the `scrub-oracle` crate builds its closed-form probe/write
    /// predictions on: because the times match the engine exactly, oracle
    /// probe counts are exact rather than ±1 near the horizon.
    ///
    /// # Examples
    ///
    /// ```
    /// use scrub_core::BasicScrub;
    /// let p = BasicScrub::new(160.0, 16); // gap = 10 s
    /// let slots = p.slot_times_within(35.0);
    /// assert_eq!(slots, vec![0.0, 10.0, 20.0, 30.0]);
    /// assert_eq!(p.expected_probes_within(30.0), 4); // t = 30 inclusive
    /// ```
    pub fn slot_times_within(&self, horizon_s: f64) -> Vec<f64> {
        let horizon = SimTime::from_secs(horizon_s);
        let gap_ticks = crate::tick::gap_to_ticks(self.interval_s / self.num_lines as f64);
        let mut times = Vec::new();
        let mut tk = 0u64;
        loop {
            let t = crate::tick::time_from_ticks(tk);
            if t > horizon {
                break;
            }
            times.push(t.secs());
            tk += gap_ticks;
        }
        times
    }

    /// Number of probe slots the engine will execute within `horizon_s` —
    /// deterministic for this policy (it never idles), so the *expected*
    /// probe count is exact.
    pub fn expected_probes_within(&self, horizon_s: f64) -> u64 {
        self.slot_times_within(horizon_s).len() as u64
    }
}

impl ScrubPolicy for BasicScrub {
    fn name(&self) -> &str {
        "basic"
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
        // Any detected error -> immediate corrective write.
        !matches!(result.outcome, pcm_ecc::ClassifyOutcome::Clean)
    }

    fn on_demand_write(&mut self, _addr: LineAddr, _now: SimTime) {}

    fn can_batch(&self) -> bool {
        true
    }

    fn plan_batch(&mut self, slots: u64) -> Option<BatchPlan> {
        Some(BatchPlan {
            first: self.cursor.advance_by(slots, self.num_lines),
            min_age_s: 0.0,
            rule: SweepRule::AnyError,
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
    use pcm_ecc::{ClassifyOutcome, CodeSpec};
    use pcm_memsim::{MemGeometry, Memory};
    use pcm_model::DeviceConfig;

    fn ctx_mem() -> Memory {
        Memory::new(
            MemGeometry::new(16, 2),
            DeviceConfig::default(),
            CodeSpec::secded_line(),
            1,
        )
    }

    #[test]
    fn sweeps_in_physical_order() {
        let mem = ctx_mem();
        let mut p = BasicScrub::new(160.0, 16);
        let ctx = ScrubContext {
            now: SimTime::ZERO,
            mem: &mem,
        };
        for i in 0..16 {
            assert_eq!(p.next_action(&ctx), ScrubAction::Probe(LineAddr(i)));
        }
        assert_eq!(p.next_action(&ctx), ScrubAction::Probe(LineAddr(0)));
    }

    #[test]
    fn gap_is_interval_over_lines() {
        let mem = ctx_mem();
        let p = BasicScrub::new(160.0, 16);
        let ctx = ScrubContext {
            now: SimTime::ZERO,
            mem: &mem,
        };
        assert!((p.probe_gap_s(&ctx) - 10.0).abs() < 1e-12);
    }

    /// The hook's contract: slot times equal the engine's actual probe
    /// schedule, including the floating-point accumulation quirks.
    #[test]
    fn slot_times_match_engine_exactly() {
        use crate::engine::ScrubEngine;
        let interval = 700.0; // gap = 700/16 = 43.75: inexact accumulation
        let horizon = 10_000.0;
        let p = BasicScrub::new(interval, 16);
        let predicted = p.slot_times_within(horizon);
        let mut mem = ctx_mem();
        let mut engine = ScrubEngine::new(Box::new(BasicScrub::new(interval, 16)));
        let mut actual = Vec::new();
        while engine.next_slot() <= SimTime::from_secs(horizon) {
            actual.push(engine.next_slot().secs());
            engine.step(&mut mem);
        }
        assert_eq!(predicted, actual, "slot schedule diverged from engine");
        assert_eq!(p.expected_probes_within(horizon), actual.len() as u64);
    }

    #[test]
    fn writes_back_on_any_error() {
        let mem = ctx_mem();
        let mut p = BasicScrub::new(160.0, 16);
        let ctx = ScrubContext {
            now: SimTime::ZERO,
            mem: &mem,
        };
        let clean = AccessResult {
            outcome: ClassifyOutcome::Clean,
            persistent_bits: 0,
            new_ue: false,
        };
        let one = AccessResult {
            outcome: ClassifyOutcome::Corrected { bits: 1 },
            persistent_bits: 1,
            new_ue: false,
        };
        assert!(!p.wants_writeback(LineAddr(0), &clean, &ctx));
        assert!(p.wants_writeback(LineAddr(0), &one, &ctx));
    }
}
