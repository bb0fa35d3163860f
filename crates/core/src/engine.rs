//! The scrub engine: drives a policy against a memory — one slot at a
//! time, or whole batches of slots executed bank-parallel when the policy
//! can commit to them in advance.

use pcm_memsim::{LineAddr, Memory, SimTime, SweepPlan};
use scrub_checkpoint::{CheckpointError, Reader, Writer};
use scrub_telemetry as tel;

use crate::policy::{ScrubAction, ScrubContext, ScrubPolicy};
use crate::tick;

/// Upper bound on slots executed per batch, to keep the slot-time scratch
/// vector bounded. Batch boundaries do not affect results (each slot's
/// randomness is keyed to its line's bank stream), so the cap is purely a
/// memory-footprint knob.
const MAX_BATCH_SLOTS: usize = 1 << 16;

/// Engine-side counters (memory-side counters live in
/// [`pcm_memsim::MemStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Slots where the policy chose to probe.
    pub probe_slots: u64,
    /// Slots the policy left idle (age skips, no region due).
    pub idle_slots: u64,
    /// Write-backs requested by the policy (excludes forced UE repairs).
    pub policy_writebacks: u64,
    /// Write-backs forced by uncorrectable outcomes.
    pub forced_writebacks: u64,
}

/// Drives a [`ScrubPolicy`] against a [`Memory`].
///
/// # Examples
///
/// ```
/// use scrub_core::{BasicScrub, ScrubEngine};
/// use pcm_memsim::{Memory, MemGeometry, SimTime};
/// use pcm_ecc::CodeSpec;
/// use pcm_model::DeviceConfig;
///
/// let mut mem = Memory::new(
///     MemGeometry::new(64, 2),
///     DeviceConfig::default(),
///     CodeSpec::secded_line(),
///     0,
/// );
/// let mut engine = ScrubEngine::new(Box::new(BasicScrub::new(64.0, 64)));
/// while engine.next_slot() <= SimTime::from_secs(128.0) {
///     engine.step(&mut mem);
/// }
/// assert_eq!(mem.stats().scrub_probes, 129); // slots at t=0..=128
/// ```
#[derive(Debug)]
pub struct ScrubEngine {
    policy: Box<dyn ScrubPolicy>,
    /// Next slot on the integer nanosecond grid (see [`crate::tick`]);
    /// scheduling by tick addition is exact where f64 accumulation
    /// drifts one ulp per slot.
    next_slot_tick: u64,
    stats: EngineStats,
}

impl ScrubEngine {
    /// Wraps a policy; the first slot fires at time zero.
    pub fn new(policy: Box<dyn ScrubPolicy>) -> Self {
        Self {
            policy,
            next_slot_tick: 0,
            stats: EngineStats::default(),
        }
    }

    /// When the next scrub slot is due.
    pub fn next_slot(&self) -> SimTime {
        tick::time_from_ticks(self.next_slot_tick)
    }

    /// The next slot as a raw tick on the engine's nanosecond grid.
    pub fn next_slot_tick(&self) -> u64 {
        self.next_slot_tick
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The policy being driven.
    pub fn policy(&self) -> &dyn ScrubPolicy {
        self.policy.as_ref()
    }

    /// Forwards a demand-write notification to the policy.
    pub fn notify_demand_write(&mut self, addr: LineAddr, now: SimTime) {
        if tel::enabled() {
            tel::counter_add(tel::Counter::DemandWriteNotifies, 1);
            tel::event(
                now.secs(),
                tel::EventKind::DemandWriteNotify { addr: addr.0 },
            );
        }
        self.policy.on_demand_write(addr, now);
    }

    /// Forwards a demand-read notification to the policy. No telemetry
    /// event is emitted (demand reads are already counted by the memory),
    /// keeping event streams identical for pre-existing policies.
    pub fn notify_demand_read(&mut self, addr: LineAddr, now: SimTime) {
        self.policy.on_demand_read(addr, now);
    }

    /// Executes the slot at [`ScrubEngine::next_slot`] and schedules the
    /// following one.
    pub fn step(&mut self, mem: &mut Memory) {
        let now = self.next_slot();
        let action = {
            let ctx = ScrubContext { now, mem };
            self.policy.next_action(&ctx)
        };
        match action {
            ScrubAction::Probe(addr) => {
                self.stats.probe_slots += 1;
                tel::counter_add(tel::Counter::EngineProbeSlots, 1);
                let result = mem.scrub_probe(addr, now);
                let wants = {
                    let ctx = ScrubContext { now, mem };
                    self.policy.wants_writeback(addr, &result, &ctx)
                };
                let forced = result.outcome.is_uncorrectable();
                if forced {
                    // Data restored from higher-level redundancy; the line
                    // itself must be rewritten either way.
                    self.stats.forced_writebacks += 1;
                    tel::counter_add(tel::Counter::EngineForcedWritebacks, 1);
                    mem.scrub_writeback(addr, now);
                } else if wants {
                    self.stats.policy_writebacks += 1;
                    tel::counter_add(tel::Counter::EnginePolicyWritebacks, 1);
                    mem.scrub_writeback(addr, now);
                }
                if tel::enabled() {
                    tel::event(
                        now.secs(),
                        tel::EventKind::WritebackDecision {
                            addr: addr.0,
                            observed_bits: result.persistent_bits,
                            fired: forced || wants,
                            forced,
                        },
                    );
                }
            }
            ScrubAction::Idle => {
                self.stats.idle_slots += 1;
                tel::counter_add(tel::Counter::EngineIdleSlots, 1);
            }
        }
        let gap = {
            let ctx = ScrubContext { now, mem };
            self.policy.probe_gap_s(&ctx)
        };
        self.next_slot_tick += tick::gap_to_ticks(gap);
    }

    /// Executes every slot from [`ScrubEngine::next_slot`] up to `horizon`
    /// (and strictly before `demand_due`, which takes priority on ties) as
    /// one bank-parallel batch, if the policy supports batch planning.
    ///
    /// Returns `false` — executing nothing — when the policy cannot batch;
    /// the caller falls back to [`ScrubEngine::step`]. When it returns
    /// `true`, the memory, the policy's cursor, and the engine counters are
    /// in exactly the state the equivalent sequence of `step` calls would
    /// have produced, for any `threads` value.
    pub fn step_batch(
        &mut self,
        mem: &mut Memory,
        horizon: SimTime,
        demand_due: Option<SimTime>,
        threads: usize,
    ) -> bool {
        let now = self.next_slot();
        if !self.policy.can_batch() || now > horizon || demand_due.is_some_and(|d| now >= d) {
            return false;
        }
        // Batchable policies have a constant, context-independent gap
        // (interval / num_lines); sample it once.
        let gap = {
            let ctx = ScrubContext { now, mem };
            self.policy.probe_gap_s(&ctx)
        };
        let gap_ticks = tick::gap_to_ticks(gap);
        // Slot times on the same tick grid slot-at-a-time stepping walks,
        // so batch timestamps match `step` bit-for-bit.
        let mut times: Vec<SimTime> = Vec::new();
        let mut tk = self.next_slot_tick;
        let mut t = now;
        while t <= horizon && demand_due.is_none_or(|d| t < d) && times.len() < MAX_BATCH_SLOTS {
            times.push(t);
            tk += gap_ticks;
            t = tick::time_from_ticks(tk);
        }
        // Only consult the policy once the batch extent is known:
        // plan_batch commits cursor state for exactly `times.len()` slots.
        let Some(plan) = self.policy.plan_batch(times.len() as u64) else {
            return false;
        };
        let outcome = mem.scrub_sweep(
            &SweepPlan {
                first: plan.first,
                times: &times,
                min_age_s: plan.min_age_s,
                rule: plan.rule,
            },
            threads,
        );
        self.stats.probe_slots += outcome.probe_slots;
        self.stats.idle_slots += outcome.idle_slots;
        self.stats.policy_writebacks += outcome.policy_writebacks;
        self.stats.forced_writebacks += outcome.forced_writebacks;
        if tel::enabled() {
            tel::counter_add(tel::Counter::EngineProbeSlots, outcome.probe_slots);
            tel::counter_add(tel::Counter::EngineIdleSlots, outcome.idle_slots);
            tel::counter_add(
                tel::Counter::EnginePolicyWritebacks,
                outcome.policy_writebacks,
            );
            tel::counter_add(
                tel::Counter::EngineForcedWritebacks,
                outcome.forced_writebacks,
            );
        }
        self.policy.on_batch_idle(outcome.idle_slots);
        self.next_slot_tick = tk;
        true
    }

    /// Idle fast-forward: skips every slot that is both strictly before
    /// `due` (the policy's [`crate::ScrubPolicy::idle_until`] bound) and
    /// at most `stop`, in O(1) per-slot cost — the engine only counts
    /// them idle and advances the tick grid; no policy or memory state
    /// is touched, exactly as the equivalent sequence of Idle `step`s.
    /// Returns the number of slots skipped.
    ///
    /// Capping at `stop` keeps the post-segment `next_slot_tick` — and
    /// therefore checkpoint bytes — identical to slot-at-a-time
    /// execution, which never advances the slot clock past the first slot
    /// beyond a segment boundary.
    pub fn skip_idle_slots_before(&mut self, due: SimTime, stop: SimTime, mem: &Memory) -> u64 {
        let now = self.next_slot();
        let gap = {
            let ctx = ScrubContext { now, mem };
            self.policy.probe_gap_s(&ctx)
        };
        let g = tick::gap_to_ticks(gap);
        let t0 = self.next_slot_tick;
        // Jump near the answer arithmetically, then settle exactly on the
        // tick grid (f64 division may land ±1 slot off).
        let bound_s = due.secs().min(stop.secs() + gap);
        let est = ((bound_s - tick::secs_from_ticks(t0)) / gap).floor();
        let mut k = if est.is_finite() && est > 2.0 {
            (est as u64).saturating_sub(2)
        } else {
            0
        };
        while k > 0 {
            let t = tick::time_from_ticks(t0 + (k - 1) * g);
            if t < due && t <= stop {
                break;
            }
            k -= 1;
        }
        loop {
            let t = tick::time_from_ticks(t0 + k * g);
            if t < due && t <= stop {
                k += 1;
            } else {
                break;
            }
        }
        if k > 0 && crate::event::skew_fast_forward() {
            // Deliberately skip one slot too many: the differential
            // harness proves this divergence is caught, not absorbed.
            k += 1;
        }
        self.next_slot_tick = t0 + k * g;
        self.stats.idle_slots += k;
        tel::counter_add(tel::Counter::EngineIdleSlots, k);
        k
    }

    /// Serializes the engine's mutable state: the policy's name (as an
    /// identity check), the next slot tick, the slot counters, and the
    /// policy's own state.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_str(self.policy.name());
        w.put_u64(self.next_slot_tick);
        w.put_u64(self.stats.probe_slots);
        w.put_u64(self.stats.idle_slots);
        w.put_u64(self.stats.policy_writebacks);
        w.put_u64(self.stats.forced_writebacks);
        self.policy.save_state(w);
    }

    /// Restores state captured by [`ScrubEngine::save_state`] onto an
    /// engine freshly built around the same policy configuration.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let name = r.str()?;
        if name != self.policy.name() {
            return Err(CheckpointError::Malformed(format!(
                "policy mismatch: snapshot has {name:?}, config builds {:?}",
                self.policy.name()
            )));
        }
        let next_slot_tick = r.u64()?;
        if next_slot_tick > tick::MAX_TICK {
            return Err(CheckpointError::Malformed(format!(
                "engine next_slot tick {next_slot_tick} exceeds MAX_TICK"
            )));
        }
        let stats = EngineStats {
            probe_slots: r.u64()?,
            idle_slots: r.u64()?,
            policy_writebacks: r.u64()?,
            forced_writebacks: r.u64()?,
        };
        self.policy.load_state(r)?;
        self.next_slot_tick = next_slot_tick;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::age_aware::AgeAwareScrub;
    use crate::basic::BasicScrub;
    use crate::threshold::ThresholdScrub;
    use pcm_ecc::CodeSpec;
    use pcm_memsim::MemGeometry;
    use pcm_model::DeviceConfig;

    fn mem(code: CodeSpec, lines: u32, seed: u64) -> Memory {
        Memory::new(
            MemGeometry::new(lines, 2),
            DeviceConfig::default(),
            code,
            seed,
        )
    }

    #[test]
    fn slots_advance_by_gap() {
        let mut m = mem(CodeSpec::bch_line(4), 10, 81);
        let mut e = ScrubEngine::new(Box::new(BasicScrub::new(100.0, 10)));
        assert_eq!(e.next_slot(), SimTime::ZERO);
        e.step(&mut m);
        assert!((e.next_slot().secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn basic_engine_scrubs_and_repairs_old_memory() {
        let mut m = mem(CodeSpec::secded_line(), 32, 82);
        // A sweep "interval" of 32 weeks makes each slot land a week after
        // the previous one, so every probed line is ancient by its slot.
        let mut e = ScrubEngine::new(Box::new(BasicScrub::new(604_800.0 * 32.0, 32)));
        for _ in 0..32 {
            e.step(&mut m);
        }
        // With a gap of a week per slot, every probed line is ancient.
        assert_eq!(m.stats().scrub_probes, 32);
        assert!(
            m.stats().scrub_writebacks >= 30,
            "stale lines should all need write-back, got {}",
            m.stats().scrub_writebacks
        );
        assert!(e.stats().probe_slots == 32);
    }

    #[test]
    fn threshold_engine_writes_less_than_basic() {
        let run = |policy: Box<dyn ScrubPolicy>, seed: u64| -> (u64, u64) {
            let mut m = mem(CodeSpec::bch_line(6), 64, seed);
            let mut e = ScrubEngine::new(policy);
            // 20 sweeps at 2h each over 64 lines.
            while e.next_slot() < SimTime::from_secs(40.0 * 3600.0) {
                e.step(&mut m);
            }
            (m.stats().scrub_writebacks, m.stats().scrub_probes)
        };
        let (basic_wb, basic_probes) = run(Box::new(BasicScrub::new(7200.0, 64)), 83);
        let (lazy_wb, lazy_probes) = run(Box::new(ThresholdScrub::new(7200.0, 64, 5)), 83);
        assert_eq!(basic_probes, lazy_probes);
        assert!(
            lazy_wb * 3 < basic_wb.max(3),
            "lazy {lazy_wb} vs basic {basic_wb} write-backs"
        );
    }

    /// The determinism contract of the whole execution layer, at engine
    /// granularity: a batch (at several thread counts) leaves memory,
    /// policy, and counters bit-identical to slot-at-a-time stepping.
    #[test]
    fn step_batch_matches_sequential_steps_exactly() {
        let policies: Vec<Box<dyn Fn() -> Box<dyn ScrubPolicy>>> = vec![
            Box::new(|| Box::new(BasicScrub::new(7200.0, 64))),
            Box::new(|| Box::new(ThresholdScrub::new(7200.0, 64, 4))),
            Box::new(|| Box::new(AgeAwareScrub::new(7200.0, 64, 4, 1800.0))),
        ];
        let horizon = SimTime::from_secs(30.0 * 3600.0);
        for make in &policies {
            let mut seq_mem = mem(CodeSpec::bch_line(6), 64, 90);
            let mut seq = ScrubEngine::new(make());
            while seq.next_slot() <= horizon {
                seq.step(&mut seq_mem);
            }
            for threads in [1usize, 8] {
                let mut bat_mem = mem(CodeSpec::bch_line(6), 64, 90);
                let mut bat = ScrubEngine::new(make());
                while bat.next_slot() <= horizon {
                    assert!(bat.step_batch(&mut bat_mem, horizon, None, threads));
                }
                assert_eq!(bat.stats(), seq.stats(), "threads={threads}");
                assert_eq!(bat.next_slot(), seq.next_slot(), "threads={threads}");
                assert_eq!(bat_mem.stats(), seq_mem.stats(), "threads={threads}");
                assert_eq!(bat_mem.energy(), seq_mem.energy(), "threads={threads}");
                for i in 0..64 {
                    assert_eq!(
                        bat_mem.line(LineAddr(i)),
                        seq_mem.line(LineAddr(i)),
                        "line {i} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn step_batch_respects_demand_due_and_tie_priority() {
        let mut m = mem(CodeSpec::bch_line(4), 16, 91);
        let mut e = ScrubEngine::new(Box::new(BasicScrub::new(160.0, 16)));
        // Slots at t = 0, 10, 20, ...; demand due exactly at t = 30 (a tie
        // goes to demand, so slot 30 must NOT run).
        let due = Some(SimTime::from_secs(30.0));
        assert!(e.step_batch(&mut m, SimTime::from_secs(1000.0), due, 1));
        assert_eq!(e.stats().probe_slots, 3);
        assert_eq!(e.next_slot(), SimTime::from_secs(30.0));
        // With the demand due *at* next_slot, there is nothing to batch.
        assert!(!e.step_batch(&mut m, SimTime::from_secs(1000.0), due, 1));
    }

    #[test]
    #[should_panic(expected = "non-positive probe gap")]
    fn rejects_bad_gap() {
        #[derive(Debug)]
        struct BadPolicy;
        impl ScrubPolicy for BadPolicy {
            fn name(&self) -> &str {
                "bad"
            }
            fn probe_gap_s(&self, _: &ScrubContext<'_>) -> f64 {
                0.0
            }
            fn next_action(&mut self, _: &ScrubContext<'_>) -> ScrubAction {
                ScrubAction::Idle
            }
            fn wants_writeback(
                &mut self,
                _: LineAddr,
                _: &pcm_memsim::AccessResult,
                _: &ScrubContext<'_>,
            ) -> bool {
                false
            }
            fn save_state(&self, _: &mut Writer) {}
            fn load_state(&mut self, _: &mut Reader<'_>) -> Result<(), CheckpointError> {
                Ok(())
            }
        }
        let mut m = mem(CodeSpec::bch_line(2), 4, 84);
        let mut e = ScrubEngine::new(Box::new(BadPolicy));
        e.step(&mut m);
    }
}
