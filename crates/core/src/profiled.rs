//! Profiling-guided scrub: a budgeted tour that learns which lines are
//! error-prone and redistributes probe effort toward them.
//!
//! The paper's mechanisms pace scrubbing from *global* knobs (interval,
//! threshold, region feedback). `ProfiledScrub` instead accumulates a
//! bounded per-line *risk profile* from probe-history syndromes — the
//! correctable-error counts every probe reports anyway — and uses it
//! three ways:
//!
//! * **hot interleave** — every `hot_stride`-th granted slot probes a
//!   line whose score is at or above `risk`, round-robin, on top of its
//!   regular tour visit, so drifty and repeat-offender lines are checked
//!   well before the full tour returns to them;
//! * **quiet stretch** — lines *not* in the profile are probed on only
//!   every `stretch`-th tour (phase-striped by a seeded hash, so each
//!   tour still probes an even 1/stretch share), saving probe energy
//!   where history says nothing is happening;
//! * **lazy-plus write-back** — quiet lines use threshold `θ+1` where
//!   profiled lines use `θ`, lengthening the accumulate/write cycle
//!   exactly where the drift evidence is weakest.
//!
//! Probe scheduling spends from the same demand-shared token bucket as
//! [`TourScrub`](crate::TourScrub) (PR 7), anti-starvation boost
//! included, so a `profiled` shard composes with `tour` accounting and
//! inherits the `ScrubProgress`-style bound: no line can go unprobed for
//! more than [`ProfiledScrub::progress_bound_slots`] slots.
//!
//! The table is bounded (`capacity` entries); at overflow the
//! lowest-score entry is evicted (smallest address on ties), so the
//! profile degrades to a plain tour under adversarial churn instead of
//! growing without bound.

use std::collections::BTreeMap;

use pcm_memsim::{AccessResult, LineAddr, SimTime};
use scrub_checkpoint::{CheckpointError, Reader, Writer};
use scrub_telemetry as tel;

use crate::policy::{ScrubAction, ScrubContext, ScrubPolicy};
use crate::threshold::ThresholdScrub;
use crate::tour::TourBudget;

/// Scores saturate here; one UE bump is 64, so the cap is far above any
/// plausible accumulation but keeps checkpoint validation meaningful.
const SCORE_CAP: u32 = 1 << 20;

/// Score bump for an uncorrectable outcome: a UE is the strongest
/// possible evidence a line is at risk.
const UE_BUMP: u32 = 64;

/// Extra bump when a line already in the table reports errors again (the
/// repeat-offender bonus).
const REPEAT_BONUS: u32 = 2;

/// The profiler's tuning knobs, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileParams {
    /// Maximum risk-table entries; the lowest-score entry is evicted at
    /// overflow.
    pub capacity: u32,
    /// Every `hot_stride`-th granted probe slot goes to a hot line
    /// (score >= `risk`) instead of the tour cursor. Must be >= 2 so the
    /// tour always keeps a majority of the grant stream.
    pub hot_stride: u32,
    /// Quiet (unprofiled) lines are probed on every `stretch`-th tour
    /// only; 1 disables stretching.
    pub stretch: u32,
    /// Score at or above which a line joins the hot interleave.
    pub risk: u32,
}

impl Default for ProfileParams {
    fn default() -> Self {
        Self {
            capacity: 1024,
            hot_stride: 4,
            stretch: 2,
            risk: 2,
        }
    }
}

/// SplitMix64 (same finalizer as the tour's origin derivation), used for
/// per-bank origins and the quiet-stretch phase stripes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Profiling-guided budgeted scrub.
///
/// # Examples
///
/// ```
/// use scrub_core::{ProfileParams, ProfiledScrub, TourBudget};
/// let p = ProfiledScrub::new(
///     900.0,
///     65_536,
///     8,
///     4,
///     TourBudget { iops: 200.0, burst: 64.0, max_defer: 8 },
///     ProfileParams::default(),
///     7,
/// );
/// assert!(p.progress_bound_slots() >= 2 * 65_536 * 9);
/// ```
#[derive(Debug, Clone)]
pub struct ProfiledScrub {
    // --- configuration (rebuilt from the run config on resume) ---
    interval_s: f64,
    num_lines: u32,
    banks: u32,
    theta: u32,
    budget: TourBudget,
    params: ProfileParams,
    seed: u64,
    origins: Vec<u32>,
    /// Test-only tripwire: drop the risk table on checkpoint load, so a
    /// restored twin diverges from the original. Never serialized.
    forgetful: bool,
    // --- mutable state (checkpointed) ---
    pos: u32,
    tours_completed: u64,
    tokens: f64,
    last_refill: SimTime,
    defer_streak: u32,
    throttled_slots: u64,
    forced_probes: u64,
    slots_this_tour: u64,
    max_tour_slots: u64,
    /// Granted probe slots (tour + hot), drives the hot interleave.
    granted: u64,
    /// Round-robin cursor over the hot subset of the table.
    hot_cursor: u32,
    /// The risk profile: line address -> accumulated score.
    table: BTreeMap<u32, u32>,
    probes_seen: u64,
    dirty_probes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    hot_probes: u64,
}

impl ProfiledScrub {
    /// Creates a profiling-guided scrubber. `interval_s`, `theta`,
    /// `budget`, and `seed` behave exactly as in
    /// [`TourScrub::new`](crate::TourScrub::new); `params` tunes the
    /// profiler.
    ///
    /// # Panics
    ///
    /// Panics on the tour's invalid inputs, plus `capacity == 0`,
    /// `hot_stride < 2`, `stretch == 0`, or `risk == 0`.
    pub fn new(
        interval_s: f64,
        num_lines: u32,
        banks: u32,
        theta: u32,
        budget: TourBudget,
        params: ProfileParams,
        seed: u64,
    ) -> Self {
        assert!(interval_s > 0.0, "interval must be positive");
        assert!(num_lines > 0, "need at least one line");
        assert!(banks > 0 && banks <= num_lines, "need 1..=num_lines banks");
        assert!(theta >= 1, "theta must be >= 1");
        assert!(
            budget.iops.is_finite() && budget.iops > 0.0,
            "iops must be positive"
        );
        assert!(
            budget.burst.is_finite() && budget.burst >= 1.0,
            "burst must be at least one token"
        );
        assert!(params.capacity >= 1, "profile capacity must be >= 1");
        assert!(params.hot_stride >= 2, "hot stride must be >= 2");
        assert!(params.stretch >= 1, "stretch must be >= 1");
        assert!(params.risk >= 1, "risk threshold must be >= 1");
        let origins = (0..banks)
            .map(|b| {
                let count = Self::bank_line_count(num_lines, banks, b);
                (splitmix64(seed ^ 0x0070_5246 ^ u64::from(b)) % u64::from(count)) as u32
            })
            .collect();
        Self {
            interval_s,
            num_lines,
            banks,
            theta,
            budget,
            params,
            seed,
            origins,
            forgetful: false,
            pos: 0,
            tours_completed: 0,
            tokens: budget.burst,
            last_refill: SimTime::ZERO,
            defer_streak: 0,
            throttled_slots: 0,
            forced_probes: 0,
            slots_this_tour: 0,
            max_tour_slots: 0,
            granted: 0,
            hot_cursor: 0,
            table: BTreeMap::new(),
            probes_seen: 0,
            dirty_probes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            hot_probes: 0,
        }
    }

    fn bank_line_count(num_lines: u32, banks: u32, b: u32) -> u32 {
        num_lines / banks + u32::from(b < num_lines % banks)
    }

    /// The profiled analogue of the tour's `ScrubProgress` bound: every
    /// line is probed at least once per `stretch` tours, each tour needs
    /// at most `num_lines` cursor advances plus the hot interleave's
    /// stolen grants, and each grant costs at most `max_defer + 1` slots.
    pub fn progress_bound_slots(&self) -> u64 {
        let lines = u64::from(self.num_lines);
        let hot_steals = lines.div_ceil(u64::from(self.params.hot_stride) - 1) + 1;
        u64::from(self.params.stretch)
            * (u64::from(self.budget.max_defer) + 1)
            * (lines + hot_steals)
    }

    /// Tour position (next line index in tour order).
    pub fn position(&self) -> u32 {
        self.pos
    }

    /// Completed tours.
    pub fn tours_completed(&self) -> u64 {
        self.tours_completed
    }

    /// Tokens currently in the bucket.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Lines currently resident in the risk table.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Configured profile capacity.
    pub fn capacity(&self) -> u32 {
        self.params.capacity
    }

    /// Probes of profiled lines that found persistent errors.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probes of profiled lines that came back clean.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Risk-table evictions at capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Extra probes granted to hot lines by the interleave.
    pub fn hot_probes(&self) -> u64 {
        self.hot_probes
    }

    /// All probes this policy has inspected, and the dirty subset.
    pub fn probe_mix(&self) -> (u64, u64) {
        (self.probes_seen, self.dirty_probes)
    }

    /// Current score of `addr`, zero if unprofiled.
    pub fn score(&self, addr: LineAddr) -> u32 {
        self.table.get(&addr.0).copied().unwrap_or(0)
    }

    /// Test-only tripwire: makes checkpoint restore drop the learned
    /// risk table, so the restored twin schedules differently from the
    /// original. The profiled proptests prove the harness catches this.
    #[doc(hidden)]
    pub fn set_forgetful_for_test(&mut self, forgetful: bool) {
        self.forgetful = forgetful;
    }

    /// The line the tour visits at position `p` (same interleaving as
    /// the tour policy, under this policy's own origins).
    fn addr_at(&self, p: u32) -> LineAddr {
        let b = p % self.banks;
        let j = p / self.banks;
        let count = Self::bank_line_count(self.num_lines, self.banks, b);
        LineAddr(b + ((self.origins[b as usize] + j) % count) * self.banks)
    }

    /// The quiet-stretch phase stripe of `addr`: the line is due on
    /// tours where `tours_completed ≡ phase (mod stretch)`.
    fn phase(&self, addr: u32) -> u64 {
        splitmix64(self.seed ^ 0x7052_4f46 ^ u64::from(addr)) % u64::from(self.params.stretch)
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.since(self.last_refill).max(0.0);
        self.tokens = (self.tokens + self.budget.iops * elapsed).min(self.budget.burst);
        self.last_refill = now;
    }

    fn charge_demand(&mut self, now: SimTime) {
        self.refill(now);
        self.tokens = (self.tokens - 1.0).max(0.0);
    }

    fn advance(&mut self) {
        self.pos += 1;
        if self.pos == self.num_lines {
            self.pos = 0;
            self.tours_completed += 1;
            self.max_tour_slots = self.max_tour_slots.max(self.slots_this_tour);
            if tel::enabled() {
                tel::counter_add(tel::Counter::ToursCompleted, 1);
                tel::gauge_max(tel::Gauge::StarvationMaxLag, self.slots_this_tour);
            }
            self.slots_this_tour = 0;
        }
    }

    /// Next hot line (score >= risk) after the round-robin cursor, if
    /// any, advancing the cursor to it.
    fn next_hot(&mut self) -> Option<LineAddr> {
        let risk = self.params.risk;
        let next = self
            .table
            .range(self.hot_cursor.saturating_add(1)..)
            .find(|&(_, &s)| s >= risk)
            .map(|(&a, _)| a)
            .or_else(|| {
                self.table
                    .range(..=self.hot_cursor)
                    .find(|&(_, &s)| s >= risk)
                    .map(|(&a, _)| a)
            })?;
        self.hot_cursor = next;
        Some(LineAddr(next))
    }

    /// Adds `inc` to `addr`'s score, inserting and evicting as needed.
    fn bump(&mut self, addr: u32, inc: u32) {
        let is_new = !self.table.contains_key(&addr);
        let e = self.table.entry(addr).or_insert(0);
        *e = e.saturating_add(inc).min(SCORE_CAP);
        if is_new && self.table.len() as u32 > self.params.capacity {
            let victim = self
                .table
                .iter()
                .min_by_key(|&(&a, &s)| (s, a))
                .map(|(&a, _)| a)
                .expect("table is non-empty past capacity");
            self.table.remove(&victim);
            self.evictions += 1;
            if tel::enabled() {
                tel::counter_add(tel::Counter::ProfilerEvictions, 1);
            }
        }
        if tel::enabled() {
            tel::gauge_max(tel::Gauge::ProfilerOccupancy, self.table.len() as u64);
        }
    }

    /// Halves `addr`'s score (clean probe or demand rewrite), dropping
    /// the entry once it reaches zero.
    fn decay(&mut self, addr: u32) {
        if let Some(s) = self.table.get_mut(&addr) {
            *s /= 2;
            if *s == 0 {
                self.table.remove(&addr);
            }
        }
    }
}

impl ScrubPolicy for ProfiledScrub {
    fn name(&self) -> &str {
        "profiled"
    }

    fn probe_gap_s(&self, _ctx: &ScrubContext<'_>) -> f64 {
        self.interval_s / self.num_lines as f64
    }

    fn next_action(&mut self, ctx: &ScrubContext<'_>) -> ScrubAction {
        self.refill(ctx.now);
        self.slots_this_tour += 1;
        let forced = self.tokens < 1.0 && self.defer_streak >= self.budget.max_defer;
        if self.tokens < 1.0 && !forced {
            self.defer_streak += 1;
            self.throttled_slots += 1;
            tel::counter_add(tel::Counter::BudgetThrottled, 1);
            return ScrubAction::Idle;
        }
        // A grant is available. Hot interleave first: every
        // `hot_stride`-th granted probe goes to a profiled hot line.
        if (self.granted + 1).is_multiple_of(u64::from(self.params.hot_stride)) {
            if let Some(addr) = self.next_hot() {
                self.granted += 1;
                self.hot_probes += 1;
                if tel::enabled() {
                    tel::counter_add(tel::Counter::ProfilerHotProbes, 1);
                }
                if forced {
                    self.forced_probes += 1;
                    tel::counter_add(tel::Counter::BudgetForcedProbes, 1);
                } else {
                    self.tokens -= 1.0;
                }
                self.defer_streak = 0;
                return ScrubAction::Probe(addr);
            }
        }
        // Tour step, with the quiet stretch: an unprofiled line that is
        // not due this tour is skipped without spending a token.
        let addr = self.addr_at(self.pos);
        let due_tour = self.tours_completed % u64::from(self.params.stretch);
        self.advance();
        let quiet = !self.table.contains_key(&addr.0);
        if quiet && self.params.stretch > 1 && self.phase(addr.0) != due_tour {
            return ScrubAction::Idle;
        }
        self.granted += 1;
        if forced {
            self.forced_probes += 1;
            tel::counter_add(tel::Counter::BudgetForcedProbes, 1);
        } else {
            self.tokens -= 1.0;
        }
        self.defer_streak = 0;
        ScrubAction::Probe(addr)
    }

    fn wants_writeback(
        &mut self,
        addr: LineAddr,
        result: &AccessResult,
        _ctx: &ScrubContext<'_>,
    ) -> bool {
        let dirty = result.persistent_bits > 0 || result.outcome.is_uncorrectable();
        let was_profiled = self.table.contains_key(&addr.0);
        self.probes_seen += 1;
        if dirty {
            self.dirty_probes += 1;
        }
        if tel::enabled() {
            if dirty {
                tel::counter_add(tel::Counter::ProfilerDirtyProbes, 1);
            }
            if was_profiled {
                tel::counter_add(
                    if dirty {
                        tel::Counter::ProfilerHits
                    } else {
                        tel::Counter::ProfilerMisses
                    },
                    1,
                );
            }
        }
        if was_profiled {
            if dirty {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
        }
        if dirty {
            let mut inc = result.persistent_bits;
            if result.outcome.is_uncorrectable() {
                inc = inc.saturating_add(UE_BUMP);
            }
            if was_profiled {
                inc = inc.saturating_add(REPEAT_BONUS);
            }
            self.bump(addr.0, inc.max(1));
        } else if was_profiled {
            self.decay(addr.0);
        }
        // Lazy-plus: quiet lines stretch the write-back threshold by one
        // error; profiled lines pay at theta.
        let theta = self.theta + u32::from(!was_profiled);
        ThresholdScrub::threshold_rule(theta, result)
    }

    fn on_demand_write(&mut self, addr: LineAddr, now: SimTime) {
        self.charge_demand(now);
        // The rewrite reset the drift clock; the history is half as
        // relevant now.
        self.decay(addr.0);
    }

    fn on_demand_read(&mut self, _addr: LineAddr, now: SimTime) {
        self.charge_demand(now);
    }

    fn save_state(&self, w: &mut Writer) {
        w.put_u32(self.pos);
        w.put_u64(self.tours_completed);
        w.put_f64(self.tokens);
        w.put_f64(self.last_refill.secs());
        w.put_u32(self.defer_streak);
        w.put_u64(self.throttled_slots);
        w.put_u64(self.forced_probes);
        w.put_u64(self.slots_this_tour);
        w.put_u64(self.max_tour_slots);
        w.put_u64(self.granted);
        w.put_u32(self.hot_cursor);
        w.put_u64(self.probes_seen);
        w.put_u64(self.dirty_probes);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.evictions);
        w.put_u64(self.hot_probes);
        w.put_u32(self.table.len() as u32);
        for (&addr, &score) in &self.table {
            w.put_u32(addr);
            w.put_u32(score);
        }
        // Origins are derived from the run config; serialized as an
        // identity check like the tour's.
        for &o in &self.origins {
            w.put_u32(o);
        }
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let pos = r.u32()?;
        if pos >= self.num_lines {
            return Err(CheckpointError::Malformed(format!(
                "profiled position {pos} out of range ({} lines)",
                self.num_lines
            )));
        }
        let tours_completed = r.u64()?;
        let tokens = r.finite_f64("profiled tokens")?;
        if !(0.0..=self.budget.burst).contains(&tokens) {
            return Err(CheckpointError::Malformed(format!(
                "profiled tokens {tokens} outside bucket [0, {}]",
                self.budget.burst
            )));
        }
        let last_refill = r.time_f64("profiled last refill")?;
        let defer_streak = r.u32()?;
        if defer_streak > self.budget.max_defer {
            return Err(CheckpointError::Malformed(format!(
                "profiled defer streak {defer_streak} exceeds max_defer {}",
                self.budget.max_defer
            )));
        }
        let throttled_slots = r.u64()?;
        let forced_probes = r.u64()?;
        let slots_this_tour = r.u64()?;
        let max_tour_slots = r.u64()?;
        let granted = r.u64()?;
        let hot_cursor = r.u32()?;
        let probes_seen = r.u64()?;
        let dirty_probes = r.u64()?;
        let hits = r.u64()?;
        let misses = r.u64()?;
        let evictions = r.u64()?;
        let hot_probes = r.u64()?;
        let len = r.u32()?;
        if len > self.params.capacity {
            return Err(CheckpointError::Malformed(format!(
                "profile table holds {len} entries, capacity is {}",
                self.params.capacity
            )));
        }
        let mut table = BTreeMap::new();
        let mut prev: Option<u32> = None;
        for _ in 0..len {
            let addr = r.u32()?;
            let score = r.u32()?;
            if addr >= self.num_lines {
                return Err(CheckpointError::Malformed(format!(
                    "profiled entry {addr} out of range ({} lines)",
                    self.num_lines
                )));
            }
            if prev.is_some_and(|p| addr <= p) {
                return Err(CheckpointError::Malformed(
                    "profile table addresses not strictly ascending".to_string(),
                ));
            }
            if score == 0 || score > SCORE_CAP {
                return Err(CheckpointError::Malformed(format!(
                    "profile score {score} outside (0, {SCORE_CAP}]"
                )));
            }
            prev = Some(addr);
            table.insert(addr, score);
        }
        for (b, &want) in self.origins.iter().enumerate() {
            let got = r.u32()?;
            if got != want {
                return Err(CheckpointError::Malformed(format!(
                    "profiled origin mismatch on bank {b}: snapshot has {got}, config derives {want}"
                )));
            }
        }
        self.pos = pos;
        self.tours_completed = tours_completed;
        self.tokens = tokens;
        self.last_refill = SimTime::from_secs(last_refill);
        self.defer_streak = defer_streak;
        self.throttled_slots = throttled_slots;
        self.forced_probes = forced_probes;
        self.slots_this_tour = slots_this_tour;
        self.max_tour_slots = max_tour_slots;
        self.granted = granted;
        self.hot_cursor = hot_cursor;
        self.probes_seen = probes_seen;
        self.dirty_probes = dirty_probes;
        self.hits = hits;
        self.misses = misses;
        self.evictions = evictions;
        self.hot_probes = hot_probes;
        self.table = if self.forgetful {
            BTreeMap::new()
        } else {
            table
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_ecc::{ClassifyOutcome, CodeSpec};
    use pcm_memsim::{MemGeometry, Memory};
    use pcm_model::DeviceConfig;
    use std::collections::HashSet;

    fn budget(iops: f64, burst: f64, max_defer: u32) -> TourBudget {
        TourBudget {
            iops,
            burst,
            max_defer,
        }
    }

    fn params(capacity: u32, hot_stride: u32, stretch: u32, risk: u32) -> ProfileParams {
        ProfileParams {
            capacity,
            hot_stride,
            stretch,
            risk,
        }
    }

    fn mem(lines: u32, banks: u32) -> Memory {
        Memory::new(
            MemGeometry::new(lines, banks),
            DeviceConfig::default(),
            CodeSpec::bch_line(6),
            7,
        )
    }

    fn ctx<'a>(now_s: f64, mem: &'a Memory) -> ScrubContext<'a> {
        ScrubContext {
            now: SimTime::from_secs(now_s),
            mem,
        }
    }

    fn res(bits: u32, outcome: ClassifyOutcome) -> AccessResult {
        AccessResult {
            outcome,
            persistent_bits: bits,
            new_ue: false,
        }
    }

    fn mk(lines: u32, banks: u32, p: ProfileParams) -> ProfiledScrub {
        ProfiledScrub::new(
            lines as f64 * 10.0,
            lines,
            banks,
            4,
            budget(1e6, 1e6, 4),
            p,
            11,
        )
    }

    /// With no profile and stretch 1, one tour visits every line once —
    /// the cold profiler degrades to a plain tour.
    #[test]
    fn cold_stretch1_tour_is_a_permutation() {
        for (lines, banks) in [(64u32, 8u32), (60, 8), (17, 3)] {
            let p = mk(lines, banks, params(16, 1000, 1, 2));
            let visited: HashSet<u32> = (0..lines).map(|i| p.addr_at(i).0).collect();
            assert_eq!(visited.len(), lines as usize);
        }
    }

    /// Quiet stretch probes an even 1/stretch share per tour and every
    /// line within `stretch` consecutive tours.
    #[test]
    fn stretch_stripes_quiet_lines_across_tours() {
        let lines = 60u32;
        let stretch = 3u32;
        let m = mem(lines, 4);
        let mut p = mk(lines, 4, params(16, 1000, stretch, 2));
        let mut probed: Vec<HashSet<u32>> = vec![HashSet::new(); stretch as usize];
        let mut t = 0.0;
        for _ in 0..3 * lines {
            let tour = p.tours_completed() as usize;
            if let ScrubAction::Probe(a) = p.next_action(&ctx(t, &m)) {
                probed[tour % stretch as usize].insert(a.0);
            }
            t += 1.0;
        }
        let total: usize = probed.iter().map(|s| s.len()).sum();
        assert_eq!(total, lines as usize, "each line probed exactly once");
        for s in &probed {
            assert!(
                s.len() >= lines as usize / (stretch as usize) - 8
                    && s.len() <= lines as usize / (stretch as usize) + 8,
                "uneven stripe: {}",
                s.len()
            );
        }
    }

    /// A dirty probe inserts the line; the hot interleave then revisits
    /// it more often than the tour alone would.
    #[test]
    fn hot_lines_get_extra_probes() {
        let lines = 64u32;
        let m = mem(lines, 4);
        let mut p = mk(lines, 4, params(16, 4, 1, 2));
        // Make line 5 a known offender.
        p.wants_writeback(
            LineAddr(5),
            &res(3, ClassifyOutcome::Corrected { bits: 3 }),
            &ctx(0.0, &m),
        );
        assert!(p.score(LineAddr(5)) >= 2);
        let mut hits_on_5 = 0;
        for s in 0..256 {
            if let ScrubAction::Probe(a) = p.next_action(&ctx(s as f64, &m)) {
                if a.0 == 5 {
                    hits_on_5 += 1;
                }
            }
        }
        // 256 slots = 4 tours; the tour alone would probe line 5 four
        // times, the interleave adds roughly one probe per 4 grants.
        assert!(hits_on_5 > 10, "hot line only probed {hits_on_5} times");
        assert!(p.hot_probes() > 0);
    }

    /// The table never exceeds capacity; overflow evicts lowest-score.
    #[test]
    fn table_is_bounded_and_evicts_lowest() {
        let m = mem(64, 4);
        let mut p = mk(64, 4, params(4, 4, 1, 2));
        for a in 0..10u32 {
            p.wants_writeback(
                LineAddr(a),
                &res(1 + a % 3, ClassifyOutcome::Corrected { bits: 1 }),
                &ctx(0.0, &m),
            );
            assert!(p.table_len() <= 4, "table grew past capacity");
        }
        assert!(p.evictions() > 0);
    }

    /// Clean probes decay scores and eventually forget the line; demand
    /// writes decay too.
    #[test]
    fn scores_decay_on_clean_probes_and_demand_writes() {
        let m = mem(64, 4);
        let mut p = mk(64, 4, params(16, 4, 1, 2));
        p.wants_writeback(
            LineAddr(9),
            &res(4, ClassifyOutcome::Corrected { bits: 4 }),
            &ctx(0.0, &m),
        );
        let s0 = p.score(LineAddr(9));
        assert!(s0 >= 4);
        p.on_demand_write(LineAddr(9), SimTime::from_secs(1.0));
        assert_eq!(p.score(LineAddr(9)), s0 / 2);
        while p.score(LineAddr(9)) > 0 {
            p.wants_writeback(LineAddr(9), &res(0, ClassifyOutcome::Clean), &ctx(2.0, &m));
        }
        assert_eq!(p.table_len(), 0);
        assert!(p.misses() > 0);
    }

    /// Quiet lines write back at theta+1, profiled lines at theta; UEs
    /// always write back.
    #[test]
    fn quiet_lines_stretch_the_writeback_threshold() {
        let m = mem(64, 4);
        let mut p = mk(64, 4, params(16, 4, 1, 2));
        // Quiet line at exactly theta=4: held (lazy-plus).
        assert!(!p.wants_writeback(
            LineAddr(3),
            &res(4, ClassifyOutcome::Corrected { bits: 4 }),
            &ctx(0.0, &m),
        ));
        // It is now profiled; theta applies on the next probe.
        assert!(p.wants_writeback(
            LineAddr(3),
            &res(4, ClassifyOutcome::Corrected { bits: 4 }),
            &ctx(1.0, &m),
        ));
        // Quiet line at theta+1 writes back.
        assert!(p.wants_writeback(
            LineAddr(7),
            &res(5, ClassifyOutcome::Corrected { bits: 5 }),
            &ctx(0.0, &m),
        ));
        // UE always writes back, quiet or not.
        assert!(p.wants_writeback(
            LineAddr(8),
            &res(0, ClassifyOutcome::DetectedUncorrectable),
            &ctx(0.0, &m),
        ));
    }

    /// Starvation: an empty bucket throttles, then forces within
    /// max_defer + 1 slots, exactly like the tour.
    #[test]
    fn starved_bucket_throttles_then_forces() {
        let m = mem(8, 2);
        let mut p = ProfiledScrub::new(8.0, 8, 2, 4, budget(1e-9, 1.0, 3), params(4, 4, 1, 2), 5);
        p.on_demand_read(LineAddr(0), SimTime::ZERO);
        let mut pattern = Vec::new();
        for s in 0..8 {
            let a = p.next_action(&ctx(s as f64, &m));
            pattern.push(matches!(a, ScrubAction::Probe(_)));
        }
        assert_eq!(
            pattern,
            [false, false, false, true, false, false, false, true]
        );
        assert_eq!(p.forced_probes, 2);
        assert_eq!(p.throttled_slots, 6);
    }

    /// save/load round-trips the full profiler state byte-for-byte; the
    /// forgetful tripwire visibly breaks the twin; tampered tables are
    /// rejected.
    #[test]
    fn checkpoint_roundtrip_forgetful_and_validation() {
        let m = mem(64, 8);
        let p0 = params(8, 4, 2, 2);
        let mk0 = || ProfiledScrub::new(640.0, 64, 8, 4, budget(0.5, 4.0, 3), p0, 11);
        let mut p = mk0();
        for s in 0..61 {
            p.on_demand_read(LineAddr(0), SimTime::from_secs(9.9 * s as f64));
            if let ScrubAction::Probe(a) = p.next_action(&ctx(10.0 * s as f64, &m)) {
                let bits = a.0 % 5;
                let outcome = if bits == 0 {
                    ClassifyOutcome::Clean
                } else {
                    ClassifyOutcome::Corrected { bits }
                };
                p.wants_writeback(a, &res(bits, outcome), &ctx(10.0 * s as f64, &m));
            }
        }
        assert!(p.table_len() > 0, "exercise the table serialization");
        let mut w = Writer::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut q = mk0();
        let mut r = Reader::new(&bytes);
        q.load_state(&mut r).expect("roundtrip");
        r.finish().expect("all bytes consumed");
        assert_eq!(q.position(), p.position());
        assert_eq!(q.table_len(), p.table_len());
        assert_eq!(q.hits(), p.hits());
        let mut w2 = Writer::new();
        q.save_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "byte-identical re-serialization");

        // The forgetful tripwire drops the table on load.
        let mut f = mk0();
        f.set_forgetful_for_test(true);
        let mut rf = Reader::new(&bytes);
        f.load_state(&mut rf).expect("forgetful load still parses");
        rf.finish().expect("all bytes consumed");
        assert_eq!(f.table_len(), 0, "tripwire must forget the profile");

        // A tampered table length (past capacity) is rejected.
        let mut evil = bytes.clone();
        // table len offset: three u32 fields (pos, defer_streak,
        // hot_cursor), two f64 (tokens, last_refill), twelve u64
        // = 12 + 16 + 96 = 124 (the codec is little-endian throughout).
        let off = 124;
        evil[off..off + 4].copy_from_slice(&100u32.to_le_bytes());
        let mut re = Reader::new(&evil);
        assert!(matches!(
            mk0().load_state(&mut re),
            Err(CheckpointError::Malformed(_))
        ));

        // A snapshot from a different seed fails the origin check.
        let mut diff = ProfiledScrub::new(640.0, 64, 8, 4, budget(0.5, 4.0, 3), p0, 12);
        let mut rd = Reader::new(&bytes);
        assert!(diff.load_state(&mut rd).is_err());
    }

    #[test]
    #[should_panic(expected = "hot stride must be >= 2")]
    fn rejects_unit_hot_stride() {
        mk(64, 4, params(16, 1, 1, 2));
    }
}
