//! Random sampling primitives used throughout the simulator.
//!
//! All samplers take a caller-provided [`rand::Rng`] so every stochastic
//! component of the system is reproducible from a seed (the workspace-wide
//! determinism invariant).

use std::sync::{Arc, Mutex, OnceLock};

use rand::Rng;

use super::erf::norm_ppf;

/// Samples a standard normal deviate via the polar Box–Muller method.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let z = pcm_model::math::sample_std_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples `N(mu, sigma²)`.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    mu + sigma * sample_std_normal(rng)
}

/// Samples a normal truncated to `[mu - half_width, mu + half_width]` by
/// rejection; models program-and-verify loops that retry until the cell
/// lands inside the verify band.
///
/// # Panics
///
/// Panics if `half_width <= 0` or acceptance would be hopeless
/// (`half_width < 0.05·sigma`).
pub fn sample_truncated_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mu: f64,
    sigma: f64,
    half_width: f64,
) -> f64 {
    assert!(half_width > 0.0, "truncation half-width must be positive");
    assert!(
        half_width >= 0.05 * sigma,
        "truncation band too narrow for rejection sampling"
    );
    loop {
        let x = sample_normal(rng, mu, sigma);
        if (x - mu).abs() <= half_width {
            return x;
        }
    }
}

/// Samples a lognormal with median `exp(ln_median)` — i.e.
/// `ln X ~ N(ln_median, sigma_ln²)`.
pub fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, ln_median: f64, sigma_ln: f64) -> f64 {
    sample_normal(rng, ln_median, sigma_ln).exp()
}

/// Mean above which the mode-centred inversion beats the bottom-up walk.
const BINOMIAL_MODE_CUTOFF: f64 = 10.0;

/// Largest `n` the ln-factorial table covers (every `n` the simulator
/// draws is far below this; larger `n` falls back to the bottom-up walk).
const LN_FACT_MAX_N: usize = 4096;

/// `ln(k!)` for `k ≤ LN_FACT_MAX_N`, built once on first use.
fn ln_fact_table() -> &'static [f64] {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Vec::with_capacity(LN_FACT_MAX_N + 1);
        let mut acc = 0.0f64;
        t.push(0.0);
        for k in 1..=LN_FACT_MAX_N {
            acc += (k as f64).ln();
            t.push(acc);
        }
        t
    })
}

/// Samples `Binomial(n, p)` exactly, in expected `O(√(npq) + 1)` time.
///
/// Strategy: sequential inversion of the CDF from a single uniform.
/// Small means walk the CDF up from zero (expected `O(np + 1)` — the
/// common case for rare drift failures, with the zero outcome resolved by
/// one compare); larger means walk outward from the distribution's mode,
/// visiting an expected `O(√(npq))` terms. Both walks use the exact PMF
/// ratio recurrence, so the sampled law is the true binomial up to f64
/// rounding of the PMF terms (relative error ≲ 1e-13; see the
/// `matches_closed_form_pmf` test). Exactly one uniform is consumed per
/// sample, which also makes the draw count deterministic.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let k = pcm_model::math::sample_binomial(&mut rng, 100, 0.0);
/// assert_eq!(k, 0);
/// let k = pcm_model::math::sample_binomial(&mut rng, 100, 1.0);
/// assert_eq!(k, 100);
/// ```
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u32, p: f64) -> u32 {
    assert!((0.0..=1.0).contains(&p), "binomial p out of [0,1]: {p}");
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Work with the smaller tail so the walks stay short.
    let (ps, flip) = if p <= 0.5 {
        (p, false)
    } else {
        (1.0 - p, true)
    };
    let k = if n as f64 * ps < BINOMIAL_MODE_CUTOFF || n as usize > LN_FACT_MAX_N {
        binomial_inv_bottom(rng.gen(), n, ps)
    } else {
        binomial_inv_mode(rng, n, ps)
    };
    if flip {
        n - k
    } else {
        k
    }
}

/// `x^n` by binary exponentiation, bit-identical to compiler-rt's
/// `__powidf2` (same multiply order) but inlined into the sampling loop —
/// the libcall showed up at ~15% of E6's profile.
#[inline]
fn powi_u32(mut x: f64, mut n: u32) -> f64 {
    let mut r = 1.0;
    loop {
        if n & 1 == 1 {
            r *= x;
        }
        n /= 2;
        if n == 0 {
            break;
        }
        x *= x;
    }
    r
}

/// Bottom-up CDF inversion of the uniform `u` for small means: start at
/// `P(X=0) = qⁿ` and walk up with the PMF ratio recurrence. Expected
/// `O(np + 1)` iterations. The dominant zero outcome is usually settled
/// by [`zero_squeeze`] alone, before `qⁿ` is computed.
fn binomial_inv_bottom(u: f64, n: u32, p: f64) -> u32 {
    debug_assert!(p > 0.0 && p <= 0.5);
    let q = 1.0 - p;
    if q == 1.0 {
        // p below ~2^-53: `1 - p` rounded to 1. The success probability of
        // the whole experiment is n·p < 1e-13 — sample that single event
        // instead of walking a degenerate recurrence.
        return u32::from(u < n as f64 * p);
    }
    if u < zero_squeeze(n, p) {
        return 0;
    }
    bottom_walk(n, p, powi_u32(q, n), inverter(u))
}

/// A lower bound on the computed zero term `powi_u32(fl(1 − p), n)` for
/// `0 < p ≤ ½`: any `u` below it lands in the zero outcome, exactly as
/// the full walk would decide, so the walk can return 0 without
/// computing `qⁿ`. Since the squeeze only ever answers what the walk
/// would, outcomes and uniforms are unchanged.
///
/// Why it is a lower bound, writing `ε = f64::EPSILON = 2⁻⁵²`:
///
/// * Bernoulli's inequality gives `qⁿ ≥ 1 − n(1 − q)` for `q ∈ [0, 1]`.
/// * `q = fl(1 − p)` lies in `[½, 1)`, where f64 spacing is `2⁻⁵³`, so
///   `1 − q ≤ p + 2⁻⁵⁴`: rounding costs at most `2⁻⁵⁴ = ε/4` per trial.
/// * [`powi_u32`]'s squaring chain doubles the relative error of the
///   running square at each step and adds one rounding (`ε/2`) per
///   multiply: the square `q^(2ʲ)` carries `2ʲ − 1` roundings, the
///   accumulator one more per set bit of `n`, so to first order the
///   result is within `n·ε/2` relative of `qⁿ`, and within
///   `(n + 32)·ε` once higher-order terms are counted. As `qⁿ ≤ 1`,
///   that is also an absolute bound.
///
/// Together the computed term is at least
/// `1 − n·p − n·ε/4 − (n + 32)·ε`, and evaluating this bound in f64 adds
/// a few `ε` more; the slack `8·(n + 64)·ε` covers all of it with a
/// factor of several to spare. The uniforms the squeeze leaves to the
/// full walk are those in the Bernoulli gap `qⁿ − (1 − n·p) ≈ (n·p)²/2`
/// plus that slack (`6·10⁻¹³` at `n = 288`), so nearly every zero outcome
/// is settled by the squeeze. For `n·p ≥ 1` the bound is negative and
/// never fires.
#[inline]
fn zero_squeeze(n: u32, p: f64) -> f64 {
    let n = n as f64;
    1.0 - n * p - 8.0 * (n + 64.0) * f64::EPSILON
}

/// The CDF-inversion visitor for the walks below: accepts the visited
/// outcome once `u` falls inside its PMF term, otherwise subtracts the
/// term and moves on. Every sampler — walk or table — inverts with exactly
/// this compare-then-subtract sequence, which is what makes them agree
/// bit for bit.
#[inline(always)]
fn inverter(mut u: f64) -> impl FnMut(f64) -> bool {
    move |pmf| {
        if u < pmf {
            true
        } else {
            u -= pmf;
            false
        }
    }
}

/// Visits `Binomial(n, p)`'s support bottom-up from `P(X=0) = pmf0` with
/// the PMF ratio recurrence, passing each outcome's PMF term to `visit`
/// until it accepts one; returns that `k`, or `n` once the walk reaches it without
/// visiting it (the clamp absorbing the ~1e-15 rounding residue a full
/// walk can leave past the last bucket).
#[inline(always)]
fn bottom_walk(n: u32, p: f64, pmf0: f64, mut visit: impl FnMut(f64) -> bool) -> u32 {
    let q = 1.0 - p;
    let mut pmf = pmf0;
    let r = p / q;
    let mut k = 0u32;
    loop {
        if k >= n || visit(pmf) {
            return k;
        }
        k += 1;
        pmf *= r * (n - k + 1) as f64 / k as f64;
    }
}

/// Mode-centred CDF inversion: evaluate the PMF at the mode via the
/// ln-factorial table, then walk outward (m, m+1, m−1, m+2, …) until the
/// uniform's mass is located. Any fixed ordering of the support is a valid
/// inversion; this one visits an expected `O(√(npq))` terms.
fn binomial_inv_mode<R: Rng + ?Sized>(rng: &mut R, n: u32, p: f64) -> u32 {
    mode_walk(n, p, p.ln(), (1.0 - p).ln(), inverter(rng.gen()))
}

/// The mode the outward walk starts from.
#[inline]
fn binomial_mode(n: u32, p: f64) -> u32 {
    (((n + 1) as f64) * p).floor().min(n as f64) as u32
}

/// Visits `Binomial(n, p)`'s support outward from the mode (m, m+1, m−1,
/// m+2, …; once one side runs out, the other side alone), passing each
/// outcome's PMF term to `visit` until it accepts one, and returns that
/// outcome. If
/// the support is exhausted with a rounding residue left, returns the
/// mode (any in-support value is within the rounding tolerance).
///
/// `ln p` / `ln q` are supplied by the caller, so callers drawing many
/// binomials at a fixed `p` hoist the two `ln` calls; passing the logs of
/// the same `p` visits bit-identical terms.
#[inline(always)]
fn mode_walk(n: u32, p: f64, ln_p: f64, ln_q: f64, mut visit: impl FnMut(f64) -> bool) -> u32 {
    debug_assert!(p > 0.0 && p <= 0.5);
    let q = 1.0 - p;
    let lf = ln_fact_table();
    let m = binomial_mode(n, p);
    let ln_pmf_m = lf[n as usize] - lf[m as usize] - lf[(n - m) as usize]
        + m as f64 * ln_p
        + (n - m) as f64 * ln_q;
    let pmf_m = ln_pmf_m.exp();
    if visit(pmf_m) {
        return m;
    }
    let r = p / q;
    let (mut up_k, mut up_pmf) = (m, pmf_m);
    let (mut dn_k, mut dn_pmf) = (m, pmf_m);
    loop {
        let mut progressed = false;
        if up_k < n {
            up_pmf *= r * (n - up_k) as f64 / (up_k + 1) as f64;
            up_k += 1;
            if visit(up_pmf) {
                return up_k;
            }
            progressed = true;
        }
        if dn_k > 0 {
            dn_pmf *= dn_k as f64 / (r * (n - dn_k + 1) as f64);
            dn_k -= 1;
            if visit(dn_pmf) {
                return dn_k;
            }
            progressed = true;
        }
        if !progressed {
            return m;
        }
    }
}

/// The `i`-th outcome [`mode_walk`] visits from mode `m` (the walk's
/// visit order in closed form); `i` past the support's `n + 1` terms is
/// the walk's exhaustion outcome, `m`.
#[inline]
fn mode_walk_outcome(n: u32, m: u32, i: u32) -> u32 {
    if i == 0 || i > n {
        return m;
    }
    let (up, dn) = (n - m, m);
    let both = up.min(dn);
    let t = i - 1;
    if t < 2 * both {
        // Alternating phase: up to m + j, then down to m − j.
        let j = t / 2 + 1;
        if t.is_multiple_of(2) {
            m + j
        } else {
            m - j
        }
    } else if up > dn {
        m + t - both + 1
    } else {
        m - (t - both + 1)
    }
}

/// Samples a multinomial allocation of `n` trials over `probs` categories by
/// sequential conditional binomials. `probs` must sum to ≈1.
///
/// # Panics
///
/// Panics if `probs` is empty, contains negatives, or sums far from 1.
pub fn sample_multinomial<R: Rng + ?Sized>(rng: &mut R, n: u32, probs: &[f64]) -> Vec<u32> {
    let mut out = vec![0u32; probs.len()];
    sample_multinomial_into(rng, n, probs, &mut out);
    out
}

/// [`sample_multinomial`] writing into a caller-provided buffer, for hot
/// paths that cannot afford a per-call allocation (`out.len()` must equal
/// `probs.len()`).
///
/// # Panics
///
/// Panics on the same invalid `probs` as [`sample_multinomial`], or if the
/// buffer length does not match.
pub fn sample_multinomial_into<R: Rng + ?Sized>(
    rng: &mut R,
    n: u32,
    probs: &[f64],
    out: &mut [u32],
) {
    assert!(!probs.is_empty(), "multinomial needs at least one category");
    assert_eq!(out.len(), probs.len(), "multinomial buffer length mismatch");
    let total: f64 = probs.iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-6,
        "multinomial probabilities sum to {total}, want 1"
    );
    assert!(
        probs.iter().all(|&p| p >= 0.0),
        "multinomial probabilities must be nonnegative"
    );
    let mut remaining_n = n;
    let mut remaining_p = 1.0f64;
    for (i, &p) in probs.iter().enumerate() {
        if i == probs.len() - 1 {
            out[i] = remaining_n;
            break;
        }
        let cond = if remaining_p <= 0.0 {
            0.0
        } else {
            (p / remaining_p).clamp(0.0, 1.0)
        };
        let k = sample_binomial(rng, remaining_n, cond);
        out[i] = k;
        remaining_n -= k;
        remaining_p -= p;
    }
}

/// Most PMF terms one walk table holds. A draw whose uniform lies past the
/// tabulated terms re-runs the walk from the same uniform, so the cap
/// trades table memory against how often that happens: for the fault
/// engine's 288-cell re-roll (σ ≈ 7 cells) 32 terms span about ±2σ
/// around the mode, leaving a few percent of draws to the walk.
const WALK_TABLE_CAP: usize = 32;

/// The first [`WALK_TABLE_CAP`] PMF terms one binomial walk visits, in
/// visit order, as computed by the walk itself. If the walk ran to
/// completion inside the cap, a final `+∞` term stands for its terminal
/// outcome (the bottom walk's clamp to `n`, the mode walk's fallback to
/// the mode), which it returns whatever uniform is left.
#[derive(Debug)]
struct WalkTable {
    pmf: Box<[f64]>,
    /// `Some(m)` for a mode walk from `m`; `None` for a bottom-up walk.
    mode: Option<u32>,
}

impl WalkTable {
    /// Inverts `u` over the tabulated terms with the walk's own
    /// compare-then-subtract sequence, returning the outcome (unreflected),
    /// or `None` if `u` lies past the last term.
    #[inline]
    fn invert(&self, n: u32, mut u: f64) -> Option<u32> {
        for (i, &pmf) in self.pmf.iter().enumerate() {
            if u < pmf {
                let i = i as u32;
                return Some(match self.mode {
                    Some(m) => mode_walk_outcome(n, m, i),
                    None => i,
                });
            }
            u -= pmf;
        }
        None
    }
}

/// One category of a [`PrecomputedMultinomial`]: the conditional binomial
/// probability in the orientation [`sample_binomial`] would pick, its
/// logarithms taken once, and lazily built walk tables for every trial
/// count up to the multinomial's table bound.
#[derive(Debug)]
struct PrecomputedCategory {
    /// Conditional success probability `p_i / (p_i + p_{i+1} + …)`.
    cond: f64,
    /// `min(cond, 1 − cond)` — the smaller tail the walks operate on.
    ps: f64,
    /// Whether `cond > 0.5` (sampled count must be reflected).
    flip: bool,
    ln_ps: f64,
    ln_qs: f64,
    /// `tables[n]`: the walk table for `n` trials, built on first use.
    tables: Box<[OnceLock<WalkTable>]>,
}

/// A multinomial distribution with its sequential-conditional decomposition
/// precomputed. Sampling draws the identical uniforms and returns the
/// identical counts as [`sample_multinomial_into`] over the same `probs`.
///
/// Each conditional binomial is drawn by inverting one uniform over a
/// table of the PMF terms its walk would visit, built on first use per
/// trial count `n ≤ max_n` with the walk's own arithmetic; a uniform that
/// runs past a truncated table re-runs the walk from the same uniform, and
/// larger `n` walk directly. Shared process-wide through
/// [`PrecomputedMultinomial::shared`]: the fault engine's cell-occupancy
/// re-roll is the single hottest multinomial in the simulator.
///
/// # Examples
///
/// ```
/// use pcm_model::math::{sample_multinomial_into, PrecomputedMultinomial};
/// use rand::SeedableRng;
/// let probs = [0.25; 4];
/// let pre = PrecomputedMultinomial::new(&probs, 288);
/// let mut a = rand::rngs::StdRng::seed_from_u64(3);
/// let mut b = rand::rngs::StdRng::seed_from_u64(3);
/// let (mut x, mut y) = ([0u32; 4], [0u32; 4]);
/// pre.sample_into(&mut a, 288, &mut x);
/// sample_multinomial_into(&mut b, 288, &probs, &mut y);
/// assert_eq!(x, y);
/// ```
#[derive(Debug)]
pub struct PrecomputedMultinomial {
    categories: Vec<PrecomputedCategory>,
}

impl PrecomputedMultinomial {
    /// Validates `probs` exactly as [`sample_multinomial_into`] does and
    /// precomputes each conditional with the same arithmetic (so the f64
    /// conditionals — and therefore every downstream draw — are
    /// bit-identical). Walk tables cover trial counts up to `max_n`.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid `probs` as [`sample_multinomial`].
    pub fn new(probs: &[f64], max_n: u32) -> Self {
        assert!(!probs.is_empty(), "multinomial needs at least one category");
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "multinomial probabilities sum to {total}, want 1"
        );
        assert!(
            probs.iter().all(|&p| p >= 0.0),
            "multinomial probabilities must be nonnegative"
        );
        let mut categories = Vec::with_capacity(probs.len() - 1);
        let mut remaining_p = 1.0f64;
        for &p in &probs[..probs.len() - 1] {
            let cond = if remaining_p <= 0.0 {
                0.0
            } else {
                (p / remaining_p).clamp(0.0, 1.0)
            };
            let (ps, flip) = if cond <= 0.5 {
                (cond, false)
            } else {
                (1.0 - cond, true)
            };
            categories.push(PrecomputedCategory {
                cond,
                ps,
                flip,
                ln_ps: ps.ln(),
                ln_qs: (1.0 - ps).ln(),
                tables: (0..=max_n).map(|_| OnceLock::new()).collect(),
            });
            remaining_p -= p;
        }
        Self { categories }
    }

    /// The process-wide instance for `probs` with tables up to `max_n`,
    /// built on first request: every fault engine of one device shares a
    /// single table set (an 8-shard fleet holds one copy, not eight).
    ///
    /// # Panics
    ///
    /// Panics on the same invalid `probs` as [`PrecomputedMultinomial::new`].
    pub fn shared(probs: &[f64], max_n: u32) -> Arc<Self> {
        type Key = (Vec<u64>, u32);
        static CACHE: Mutex<Vec<(Key, Arc<PrecomputedMultinomial>)>> = Mutex::new(Vec::new());
        let key: Key = (probs.iter().map(|p| p.to_bits()).collect(), max_n);
        let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, tables)) = cache.iter().find(|(k, _)| *k == key) {
            return Arc::clone(tables);
        }
        let tables = Arc::new(Self::new(probs, max_n));
        // Distinct (distribution, line width) pairs per process number a
        // handful (one per level count × code); a linear scan is fine.
        cache.push((key, Arc::clone(&tables)));
        tables
    }

    /// Number of categories (length `sample_into` expects of its buffer).
    pub fn len(&self) -> usize {
        self.categories.len() + 1
    }

    /// Whether the distribution has a single category.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Heap bytes held by the walk tables built so far, including the
    /// per-`n` slots.
    pub fn table_bytes(&self) -> usize {
        self.categories
            .iter()
            .map(|c| {
                std::mem::size_of_val(&*c.tables)
                    + c.tables
                        .iter()
                        .filter_map(OnceLock::get)
                        .map(|t| std::mem::size_of_val(&*t.pmf))
                        .sum::<usize>()
            })
            .sum()
    }

    /// Samples an allocation of `n` trials into `out`, identically to
    /// [`sample_multinomial_into`] with the constructor's `probs`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, n: u32, out: &mut [u32]) {
        self.fill(rng, n, out, true);
    }

    /// The reference for [`Self::sample_into`]: the same draws and counts
    /// with every conditional drawn by its walk, tables unused. For
    /// equivalence checks and benchmarks; the simulator samples through
    /// the tables.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn sample_into_by_walk<R: Rng + ?Sized>(&self, rng: &mut R, n: u32, out: &mut [u32]) {
        self.fill(rng, n, out, false);
    }

    #[inline]
    fn fill<R: Rng + ?Sized>(&self, rng: &mut R, n: u32, out: &mut [u32], tables: bool) {
        assert_eq!(out.len(), self.len(), "multinomial buffer length mismatch");
        let mut remaining_n = n;
        for (slot, cat) in out.iter_mut().zip(&self.categories) {
            let k = cat.sample(rng, remaining_n, tables);
            *slot = k;
            remaining_n -= k;
        }
        out[self.categories.len()] = remaining_n;
    }
}

impl PrecomputedCategory {
    /// `sample_binomial(rng, n, self.cond)`: one uniform, inverted over
    /// the walk table for `n` (if `tables` is set, there is one, and it
    /// reaches far enough), else by the walk itself.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R, n: u32, tables: bool) -> u32 {
        if n == 0 || self.cond <= 0.0 {
            return 0;
        }
        if self.cond >= 1.0 {
            return n;
        }
        let u: f64 = rng.gen();
        let tabled = self
            .tables
            .get(n as usize)
            .filter(|_| tables)
            .and_then(|slot| slot.get_or_init(|| self.build_table(n)).invert(n, u));
        let k = tabled.unwrap_or_else(|| self.walk(n, u));
        if self.flip {
            n - k
        } else {
            k
        }
    }

    /// Whether `n` trials take the mode-centred walk (else bottom-up),
    /// by [`sample_binomial`]'s rule.
    fn uses_mode_walk(&self, n: u32) -> bool {
        !(n as f64 * self.ps < BINOMIAL_MODE_CUTOFF || n as usize > LN_FACT_MAX_N)
    }

    /// The walk [`sample_binomial`] would run for `n` trials, inverting `u`.
    fn walk(&self, n: u32, u: f64) -> u32 {
        if self.uses_mode_walk(n) {
            mode_walk(n, self.ps, self.ln_ps, self.ln_qs, inverter(u))
        } else {
            binomial_inv_bottom(u, n, self.ps)
        }
    }

    /// Records the first [`WALK_TABLE_CAP`] terms [`Self::walk`] visits for
    /// `n` trials (plus the `+∞` terminal term if the walk ends inside the
    /// cap). The degenerate `1 − p == 1` bottom case gets an empty table,
    /// leaving every draw to the walk.
    fn build_table(&self, n: u32) -> WalkTable {
        let mut pmf = Vec::with_capacity(WALK_TABLE_CAP + 1);
        let mut record = |term| {
            pmf.push(term);
            pmf.len() == WALK_TABLE_CAP
        };
        let mode = if self.uses_mode_walk(n) {
            mode_walk(n, self.ps, self.ln_ps, self.ln_qs, &mut record);
            Some(binomial_mode(n, self.ps))
        } else {
            let q = 1.0 - self.ps;
            if q == 1.0 {
                return WalkTable {
                    pmf: Box::new([]),
                    mode: None,
                };
            }
            bottom_walk(n, self.ps, powi_u32(q, n), &mut record);
            None
        };
        if pmf.len() < WALK_TABLE_CAP {
            pmf.push(f64::INFINITY);
        }
        WalkTable {
            pmf: pmf.into_boxed_slice(),
            mode,
        }
    }
}

/// Samples without replacement: picks `k` distinct indices from `0..n`
/// (Floyd's algorithm), returned in unspecified order.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_distinct_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct from {n}");
    let mut out = Vec::with_capacity(k);
    if k <= 32 {
        // Small draws (the ECC error-spreading hot path): membership via a
        // linear scan of the output beats a hash set by a wide margin.
        for j in (n - k)..n {
            let t = rng.gen_range(0..=j);
            let pick = if out.contains(&t) { j } else { t };
            out.push(pick);
        }
        return out;
    }
    let mut chosen = std::collections::HashSet::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
        out.push(pick);
    }
    out
}

/// Deviate from `N(mu, sigma²)` computed by inversion from a single uniform —
/// useful when exactly one RNG draw per sample is required for
/// counter-based reproducibility.
pub fn sample_normal_inv<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    let u: f64 = loop {
        let u = rng.gen::<f64>();
        if u > 0.0 && u < 1.0 {
            break u;
        }
    };
    mu + sigma * norm_ppf(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn binomial_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(42);
        let (n, p, reps) = (200u32, 0.07, 20_000);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..reps {
            let k = sample_binomial(&mut rng, n, p) as f64;
            sum += k;
            sumsq += k * k;
        }
        let mean = sum / reps as f64;
        let var = sumsq / reps as f64 - mean * mean;
        let want_mean = n as f64 * p;
        let want_var = n as f64 * p * (1.0 - p);
        assert!(
            (mean - want_mean).abs() < 0.15,
            "mean {mean} want {want_mean}"
        );
        assert!((var - want_var).abs() < 0.6, "var {var} want {want_var}");
    }

    #[test]
    fn binomial_high_p_symmetry() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut sum = 0u64;
        for _ in 0..10_000 {
            sum += sample_binomial(&mut rng, 50, 0.9) as u64;
        }
        let mean = sum as f64 / 10_000.0;
        assert!((mean - 45.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn binomial_subnormal_p_returns_zero() {
        // Regression: p so small that ln(1-p) == 0 used to return n.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(sample_binomial(&mut rng, 288, 1e-323), 0);
            assert_eq!(sample_binomial(&mut rng, 288, 1e-17), 0);
        }
    }

    /// Closed-form binomial PMF via the ln-factorial table (independent of
    /// the sampling recurrences under test).
    fn pmf(n: u32, p: f64, k: u32) -> f64 {
        let lf = ln_fact_table();
        (lf[n as usize] - lf[k as usize] - lf[(n - k) as usize]
            + k as f64 * p.ln()
            + (n - k) as f64 * (1.0 - p).ln())
        .exp()
    }

    /// Both inversion paths must realize the true binomial law: empirical
    /// frequencies of every outcome near the mode match the closed-form
    /// PMF within Monte-Carlo tolerance.
    #[test]
    fn matches_closed_form_pmf() {
        // (n, p) pairs straddling the mode-inversion cutoff, including the
        // fault engine's occupancy re-roll shape (288, 0.25).
        for &(n, p) in &[(288u32, 0.25f64), (288, 0.02), (40, 0.4), (576, 0.6)] {
            let mut rng = StdRng::seed_from_u64(1000 + n as u64);
            let reps = 40_000usize;
            let mut counts = vec![0u32; n as usize + 1];
            for _ in 0..reps {
                counts[sample_binomial(&mut rng, n, p) as usize] += 1;
            }
            for k in 0..=n {
                let want = pmf(n, p.min(0.999_999), k);
                if want < 5.0 / reps as f64 {
                    continue; // too rare to test empirically
                }
                let got = counts[k as usize] as f64 / reps as f64;
                let sigma = (want * (1.0 - want) / reps as f64).sqrt();
                assert!(
                    (got - want).abs() < 5.0 * sigma + 1e-4,
                    "n={n} p={p} k={k}: got {got:.5} want {want:.5}"
                );
            }
        }
    }

    #[test]
    fn one_uniform_per_sample() {
        // The inversion samplers consume exactly one RNG draw per call, so
        // two identically seeded streams stay aligned regardless of the
        // outcomes drawn between checks.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for &(n, p) in &[(288u32, 0.25f64), (288, 1e-6), (100, 0.5), (10, 0.9)] {
            sample_binomial(&mut a, n, p);
            let _: f64 = b.gen();
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "n={n} p={p}");
        }
    }

    #[test]
    fn binomial_bounds() {
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..1000 {
            let k = sample_binomial(&mut rng, 17, 0.3);
            assert!(k <= 17);
        }
    }

    #[test]
    fn multinomial_totals_and_means() {
        let mut rng = StdRng::seed_from_u64(45);
        let probs = [0.1, 0.2, 0.3, 0.4];
        let mut sums = [0u64; 4];
        for _ in 0..5_000 {
            let ks = sample_multinomial(&mut rng, 100, &probs);
            assert_eq!(ks.iter().sum::<u32>(), 100);
            for (s, k) in sums.iter_mut().zip(&ks) {
                *s += *k as u64;
            }
        }
        for (i, s) in sums.iter().enumerate() {
            let mean = *s as f64 / 5_000.0;
            let want = 100.0 * probs[i];
            assert!(
                (mean - want).abs() < 0.5,
                "cat {i}: mean {mean} want {want}"
            );
        }
    }

    /// The binomial sampler as it stood before the zero squeeze: up to
    /// four draws at once, every small-mean lane's `qⁿ` prefactor computed
    /// by one batched exponentiation before any uniform is drawn, then the
    /// bottom walk from it; other lanes take the mode walk or the
    /// degenerate `q == 1` event. The squeezed [`sample_binomial`] must
    /// match it draw for draw.
    fn prefactor_binomial4(rng: &mut StdRng, ns: [u32; 4], ps: [f64; 4]) -> [u32; 4] {
        /// Four `xⁿ` binary exponentiations, each lane in
        /// [`powi_u32`]'s multiply order.
        fn powi4(mut x: [f64; 4], n: [u32; 4]) -> [f64; 4] {
            let mut r = [1.0f64; 4];
            let mut bits = n;
            while bits.iter().any(|&b| b > 0) {
                for l in 0..4 {
                    let m = if bits[l] & 1 == 1 { x[l] } else { 1.0 };
                    r[l] *= m;
                    x[l] *= x[l];
                    bits[l] /= 2;
                }
            }
            r
        }
        let tail = |p: f64| {
            if p <= 0.5 {
                (p, false)
            } else {
                (1.0 - p, true)
            }
        };
        let active = |l: usize| ns[l] > 0 && ps[l] > 0.0 && ps[l] < 1.0;
        let bottom = |l: usize| {
            let (p, _) = tail(ps[l]);
            active(l) && (ns[l] as f64 * p < BINOMIAL_MODE_CUTOFF || ns[l] as usize > LN_FACT_MAX_N)
        };
        let mut qs = [1.0f64; 4];
        let mut es = [0u32; 4];
        for l in (0..4).filter(|&l| bottom(l)) {
            qs[l] = 1.0 - tail(ps[l]).0;
            es[l] = ns[l];
        }
        let pmf0s = powi4(qs, es);
        let mut out = [0u32; 4];
        for l in 0..4 {
            let n = ns[l];
            if !active(l) {
                out[l] = if ps[l] >= 1.0 { n } else { 0 };
                continue;
            }
            let (p, flip) = tail(ps[l]);
            let u: f64 = rng.gen();
            let k = if !bottom(l) {
                mode_walk(n, p, p.ln(), (1.0 - p).ln(), inverter(u))
            } else if qs[l] == 1.0 {
                u32::from(u < n as f64 * p)
            } else {
                bottom_walk(n, p, pmf0s[l], inverter(u))
            };
            out[l] = if flip { n - k } else { k };
        }
        out
    }

    /// Trial counts the squeeze is checked at: every `n` the ln-factorial
    /// table covers, then past it (bottom walks at any mean).
    fn squeeze_grid_ns() -> impl Iterator<Item = u32> {
        (0..=4096u32).chain([4097, 8192, 1 << 20])
    }

    /// Success probabilities the squeeze is checked at: log-spaced over
    /// `[1e-17, ½]` (the smallest below 2⁻⁵⁴, where `1 − p` rounds to 1);
    /// fractions of a 2⁻⁵³ step past its multiples, where `fl(1 − p)`
    /// rounds away from `1 − p` (in both directions); and all of them
    /// reflected (`p > ½`, sampled through the flipped tail).
    fn squeeze_grid_ps() -> Vec<f64> {
        let (lo, hi) = (1e-17f64.log10(), 0.5f64.log10());
        let mut ps: Vec<f64> = (0..=40)
            .map(|i| 10f64.powf(lo + (hi - lo) * i as f64 / 40.0).min(0.5))
            .collect();
        let steps = [1u64, 2, 3, 7, 100].into_iter();
        for k in steps.chain((10..=50).step_by(10).map(|b| 1u64 << b)) {
            for f in [0.25, 0.5, 0.51, 0.75] {
                ps.push((k as f64 + f) * f64::EPSILON / 2.0);
            }
        }
        let flips: Vec<f64> = ps.iter().map(|p| 1.0 - p).collect();
        ps.extend(flips);
        ps
    }

    #[test]
    fn squeezed_sampler_matches_prefactor_reference_draw_for_draw() {
        // One lane per call over the whole grid, outcomes and generator
        // state compared after every call.
        let ps = squeeze_grid_ps();
        let mut a = StdRng::seed_from_u64(9100);
        let mut b = StdRng::seed_from_u64(9100);
        for n in squeeze_grid_ns() {
            for &p in &ps {
                let got = sample_binomial(&mut a, n, p);
                let want = prefactor_binomial4(&mut b, [n, 0, 0, 0], [p, 0.0, 0.0, 0.0])[0];
                assert_eq!(got, want, "n={n} p={p:e}");
                assert_eq!(a.state(), b.state(), "n={n} p={p:e}: stream skew");
            }
        }
        // Four lanes at once, one read's worth of per-level draws, across
        // every lane-classification mix (inactive, bottom-path, mode-path,
        // degenerate-q, p>0.5 flips), against four sequential calls.
        let cases: &[([u32; 4], [f64; 4])] = &[
            ([288, 288, 288, 288], [0.001, 0.02, 0.25, 0.9]),
            ([0, 288, 0, 5], [0.0, 1e-6, 0.3, 0.5]),
            ([288, 288, 288, 288], [1e-323, 1e-17, 0.999999, 1.0]),
            ([10, 8192, 40, 0], [0.5, 0.4, 0.997, 0.25]),
            ([1, 2, 3, 4], [0.9999, 0.0001, 0.7, 0.3]),
        ];
        for (i, &(ns, ps)) in cases.iter().enumerate() {
            for rep in 0..64 {
                let want = prefactor_binomial4(&mut b, ns, ps);
                let mut got = [0u32; 4];
                for l in 0..4 {
                    got[l] = sample_binomial(&mut a, ns[l], ps[l]);
                }
                assert_eq!(got, want, "case {i} rep {rep}: outcomes diverge");
                assert_eq!(a.state(), b.state(), "case {i} rep {rep}: stream skew");
            }
        }
    }

    #[test]
    fn zero_squeeze_never_exceeds_the_computed_zero_term() {
        // The squeeze may only answer what the walk would: it must sit at
        // or below the zero term `qⁿ` the walk starts from, computed the
        // walk's way, for the tail the sampler actually walks.
        let ps = squeeze_grid_ps();
        for n in squeeze_grid_ns() {
            for &p in &ps {
                let ps = if p <= 0.5 { p } else { 1.0 - p };
                let pmf0 = powi_u32(1.0 - ps, n);
                let bound = zero_squeeze(n, ps);
                assert!(bound <= pmf0, "n={n} p={p:e}: {bound} > {pmf0}");
            }
        }
    }

    #[test]
    fn precomputed_multinomial_matches_ad_hoc() {
        // Cached conditionals + logs must reproduce sample_multinomial_into
        // bit-for-bit, including the RNG stream position.
        let prob_sets: &[&[f64]] = &[
            &[0.25, 0.25, 0.25, 0.25],
            &[0.1, 0.2, 0.3, 0.4],
            &[0.7, 0.2, 0.1],
            &[1.0],
            &[0.0, 0.5, 0.5],
        ];
        for (i, probs) in prob_sets.iter().enumerate() {
            let pre = PrecomputedMultinomial::new(probs, 288);
            assert_eq!(pre.len(), probs.len());
            let mut a = StdRng::seed_from_u64(7000 + i as u64);
            let mut b = StdRng::seed_from_u64(7000 + i as u64);
            let mut got = vec![0u32; probs.len()];
            let mut want = vec![0u32; probs.len()];
            for n in [0u32, 1, 7, 288, 2000] {
                pre.sample_into(&mut a, n, &mut got);
                sample_multinomial_into(&mut b, n, probs, &mut want);
                assert_eq!(got, want, "probs {probs:?} n={n}");
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "case {i}: stream skew");
        }
    }

    /// Draws `pre` (through its tables and by its walks) and the ad-hoc
    /// sampler over `probs` side by side for every `n` in `ns`, `reps`
    /// times each, asserting equal counts and an equal generator state
    /// after every call.
    fn assert_tables_match_ad_hoc(
        pre: &PrecomputedMultinomial,
        probs: &[f64],
        ns: impl IntoIterator<Item = u32>,
        reps: usize,
        seed: u64,
    ) {
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        let mut c = StdRng::seed_from_u64(seed);
        let mut got = vec![0u32; probs.len()];
        let mut want = vec![0u32; probs.len()];
        let mut walked = vec![0u32; probs.len()];
        for n in ns {
            for rep in 0..reps {
                pre.sample_into(&mut a, n, &mut got);
                sample_multinomial_into(&mut b, n, probs, &mut want);
                pre.sample_into_by_walk(&mut c, n, &mut walked);
                assert_eq!(got, want, "probs {probs:?} n={n} rep {rep}");
                assert_eq!(walked, want, "probs {probs:?} n={n} rep {rep}");
                assert_eq!(a.state(), b.state(), "probs {probs:?} n={n} rep {rep}");
                assert_eq!(c.state(), b.state(), "probs {probs:?} n={n} rep {rep}");
            }
        }
    }

    #[test]
    fn walk_tables_match_ad_hoc_draw_for_draw() {
        // Two and four levels (the cell-occupancy shapes) plus a skewed
        // distribution with a reflected conditional; n spans every line
        // width up to RS-over-GF(2^8) cells and beyond, past the table
        // bound and past LN_FACT_MAX_N (walked directly).
        let prob_sets: &[&[f64]] = &[&[0.5, 0.5], &[0.25; 4], &[0.6, 0.1, 0.3]];
        let beyond = [1101u32, 4096, 4097, 6000];
        for (i, probs) in prob_sets.iter().enumerate() {
            let pre = PrecomputedMultinomial::new(probs, 1100);
            let ns = (0..=1100u32).chain(beyond);
            assert_tables_match_ad_hoc(&pre, probs, ns, 3, 7100 + i as u64);
        }
    }

    /// A generator replaying fixed words, for steering a draw's uniform.
    struct Replay(Vec<u64>);

    impl rand::RngCore for Replay {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.remove(0)
        }
    }

    #[test]
    fn truncated_tables_fall_back_to_the_walk() {
        // u just below 1 lies past every truncated table: the draw must
        // re-run the walk from that uniform and land where the walk does.
        let probs = [0.25; 4];
        let pre = PrecomputedMultinomial::new(&probs, 288);
        let top = u64::MAX;
        let cat = &pre.categories[0];
        let table = cat.tables[288].get_or_init(|| cat.build_table(288));
        assert_eq!(table.pmf.len(), WALK_TABLE_CAP, "288 trials truncate");
        let u = (top >> 11) as f64 / (1u64 << 53) as f64;
        assert_eq!(table.invert(288, u), None, "u must run past the table");
        for words in [[top, top, top], [top, 0, top], [0, top, 1 << 62]] {
            let mut got = [0u32; 4];
            let mut want = [0u32; 4];
            pre.sample_into(&mut Replay(words.to_vec()), 288, &mut got);
            sample_multinomial_into(&mut Replay(words.to_vec()), 288, &probs, &mut want);
            assert_eq!(got, want, "words {words:x?}");
        }
        // Small n: the whole support fits, ending in the +inf terminal
        // term, so the same uniform resolves inside the table.
        let small = cat.tables[5].get_or_init(|| cat.build_table(5));
        assert_eq!(small.pmf.last(), Some(&f64::INFINITY));
        assert!(small.invert(5, u).is_some());
    }

    #[test]
    fn mode_walk_outcome_follows_the_visit_order() {
        for n in 0..=40u32 {
            for m in 0..=n {
                // The walk's loop with the PMF terms stripped out: the
                // visit order depends on (n, m) only.
                let mut seen = vec![m];
                let (mut up, mut dn) = (m, m);
                while up < n || dn > 0 {
                    if up < n {
                        up += 1;
                        seen.push(up);
                    }
                    if dn > 0 {
                        dn -= 1;
                        seen.push(dn);
                    }
                }
                for (i, &k) in seen.iter().enumerate() {
                    assert_eq!(mode_walk_outcome(n, m, i as u32), k, "n={n} m={m} i={i}");
                }
                assert_eq!(mode_walk_outcome(n, m, n + 1), m);
            }
        }
    }

    #[test]
    fn shared_tables_are_one_instance_per_distribution() {
        let a = PrecomputedMultinomial::shared(&[0.25; 4], 288);
        let b = PrecomputedMultinomial::shared(&[0.25; 4], 288);
        assert!(Arc::ptr_eq(&a, &b));
        let c = PrecomputedMultinomial::shared(&[0.5, 0.5], 288);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn default_device_tables_fit_the_memory_bound() {
        // Every table the 288-cell, four-level occupancy re-roll can ever
        // build, for every category and trial count at once: the shared
        // set's worst case stays within 256 KiB.
        let pre = PrecomputedMultinomial::new(&[0.25; 4], 288);
        for cat in &pre.categories {
            for n in 0..=288 {
                cat.tables[n as usize].get_or_init(|| cat.build_table(n));
            }
        }
        let bytes = pre.table_bytes();
        assert!(bytes <= 256 * 1024, "{bytes} B of tables");
    }

    #[test]
    fn truncated_normal_respects_band() {
        let mut rng = StdRng::seed_from_u64(46);
        for _ in 0..2000 {
            let x = sample_truncated_normal(&mut rng, 5.0, 0.2, 0.3);
            assert!((x - 5.0).abs() <= 0.3);
        }
    }

    #[test]
    fn distinct_indices_are_distinct() {
        let mut rng = StdRng::seed_from_u64(47);
        for _ in 0..100 {
            let v = sample_distinct_indices(&mut rng, 50, 20);
            let set: std::collections::HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), 20);
            assert!(v.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn lognormal_median() {
        let mut rng = StdRng::seed_from_u64(48);
        let mut vals: Vec<f64> = (0..9_999)
            .map(|_| sample_lognormal(&mut rng, (0.04f64).ln(), 0.4))
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = vals[vals.len() / 2];
        assert!((median - 0.04).abs() / 0.04 < 0.05, "median {median}");
    }

    #[test]
    fn normal_inv_matches_moments() {
        let mut rng = StdRng::seed_from_u64(49);
        let mut sum = 0.0;
        for _ in 0..20_000 {
            sum += sample_normal_inv(&mut rng, 1.5, 0.5);
        }
        assert!((sum / 20_000.0 - 1.5).abs() < 0.02);
    }
}
