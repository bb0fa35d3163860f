//! Code-level abstractions: the bit-exact [`LineCode`] trait and the
//! statistical [`CodeSpec`] used by the memory simulator's fault engine.
//!
//! The simulator tracks error *counts* per line, not bit positions, so its
//! hot path uses [`CodeSpec::classify`] — count-level semantics that are
//! validated against the bit-exact codecs by cross-tests.

use rand::Rng;

use crate::bits::BitBuf;

/// Result of decoding one memory line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// Syndromes were zero: nothing to do.
    Clean,
    /// Errors found and corrected in place.
    Corrected {
        /// Number of bit errors corrected.
        bits: u32,
    },
    /// Errors detected but beyond the correction capability.
    Uncorrectable,
}

/// A bit-exact error-correcting code over a memory line.
pub trait LineCode {
    /// Payload size in bits.
    fn data_bits(&self) -> usize;
    /// Check/parity size in bits.
    fn parity_bits(&self) -> usize;
    /// Guaranteed correction capability (bit errors per line for
    /// line-granularity codes; see the concrete type for interleaved
    /// semantics).
    fn t(&self) -> u32;
    /// Human-readable code name, e.g. `"BCH-4 (552,512)"`.
    fn name(&self) -> String;
    /// Encodes `data` (length [`LineCode::data_bits`]) into a codeword of
    /// length `data_bits + parity_bits`.
    fn encode(&self, data: &BitBuf) -> BitBuf;
    /// Decodes a received codeword in place, correcting what it can.
    fn decode(&self, received: &mut BitBuf) -> DecodeOutcome;
    /// Extracts the payload from a (corrected) codeword.
    fn extract_data(&self, codeword: &BitBuf) -> BitBuf;
    /// Lightweight detection: recomputes syndromes without attempting
    /// correction. `true` means the word is (apparently) clean.
    fn syndromes_clean(&self, received: &BitBuf) -> bool;
}

/// Count-level outcome of error classification on one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifyOutcome {
    /// No errors present.
    Clean,
    /// All errors correctable.
    Corrected {
        /// Number of bit errors corrected.
        bits: u32,
    },
    /// Errors detected but not correctable (a *detected* uncorrectable
    /// error, DUE).
    DetectedUncorrectable,
    /// Decoder silently produced wrong data (silent data corruption, SDC).
    Miscorrected,
}

impl ClassifyOutcome {
    /// Whether the line's data survives intact after decode.
    pub fn data_intact(self) -> bool {
        matches!(
            self,
            ClassifyOutcome::Clean | ClassifyOutcome::Corrected { .. }
        )
    }

    /// Whether this counts as an uncorrectable error (DUE or SDC).
    pub fn is_uncorrectable(self) -> bool {
        !self.data_intact()
    }
}

/// How a code's correction capability applies across a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrectionSemantics {
    /// One code over the whole line correcting up to `t` bit errors
    /// (BCH-style).
    PerLine {
        /// Correction capability in bit errors per line.
        t: u32,
    },
    /// The line is split into `words` interleaved SECDED words; each word
    /// corrects 1 and detects 2 (DRAM-heritage (72,64) layout).
    PerWord {
        /// Number of independently-coded words in the line.
        words: u32,
        /// Total coded bits per word (data + parity).
        word_bits: u32,
    },
    /// One symbol code (Reed–Solomon-style) over the whole line: `symbols`
    /// symbols of `symbol_bits` bits each, correcting up to `t` *symbol*
    /// errors however many bits each holds — the burst/MLC-correlated
    /// tolerance bit-budget codes lack.
    PerSymbol {
        /// Codeword length in symbols (n).
        symbols: u32,
        /// Correction capability in symbol errors, `t = (n − k)/2`.
        t: u32,
        /// Bits per symbol (the field degree m).
        symbol_bits: u32,
    },
}

/// Statistical description of a line code: sizes plus count-level decode
/// semantics. This is what the memory simulator carries around.
///
/// # Examples
///
/// ```
/// use pcm_ecc::CodeSpec;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let bch4 = CodeSpec::bch_line(4);
/// assert!(bch4.classify(4, &mut rng).data_intact());
/// assert!(bch4.classify(5, &mut rng).is_uncorrectable());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CodeSpec {
    name: String,
    data_bits: u32,
    parity_bits: u32,
    semantics: CorrectionSemantics,
    alias_prob: f64,
}

/// Data payload per memory line used throughout the evaluation (64 B).
pub const LINE_DATA_BITS: u32 = 512;

impl CodeSpec {
    /// DRAM-heritage SECDED: eight interleaved (72,64) extended-Hamming
    /// words per 64-byte line. 12.5% storage overhead.
    pub fn secded_line() -> Self {
        let words = LINE_DATA_BITS / 64;
        Self {
            name: "SECDED 8x(72,64)".to_string(),
            data_bits: LINE_DATA_BITS,
            parity_bits: words * 8,
            semantics: CorrectionSemantics::PerWord {
                words,
                word_bits: 72,
            },
            // Fraction of the 2^8 syndrome space covered by correctable
            // single-bit patterns: governs 3+ error miscorrection odds.
            alias_prob: 73.0 / 256.0,
        }
    }

    /// BCH-t over the whole 512-bit line, built on GF(2^10)
    /// (shortened from (1023, 1023−10t)); `10·t` parity bits.
    ///
    /// # Panics
    ///
    /// Panics if `t` is 0 or greater than 16.
    pub fn bch_line(t: u32) -> Self {
        assert!((1..=16).contains(&t), "BCH t must be in 1..=16, got {t}");
        let parity_bits = 10 * t;
        let n = LINE_DATA_BITS + parity_bits;
        Self {
            name: format!("BCH-{t} ({n},{LINE_DATA_BITS})"),
            data_bits: LINE_DATA_BITS,
            parity_bits,
            semantics: CorrectionSemantics::PerLine { t },
            alias_prob: bounded_distance_alias_prob(n, t, parity_bits),
        }
    }

    /// Reed–Solomon `(n, k)` over GF(2^8) symbols covering the whole
    /// 512-bit line: `k` must be 64 (eight-bit symbols carrying the 64-byte
    /// payload), `n − k` even, and `n ≤ 255`. Corrects `t = (n − k)/2`
    /// symbol errors; `8·(n − k)` parity bits.
    ///
    /// # Panics
    ///
    /// Panics if `(n, k)` violates any of the above.
    pub fn rs_line(n: u32, k: u32) -> Self {
        const SYMBOL_BITS: u32 = 8;
        assert!(k >= 1 && n > k, "RS needs 1 <= k < n, got ({n},{k})");
        assert!(n <= 255, "RS over GF(2^8) needs n <= 255, got {n}");
        assert!(
            (n - k).is_multiple_of(2),
            "RS parity n - k must be even: ({n},{k})"
        );
        assert_eq!(
            k * SYMBOL_BITS,
            LINE_DATA_BITS,
            "RS data symbols must cover the {LINE_DATA_BITS}-bit line (k = 64)"
        );
        let t = (n - k) / 2;
        let parity_bits = (n - k) * SYMBOL_BITS;
        Self {
            name: format!("RS-{t} ({n},{k}) GF(2^8)"),
            data_bits: LINE_DATA_BITS,
            parity_bits,
            semantics: CorrectionSemantics::PerSymbol {
                symbols: n,
                t,
                symbol_bits: SYMBOL_BITS,
            },
            alias_prob: symbol_alias_prob(n, t, SYMBOL_BITS),
        }
    }

    /// Code name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Payload bits per line.
    pub fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Parity bits per line.
    pub fn parity_bits(&self) -> u32 {
        self.parity_bits
    }

    /// Total stored bits per line.
    pub fn total_bits(&self) -> u32 {
        self.data_bits + self.parity_bits
    }

    /// Storage overhead `parity/data`.
    pub fn storage_overhead(&self) -> f64 {
        self.parity_bits as f64 / self.data_bits as f64
    }

    /// Guaranteed per-line correction capability: the largest `e` such that
    /// *any* pattern of `e` bit errors is corrected.
    pub fn guaranteed_t(&self) -> u32 {
        match self.semantics {
            CorrectionSemantics::PerLine { t } => t,
            // Two errors in the same word defeat SECDED, so only a single
            // error is guaranteed line-wide.
            CorrectionSemantics::PerWord { .. } => 1,
            // Any t bit errors occupy at most t symbols.
            CorrectionSemantics::PerSymbol { t, .. } => t,
        }
    }

    /// The semantics enum (for callers that want to branch on structure).
    pub fn semantics(&self) -> CorrectionSemantics {
        self.semantics
    }

    /// Probability that an uncorrectable pattern aliases into a
    /// miscorrection rather than a detected failure.
    pub fn alias_prob(&self) -> f64 {
        self.alias_prob
    }

    /// Classifies `errors` random bit errors on the line.
    ///
    /// Randomness covers (a) the placement of errors into interleaved words
    /// and (b) bounded-distance miscorrection aliasing.
    pub fn classify<R: Rng + ?Sized>(&self, errors: u32, rng: &mut R) -> ClassifyOutcome {
        if errors == 0 {
            return ClassifyOutcome::Clean;
        }
        match self.semantics {
            CorrectionSemantics::PerLine { t } => {
                if errors <= t {
                    ClassifyOutcome::Corrected { bits: errors }
                } else if rng.gen::<f64>() < self.alias_prob {
                    ClassifyOutcome::Miscorrected
                } else {
                    ClassifyOutcome::DetectedUncorrectable
                }
            }
            CorrectionSemantics::PerWord { words, word_bits } => {
                let counts = spread_errors(errors, words, word_bits, rng);
                let mut detected = false;
                let mut corrected_bits = 0;
                for &c in &counts {
                    match c {
                        0 => {}
                        1 => corrected_bits += 1,
                        2 => detected = true,
                        n if n % 2 == 1 => {
                            // Odd >= 3: overall parity looks like a single
                            // error; the word usually miscorrects.
                            if rng.gen::<f64>() < self.alias_prob {
                                return ClassifyOutcome::Miscorrected;
                            }
                            detected = true;
                            let _ = n;
                        }
                        _ => detected = true, // even >= 4: parity flags it
                    }
                }
                if detected {
                    ClassifyOutcome::DetectedUncorrectable
                } else {
                    ClassifyOutcome::Corrected {
                        bits: corrected_bits,
                    }
                }
            }
            CorrectionSemantics::PerSymbol {
                symbols,
                t,
                symbol_bits,
            } => {
                let counts = spread_errors(errors, symbols, symbol_bits, rng);
                let occupied = counts.iter().filter(|&&c| c > 0).count() as u32;
                self.judge_symbols(occupied, t, errors, rng)
            }
        }
    }

    /// Classifies a line carrying `random` independently-placed bit errors
    /// plus one contiguous `burst`-bit span (a correlated multi-bit upset).
    ///
    /// For bit-budget codes (per-line BCH, per-word SECDED) the burst is
    /// indistinguishable from random errors at count level, so this is
    /// *exactly* [`CodeSpec::classify`]`(random + burst)` — same outcome,
    /// same RNG draws. Symbol codes see the burst as a contiguous span:
    /// `burst` adjacent bits occupy only `ceil((phase + burst)/s)` symbols
    /// (phase drawn uniformly), which is where Reed–Solomon's burst
    /// tolerance comes from.
    pub fn classify_split<R: Rng + ?Sized>(
        &self,
        random: u32,
        burst: u32,
        rng: &mut R,
    ) -> ClassifyOutcome {
        match self.semantics {
            CorrectionSemantics::PerSymbol {
                symbols,
                t,
                symbol_bits,
            } if burst > 0 => {
                let total_bits = symbols * symbol_bits;
                let b = burst.min(total_bits);
                // Burst alignment within its first symbol.
                let phase = rng.gen_range(0..symbol_bits);
                let mut occupied = (phase + b).div_ceil(symbol_bits).min(symbols);
                // Spread the random errors over the remaining positions,
                // tracking only whether each lands in a fresh symbol —
                // P(fresh) = free-positions-in-untouched-symbols / free.
                let extra = random.min(total_bits - b);
                for chosen in b..b + extra {
                    let free = total_bits - chosen;
                    let free_new = (symbols - occupied) * symbol_bits;
                    if free_new > 0 && rng.gen_range(0..free) < free_new {
                        occupied += 1;
                    }
                }
                self.judge_symbols(occupied, t, random + burst, rng)
            }
            _ => self.classify(random + burst, rng),
        }
    }

    /// Shared symbol-code verdict: `occupied ≤ t` corrects everything,
    /// beyond that the bounded-distance decoder aliases at `alias_prob`.
    fn judge_symbols<R: Rng + ?Sized>(
        &self,
        occupied: u32,
        t: u32,
        bits: u32,
        rng: &mut R,
    ) -> ClassifyOutcome {
        if occupied <= t {
            ClassifyOutcome::Corrected { bits }
        } else if rng.gen::<f64>() < self.alias_prob {
            ClassifyOutcome::Miscorrected
        } else {
            ClassifyOutcome::DetectedUncorrectable
        }
    }

    /// Whether a lightweight (syndrome-only) probe detects `errors` bit
    /// errors. Misses only when the pattern is itself a codeword —
    /// negligible for the sizes here, so detection is modelled as perfect
    /// for nonzero counts.
    pub fn detects(&self, errors: u32) -> bool {
        errors > 0
    }

    /// Exact probability that [`CodeSpec::classify`] returns an
    /// uncorrectable outcome (DUE or miscorrection) given `errors` random
    /// bit errors on the line — the closed-form marginal of the
    /// classification's placement randomness.
    ///
    /// Per-line codes fail deterministically above `t`. Per-word codes
    /// fail exactly when some word receives ≥ 2 of the `errors` positions
    /// (all the alias branches still end in a UE outcome), so survival is
    /// the all-distinct-words probability under sampling without
    /// replacement: `C(words, e)·word_bits^e / C(words·word_bits, e)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcm_ecc::CodeSpec;
    /// let bch4 = CodeSpec::bch_line(4);
    /// assert_eq!(bch4.p_uncorrectable_given_errors(4), 0.0);
    /// assert_eq!(bch4.p_uncorrectable_given_errors(5), 1.0);
    /// let secded = CodeSpec::secded_line();
    /// assert_eq!(secded.p_uncorrectable_given_errors(1), 0.0);
    /// let two = secded.p_uncorrectable_given_errors(2);
    /// assert!((two - 71.0 / 575.0).abs() < 1e-12);
    /// ```
    pub fn p_uncorrectable_given_errors(&self, errors: u32) -> f64 {
        if errors == 0 {
            return 0.0;
        }
        match self.semantics {
            CorrectionSemantics::PerLine { t } => {
                if errors <= t {
                    0.0
                } else {
                    1.0
                }
            }
            CorrectionSemantics::PerWord { words, word_bits } => {
                if errors == 1 {
                    return 0.0;
                }
                if errors > words {
                    return 1.0;
                }
                let total = words * word_bits;
                let survive = (ln_choose(words, errors) + errors as f64 * (word_bits as f64).ln()
                    - ln_choose(total, errors))
                .exp();
                (1.0 - survive).clamp(0.0, 1.0)
            }
            CorrectionSemantics::PerSymbol {
                symbols,
                t,
                symbol_bits,
            } => {
                if errors <= t {
                    return 0.0;
                }
                if errors > t * symbol_bits {
                    // Pigeonhole: e bits occupy at least ceil(e/s) > t
                    // symbols.
                    return 1.0;
                }
                let pmf = symbol_occupancy_pmf(symbols, symbol_bits, errors);
                let survive: f64 = pmf[..=(t as usize).min(pmf.len() - 1)].iter().sum();
                (1.0 - survive).clamp(0.0, 1.0)
            }
        }
    }
}

/// Standard code ladder used by the experiments: SECDED then BCH-1..BCH-6.
pub fn standard_code_ladder() -> Vec<CodeSpec> {
    let mut v = vec![CodeSpec::secded_line()];
    v.extend((1..=6).map(CodeSpec::bch_line));
    v
}

/// Distributes `errors` distinct bit positions over `words` words of
/// `word_bits` bits each (sampling without replacement), returning the
/// per-word counts.
fn spread_errors<R: Rng + ?Sized>(
    errors: u32,
    words: u32,
    word_bits: u32,
    rng: &mut R,
) -> Vec<u32> {
    let total = (words * word_bits) as usize;
    let e = (errors as usize).min(total);
    let mut counts = vec![0u32; words as usize];
    let mut chosen = std::collections::HashSet::with_capacity(e);
    while chosen.len() < e {
        let pos = rng.gen_range(0..total);
        if chosen.insert(pos) {
            counts[pos / word_bits as usize] += 1;
        }
    }
    counts
}

/// Exact distribution of the number of *occupied symbols* when `errors`
/// distinct bit positions are drawn uniformly without replacement from
/// `symbols × symbol_bits` positions: `pmf[m] = P(M = m)`.
///
/// Computed by the exact Markov recurrence over draws — with `i` positions
/// placed occupying `m` symbols, the next draw opens a fresh symbol with
/// probability `(symbols − m)·symbol_bits / (symbols·symbol_bits − i)` —
/// which is precisely the sampling process [`CodeSpec::classify`] uses, so
/// the closed form and the Monte-Carlo agree by construction.
pub fn symbol_occupancy_pmf(symbols: u32, symbol_bits: u32, errors: u32) -> Vec<f64> {
    let n = symbols as usize;
    let s = symbol_bits as usize;
    let total = n * s;
    let e = (errors as usize).min(total);
    let mut pmf = vec![0.0f64; n + 1];
    pmf[0] = 1.0;
    for i in 0..e {
        let mut next = vec![0.0f64; n + 1];
        let free = (total - i) as f64;
        for (m, &p) in pmf.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let free_new = ((n - m) * s) as f64;
            // `i ≤ m·s` whenever P(M = m) > 0, so this never underflows.
            let free_old = (m * s - i) as f64;
            if m < n {
                next[m + 1] += p * free_new / free;
            }
            next[m] += p * free_old / free;
        }
        pmf = next;
    }
    pmf
}

/// Bounded-distance miscorrection odds for a symbol code: the fraction of
/// the `2^{s·(n−k)}` syndrome space covered by correctable patterns,
/// `Σ_{i<=t} C(n,i)·(2^s − 1)^i / 2^{s·2t}`.
fn symbol_alias_prob(n: u32, t: u32, symbol_bits: u32) -> f64 {
    let ln_nonzero = ((1u64 << symbol_bits) - 1) as f64;
    let ln_nonzero = ln_nonzero.ln();
    let mut covered = 0.0f64;
    for i in 0..=t {
        covered += (ln_choose(n, i) + i as f64 * ln_nonzero).exp();
    }
    let parity_bits = 2 * t * symbol_bits;
    (covered * (-(parity_bits as f64) * std::f64::consts::LN_2).exp()).min(1.0)
}

/// Estimates the probability that a beyond-capability error pattern lands
/// in some correctable coset (bounded-distance miscorrection):
/// `Σ_{i<=t} C(n,i) / 2^parity`.
fn bounded_distance_alias_prob(n: u32, t: u32, parity_bits: u32) -> f64 {
    let mut covered = 0.0f64;
    for i in 0..=t {
        covered += ln_choose(n, i).exp();
    }
    (covered * (-(parity_bits as f64) * std::f64::consts::LN_2).exp()).min(1.0)
}

fn ln_choose(n: u32, k: u32) -> f64 {
    let mut s = 0.0;
    for i in 0..k {
        s += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn secded_sizes() {
        let s = CodeSpec::secded_line();
        assert_eq!(s.data_bits(), 512);
        assert_eq!(s.parity_bits(), 64);
        assert_eq!(s.total_bits(), 576);
        assert!((s.storage_overhead() - 0.125).abs() < 1e-12);
        assert_eq!(s.guaranteed_t(), 1);
    }

    #[test]
    fn bch_sizes_scale_with_t() {
        for t in 1..=6 {
            let c = CodeSpec::bch_line(t);
            assert_eq!(c.parity_bits(), 10 * t);
            assert_eq!(c.guaranteed_t(), t);
        }
    }

    #[test]
    fn classify_zero_is_clean() {
        let mut rng = StdRng::seed_from_u64(1);
        for c in standard_code_ladder() {
            assert_eq!(c.classify(0, &mut rng), ClassifyOutcome::Clean);
        }
    }

    #[test]
    fn bch_classify_boundary() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = CodeSpec::bch_line(3);
        for e in 1..=3 {
            assert_eq!(
                c.classify(e, &mut rng),
                ClassifyOutcome::Corrected { bits: e }
            );
        }
        for _ in 0..50 {
            assert!(c.classify(4, &mut rng).is_uncorrectable());
        }
    }

    #[test]
    fn bch_alias_prob_is_tiny() {
        // 100 parity bits vs ~2^71 patterns of weight <=10: ~1.6e-9.
        let c = CodeSpec::bch_line(10);
        assert!(c.alias_prob() < 1e-6, "alias {}", c.alias_prob());
        // Weaker codes alias much more readily (BCH-2: ~0.14), and the
        // alias probability falls monotonically with code strength.
        let ladder: Vec<f64> = (1..=8)
            .map(|t| CodeSpec::bch_line(t).alias_prob())
            .collect();
        assert!(
            ladder[1] > 0.05 && ladder[1] < 0.5,
            "BCH-2 alias {}",
            ladder[1]
        );
        for w in ladder.windows(2) {
            assert!(w[1] < w[0], "alias prob not decreasing: {ladder:?}");
        }
    }

    #[test]
    fn secded_single_errors_always_corrected() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = CodeSpec::secded_line();
        for _ in 0..200 {
            assert_eq!(
                c.classify(1, &mut rng),
                ClassifyOutcome::Corrected { bits: 1 }
            );
        }
    }

    #[test]
    fn secded_two_errors_mostly_survive_spread() {
        // Two errors usually land in different words (7/8 of the time
        // roughly) and are each corrected; same-word doubles are detected.
        let mut rng = StdRng::seed_from_u64(4);
        let c = CodeSpec::secded_line();
        let mut corrected = 0;
        let mut detected = 0;
        for _ in 0..4000 {
            match c.classify(2, &mut rng) {
                ClassifyOutcome::Corrected { .. } => corrected += 1,
                ClassifyOutcome::DetectedUncorrectable => detected += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        let frac_detected = detected as f64 / 4000.0;
        // Same-word probability = 71/575 ≈ 0.1235.
        assert!(
            (frac_detected - 71.0 / 575.0).abs() < 0.03,
            "detected fraction {frac_detected}"
        );
        assert!(corrected > 0);
    }

    #[test]
    fn secded_many_errors_fail() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = CodeSpec::secded_line();
        let mut failures = 0;
        for _ in 0..500 {
            if c.classify(8, &mut rng).is_uncorrectable() {
                failures += 1;
            }
        }
        // With 8 errors over 8 words a same-word pair is very likely.
        assert!(failures > 450, "only {failures}/500 uncorrectable");
    }

    #[test]
    fn ladder_is_ordered_by_strength() {
        let ladder = standard_code_ladder();
        assert_eq!(ladder.len(), 7);
        for w in ladder.windows(2) {
            assert!(w[0].guaranteed_t() <= w[1].guaranteed_t());
        }
    }

    #[test]
    fn spread_conserves_errors() {
        let mut rng = StdRng::seed_from_u64(6);
        for e in [1u32, 3, 8, 20] {
            let counts = spread_errors(e, 8, 72, &mut rng);
            assert_eq!(counts.iter().sum::<u32>(), e);
        }
    }

    /// The closed-form UE marginal must match the Monte-Carlo frequency of
    /// `classify` itself — this is the bridge the oracle crate stands on.
    #[test]
    fn ue_marginal_matches_classify_frequency() {
        let mut rng = StdRng::seed_from_u64(7);
        let secded = CodeSpec::secded_line();
        for e in [2u32, 3, 5, 8] {
            let p = secded.p_uncorrectable_given_errors(e);
            let trials = 6000;
            let mut ue = 0;
            for _ in 0..trials {
                if secded.classify(e, &mut rng).is_uncorrectable() {
                    ue += 1;
                }
            }
            let freq = ue as f64 / trials as f64;
            let sd = (p * (1.0 - p) / trials as f64).sqrt();
            assert!(
                (freq - p).abs() < 5.0 * sd + 1e-9,
                "e={e}: classify freq {freq} vs marginal {p}"
            );
        }
        // Degenerate and per-line cases.
        assert_eq!(secded.p_uncorrectable_given_errors(0), 0.0);
        assert_eq!(secded.p_uncorrectable_given_errors(9), 1.0);
        let bch2 = CodeSpec::bch_line(2);
        assert_eq!(bch2.p_uncorrectable_given_errors(2), 0.0);
        assert_eq!(bch2.p_uncorrectable_given_errors(3), 1.0);
    }

    #[test]
    fn ue_marginal_monotone_in_errors() {
        let secded = CodeSpec::secded_line();
        let mut prev = 0.0;
        for e in 0..=10 {
            let p = secded.p_uncorrectable_given_errors(e);
            assert!((0.0..=1.0).contains(&p));
            assert!(p + 1e-12 >= prev, "UE marginal dipped at e={e}");
            prev = p;
        }
    }

    #[test]
    fn rs_sizes_and_capability() {
        let c = CodeSpec::rs_line(72, 64);
        assert_eq!(c.data_bits(), 512);
        assert_eq!(c.parity_bits(), 64);
        assert_eq!(c.total_bits(), 576);
        assert_eq!(c.guaranteed_t(), 4);
        assert!(c.name().starts_with("RS-4"));
        let wide = CodeSpec::rs_line(80, 64);
        assert_eq!(wide.guaranteed_t(), 8);
        assert!(wide.alias_prob() < c.alias_prob());
    }

    #[test]
    #[should_panic(expected = "1 <= k < n")]
    fn rs_rejects_k_ge_n() {
        CodeSpec::rs_line(64, 64);
    }

    #[test]
    fn rs_classify_boundary() {
        let mut rng = StdRng::seed_from_u64(8);
        let c = CodeSpec::rs_line(72, 64);
        for e in 1..=4 {
            assert_eq!(
                c.classify(e, &mut rng),
                ClassifyOutcome::Corrected { bits: e }
            );
        }
        // 5..=32 random bits may or may not hit > 4 symbols; far beyond
        // t·s = 32 they always do.
        for _ in 0..50 {
            assert!(c.classify(33, &mut rng).is_uncorrectable());
        }
    }

    #[test]
    fn rs_ue_marginal_matches_classify_frequency() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = CodeSpec::rs_line(72, 64);
        for e in [5u32, 8, 12, 20] {
            let p = c.p_uncorrectable_given_errors(e);
            let trials = 6000;
            let mut ue = 0;
            for _ in 0..trials {
                if c.classify(e, &mut rng).is_uncorrectable() {
                    ue += 1;
                }
            }
            let freq = ue as f64 / trials as f64;
            let sd = (p * (1.0 - p) / trials as f64).sqrt();
            assert!(
                (freq - p).abs() < 5.0 * sd + 2e-3,
                "e={e}: classify freq {freq} vs marginal {p}"
            );
        }
        assert_eq!(c.p_uncorrectable_given_errors(4), 0.0);
        assert_eq!(c.p_uncorrectable_given_errors(33), 1.0);
    }

    #[test]
    fn rs_ue_marginal_monotone_in_errors() {
        let c = CodeSpec::rs_line(72, 64);
        let mut prev = 0.0;
        for e in 0..=40 {
            let p = c.p_uncorrectable_given_errors(e);
            assert!((0.0..=1.0).contains(&p));
            assert!(p + 1e-12 >= prev, "UE marginal dipped at e={e}");
            prev = p;
        }
    }

    #[test]
    fn symbol_occupancy_pmf_is_a_distribution() {
        for e in [0u32, 1, 5, 16, 40] {
            let pmf = symbol_occupancy_pmf(72, 8, e);
            let total: f64 = pmf.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "e={e}: sums to {total}");
            // Support is exactly ceil(e/s) ..= min(e, n).
            for (m, &p) in pmf.iter().enumerate() {
                let lo = (e as usize).div_ceil(8);
                let hi = (e as usize).min(72);
                if m < lo || m > hi {
                    assert_eq!(p, 0.0, "e={e} m={m}");
                }
            }
        }
    }

    #[test]
    fn classify_split_is_identical_for_bit_codes() {
        // The burst-aware entry point must be *draw-for-draw* identical to
        // plain classify for non-symbol codes — the determinism goldens
        // depend on it.
        for code in [CodeSpec::secded_line(), CodeSpec::bch_line(6)] {
            let mut a = StdRng::seed_from_u64(10);
            let mut b = StdRng::seed_from_u64(10);
            for (random, burst) in [(0u32, 5u32), (3, 0), (2, 7), (9, 1)] {
                assert_eq!(
                    code.classify(random + burst, &mut a),
                    code.classify_split(random, burst, &mut b)
                );
            }
            // RNG streams stayed in lockstep.
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn rs_burst_beats_bch_at_count_level() {
        let mut rng = StdRng::seed_from_u64(11);
        let rs = CodeSpec::rs_line(72, 64);
        let bch = CodeSpec::bch_line(6);
        // A 25-bit contiguous burst: ≤ ceil((7+25)/8) = 4 = t symbols
        // whatever the alignment, so RS always corrects; BCH-6 sees 25 > 6
        // bit errors and always fails.
        for _ in 0..200 {
            assert_eq!(
                rs.classify_split(0, 25, &mut rng),
                ClassifyOutcome::Corrected { bits: 25 }
            );
            assert!(bch.classify_split(0, 25, &mut rng).is_uncorrectable());
        }
        // Burst plus scattered drift: still corrected while the scattered
        // part stays within the leftover symbol budget rarely — just check
        // the verdict is never Clean and bits accounting holds.
        for _ in 0..200 {
            match rs.classify_split(2, 10, &mut rng) {
                ClassifyOutcome::Corrected { bits } => assert_eq!(bits, 12),
                other => assert!(other.is_uncorrectable()),
            }
        }
    }

    #[test]
    fn outcome_predicates() {
        assert!(ClassifyOutcome::Clean.data_intact());
        assert!(ClassifyOutcome::Corrected { bits: 2 }.data_intact());
        assert!(ClassifyOutcome::DetectedUncorrectable.is_uncorrectable());
        assert!(ClassifyOutcome::Miscorrected.is_uncorrectable());
    }
}
