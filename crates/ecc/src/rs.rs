//! Bit-exact Reed–Solomon codec over GF(2^m): systematic encoding from
//! the narrow-sense generator, syndrome → Berlekamp–Massey → Chien →
//! Forney decoding with bounded-distance rejection.
//!
//! Symbols are field elements; a `t`-symbol-correcting `(n, k)` code has
//! `n − k = 2t` parity symbols. Because correction is per *symbol*, a
//! contiguous burst of `(t−1)·m + 1` bits can never span more than `t`
//! symbols and is always corrected — the burst tolerance the bit-budget
//! BCH path cannot give.

use crate::bits::BitBuf;
use crate::code::{DecodeOutcome, LineCode};
use crate::gf::GfTable;
use crate::poly::GfPoly;

/// A (possibly shortened) Reed–Solomon code over GF(2^m).
///
/// Codeword layout is systematic with parity in the low positions:
/// symbol `i` is the coefficient of `x^i`; parity occupies `0..2t` and
/// data occupies `2t..n`. The [`LineCode`] impl maps symbol `i` onto bits
/// `i·m .. (i+1)·m` (little-endian within the symbol).
///
/// # Examples
///
/// ```
/// use pcm_ecc::RsCode;
/// let code = RsCode::new(8, 72, 64); // RS(72,64) over GF(2^8), t = 4
/// let data: Vec<u16> = (0..64).map(|i| (i * 7 + 3) % 256).collect();
/// let mut cw = code.encode_symbols(&data);
/// cw[10] ^= 0xA5;
/// cw[63] ^= 0x01;
/// assert_eq!(code.decode_symbols(&mut cw), Some(2));
/// assert_eq!(&cw[8..], &data[..]);
/// ```
#[derive(Debug, Clone)]
pub struct RsCode {
    gf: GfTable,
    t: u32,
    /// Shortened code length in symbols (data + parity).
    n: usize,
    /// Data symbols.
    k: usize,
    /// Generator polynomial `∏_{i=1}^{2t} (x − α^i)`, monic, degree 2t.
    gen: GfPoly,
}

impl RsCode {
    /// Constructs the `(n, k)` Reed–Solomon code over GF(2^m), correcting
    /// `t = (n − k)/2` symbol errors.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k`, `k + 2 ≤ n ≤ 2^m − 1`, and `n − k` is even.
    pub fn new(m: u32, n: usize, k: usize) -> Self {
        let gf = GfTable::new(m);
        assert!(k >= 1, "RS needs k >= 1, got {k}");
        assert!(n > k, "RS needs n > k, got ({n},{k})");
        assert!(
            n <= gf.order(),
            "RS length {n} exceeds field order {}",
            gf.order()
        );
        assert!(
            (n - k).is_multiple_of(2),
            "RS parity n - k must be even: ({n},{k})"
        );
        let t = ((n - k) / 2) as u32;
        assert!(t >= 1, "RS needs t >= 1, got ({n},{k})");
        let mut gen = GfPoly::one();
        for i in 1..=(2 * t as usize) {
            gen = gen.mul(&GfPoly::from_coeffs(vec![gf.alpha_pow(i), 1]), &gf);
        }
        debug_assert_eq!(gen.degree(), Some(n - k));
        Self { gf, t, n, k, gen }
    }

    /// Codeword length in symbols.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data symbols per codeword.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Guaranteed correction capability in symbol errors.
    pub fn t_symbols(&self) -> u32 {
        self.t
    }

    /// Bits per symbol (the field degree m).
    pub fn symbol_bits(&self) -> usize {
        self.gf.m() as usize
    }

    /// Systematic encode: `k` data symbols (each `< 2^m`) into an
    /// `n`-symbol codeword, parity in positions `0..2t`.
    ///
    /// # Panics
    ///
    /// Panics on a wrong-length slice or an out-of-field symbol.
    pub fn encode_symbols(&self, data: &[u16]) -> Vec<u16> {
        assert_eq!(data.len(), self.k, "payload length mismatch");
        let order = self.gf.order() as u16;
        assert!(
            data.iter().all(|&d| d <= order),
            "data symbol out of GF(2^{})",
            self.gf.m()
        );
        let parity = self.n - self.k;
        // c(x) = d(x)·x^{2t} + (d(x)·x^{2t} mod g(x)); g is monic.
        let mut rem = vec![0u16; self.n];
        rem[parity..].copy_from_slice(data);
        for i in (parity..self.n).rev() {
            let lead = rem[i];
            if lead == 0 {
                continue;
            }
            rem[i] = 0;
            for (j, &g) in self.gen.coeffs()[..parity].iter().enumerate() {
                rem[i - parity + j] ^= self.gf.mul(lead, g);
            }
        }
        let mut cw = rem;
        cw[parity..].copy_from_slice(data);
        cw
    }

    /// The 2t syndromes `S_j = r(α^{j+1})`; `None` when all are zero.
    fn syndromes(&self, recv: &[u16]) -> Option<Vec<u16>> {
        let two_t = 2 * self.t as usize;
        let mut synd = vec![0u16; two_t];
        for (j, s) in synd.iter_mut().enumerate() {
            // Horner evaluation of the received polynomial at α^{j+1}.
            let x = self.gf.alpha_pow(j + 1);
            let mut acc = 0u16;
            for &c in recv.iter().rev() {
                acc = self.gf.mul(acc, x) ^ c;
            }
            *s = acc;
        }
        if synd.iter().any(|&s| s != 0) {
            Some(synd)
        } else {
            None
        }
    }

    /// Berlekamp–Massey: error-locator σ from syndromes, `(coeffs, deg)`.
    /// σ(0) = 1 always; general (non-binary) form, same update as the BCH
    /// decoder's.
    fn berlekamp_massey(&self, synd: &[u16]) -> (Vec<u16>, usize) {
        let gf = &self.gf;
        let len = synd.len() + 1;
        let mut sigma = vec![0u16; len];
        let mut prev = vec![0u16; len];
        sigma[0] = 1;
        prev[0] = 1;
        let mut l = 0usize;
        let mut m_gap = 1usize;
        let mut b = 1u16;
        for n_iter in 0..synd.len() {
            let mut d = synd[n_iter];
            for i in 1..=l.min(n_iter) {
                d ^= gf.mul(sigma[i], synd[n_iter - i]);
            }
            if d == 0 {
                m_gap += 1;
                continue;
            }
            let scale = gf.div(d, b);
            if 2 * l <= n_iter {
                let old_sigma = sigma.clone();
                for i in 0..len - m_gap {
                    sigma[i + m_gap] ^= gf.mul(prev[i], scale);
                }
                l = n_iter + 1 - l;
                prev = old_sigma;
                b = d;
                m_gap = 1;
            } else {
                for i in 0..len - m_gap {
                    sigma[i + m_gap] ^= gf.mul(prev[i], scale);
                }
                m_gap += 1;
            }
        }
        let deg = (0..len).rev().find(|&i| sigma[i] != 0).unwrap_or(0);
        (sigma, deg)
    }

    /// Bounded-distance decode in place. Returns `Some(0)` for a clean
    /// word, `Some(e)` after correcting `e ≤ t` symbols, and `None` when
    /// the word is rejected as uncorrectable (the received symbols are
    /// left unmodified in that case).
    pub fn decode_symbols(&self, received: &mut [u16]) -> Option<u32> {
        assert_eq!(received.len(), self.n, "codeword length mismatch");
        let Some(synd) = self.syndromes(received) else {
            return Some(0);
        };
        let (sigma, deg) = self.berlekamp_massey(&synd);
        if deg == 0 || deg > self.t as usize {
            return None;
        }
        // Chien search over the *full* (unshortened) order so roots in the
        // shortened-away region are caught as uncorrectable.
        let gf = &self.gf;
        let order = gf.order();
        let mut roots = Vec::with_capacity(deg);
        for p in 0..order {
            let x = gf.alpha_pow(order - p); // α^{-p}
            let mut acc = sigma[deg];
            for c in sigma[..deg].iter().rev() {
                acc = gf.mul(acc, x) ^ c;
            }
            if acc == 0 {
                roots.push(p);
                if roots.len() > deg {
                    return None;
                }
            }
        }
        if roots.len() != deg || roots.iter().any(|&p| p >= self.n) {
            return None;
        }
        // Forney error values: Ω(x) = S(x)·σ(x) mod x^{2t};
        // Y_p = Ω(X_p^{-1}) / σ'(X_p^{-1}) with X_p = α^p (b = 1).
        let two_t = 2 * self.t as usize;
        let mut omega = vec![0u16; two_t];
        for (i, &s) in synd.iter().enumerate() {
            if s == 0 {
                continue;
            }
            for (j, &c) in sigma[..=deg].iter().enumerate() {
                if i + j < two_t {
                    omega[i + j] ^= gf.mul(s, c);
                }
            }
        }
        let mut fixes = Vec::with_capacity(deg);
        for &p in &roots {
            let x_inv = gf.alpha_pow(order - p);
            let mut om = 0u16;
            for &c in omega.iter().rev() {
                om = gf.mul(om, x_inv) ^ c;
            }
            // Formal derivative in characteristic 2: odd-degree terms only.
            let mut dsig = 0u16;
            for (i, &c) in sigma[..=deg].iter().enumerate() {
                if i % 2 == 1 {
                    dsig ^= gf.mul(c, gf.pow(x_inv, (i - 1) as u64));
                }
            }
            if dsig == 0 || om == 0 {
                return None;
            }
            fixes.push((p, gf.div(om, dsig)));
        }
        for &(p, y) in &fixes {
            received[p] ^= y;
        }
        // Bounded-distance consistency: the corrected word must be a
        // codeword. A failure here means the pattern was inconsistent —
        // revert and reject rather than hand back a corrupted word.
        if self.syndromes(received).is_some() {
            for &(p, y) in &fixes {
                received[p] ^= y;
            }
            return None;
        }
        Some(deg as u32)
    }

    /// Symbol view of a bit buffer (symbol `i` ← bits `i·m..(i+1)·m`).
    fn to_symbols(&self, bits: &BitBuf) -> Vec<u16> {
        let m = self.symbol_bits();
        (0..bits.len() / m)
            .map(|i| {
                let mut sym = 0u16;
                for j in 0..m {
                    if bits.get(i * m + j) {
                        sym |= 1 << j;
                    }
                }
                sym
            })
            .collect()
    }

    fn symbols_to_bits(&self, symbols: &[u16]) -> BitBuf {
        let m = self.symbol_bits();
        let mut bits = BitBuf::zeros(symbols.len() * m);
        for (i, &sym) in symbols.iter().enumerate() {
            for j in 0..m {
                if (sym >> j) & 1 == 1 {
                    bits.set(i * m + j, true);
                }
            }
        }
        bits
    }
}

impl LineCode for RsCode {
    fn data_bits(&self) -> usize {
        self.k * self.symbol_bits()
    }

    fn parity_bits(&self) -> usize {
        (self.n - self.k) * self.symbol_bits()
    }

    /// Guaranteed *bit*-error capability: any `t` bit errors hit at most
    /// `t` symbols, so the symbol capability carries over directly.
    fn t(&self) -> u32 {
        self.t
    }

    fn name(&self) -> String {
        format!(
            "RS-{} ({},{}) GF(2^{})",
            self.t,
            self.n,
            self.k,
            self.gf.m()
        )
    }

    fn encode(&self, data: &BitBuf) -> BitBuf {
        assert_eq!(data.len(), self.data_bits(), "payload length mismatch");
        self.symbols_to_bits(&self.encode_symbols(&self.to_symbols(data)))
    }

    fn decode(&self, received: &mut BitBuf) -> DecodeOutcome {
        assert_eq!(
            received.len(),
            self.n * self.symbol_bits(),
            "codeword length mismatch"
        );
        let mut symbols = self.to_symbols(received);
        match self.decode_symbols(&mut symbols) {
            Some(0) => DecodeOutcome::Clean,
            Some(_) => {
                let corrected = self.symbols_to_bits(&symbols);
                let mut bits = 0u32;
                for i in 0..received.len() {
                    if received.get(i) != corrected.get(i) {
                        received.flip(i);
                        bits += 1;
                    }
                }
                DecodeOutcome::Corrected { bits }
            }
            None => DecodeOutcome::Uncorrectable,
        }
    }

    fn extract_data(&self, codeword: &BitBuf) -> BitBuf {
        codeword.slice((self.n - self.k) * self.symbol_bits(), self.data_bits())
    }

    fn syndromes_clean(&self, received: &BitBuf) -> bool {
        self.syndromes(&self.to_symbols(received)).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_symbols<R: Rng>(rng: &mut R, code: &RsCode) -> Vec<u16> {
        (0..code.k())
            .map(|_| rng.gen_range(0..=code.gf.order() as u16))
            .collect()
    }

    #[test]
    fn generator_has_prescribed_roots() {
        let code = RsCode::new(8, 72, 64);
        for i in 1..=8usize {
            assert_eq!(code.gen.eval(code.gf.alpha_pow(i), &code.gf), 0, "α^{i}");
        }
        assert_ne!(code.gen.eval(code.gf.alpha_pow(9), &code.gf), 0);
    }

    #[test]
    fn clean_roundtrip() {
        let mut rng = StdRng::seed_from_u64(41);
        let code = RsCode::new(8, 72, 64);
        for _ in 0..10 {
            let data = random_symbols(&mut rng, &code);
            let mut cw = code.encode_symbols(&data);
            assert_eq!(code.decode_symbols(&mut cw), Some(0));
            assert_eq!(&cw[8..], &data[..]);
        }
    }

    #[test]
    fn corrects_up_to_t_symbol_errors() {
        let mut rng = StdRng::seed_from_u64(42);
        for (m, n, k) in [(8usize, 72usize, 64usize), (8, 80, 64), (3, 7, 3)] {
            let code = RsCode::new(m as u32, n, k);
            let t = code.t_symbols() as usize;
            for trial in 0..20 {
                let data = random_symbols(&mut rng, &code);
                let clean = code.encode_symbols(&data);
                for e in 1..=t {
                    let mut cw = clean.clone();
                    let mut hit = std::collections::HashSet::new();
                    while hit.len() < e {
                        let p = rng.gen_range(0..n);
                        if hit.insert(p) {
                            cw[p] ^= rng.gen_range(1..=code.gf.order() as u16);
                        }
                    }
                    assert_eq!(
                        code.decode_symbols(&mut cw),
                        Some(e as u32),
                        "({n},{k}) e={e} trial={trial}"
                    );
                    assert_eq!(&cw[n - k..], &data[..], "({n},{k}) e={e}");
                }
            }
        }
    }

    #[test]
    fn rejection_leaves_word_untouched() {
        let mut rng = StdRng::seed_from_u64(43);
        let code = RsCode::new(8, 72, 64);
        let data = random_symbols(&mut rng, &code);
        let clean = code.encode_symbols(&data);
        let mut corrupted = clean.clone();
        let mut hit = std::collections::HashSet::new();
        while hit.len() < 9 {
            let p = rng.gen_range(0..code.n());
            if hit.insert(p) {
                corrupted[p] ^= rng.gen_range(1..256u16);
            }
        }
        let snapshot = corrupted.clone();
        if code.decode_symbols(&mut corrupted).is_none() {
            assert_eq!(corrupted, snapshot, "rejected word was modified");
        }
    }

    #[test]
    fn bit_interface_round_trips_and_corrects_bursts() {
        let mut rng = StdRng::seed_from_u64(44);
        let code = RsCode::new(8, 72, 64);
        let mut data = BitBuf::zeros(512);
        for i in 0..512 {
            if rng.gen_bool(0.5) {
                data.set(i, true);
            }
        }
        let clean = code.encode(&data);
        assert_eq!(code.decode(&mut clean.clone()), DecodeOutcome::Clean);
        // A 25-bit contiguous burst spans at most ceil(25/8)+1 = 5 symbols
        // only when misaligned past (t-1)*8+1 = 25; at 25 bits it spans at
        // most 4 = t symbols and must always be corrected.
        for start in 0..(clean.len() - 25) {
            let mut cw = clean.clone();
            for i in start..start + 25 {
                cw.flip(i);
            }
            match code.decode(&mut cw) {
                DecodeOutcome::Corrected { bits: 25 } => {}
                other => panic!("25-bit burst at {start}: {other:?}"),
            }
            assert_eq!(code.extract_data(&cw), data);
        }
    }

    #[test]
    fn shortened_region_errors_rejected() {
        // A code shortened far below the field order: locator roots that
        // point past n must be rejected, not applied.
        let code = RsCode::new(8, 20, 16);
        let mut rng = StdRng::seed_from_u64(45);
        for _ in 0..200 {
            let data = random_symbols(&mut rng, &code);
            let mut cw = code.encode_symbols(&data);
            for _ in 0..5 {
                cw[rng.gen_range(0..20)] ^= rng.gen_range(1..256u16);
            }
            if let Some(e) = code.decode_symbols(&mut cw) {
                assert!(e <= 2, "claimed {e} > t corrections");
                assert!(code.syndromes(&cw).is_none());
            }
        }
    }

    #[test]
    #[should_panic(expected = "n - k must be even")]
    fn odd_parity_rejected() {
        RsCode::new(8, 71, 64);
    }

    #[test]
    #[should_panic(expected = "exceeds field order")]
    fn oversized_length_rejected() {
        RsCode::new(3, 8, 4);
    }
}
