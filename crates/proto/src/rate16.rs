//! `Rate16`: the 2-byte rate encoding carried by rate updates.
//!
//! Layout: 5-bit exponent `e` (biased by 16), 11-bit mantissa `m`;
//! value = `(1 + m/2048) · 2^(e−16)` Gbit/s, with 0 encoded as all-zero.
//! Covers ~15 µbit/s … ~64 Tbit/s with ≤ 2⁻¹² ≈ 0.024% relative error —
//! two orders of magnitude below the 1% update threshold, so quantization
//! is never the accuracy bottleneck.

/// A rate quantized to 16 bits (unit: Gbit/s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rate16(u16);

const MANTISSA_BITS: u32 = 11;
const MANTISSA_DIV: f64 = (1u32 << MANTISSA_BITS) as f64;
const BIAS: i32 = 16;
/// Smallest encodable non-zero rate, 2⁻¹⁶ Gbit/s; anything below flushes
/// to 0.
const MIN_GBPS: f64 = 1.0 / 65536.0;
/// IEEE-754 binary64 fraction width and exponent bias.
const F64_FRACTION_BITS: u32 = 52;
const F64_EXP_BIAS: i32 = 1023;
/// Fraction bits dropped when rounding to the 11-bit mantissa.
const DROPPED_BITS: u32 = F64_FRACTION_BITS - MANTISSA_BITS;

impl Rate16 {
    /// Encodes a non-negative rate in Gbit/s, rounding to the nearest
    /// representable value (ties up) and saturating at the format's
    /// limits: below 2⁻¹⁶ encodes as 0, from just under 2¹⁵ up as the
    /// largest code.
    ///
    /// Exponent and mantissa are read straight off the IEEE-754 bits —
    /// no `log2`/`powi` — since this runs once per sent update.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    pub fn encode(gbps: f64) -> Self {
        assert!(gbps >= 0.0 && gbps.is_finite(), "rate must be ≥ 0, finite");
        if gbps < MIN_GBPS {
            return Rate16(0);
        }
        // Finite and ≥ 2⁻¹⁶, so a normal double: 1.fraction · 2^e.
        let bits = gbps.to_bits();
        let e = (bits >> F64_FRACTION_BITS) as i32 - F64_EXP_BIAS;
        let fraction = bits & ((1 << F64_FRACTION_BITS) - 1);
        let m = (fraction + (1 << (DROPPED_BITS - 1))) >> DROPPED_BITS;
        // Rounding can carry into the next exponent.
        let (e, m) = if m == 1 << MANTISSA_BITS {
            (e + 1, 0)
        } else {
            (e, m)
        };
        if e + BIAS > 30 {
            // Saturate at max.
            return Rate16(((30u16) << MANTISSA_BITS) | ((1 << MANTISSA_BITS) - 1));
        }
        Rate16((((e + BIAS) as u16) << MANTISSA_BITS) | m as u16)
    }

    /// Decodes back to Gbit/s.
    pub fn decode(self) -> f64 {
        if self.0 == 0 {
            return 0.0;
        }
        let e = (self.0 >> MANTISSA_BITS) as i32 - BIAS;
        let m = (self.0 & ((1 << MANTISSA_BITS) - 1)) as f64;
        (1.0 + m / MANTISSA_DIV) * 2f64.powi(e)
    }

    /// Raw wire representation.
    pub fn bits(self) -> u16 {
        self.0
    }

    /// From raw wire representation.
    pub fn from_bits(bits: u16) -> Self {
        Rate16(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_roundtrips() {
        assert_eq!(Rate16::encode(0.0).decode(), 0.0);
    }

    #[test]
    fn relative_error_is_small() {
        for &gbps in &[0.001, 0.01, 0.1, 1.0, 9.37, 10.0, 40.0, 100.0, 1234.5] {
            let got = Rate16::encode(gbps).decode();
            let rel = (got - gbps).abs() / gbps;
            assert!(rel < 2.5e-4, "{gbps} → {got} ({rel})");
        }
    }

    #[test]
    fn wire_bits_roundtrip() {
        let r = Rate16::encode(7.25);
        assert_eq!(Rate16::from_bits(r.bits()), r);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let max = Rate16::encode(1e12);
        assert!(max.decode() > 1e4, "saturated high: {}", max.decode());
        let tiny = Rate16::encode(1e-12);
        assert_eq!(tiny.decode(), 0.0, "underflow flushes to zero");
    }

    #[test]
    fn rounding_carry_into_next_exponent() {
        // A value a hair below a power of two must round up cleanly.
        let v = 2.0 - 1e-9;
        let got = Rate16::encode(v).decode();
        assert!((got - 2.0).abs() < 1e-9, "{got}");
    }

    #[test]
    fn monotone_on_samples() {
        let mut prev = -1.0;
        for i in 1..1000 {
            let v = i as f64 * 0.123;
            let d = Rate16::encode(v).decode();
            assert!(d >= prev, "non-monotone at {v}");
            prev = d;
        }
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn negative_rejected() {
        let _ = Rate16::encode(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Rate16::encode(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinity_rejected() {
        let _ = Rate16::encode(f64::INFINITY);
    }

    /// The original `log2`/`powi` encoder, kept as the oracle the
    /// bit-level encoder must match exactly.
    fn reference_encode(gbps: f64) -> Rate16 {
        assert!(gbps >= 0.0 && gbps.is_finite(), "rate must be ≥ 0, finite");
        if gbps == 0.0 {
            return Rate16(0);
        }
        let e = gbps.log2().floor() as i32;
        let e_clamped = e.clamp(-BIAS, 31 - BIAS - 1);
        let frac = gbps / 2f64.powi(e_clamped) - 1.0;
        let m = (frac * MANTISSA_DIV).round();
        let (e_final, m_final) = if m >= MANTISSA_DIV {
            (e_clamped + 1, 0.0)
        } else {
            (e_clamped, m)
        };
        if e_final + BIAS > 30 {
            return Rate16(((30u16) << MANTISSA_BITS) | ((1 << MANTISSA_BITS) - 1));
        }
        if e_final + BIAS < 0 {
            return Rate16(0);
        }
        Rate16((((e_final + BIAS) as u16) << MANTISSA_BITS) | m_final as u16)
    }

    fn assert_matches_reference(x: f64) {
        assert_eq!(
            Rate16::encode(x),
            reference_encode(x),
            "{x:e} (bits {:#018x})",
            x.to_bits()
        );
    }

    /// `x` and the `ulps` doubles on either side of it (non-negative,
    /// finite ones only).
    fn around(x: f64, ulps: i64) -> impl Iterator<Item = f64> {
        let bits = x.to_bits() as i64;
        (-ulps..=ulps)
            .map(move |d| f64::from_bits((bits + d) as u64))
            .filter(|v| v.is_finite() && v.is_sign_positive())
    }

    /// SplitMix64: a seeded, dependency-free source of test bits.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn bit_encoder_matches_the_reference_on_edges() {
        for x in [0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, MIN_GBPS, 32768.0] {
            assert_matches_reference(x);
        }
        // Powers of two (every exponent boundary, the 2⁻¹⁶ underflow and
        // 2¹⁵ saturation edges among them) and a few ulps either side.
        for k in -30..=30 {
            for x in around(2f64.powi(k), 4) {
                assert_matches_reference(x);
            }
        }
        // The rounding-carry edges: the midpoint between the largest
        // mantissa and the next power of two, just under the underflow
        // and saturation edges and in range.
        let top = 1.0 + 2047.5 / MANTISSA_DIV;
        for k in [-17, -16, -1, 0, 3, 13, 14, 15] {
            for x in around(top * 2f64.powi(k), 4) {
                assert_matches_reference(x);
            }
        }
        // Subnormals: the smallest, the largest and the first few.
        for bits in (1..=16).chain([(1 << 52) - 1]) {
            assert_matches_reference(f64::from_bits(bits));
        }
    }

    #[test]
    fn bit_encoder_matches_the_reference_on_random_inputs() {
        let mut state = 0x5eed_0016;
        for _ in 0..200_000 {
            // Any finite non-negative double: random bits, sign cleared.
            let x = f64::from_bits(splitmix(&mut state) & !(1 << 63));
            if x.is_finite() {
                assert_matches_reference(x);
            }
            // The encodable range and a margin around it, where the
            // mantissa rounding does the work.
            let e = (splitmix(&mut state) % 40) as i32 - 20;
            let fraction = splitmix(&mut state) >> 12;
            let x = f64::from_bits((((e + 1023) as u64) << 52) | fraction);
            assert_matches_reference(x);
            // Subnormals.
            assert_matches_reference(f64::from_bits(splitmix(&mut state) >> 12));
        }
    }
}
