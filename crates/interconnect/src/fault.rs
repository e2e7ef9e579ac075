//! Bit-level fault primitives shared by the interconnect and the core
//! fault injector.
//!
//! Hardware faults on a datapath show up as corrupted bit patterns, not
//! as convenient numeric deltas, so the primitives here operate on the
//! IEEE-754 bit representation of `f32` values: a transient upset flips
//! one bit ([`flip_bit`]), a latched defect forces one bit to a fixed
//! level ([`force_bit`]). [`AdderFault`] packages a persistent stuck-at
//! defect on one FAN adder so [`crate::Fan::reduce_into`] can
//! corrupt exactly the activations that flow through that adder.

/// Flips bit `bit` (0 = LSB of the mantissa, 31 = sign) of an `f32`'s
/// IEEE-754 representation.
///
/// # Panics
///
/// Panics if `bit >= 32`.
#[must_use]
pub fn flip_bit(v: f32, bit: u32) -> f32 {
    assert!(bit < 32, "f32 has 32 bits, got bit index {bit}");
    f32::from_bits(v.to_bits() ^ (1u32 << bit))
}

/// The level a stuck bit is latched at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StuckLevel {
    /// The bit always reads 0.
    Zero,
    /// The bit always reads 1.
    One,
}

/// Forces bit `bit` of an `f32`'s IEEE-754 representation to `level`.
///
/// # Panics
///
/// Panics if `bit >= 32`.
#[must_use]
pub fn force_bit(v: f32, bit: u32, level: StuckLevel) -> f32 {
    assert!(bit < 32, "f32 has 32 bits, got bit index {bit}");
    let mask = 1u32 << bit;
    let bits = match level {
        StuckLevel::Zero => v.to_bits() & !mask,
        StuckLevel::One => v.to_bits() | mask,
    };
    f32::from_bits(bits)
}

/// A persistent stuck-at defect on one FAN adder: every sum produced by
/// adder `adder` has bit `bit` latched at `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdderFault {
    /// The adder id (see [`crate::Fan::adder_level`] for the layout).
    pub adder: usize,
    /// Which output bit is stuck (0 = LSB, 31 = sign).
    pub bit: u32,
    /// The level it is stuck at.
    pub level: StuckLevel,
}

impl AdderFault {
    /// Applies the defect to one adder activation.
    #[must_use]
    pub fn corrupt(&self, sum: f32) -> f32 {
        force_bit(sum, self.bit, self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involutive() {
        for bit in 0..32 {
            let v = 1.5f32;
            let flipped = flip_bit(v, bit);
            assert_ne!(flipped.to_bits(), v.to_bits());
            assert_eq!(flip_bit(flipped, bit).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn flip_sign_bit_negates() {
        assert_eq!(flip_bit(2.0, 31), -2.0);
        assert_eq!(flip_bit(-7.25, 31), 7.25);
    }

    #[test]
    fn force_bit_is_idempotent() {
        let v = 3.25f32;
        let once = force_bit(v, 22, StuckLevel::One);
        assert_eq!(force_bit(once, 22, StuckLevel::One).to_bits(), once.to_bits());
        let zeroed = force_bit(v, 22, StuckLevel::Zero);
        assert_eq!(force_bit(zeroed, 22, StuckLevel::Zero).to_bits(), zeroed.to_bits());
    }

    #[test]
    fn force_bit_matches_current_level_is_noop() {
        let v = 1.0f32; // exponent bits 30..23 = 0111_1111, mantissa zero
        assert_eq!(force_bit(v, 0, StuckLevel::Zero).to_bits(), v.to_bits());
        assert_eq!(force_bit(v, 23, StuckLevel::One).to_bits(), v.to_bits());
    }

    #[test]
    fn adder_fault_corrupts() {
        let f = AdderFault { adder: 3, bit: 31, level: StuckLevel::One };
        assert_eq!(f.corrupt(4.0), -4.0);
        assert_eq!(f.corrupt(-4.0), -4.0);
    }
}
