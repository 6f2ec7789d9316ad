//! Integer value types with explicit bit-widths (the `ap_int`/`ap_uint`
//! analogue). All runtime values are carried as `i64`; a [`Ty`] defines how
//! a value is truncated/sign-extended when stored through a typed location.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An integer type: `bits` wide, signed or unsigned. `bits` must be in
/// `1..=63` so every value is representable in an `i64` without overflow
/// during wrapping arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ty {
    pub bits: u8,
    pub signed: bool,
}

impl Ty {
    pub const fn unsigned(bits: u8) -> Self {
        assert!(bits >= 1 && bits <= 63);
        Ty {
            bits,
            signed: false,
        }
    }

    pub const fn signed(bits: u8) -> Self {
        assert!(bits >= 1 && bits <= 63);
        Ty { bits, signed: true }
    }

    pub const U1: Ty = Ty::unsigned(1);
    pub const U8: Ty = Ty::unsigned(8);
    pub const U16: Ty = Ty::unsigned(16);
    pub const U32: Ty = Ty::unsigned(32);
    pub const U48: Ty = Ty::unsigned(48);
    pub const I8: Ty = Ty::signed(8);
    pub const I16: Ty = Ty::signed(16);
    pub const I32: Ty = Ty::signed(32);

    /// Wrap `v` to this type (truncate to `bits`, then sign- or
    /// zero-extend), matching hardware register semantics.
    pub fn wrap(&self, v: i64) -> i64 {
        let mask: u64 = if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        };
        let t = (v as u64) & mask;
        if self.signed {
            let sign_bit = 1u64 << (self.bits - 1);
            if t & sign_bit != 0 {
                (t | !mask) as i64
            } else {
                t as i64
            }
        } else {
            t as i64
        }
    }

    /// Inclusive range of representable values.
    pub fn range(&self) -> (i64, i64) {
        if self.signed {
            let half = 1i64 << (self.bits - 1);
            (-half, half - 1)
        } else {
            (0, ((1u64 << self.bits) - 1) as i64)
        }
    }

    /// Whether `v` is representable without wrapping.
    pub fn contains(&self, v: i64) -> bool {
        let (lo, hi) = self.range();
        v >= lo && v <= hi
    }

    /// Size in bytes when carried on a byte-oriented channel, rounded up.
    pub fn byte_size(&self) -> u32 {
        (self.bits as u32).div_ceil(8)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.signed { "i" } else { "u" }, self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_unsigned() {
        assert_eq!(Ty::U8.wrap(255), 255);
        assert_eq!(Ty::U8.wrap(256), 0);
        assert_eq!(Ty::U8.wrap(257), 1);
        assert_eq!(Ty::U8.wrap(-1), 255);
    }

    #[test]
    fn wrap_signed() {
        assert_eq!(Ty::I8.wrap(127), 127);
        assert_eq!(Ty::I8.wrap(128), -128);
        assert_eq!(Ty::I8.wrap(-128), -128);
        assert_eq!(Ty::I8.wrap(-129), 127);
        assert_eq!(Ty::I8.wrap(255), -1);
    }

    #[test]
    fn wrap_single_bit() {
        assert_eq!(Ty::U1.wrap(2), 0);
        assert_eq!(Ty::U1.wrap(3), 1);
        let i1 = Ty::signed(1);
        assert_eq!(i1.wrap(1), -1);
        assert_eq!(i1.wrap(0), 0);
    }

    #[test]
    fn ranges() {
        assert_eq!(Ty::U8.range(), (0, 255));
        assert_eq!(Ty::I8.range(), (-128, 127));
        assert!(Ty::U8.contains(0) && Ty::U8.contains(255));
        assert!(!Ty::U8.contains(-1) && !Ty::U8.contains(256));
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Ty::U1.byte_size(), 1);
        assert_eq!(Ty::U8.byte_size(), 1);
        assert_eq!(Ty::unsigned(9).byte_size(), 2);
        assert_eq!(Ty::U32.byte_size(), 4);
        assert_eq!(Ty::U48.byte_size(), 6);
    }

    #[test]
    fn display() {
        assert_eq!(Ty::U32.to_string(), "u32");
        assert_eq!(Ty::I16.to_string(), "i16");
    }

    #[test]
    fn wrap_is_idempotent() {
        for ty in [Ty::U8, Ty::I8, Ty::U16, Ty::I32, Ty::U48] {
            for v in [-300i64, -1, 0, 1, 255, 256, 65535, 1 << 40] {
                let w = ty.wrap(v);
                assert_eq!(ty.wrap(w), w, "{ty} wrap({v})");
                assert!(ty.contains(w));
            }
        }
    }
}
