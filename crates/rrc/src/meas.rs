//! RSRP / RSRQ measurement values.
//!
//! NSG logs (and the paper) report RSRP in dBm and RSRQ in dB with 0.5-step
//! granularity (e.g. `-108.5dBm -25.5dB` in Fig. 28). We store both as
//! fixed-point **deci**-units (tenths of a dB), which represents every value
//! in the study exactly and gives us total ordering, hashing and exact
//! equality — properties the loop detector needs when interning cell sets
//! and comparing thresholds.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

use crate::text::LineBuf;

macro_rules! fixed_point_db {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord,
            Serialize, Deserialize,
        )]
        pub struct $name(i32);

        impl $name {
            /// Constructs from deci-units (tenths of a dB). `-1085` ⇒ −108.5.
            pub const fn from_deci(deci: i32) -> Self {
                $name(deci)
            }

            /// Constructs from a floating dB value, rounding to 0.1 dB.
            pub fn from_db(db: f64) -> Self {
                $name((db * 10.0).round() as i32)
            }

            /// The raw deci-unit value.
            pub const fn deci(self) -> i32 {
                self.0
            }

            /// The value as floating dB(m).
            pub fn db(self) -> f64 {
                self.0 as f64 / 10.0
            }

            /// Absolute difference in dB, as the same fixed-point type.
            pub fn abs_gap(self, other: Self) -> Self {
                $name((self.0 - other.0).abs())
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                $name(self.0 - rhs.0)
            }
        }
    };
}

fixed_point_db!(
    /// Reference Signal Received Power, in dBm.
    ///
    /// The default radio-quality metric of RRC procedures; "RSRP is the
    /// default metric of radio signal quality in RRC procedures" (§3).
    Rsrp
);

fixed_point_db!(
    /// Reference Signal Received Quality, in dB.
    Rsrq
);

/// One fraction digit and the unit (`-108.5dBm`), written by
/// [`LineBuf::rsrp`].
impl fmt::Display for Rsrp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(LineBuf::<16>::new().rsrp(*self).as_str())
    }
}

/// One fraction digit and the unit (`-10.5dB`), written by
/// [`LineBuf::rsrq`].
impl fmt::Display for Rsrq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(LineBuf::<16>::new().rsrq(*self).as_str())
    }
}

impl Rsrp {
    /// TS 38.133 reportable floor; values at/below this are "not measurable".
    pub const FLOOR: Rsrp = Rsrp::from_deci(-1560);

    /// TS 38.133 reportable ceiling.
    pub const CEIL: Rsrp = Rsrp::from_deci(-310);

    /// Clamps into the reportable range.
    pub fn clamp_reportable(self) -> Rsrp {
        Rsrp(self.0.clamp(Self::FLOOR.0, Self::CEIL.0))
    }
}

impl Rsrq {
    /// TS 38.133 reportable floor.
    pub const FLOOR: Rsrq = Rsrq::from_deci(-430);

    /// TS 38.133 reportable ceiling.
    pub const CEIL: Rsrq = Rsrq::from_deci(200);

    /// Clamps into the reportable range.
    pub fn clamp_reportable(self) -> Rsrq {
        Rsrq(self.0.clamp(Self::FLOOR.0, Self::CEIL.0))
    }
}

/// A joint RSRP+RSRQ sample for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Measurement {
    /// Received power.
    pub rsrp: Rsrp,
    /// Received quality.
    pub rsrq: Rsrq,
}

impl Measurement {
    /// Convenience constructor from floating dB values.
    pub fn new(rsrp_dbm: f64, rsrq_db: f64) -> Self {
        Measurement {
            rsrp: Rsrp::from_db(rsrp_dbm),
            rsrq: Rsrq::from_db(rsrq_db),
        }
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.rsrp, self.rsrq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_nsg_format() {
        assert_eq!(Rsrp::from_db(-108.5).to_string(), "-108.5dBm");
        assert_eq!(Rsrp::from_db(-82.0).to_string(), "-82.0dBm");
        assert_eq!(Rsrq::from_db(-25.5).to_string(), "-25.5dB");
        assert_eq!(Rsrq::from_db(10.0).to_string(), "10.0dB");
    }

    #[test]
    fn half_db_values_are_exact() {
        let a = Rsrp::from_db(-108.5);
        assert_eq!(a.deci(), -1085);
        assert_eq!(a.db(), -108.5);
    }

    #[test]
    fn ordering_and_gap() {
        let strong = Rsrp::from_db(-81.0);
        let weak = Rsrp::from_db(-108.5);
        assert!(strong > weak);
        assert_eq!(strong.abs_gap(weak), Rsrp::from_db(27.5));
        assert_eq!(weak.abs_gap(strong), Rsrp::from_db(27.5));
    }

    #[test]
    fn arithmetic() {
        let a = Rsrp::from_db(-100.0);
        let off = Rsrp::from_db(6.0);
        assert_eq!(a + off, Rsrp::from_db(-94.0));
        assert_eq!(a - off, Rsrp::from_db(-106.0));
    }

    #[test]
    fn clamping_to_reportable_range() {
        assert_eq!(Rsrp::from_db(-200.0).clamp_reportable(), Rsrp::FLOOR);
        assert_eq!(Rsrp::from_db(0.0).clamp_reportable(), Rsrp::CEIL);
        assert_eq!(
            Rsrp::from_db(-90.0).clamp_reportable(),
            Rsrp::from_db(-90.0)
        );
        assert_eq!(Rsrq::from_db(-99.0).clamp_reportable(), Rsrq::FLOOR);
    }

    #[test]
    fn measurement_display() {
        let m = Measurement::new(-80.0, -10.5);
        assert_eq!(m.to_string(), "-80.0dBm -10.5dB");
    }
}
