//! Byte-level writers for the numeric fields of log text.
//!
//! Every number an NSG log line carries — the `HH:MM:SS.mmm` timestamp,
//! `PCI@ARFCN` cells, global ids and RSRP/RSRQ or threshold deci-dB
//! values — is written by one method of [`LineBuf`], a fixed-capacity stack buffer, with integer
//! digit loops instead of `core::fmt`. The `Display` impls of
//! [`Timestamp`](crate::trace::Timestamp), [`CellId`](crate::ids::CellId),
//! [`Rsrp`](crate::meas::Rsrp) and [`Rsrq`](crate::meas::Rsrq) and the
//! `onoff-nsglog` emitter all delegate here, so each field has exactly one
//! formatter and the text the emitter writes cannot drift from what the
//! types print.
//!
//! ```
//! use onoff_rrc::text::LineBuf;
//! let mut line = LineBuf::<32>::new();
//! line.hms(3_600_000 + 61_001).str(" ").deci(-1085).str("dBm ").deci_short(-1560);
//! assert_eq!(line.as_str(), "01:01:01.001 -108.5dBm -156");
//! ```

use crate::ids::CellId;
use crate::meas::{Rsrp, Rsrq};

/// A fixed-capacity text line assembled on the stack.
///
/// Writers append and return `&mut Self`, so a line reads as one chain.
/// Appending past `N` bytes panics; callers size `N` for the widest line
/// they assemble (every numeric writer has a fixed maximum width).
pub struct LineBuf<const N: usize> {
    len: usize,
    bytes: [u8; N],
}

impl<const N: usize> Default for LineBuf<N> {
    fn default() -> Self {
        LineBuf::new()
    }
}

impl<const N: usize> LineBuf<N> {
    /// An empty line.
    pub const fn new() -> Self {
        LineBuf {
            len: 0,
            bytes: [0; N],
        }
    }

    /// The text written so far.
    pub fn as_str(&self) -> &str {
        // SAFETY: the buffer is only ever appended to with whole `&str`s
        // (`str`) and ASCII bytes (`byte`, always an ASCII digit or
        // punctuation literal), so `bytes[..len]` is valid UTF-8.
        unsafe { std::str::from_utf8_unchecked(&self.bytes[..self.len]) }
    }

    /// Bytes that can still be appended.
    pub fn room(&self) -> usize {
        N - self.len
    }

    /// Forgets the text, keeping the buffer.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends text verbatim.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        let end = self.len + s.len();
        self.bytes[self.len..end].copy_from_slice(s.as_bytes());
        self.len = end;
        self
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        debug_assert!(b.is_ascii());
        self.bytes[self.len] = b;
        self.len += 1;
    }

    /// Appends `v` in decimal, left-padded with zeros to at least `width`
    /// digits (`{v:0width$}`). Digits go straight into place, last first.
    #[inline]
    fn digits(&mut self, mut v: u64, width: usize) -> &mut Self {
        let n = v.checked_ilog10().map_or(1, |d| d as usize + 1).max(width);
        let end = self.len + n;
        for slot in self.bytes[self.len..end].iter_mut().rev() {
            *slot = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.len = end;
        self
    }

    /// Appends an unsigned integer in decimal (`{v}`): at most 20 bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.digits(v, 1)
    }

    /// Appends a signed integer in decimal (`{v}`): at most 20 bytes.
    #[inline]
    pub fn i64(&mut self, v: i64) -> &mut Self {
        if v < 0 {
            self.byte(b'-');
        }
        self.digits(v.unsigned_abs(), 1)
    }

    /// Appends a deci-unit value with exactly one fraction digit, the
    /// RSRP/RSRQ reading form: `-1085` → `-108.5`, `-5` → `-0.5`, `0` →
    /// `0.0`. At most 12 bytes.
    #[inline]
    pub fn deci(&mut self, v: i32) -> &mut Self {
        if v < 0 {
            self.byte(b'-');
        }
        let a = v.unsigned_abs();
        self.digits(u64::from(a / 10), 1);
        self.byte(b'.');
        self.byte(b'0' + (a % 10) as u8);
        self
    }

    /// Appends a deci-unit value in its shortest form, the threshold
    /// form of event configurations: `-1560` → `-156`, `-1085` →
    /// `-108.5`, `-5` → `-0.5`. At most 12 bytes.
    #[inline]
    pub fn deci_short(&mut self, v: i32) -> &mut Self {
        if v % 10 == 0 {
            self.i64(i64::from(v / 10))
        } else {
            self.deci(v)
        }
    }

    /// Appends a cell in the paper's `PCI@ARFCN` notation: at most 16
    /// bytes.
    #[inline]
    pub fn cell(&mut self, cell: CellId) -> &mut Self {
        self.u64(cell.pci.0.into()).str("@").u64(cell.arfcn.into())
    }

    /// Appends an RSRP reading with its unit (`-108.5dBm`): at most 15
    /// bytes.
    #[inline]
    pub fn rsrp(&mut self, v: Rsrp) -> &mut Self {
        self.deci(v.deci()).str("dBm")
    }

    /// Appends an RSRQ reading with its unit (`-10.5dB`): at most 14
    /// bytes.
    #[inline]
    pub fn rsrq(&mut self, v: Rsrq) -> &mut Self {
        self.deci(v.deci()).str("dB")
    }

    /// Appends a millisecond capture time as NSG's wall clock
    /// `HH:MM:SS.mmm`; hours past 99 take as many digits as they need.
    /// At most 23 bytes.
    #[inline]
    pub fn hms(&mut self, ms: u64) -> &mut Self {
        self.digits(ms / 3_600_000, 2);
        self.byte(b':');
        self.digits((ms / 60_000) % 60, 2);
        self.byte(b':');
        self.digits((ms / 1000) % 60, 2);
        self.byte(b'.');
        self.digits(ms % 1000, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(f: impl FnOnce(&mut LineBuf<64>) -> &mut LineBuf<64>) -> String {
        let mut l = LineBuf::new();
        f(&mut l).as_str().to_string()
    }

    #[test]
    fn integers_match_format() {
        for v in [0u64, 1, 9, 10, 65_535, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(line(|l| l.u64(v)), format!("{v}"));
        }
        for v in [0i64, -1, 7, -1405, i64::MIN, i64::MAX] {
            assert_eq!(line(|l| l.i64(v)), format!("{v}"));
        }
    }

    #[test]
    fn deci_forms_at_the_extremes() {
        assert_eq!(line(|l| l.deci(i32::MIN)), "-214748364.8");
        assert_eq!(line(|l| l.deci(i32::MAX)), "214748364.7");
        assert_eq!(line(|l| l.deci_short(i32::MIN)), "-214748364.8");
        assert_eq!(line(|l| l.deci_short(-2_147_483_640)), "-214748364");
        assert_eq!(line(|l| l.deci_short(-5)), "-0.5");
        assert_eq!(line(|l| l.deci(-10)), "-1.0");
    }

    #[test]
    fn hms_widths() {
        assert_eq!(line(|l| l.hms(0)), "00:00:00.000");
        assert_eq!(line(|l| l.hms(100 * 3_600_000 + 5)), "100:00:00.005");
        let t = u64::MAX;
        assert_eq!(
            line(|l| l.hms(t)),
            format!(
                "{:02}:{:02}:{:02}.{:03}",
                t / 3_600_000,
                (t / 60_000) % 60,
                (t / 1000) % 60,
                t % 1000
            )
        );
    }

    #[test]
    fn chains_and_clears() {
        let mut l = LineBuf::<16>::new();
        l.str("a").u64(12).str("@").u64(3);
        assert_eq!((l.as_str(), l.room()), ("a12@3", 11));
        l.clear();
        assert_eq!((l.as_str(), l.room()), ("", 16));
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        LineBuf::<4>::new().str("abcde");
    }
}
