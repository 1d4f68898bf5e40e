//! Cell and channel identities.
//!
//! The paper denotes every cell as `ID@FreqChannelNo` where `ID` is the
//! physical cell identity (PCI) and `FreqChannelNo` is the ARFCN (NR-ARFCN
//! for 5G, EARFCN for 4G). Two cells with the same PCI on different channels
//! are different cells (e.g. `393@521310` and `393@501390` in Table 2), so a
//! [`CellId`] is the *(RAT, PCI, ARFCN)* triple.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::text::LineBuf;

/// Radio access technology of a cell or connection leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Rat {
    /// 4G LTE (E-UTRA).
    Lte,
    /// 5G New Radio.
    Nr,
}

impl Rat {
    /// Human label used in log rendering ("LTE" / "NR5G").
    pub fn label(self) -> &'static str {
        match self {
            Rat::Lte => "LTE",
            Rat::Nr => "NR5G",
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Physical cell identity.
///
/// Valid range is 0..=503 for LTE and 0..=1007 for NR; the constructor does
/// not enforce the RAT-specific bound because the paper's notation only ever
/// pairs a PCI with a channel (which implies the RAT).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Pci(pub u16);

impl Pci {
    /// Maximum PCI for the given RAT (inclusive).
    pub fn max_for(rat: Rat) -> u16 {
        match rat {
            Rat::Lte => 503,
            Rat::Nr => 1007,
        }
    }

    /// Whether this PCI is in range for `rat`.
    pub fn valid_for(self, rat: Rat) -> bool {
        self.0 <= Self::max_for(rat)
    }
}

impl fmt::Display for Pci {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A cell identity in the paper's `PCI@ARFCN` notation, qualified by RAT.
///
/// ```
/// use onoff_rrc::ids::{CellId, Pci, Rat};
/// let c = CellId::nr(Pci(393), 521310);
/// assert_eq!(c.to_string(), "393@521310");
/// assert_eq!("393@521310".parse::<CellId>().unwrap().pci, Pci(393));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId {
    /// Radio access technology this cell runs.
    pub rat: Rat,
    /// Physical cell identity.
    pub pci: Pci,
    /// Channel number: NR-ARFCN for NR cells, EARFCN for LTE cells.
    pub arfcn: u32,
}

impl CellId {
    /// A 5G NR cell.
    pub fn nr(pci: Pci, arfcn: u32) -> Self {
        CellId {
            rat: Rat::Nr,
            pci,
            arfcn,
        }
    }

    /// A 4G LTE cell.
    pub fn lte(pci: Pci, arfcn: u32) -> Self {
        CellId {
            rat: Rat::Lte,
            pci,
            arfcn,
        }
    }

    /// True if both cells share the same frequency channel (and RAT).
    ///
    /// Intra-channel pairs matter because the paper's dominant loop sub-type
    /// (S1E3) is an **intra-channel SCell modification failure** — e.g.
    /// `273@387410 → 371@387410`.
    pub fn co_channel(self, other: CellId) -> bool {
        self.rat == other.rat && self.arfcn == other.arfcn
    }
}

/// `PCI@ARFCN`, written by [`LineBuf::cell`].
impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(LineBuf::<16>::new().cell(*self).as_str())
    }
}

/// Error parsing a `PCI@ARFCN` cell identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCellIdError(pub String);

impl fmt::Display for ParseCellIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cell id {:?} (expected PCI@ARFCN)", self.0)
    }
}

impl std::error::Error for ParseCellIdError {}

impl FromStr for CellId {
    type Err = ParseCellIdError;

    /// Parses `PCI@ARFCN`. The RAT is inferred from the ARFCN value: LTE
    /// EARFCNs are < 65536 + 6 * 10000 ≈ 7e4 in deployed downlink ranges,
    /// while the NR-ARFCNs the paper observes are all ≥ 1e5. We use the
    /// downlink EARFCN ceiling (< 70000) as the discriminator, which holds
    /// for every channel in the study (4G: 850..66936, 5G: 126270..693952).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (pci, arfcn) = s
            .split_once('@')
            .ok_or_else(|| ParseCellIdError(s.to_string()))?;
        let pci: u16 = pci
            .trim()
            .parse()
            .map_err(|_| ParseCellIdError(s.to_string()))?;
        let arfcn: u32 = arfcn
            .trim()
            .parse()
            .map_err(|_| ParseCellIdError(s.to_string()))?;
        let rat = if arfcn < 70_000 { Rat::Lte } else { Rat::Nr };
        Ok(CellId {
            rat,
            pci: Pci(pci),
            arfcn,
        })
    }
}

/// NR Cell Global Identity as surfaced in NSG logs.
///
/// A value of 0 means the cell is *seen but not used* (Appendix B: "If the
/// cell is seen but not used, its NR Cell Global ID is invalid (=0)").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct GlobalCellId(pub u64);

impl GlobalCellId {
    /// Whether the cell is actually in use (non-zero global identity).
    pub fn is_valid(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for GlobalCellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_id_display_matches_paper_notation() {
        assert_eq!(CellId::nr(Pci(393), 521310).to_string(), "393@521310");
        assert_eq!(CellId::lte(Pci(380), 5815).to_string(), "380@5815");
    }

    #[test]
    fn cell_id_parse_infers_rat_from_channel() {
        let nr: CellId = "273@387410".parse().unwrap();
        assert_eq!(nr.rat, Rat::Nr);
        let lte: CellId = "238@5145".parse().unwrap();
        assert_eq!(lte.rat, Rat::Lte);
        // Highest 4G channel in the study is EARFCN 66936 (band 66).
        let lte_hi: CellId = "191@66936".parse().unwrap();
        assert_eq!(lte_hi.rat, Rat::Lte);
        // Lowest 5G channel in the study is NR-ARFCN 126270 (band n71).
        let nr_lo: CellId = "100@126270".parse().unwrap();
        assert_eq!(nr_lo.rat, Rat::Nr);
    }

    #[test]
    fn cell_id_parse_rejects_garbage() {
        assert!("".parse::<CellId>().is_err());
        assert!("393".parse::<CellId>().is_err());
        assert!("x@y".parse::<CellId>().is_err());
        assert!("393@".parse::<CellId>().is_err());
        assert!("@521310".parse::<CellId>().is_err());
    }

    #[test]
    fn co_channel_requires_same_rat_and_channel() {
        let a = CellId::nr(Pci(273), 387410);
        let b = CellId::nr(Pci(371), 387410);
        let c = CellId::nr(Pci(273), 398410);
        assert!(a.co_channel(b));
        assert!(!a.co_channel(c));
        // Same numeric channel on different RATs is not co-channel.
        let d = CellId {
            rat: Rat::Lte,
            pci: Pci(371),
            arfcn: 387410,
        };
        assert!(!a.co_channel(d));
    }

    #[test]
    fn pci_validity_bounds() {
        assert!(Pci(503).valid_for(Rat::Lte));
        assert!(!Pci(504).valid_for(Rat::Lte));
        assert!(Pci(1007).valid_for(Rat::Nr));
        assert!(!Pci(1008).valid_for(Rat::Nr));
    }

    #[test]
    fn global_cell_id_validity() {
        assert!(!GlobalCellId(0).is_valid());
        assert!(GlobalCellId(85575131757084985).is_valid());
    }

    #[test]
    fn parse_roundtrip_all_paper_cells() {
        // Every cell named in the paper's tables/appendix figures.
        for s in [
            "393@521310",
            "393@501390",
            "273@398410",
            "273@387410",
            "371@387410",
            "104@501390",
            "540@501390",
            "309@387410",
            "309@398410",
            "540@521310",
            "380@398410",
            "380@387410",
            "684@501390",
            "684@521310",
            "390@387410",
            "390@398410",
            "238@5145",
            "66@632736",
            "66@658080",
            "191@66936",
            "238@5815",
            "830@632736",
            "47@850",
            "62@174770",
            "97@5815",
            "97@5145",
            "53@632736",
            "500@632736",
            "53@658080",
            "310@66486",
            "436@850",
            "380@5815",
            "380@5145",
            "62@1075",
            "188@648672",
            "188@653952",
            "393@648672",
            "393@653952",
            "266@648672",
            "266@653952",
        ] {
            let c: CellId = s.parse().unwrap();
            assert_eq!(c.to_string(), s, "roundtrip failed for {s}");
        }
    }
}
