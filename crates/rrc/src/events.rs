//! Measurement-report trigger events (TS 36.331 / TS 38.331 §5.5.4).
//!
//! The paper's loop triggers are expressed in terms of these events:
//!
//! * **A2** (serving becomes worse than threshold) — configured on every
//!   OP_T channel as `RSRP < -156 dBm` (Appendix C), i.e. effectively the
//!   measurement floor;
//! * **A3** (neighbour becomes offset better than PCell/serving) — the
//!   `RSRP gap > 6 dB` SCell-modification trigger behind S1E3, and the
//!   RSRQ-based handover trigger behind N2E1;
//! * **A5** (PCell worse than t1 and neighbour better than t2) — N1E2's
//!   handover trigger;
//! * **B1** (inter-RAT neighbour better than threshold) — the SCG-addition
//!   trigger that turns 5G back ON in every NSA loop.
//!
//! Entry conditions implement the 3GPP inequalities with hysteresis; the
//! simplified offset model folds cell-individual and frequency offsets into
//! a single `offset` term, which is all the paper's configurations use.

use serde::{Deserialize, Serialize};

use crate::meas::Measurement;

/// Which quantity an event compares (TS 38.331 `reportQuantity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TriggerQuantity {
    /// Compare RSRP values (dBm).
    Rsrp,
    /// Compare RSRQ values (dB).
    Rsrq,
}

/// A threshold in the quantity's own unit, stored as deci-dB fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Threshold(pub i32);

impl Threshold {
    /// From floating dB(m).
    pub fn from_db(db: f64) -> Self {
        Threshold((db * 10.0).round() as i32)
    }

    /// As floating dB(m).
    pub fn db(self) -> f64 {
        self.0 as f64 / 10.0
    }
}

/// The event kinds used in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Serving becomes better than threshold.
    A1 {
        /// Entry threshold.
        threshold: Threshold,
    },
    /// Serving becomes worse than threshold.
    A2 {
        /// Entry threshold.
        threshold: Threshold,
    },
    /// Neighbour becomes `offset` better than the serving/PCell.
    A3 {
        /// Required advantage of the neighbour, deci-dB.
        offset: i32,
    },
    /// Neighbour becomes better than threshold.
    A4 {
        /// Entry threshold.
        threshold: Threshold,
    },
    /// PCell becomes worse than `t1` while a neighbour becomes better than `t2`.
    A5 {
        /// Serving-cell "worse than" threshold.
        t1: Threshold,
        /// Neighbour "better than" threshold.
        t2: Threshold,
    },
    /// Inter-RAT neighbour becomes better than threshold (5G SCG addition).
    B1 {
        /// Entry threshold.
        threshold: Threshold,
    },
    /// PCell worse than `t1` and inter-RAT neighbour better than `t2`.
    B2 {
        /// Serving-cell "worse than" threshold.
        t1: Threshold,
        /// Inter-RAT neighbour "better than" threshold.
        t2: Threshold,
    },
}

impl EventKind {
    /// 3GPP event label ("A2", "B1", ...).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::A1 { .. } => "A1",
            EventKind::A2 { .. } => "A2",
            EventKind::A3 { .. } => "A3",
            EventKind::A4 { .. } => "A4",
            EventKind::A5 { .. } => "A5",
            EventKind::B1 { .. } => "B1",
            EventKind::B2 { .. } => "B2",
        }
    }
}

/// A configured measurement event: kind + quantity + hysteresis, scoped to a
/// carrier frequency (the `measObject`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MeasEvent {
    /// The triggering condition.
    pub kind: EventKind,
    /// Which quantity the inequalities compare.
    pub quantity: TriggerQuantity,
    /// Hysteresis, deci-dB (applied as in TS 38.331: entering conditions
    /// subtract it from the advantaged side).
    pub hysteresis: i32,
    /// The carrier (ARFCN) whose cells this event measures.
    pub arfcn: u32,
}

impl MeasEvent {
    /// A measurement-event config with zero hysteresis.
    pub fn new(kind: EventKind, quantity: TriggerQuantity, arfcn: u32) -> Self {
        MeasEvent {
            kind,
            quantity,
            hysteresis: 0,
            arfcn,
        }
    }

    /// Extracts the compared quantity from a joint sample, deci-units.
    fn value(&self, m: Measurement) -> i32 {
        match self.quantity {
            TriggerQuantity::Rsrp => m.rsrp.deci(),
            TriggerQuantity::Rsrq => m.rsrq.deci(),
        }
    }

    /// Whether the **entering condition** holds for the given serving and
    /// neighbour samples. Events that don't involve a neighbour ignore it
    /// (pass the serving sample twice or anything else).
    pub fn entered(&self, serving: Measurement, neighbour: Measurement) -> bool {
        let ms = self.value(serving);
        let mn = self.value(neighbour);
        let hys = self.hysteresis;
        match self.kind {
            EventKind::A1 { threshold } => ms - hys > threshold.0,
            EventKind::A2 { threshold } => ms + hys < threshold.0,
            EventKind::A3 { offset } => mn - hys > ms + offset,
            EventKind::A4 { threshold } => mn - hys > threshold.0,
            EventKind::A5 { t1, t2 } => ms + hys < t1.0 && mn - hys > t2.0,
            EventKind::B1 { threshold } => mn - hys > threshold.0,
            EventKind::B2 { t1, t2 } => ms + hys < t1.0 && mn - hys > t2.0,
        }
    }

    /// Whether the **leaving condition** holds (the 3GPP dual of `entered`,
    /// with hysteresis favouring staying in the entered state).
    pub fn left(&self, serving: Measurement, neighbour: Measurement) -> bool {
        let ms = self.value(serving);
        let mn = self.value(neighbour);
        let hys = self.hysteresis;
        match self.kind {
            EventKind::A1 { threshold } => ms + hys < threshold.0,
            EventKind::A2 { threshold } => ms - hys > threshold.0,
            EventKind::A3 { offset } => mn + hys < ms + offset,
            EventKind::A4 { threshold } => mn + hys < threshold.0,
            EventKind::A5 { t1, t2 } => ms - hys > t1.0 || mn + hys < t2.0,
            EventKind::B1 { threshold } => mn + hys < threshold.0,
            EventKind::B2 { t1, t2 } => ms - hys > t1.0 || mn + hys < t2.0,
        }
    }
}

/// What a satisfied event should make the UE do — the report trigger that the
/// RAN configures alongside the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReportTrigger {
    /// Send a `MeasurementReport` for the event.
    Report,
    /// Report and expect the RAN to act (handover / SCell change / SCG add).
    ReportAndAct,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rsrp: f64, rsrq: f64) -> Measurement {
        Measurement::new(rsrp, rsrq)
    }

    #[test]
    fn a2_enters_below_threshold() {
        // OP_T's A2 config from Appendix C: RSRP < -156 dBm — the floor.
        let ev = MeasEvent::new(
            EventKind::A2 {
                threshold: Threshold::from_db(-156.0),
            },
            TriggerQuantity::Rsrp,
            387410,
        );
        assert!(!ev.entered(m(-108.5, -25.5), m(-108.5, -25.5)));
        assert!(ev.entered(m(-157.0, -30.0), m(-157.0, -30.0)));
    }

    #[test]
    fn a3_enters_on_offset_advantage() {
        // The S1E3 trigger: candidate RSRP gap > 6 dB over the serving SCell.
        let ev = MeasEvent::new(EventKind::A3 { offset: 60 }, TriggerQuantity::Rsrp, 387410);
        let serving = m(-90.0, -12.0);
        assert!(ev.entered(serving, m(-83.5, -11.0))); // 6.5 dB better
        assert!(!ev.entered(serving, m(-84.5, -11.0))); // only 5.5 dB better
        assert!(!ev.entered(serving, m(-84.0, -11.0))); // exactly 6 dB: strict >
    }

    #[test]
    fn a3_rsrq_variant_for_n2e1() {
        // N2E1's handover trigger compares RSRQ with a 6 dB offset (Fig. 32).
        let ev = MeasEvent::new(EventKind::A3 { offset: 60 }, TriggerQuantity::Rsrq, 5815);
        let serving = m(-111.0, -17.5);
        let cand = m(-109.0, -11.0); // RSRQ 6.5 dB better
        assert!(ev.entered(serving, cand));
        let cand_weak = m(-109.0, -15.0); // RSRQ only 2.5 dB better
        assert!(!ev.entered(serving, cand_weak));
    }

    #[test]
    fn a5_requires_both_conditions() {
        // N1E2's trigger (Fig. 31): serving < -118 dBm and candidate > -120 dBm.
        let ev = MeasEvent::new(
            EventKind::A5 {
                t1: Threshold::from_db(-118.0),
                t2: Threshold::from_db(-120.0),
            },
            TriggerQuantity::Rsrp,
            5815,
        );
        assert!(ev.entered(m(-122.5, -16.5), m(-105.0, -16.0)));
        assert!(!ev.entered(m(-110.0, -16.5), m(-105.0, -16.0))); // serving too good
        assert!(!ev.entered(m(-122.5, -16.5), m(-125.0, -16.0))); // candidate too weak
    }

    #[test]
    fn b1_gates_scg_addition() {
        // N2E2's recovery trigger (Fig. 33): RSRP > -115 dBm.
        let ev = MeasEvent::new(
            EventKind::B1 {
                threshold: Threshold::from_db(-115.0),
            },
            TriggerQuantity::Rsrp,
            648672,
        );
        assert!(ev.entered(m(-120.0, -20.0), m(-114.0, -15.5)));
        assert!(!ev.entered(m(-120.0, -20.0), m(-115.5, -15.5)));
    }

    #[test]
    fn hysteresis_separates_enter_and_leave() {
        let mut ev = MeasEvent::new(
            EventKind::A2 {
                threshold: Threshold::from_db(-100.0),
            },
            TriggerQuantity::Rsrp,
            387410,
        );
        ev.hysteresis = 20; // 2 dB
                            // Entering needs to be 2 dB below; leaving needs 2 dB above.
        assert!(!ev.entered(m(-101.0, -12.0), m(-101.0, -12.0)));
        assert!(ev.entered(m(-103.0, -12.0), m(-103.0, -12.0)));
        assert!(!ev.left(m(-99.0, -12.0), m(-99.0, -12.0)));
        assert!(ev.left(m(-97.0, -12.0), m(-97.0, -12.0)));
        // Between the two bands, neither condition fires (sticky region).
        assert!(!ev.entered(m(-99.5, -12.0), m(-99.5, -12.0)));
        assert!(!ev.left(m(-100.5, -12.0), m(-100.5, -12.0)));
    }

    #[test]
    fn labels() {
        assert_eq!(
            MeasEvent::new(EventKind::A3 { offset: 0 }, TriggerQuantity::Rsrp, 1)
                .kind
                .label(),
            "A3"
        );
    }
}
