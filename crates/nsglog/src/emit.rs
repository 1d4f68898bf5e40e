//! Trace → text emission.
//!
//! The emitter is the authoritative grammar definition: every construct the
//! parser accepts is produced here, and the round-trip property
//! `parse_str(emit(trace)) == trace` is enforced by tests. Message names and
//! field spellings follow NSG's export conventions as reproduced in the
//! paper's Appendix B (e.g. `sCellToAddModList{{sCellIndex 1, physCellld
//! 273, absoluteFrequencySSB 387410}}` — we normalise NSG's `physCellld`
//! OCR-ism to `physCellId`).

use std::fmt;
use std::io;

use onoff_rrc::events::{EventKind, MeasEvent, TriggerQuantity};
use onoff_rrc::ids::Rat;
use onoff_rrc::messages::{ReconfigBody, RrcMessage};
use onoff_rrc::text::LineBuf;
use onoff_rrc::trace::{LogRecord, MmState, TraceEvent};

/// Emits a whole trace as log text. Events are emitted in the given order
/// (the caller is responsible for time-ordering).
pub fn emit(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    emit_to(events, &mut out).expect("fmt::Write to a String is infallible");
    out
}

/// Streams events into any [`fmt::Write`] sink, one at a time — the
/// streaming dual of [`emit`]: no trace-sized `String` is ever built, and
/// each event's text reaches the sink before the next event is rendered.
pub fn emit_to<'a, W: fmt::Write>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
    out: &mut W,
) -> fmt::Result {
    let mut lines = Lines::new(out);
    for ev in events {
        lines.event(ev)?;
    }
    Ok(())
}

/// Streams events into any [`io::Write`] sink (file, socket, pipe),
/// surfacing the underlying I/O error instead of `fmt::Error`.
pub fn emit_io<'a, W: io::Write>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
    out: &mut W,
) -> io::Result<()> {
    let mut sink = IoAdapter {
        inner: out,
        err: None,
    };
    // The adapter stores the real io::Error before reporting fmt::Error,
    // so this take always yields it.
    emit_to(events, &mut sink).map_err(|_| {
        sink.err
            .take()
            .unwrap_or_else(|| io::Error::other("formatter error"))
    })
}

/// Bridges `fmt::Write` onto an `io::Write`, capturing the first I/O error
/// (`fmt::Error` carries no payload).
struct IoAdapter<'w, W: io::Write> {
    inner: &'w mut W,
    err: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for IoAdapter<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.err = Some(e);
            fmt::Error
        })
    }
}

/// The stack buffer an event's text is assembled in before it reaches the
/// sink. Lines are appended whole and the buffer is flushed whenever the
/// next line might not fit, so even a 60-row OP_T measurement report
/// reaches the sink in one or two writes instead of one `core::fmt` call
/// per field.
type TextBuf = LineBuf<2048>;

/// The widest line the emitter assembles in a [`TextBuf`]: a measConfig
/// row with every number at its widest is 111 bytes, a record head with a
/// 13-digit hour and the longest message name 100. Text of unbounded
/// length (report trigger labels) bypasses the buffer.
const MAX_LINE: usize = 128;

/// A [`TextBuf`] in front of a sink.
struct Lines<'w, W: fmt::Write> {
    buf: TextBuf,
    out: &'w mut W,
}

impl<'w, W: fmt::Write> Lines<'w, W> {
    fn new(out: &'w mut W) -> Self {
        Lines {
            buf: TextBuf::new(),
            out,
        }
    }

    /// The buffer, with room for one more line of up to [`MAX_LINE`]
    /// bytes.
    fn line(&mut self) -> Result<&mut TextBuf, fmt::Error> {
        if self.buf.room() < MAX_LINE {
            self.flush()?;
        }
        Ok(&mut self.buf)
    }

    /// Writes what is buffered, then `s` unbuffered.
    fn unbuffered(&mut self, s: &str) -> fmt::Result {
        self.flush()?;
        self.out.write_str(s)
    }

    fn flush(&mut self) -> fmt::Result {
        self.out.write_str(self.buf.as_str())?;
        self.buf.clear();
        Ok(())
    }

    /// Writes one event's lines to the sink. Every field is written by
    /// the byte-level [`LineBuf`] writers the field types' `Display` impls
    /// share; only throughput goes through `core::fmt`, whose `{:?}` is
    /// the shortest text that reads back as the same `f64`.
    fn event(&mut self, ev: &TraceEvent) -> fmt::Result {
        let head = self.line()?.hms(ev.t().millis());
        match ev {
            TraceEvent::Rrc(rec) => {
                head.str(" ")
                    .str(rec.rat.label())
                    .str(" RRC OTA Packet -- ")
                    .str(rec.channel.label())
                    .str(" / ")
                    .str(message_name(rec.rat, &rec.msg))
                    .str("\n");
                emit_rrc(rec, self)?;
                self.flush()
            }
            TraceEvent::Mm { state, .. } => {
                head.str(match state {
                    MmState::Registered => " MM5G State = REGISTERED\n",
                    MmState::DeregisteredNoCellAvailable => {
                        " MM5G State = DEREGISTERED\n  Mm5g Deregistered Substate = NO_CELL_AVAILABLE\n"
                    }
                });
                self.flush()
            }
            TraceEvent::Throughput { mbps, .. } => {
                head.str(" Throughput = ");
                self.flush()?;
                writeln!(self.out, "{mbps:?} Mbps")
            }
        }
    }
}

/// Emits one event into any [`fmt::Write`] sink.
pub fn emit_event<W: fmt::Write>(ev: &TraceEvent, out: &mut W) -> fmt::Result {
    emit_to([ev], out)
}

/// NSG message name for a message under a given record RAT.
pub(crate) fn message_name(rat: Rat, msg: &RrcMessage) -> &'static str {
    match (rat, msg) {
        (_, RrcMessage::Mib { .. }) => "MIB",
        (_, RrcMessage::Sib1 { .. }) => "SystemInformationBlockType1",
        (Rat::Nr, RrcMessage::SetupRequest { .. }) => "RRC Setup Req",
        (Rat::Lte, RrcMessage::SetupRequest { .. }) => "RRC Connection Request",
        (Rat::Nr, RrcMessage::Setup) => "RRC Setup",
        (Rat::Lte, RrcMessage::Setup) => "RRC Connection Setup",
        (Rat::Nr, RrcMessage::SetupComplete) => "RRCSetup Complete",
        (Rat::Lte, RrcMessage::SetupComplete) => "RRC Connection Setup Complete",
        (Rat::Nr, RrcMessage::Reconfiguration(_)) => "RRCReconfiguration",
        (Rat::Lte, RrcMessage::Reconfiguration(_)) => "RRCConnectionReconfiguration",
        (Rat::Nr, RrcMessage::ReconfigurationComplete) => "RRCReconfiguration Complete",
        (Rat::Lte, RrcMessage::ReconfigurationComplete) => "RRCConnectionReconfiguration Complete",
        (_, RrcMessage::MeasurementReport(_)) => "MeasurementReport",
        (_, RrcMessage::ScgFailureInformation { .. }) => "SCGFailureInformation",
        (Rat::Nr, RrcMessage::ReestablishmentRequest { .. }) => "RRC Reestablishment Request",
        (Rat::Lte, RrcMessage::ReestablishmentRequest { .. }) => {
            "RRC Connection Reestablishment Request"
        }
        (Rat::Nr, RrcMessage::ReestablishmentComplete { .. }) => "RRC Reestablishment Complete",
        (Rat::Lte, RrcMessage::ReestablishmentComplete { .. }) => {
            "RRC Connection Reestablishment Complete"
        }
        (Rat::Nr, RrcMessage::Release) => "RRC Release",
        (Rat::Lte, RrcMessage::Release) => "RRC Connection Release",
    }
}

/// The continuation lines of an RRC record.
fn emit_rrc<W: fmt::Write>(rec: &LogRecord, lines: &mut Lines<'_, W>) -> fmt::Result {
    // Context line. For MIB / SetupRequest the global identity rides along.
    match &rec.msg {
        RrcMessage::Mib { cell, global_id } | RrcMessage::SetupRequest { cell, global_id } => {
            debug_assert_eq!(
                rec.context,
                Some(*cell),
                "context must mirror the message cell"
            );
            let gid_label = match rec.rat {
                Rat::Nr => ", NR Cell Global ID = ",
                Rat::Lte => ", Cell Global ID = ",
            };
            lines
                .line()?
                .str("  Physical Cell ID = ")
                .u64(cell.pci.0.into())
                .str(gid_label)
                .u64(global_id.0)
                .str(", Freq = ")
                .u64(cell.arfcn.into())
                .str("\n");
        }
        _ => {
            if let Some(ctx) = rec.context {
                debug_assert_eq!(ctx.rat, rec.rat, "context cell RAT must match record RAT");
                lines
                    .line()?
                    .str("  Physical Cell ID = ")
                    .u64(ctx.pci.0.into())
                    .str(", Freq = ")
                    .u64(ctx.arfcn.into())
                    .str("\n");
            }
        }
    }

    match &rec.msg {
        RrcMessage::Sib1 {
            q_rx_lev_min_deci, ..
        } => {
            lines
                .line()?
                .str("  q-RxLevMin = ")
                .i64((*q_rx_lev_min_deci).into())
                .str("\n");
        }
        RrcMessage::Reconfiguration(body) => emit_reconfig(body, lines)?,
        RrcMessage::MeasurementReport(report) => {
            if let Some(trigger) = &report.trigger {
                lines.line()?.str("  trigger = ");
                lines.unbuffered(trigger.as_str())?;
                lines.line()?.str("\n");
            }
            lines.line()?.str("  measResults {\n");
            for r in &report.results {
                lines
                    .line()?
                    .str("    ")
                    .cell(r.cell)
                    .str(": ")
                    .rsrp(r.meas.rsrp)
                    .str(" ")
                    .rsrq(r.meas.rsrq)
                    .str("\n");
            }
            lines.line()?.str("  }\n");
        }
        RrcMessage::ScgFailureInformation { failure } => {
            lines
                .line()?
                .str("  failureType = ")
                .str(failure.asn1())
                .str("\n");
        }
        RrcMessage::ReestablishmentRequest { cause } => {
            lines
                .line()?
                .str("  reestablishmentCause = ")
                .str(cause.asn1())
                .str("\n");
        }
        RrcMessage::ReestablishmentComplete { cell } => {
            lines
                .line()?
                .str("  reestablishmentCell = ")
                .cell(*cell)
                .str("\n");
        }
        _ => {}
    }
    Ok(())
}

fn emit_reconfig<W: fmt::Write>(body: &ReconfigBody, lines: &mut Lines<'_, W>) -> fmt::Result {
    if !body.scell_to_add_mod.is_empty() {
        lines.line()?.str("  sCellToAddModList {\n");
        for s in &body.scell_to_add_mod {
            lines
                .line()?
                .str("    {sCellIndex ")
                .u64(s.index.into())
                .str(", physCellId ")
                .u64(s.cell.pci.0.into())
                .str(", absoluteFrequencySSB ")
                .u64(s.cell.arfcn.into())
                .str("}\n");
        }
        lines.line()?.str("  }\n");
    }
    if !body.scell_to_release.is_empty() {
        lines.line()?.str("  sCellToReleaseList {");
        for (i, index) in body.scell_to_release.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            lines.line()?.str(sep).u64((*index).into());
        }
        lines.line()?.str("}\n");
    }
    if !body.meas_config.is_empty() {
        lines.line()?.str("  measConfig {\n");
        for ev in &body.meas_config {
            push_event(lines.line()?.str("    "), ev).str("\n");
        }
        lines.line()?.str("  }\n");
    }
    if let Some(sp) = body.sp_cell {
        lines
            .line()?
            .str("  spCellConfig {physCellId ")
            .u64(sp.pci.0.into())
            .str(", absoluteFrequencySSB ")
            .u64(sp.arfcn.into())
            .str("}\n");
    }
    if body.scg_release {
        lines.line()?.str("  scg-Release = true\n");
    }
    if let Some(target) = body.mobility_target {
        lines
            .line()?
            .str("  mobilityControlInfo {physCellId ")
            .u64(target.pci.0.into())
            .str(", targetFreq ")
            .u64(target.arfcn.into())
            .str("}\n");
    }
    Ok(())
}

/// Appends one measurement-event config line (no indent, no newline), the
/// parser's dual of [`crate::parse::parse_event_line`]: at most 106
/// bytes.
fn push_event<'b, const N: usize>(line: &'b mut LineBuf<N>, ev: &MeasEvent) -> &'b mut LineBuf<N> {
    let (q, unit) = match ev.quantity {
        TriggerQuantity::Rsrp => ("RSRP", "dBm"),
        TriggerQuantity::Rsrq => ("RSRQ", "dB"),
    };
    line.str(ev.kind.label())
        .str(" event on ")
        .u64(ev.arfcn.into())
        .str(": ")
        .str(q);
    match ev.kind {
        EventKind::A1 { threshold } | EventKind::A4 { threshold } | EventKind::B1 { threshold } => {
            line.str(" > ").deci_short(threshold.0).str(unit);
        }
        EventKind::A2 { threshold } => {
            line.str(" < ").deci_short(threshold.0).str(unit);
        }
        EventKind::A3 { offset } => {
            line.str(" offset > ").deci_short(offset).str(unit);
        }
        EventKind::A5 { t1, t2 } | EventKind::B2 { t1, t2 } => {
            line.str(" < ")
                .deci_short(t1.0)
                .str(unit)
                .str(" and ")
                .str(q)
                .str(" > ")
                .deci_short(t2.0)
                .str(unit);
        }
    }
    if ev.hysteresis != 0 {
        line.str(", hys ").deci_short(ev.hysteresis).str(unit);
    }
    line
}

/// [`push_event`] into a fresh `String`.
#[cfg(test)]
pub(crate) fn render_event(ev: &MeasEvent) -> String {
    push_event(&mut LineBuf::<MAX_LINE>::new(), ev)
        .as_str()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoff_rrc::events::Threshold;
    use onoff_rrc::ids::{CellId, Pci};
    use onoff_rrc::meas::Measurement;
    use onoff_rrc::messages::{MeasResult, MeasurementReport, ScellAddMod};
    use onoff_rrc::trace::{LogChannel, Timestamp};

    #[test]
    fn mib_record_matches_appendix_shape() {
        let cell = CellId::nr(Pci(393), 521310);
        let ev = TraceEvent::Rrc(LogRecord {
            t: Timestamp(19 * 3_600_000 + 43 * 60_000 + 31_635),
            rat: Rat::Nr,
            channel: LogChannel::BcchBch,
            context: Some(cell),
            msg: RrcMessage::Mib {
                cell,
                global_id: onoff_rrc::ids::GlobalCellId(0),
            },
        });
        let text = emit(&[ev]);
        assert_eq!(
            text,
            "19:43:31.635 NR5G RRC OTA Packet -- BCCH_BCH / MIB\n  \
             Physical Cell ID = 393, NR Cell Global ID = 0, Freq = 521310\n"
        );
    }

    #[test]
    fn scell_add_mod_list_shape() {
        let body = ReconfigBody {
            scell_to_add_mod: vec![
                ScellAddMod {
                    index: 1,
                    cell: CellId::nr(Pci(273), 387410),
                },
                ScellAddMod {
                    index: 2,
                    cell: CellId::nr(Pci(273), 398410),
                },
            ]
            .into(),
            scell_to_release: vec![1, 3].into(),
            ..Default::default()
        };
        let ev = TraceEvent::Rrc(LogRecord {
            t: Timestamp(0),
            rat: Rat::Nr,
            channel: LogChannel::DlDcch,
            context: Some(CellId::nr(Pci(393), 521310)),
            msg: RrcMessage::Reconfiguration(body),
        });
        let text = emit(&[ev]);
        assert!(text.contains("sCellToAddModList {"));
        assert!(text.contains("{sCellIndex 1, physCellId 273, absoluteFrequencySSB 387410}"));
        assert!(text.contains("sCellToReleaseList {1, 3}"));
    }

    #[test]
    fn meas_report_shape() {
        let report = MeasurementReport {
            trigger: Some("A3".into()),
            results: vec![MeasResult {
                cell: CellId::nr(Pci(540), 501390),
                meas: Measurement::new(-80.0, -10.5),
            }]
            .into(),
        };
        let ev = TraceEvent::Rrc(LogRecord {
            t: Timestamp(0),
            rat: Rat::Nr,
            channel: LogChannel::UlDcch,
            context: None,
            msg: RrcMessage::MeasurementReport(report),
        });
        let text = emit(&[ev]);
        assert!(text.contains("trigger = A3"));
        assert!(text.contains("540@501390: -80.0dBm -10.5dB"));
    }

    #[test]
    fn mm_and_throughput_records() {
        let mut out = String::new();
        emit_event(
            &TraceEvent::Mm {
                t: Timestamp(1000),
                state: MmState::DeregisteredNoCellAvailable,
            },
            &mut out,
        )
        .unwrap();
        emit_event(
            &TraceEvent::Throughput {
                t: Timestamp(2000),
                mbps: 203.25,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(
            out,
            "00:00:01.000 MM5G State = DEREGISTERED\n  \
             Mm5g Deregistered Substate = NO_CELL_AVAILABLE\n\
             00:00:02.000 Throughput = 203.25 Mbps\n"
        );
    }

    #[test]
    fn deci_rendering() {
        let short = |v| LineBuf::<16>::new().deci_short(v).as_str().to_string();
        assert_eq!(short(-1560), "-156");
        assert_eq!(short(-1085), "-108.5");
        assert_eq!(short(60), "6");
        assert_eq!(short(0), "0");
        assert_eq!(short(5), "0.5");
        assert_eq!(short(-5), "-0.5");
    }

    #[test]
    fn render_matches_appendix_style() {
        let a2 = MeasEvent::new(
            EventKind::A2 {
                threshold: Threshold::from_db(-156.0),
            },
            TriggerQuantity::Rsrp,
            387410,
        );
        assert_eq!(render_event(&a2), "A2 event on 387410: RSRP < -156dBm");
        let a3 = MeasEvent::new(EventKind::A3 { offset: 60 }, TriggerQuantity::Rsrq, 5815);
        assert_eq!(render_event(&a3), "A3 event on 5815: RSRQ offset > 6dB");
        let b1 = MeasEvent::new(
            EventKind::B1 {
                threshold: Threshold::from_db(-115.0),
            },
            TriggerQuantity::Rsrp,
            648672,
        );
        assert_eq!(render_event(&b1), "B1 event on 648672: RSRP > -115dBm");
    }

    #[test]
    fn event_rendering_with_hysteresis() {
        let mut ev = MeasEvent::new(
            EventKind::A2 {
                threshold: Threshold::from_db(-116.0),
            },
            TriggerQuantity::Rsrp,
            648672,
        );
        assert_eq!(render_event(&ev), "A2 event on 648672: RSRP < -116dBm");
        ev.hysteresis = 15;
        assert_eq!(
            render_event(&ev),
            "A2 event on 648672: RSRP < -116dBm, hys 1.5dBm"
        );
    }

    #[test]
    fn lte_message_names() {
        assert_eq!(
            message_name(
                Rat::Lte,
                &RrcMessage::Reconfiguration(ReconfigBody::default())
            ),
            "RRCConnectionReconfiguration"
        );
        assert_eq!(message_name(Rat::Nr, &RrcMessage::Setup), "RRC Setup");
        assert_eq!(
            message_name(Rat::Lte, &RrcMessage::Setup),
            "RRC Connection Setup"
        );
    }
}
