//! Byte-level pins of the text codec.
//!
//! * `emit` over simulated SA and NSA traces, and over a hand-built trace
//!   with every record shape, is fingerprinted (FNV-1a-64 of the text), so
//!   any change to a rendered byte moves a digest.
//! * `parse_str_lossy` over chaos-corrupted copies of those logs is
//!   fingerprinted under all three recovery policies (events plus
//!   `ParseStats`), so any change to what the parser accepts, skips or
//!   counts moves a digest.
//! * The field formatters are checked against `format!` oracles on their
//!   edge cases (the sign of deci values in (-10, 0), extreme ids,
//!   timestamps past 99 h), and the line classifier against `char::is_whitespace` on
//!   the characters where it differs from `u8::is_ascii_whitespace`.

use onoff_nsglog::{emit, emit_event, parse_str, parse_str_lossy, ParseErrorKind, RecoveryPolicy};
use onoff_policy::{op_a_policy, op_t_policy, op_v_policy, PhoneModel};
use onoff_radio::{CellSite, Point, RadioEnvironment};
use onoff_rrc::events::{EventKind, MeasEvent, Threshold, TriggerQuantity};
use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
use onoff_rrc::meas::{Measurement, Rsrp, Rsrq};
use onoff_rrc::messages::{
    MeasResult, MeasurementReport, ReconfigBody, ReestablishmentCause, RrcMessage, ScellAddMod,
    ScgFailureType, Trigger,
};
use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};
use onoff_sim::{simulate, ChaosConfig, ChaosEngine, SimConfig};

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::FailFast,
    RecoveryPolicy::SkipAndCount,
    RecoveryPolicy::RepairTimestamps,
];

fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn site(cell: CellId, x: f64, y: f64, bw: f64, tx: f64) -> CellSite {
    let tower = Point::new(x, y);
    let mut s = CellSite::macro_site(cell, tower, tower.bearing_to(Point::new(0.0, 0.0)), bw);
    s.tx_power_dbm = tx;
    s.shadow_sigma_db = 2.0;
    s
}

fn run(
    policy: onoff_policy::OperatorPolicy,
    env: RadioEnvironment,
    at: Point,
    seed: u64,
) -> Vec<TraceEvent> {
    let cfg = SimConfig {
        meas_period_ms: 1000,
        duration_ms: 120_000,
        ..SimConfig::stationary(policy, PhoneModel::OnePlus12R, env, at, seed)
    };
    simulate(&cfg).events
}

/// OP_T (SA) at the paper's P16-style site: PCell pair on 521310/501390
/// plus the 387410 SCell overlay whose co-channel rival drives S1E3.
fn sa_trace() -> Vec<TraceEvent> {
    let env = RadioEnvironment::new(
        7,
        vec![
            site(CellId::nr(Pci(393), 521310), -250.0, 80.0, 90.0, 18.0),
            site(CellId::nr(Pci(393), 501390), -250.0, 80.0, 100.0, 18.0),
            site(CellId::nr(Pci(273), 398410), -250.0, 80.0, 10.0, 16.0),
            site(CellId::nr(Pci(273), 387410), -250.0, 80.0, 10.0, 16.0),
            site(CellId::nr(Pci(371), 387410), 240.0, -100.0, 10.0, 20.0),
        ],
    );
    run(op_t_policy(), env, Point::new(0.0, 0.0), 11)
}

/// OP_A (NSA): one tower with the 5815/5145 LTE anchor pair and two n77
/// SCG carriers, the handover flip-flop behind N2E1.
fn nsa_a_trace() -> Vec<TraceEvent> {
    let env = RadioEnvironment::new(
        21,
        vec![
            site(CellId::lte(Pci(380), 5815), -300.0, 0.0, 10.0, 19.0),
            site(CellId::lte(Pci(380), 5145), -300.0, 0.0, 10.0, 17.0),
            site(CellId::nr(Pci(53), 632736), -300.0, 0.0, 40.0, 22.0),
            site(CellId::nr(Pci(53), 658080), -300.0, 0.0, 40.0, 22.0),
        ],
    );
    run(op_a_policy(), env, Point::new(0.0, 0.0), 3)
}

/// OP_V (NSA): two towers sharing the 5230 anchor and two n77 channels,
/// the co-channel swap that releases the SCG.
fn nsa_v_trace() -> Vec<TraceEvent> {
    let env = RadioEnvironment::new(
        22,
        vec![
            site(CellId::lte(Pci(97), 5230), -280.0, 0.0, 10.0, 19.0),
            site(CellId::lte(Pci(310), 5230), 280.0, 30.0, 10.0, 19.0),
            site(CellId::nr(Pci(97), 648672), -280.0, 0.0, 60.0, 21.0),
            site(CellId::nr(Pci(97), 653952), -280.0, 0.0, 60.0, 21.0),
            site(CellId::nr(Pci(310), 648672), 280.0, 30.0, 60.0, 21.0),
            site(CellId::nr(Pci(310), 653952), 280.0, 30.0, 60.0, 21.0),
        ],
    );
    run(op_v_policy(), env, Point::new(0.0, 10.0), 5)
}

fn rrc(t: u64, rat: Rat, context: Option<CellId>, msg: RrcMessage) -> TraceEvent {
    TraceEvent::Rrc(LogRecord {
        t: Timestamp(t),
        rat,
        channel: LogChannel::for_message(&msg),
        context,
        msg,
    })
}

/// Every record shape the grammar has, with the numeric extremes each
/// field can carry.
fn every_shape() -> Vec<TraceEvent> {
    let nr = CellId::nr(Pci(393), 521310);
    let lte = CellId::lte(Pci(380), 5815);
    let far = CellId::nr(Pci(u16::MAX), u32::MAX);
    let ev = |kind, quantity, arfcn, hysteresis| MeasEvent {
        kind,
        quantity,
        hysteresis,
        arfcn,
    };
    let th = Threshold;
    vec![
        rrc(
            0,
            Rat::Nr,
            Some(nr),
            RrcMessage::Mib {
                cell: nr,
                global_id: GlobalCellId(0),
            },
        ),
        rrc(
            7,
            Rat::Lte,
            Some(lte),
            RrcMessage::Sib1 {
                cell: lte,
                q_rx_lev_min_deci: -1405,
            },
        ),
        rrc(
            9,
            Rat::Lte,
            Some(lte),
            RrcMessage::SetupRequest {
                cell: lte,
                global_id: GlobalCellId(u64::MAX),
            },
        ),
        rrc(10, Rat::Lte, Some(lte), RrcMessage::Setup),
        rrc(11, Rat::Nr, None, RrcMessage::SetupComplete),
        rrc(
            12,
            Rat::Nr,
            Some(far),
            RrcMessage::Reconfiguration(ReconfigBody {
                scell_to_add_mod: vec![
                    ScellAddMod {
                        index: 0,
                        cell: CellId::nr(Pci(0), 387410),
                    },
                    ScellAddMod {
                        index: u8::MAX,
                        cell: far,
                    },
                ]
                .into(),
                scell_to_release: vec![1, 0, 255].into(),
                meas_config: vec![
                    ev(
                        EventKind::A1 { threshold: th(-5) },
                        TriggerQuantity::Rsrq,
                        850,
                        0,
                    ),
                    ev(
                        EventKind::A2 {
                            threshold: th(-1560),
                        },
                        TriggerQuantity::Rsrp,
                        387410,
                        15,
                    ),
                    ev(EventKind::A3 { offset: 60 }, TriggerQuantity::Rsrp, 0, -5),
                    ev(
                        EventKind::A4 { threshold: th(0) },
                        TriggerQuantity::Rsrp,
                        1,
                        0,
                    ),
                    ev(
                        EventKind::A5 {
                            t1: th(-1185),
                            t2: th(-1200),
                        },
                        TriggerQuantity::Rsrq,
                        u32::MAX,
                        1,
                    ),
                    ev(
                        EventKind::B1 { threshold: th(-9) },
                        TriggerQuantity::Rsrp,
                        648672,
                        -10,
                    ),
                    ev(
                        EventKind::B2 {
                            t1: th(-195),
                            t2: th(120),
                        },
                        TriggerQuantity::Rsrq,
                        5815,
                        0,
                    ),
                ],
                sp_cell: Some(CellId::nr(Pci(7), 632736)),
                scg_release: true,
                mobility_target: Some(CellId::lte(Pci(12), 5145)),
            }),
        ),
        rrc(
            13,
            Rat::Nr,
            Some(nr),
            RrcMessage::Reconfiguration(ReconfigBody::default()),
        ),
        rrc(14, Rat::Lte, Some(lte), RrcMessage::ReconfigurationComplete),
        rrc(
            15,
            Rat::Nr,
            None,
            RrcMessage::MeasurementReport(MeasurementReport {
                trigger: Some(Trigger::Other("periodical".into())),
                results: vec![
                    MeasResult {
                        cell: far,
                        meas: Measurement {
                            rsrp: Rsrp::from_deci(-1560),
                            rsrq: Rsrq::from_deci(-5),
                        },
                    },
                    MeasResult {
                        cell: lte,
                        meas: Measurement {
                            rsrp: Rsrp::from_deci(0),
                            rsrq: Rsrq::from_deci(200),
                        },
                    },
                ]
                .into(),
            }),
        ),
        rrc(
            16,
            Rat::Lte,
            Some(lte),
            RrcMessage::MeasurementReport(MeasurementReport {
                trigger: None,
                results: Default::default(),
            }),
        ),
        rrc(
            17,
            Rat::Lte,
            Some(lte),
            RrcMessage::ScgFailureInformation {
                failure: ScgFailureType::RandomAccessProblem,
            },
        ),
        rrc(
            18,
            Rat::Nr,
            None,
            RrcMessage::ReestablishmentRequest {
                cause: ReestablishmentCause::HandoverFailure,
            },
        ),
        rrc(
            19,
            Rat::Lte,
            Some(lte),
            RrcMessage::ReestablishmentComplete { cell: lte },
        ),
        rrc(20, Rat::Nr, Some(nr), RrcMessage::Release),
        TraceEvent::Mm {
            t: Timestamp(21),
            state: MmState::DeregisteredNoCellAvailable,
        },
        TraceEvent::Mm {
            t: Timestamp(359_999_999),
            state: MmState::Registered,
        },
        TraceEvent::Throughput {
            t: Timestamp(360_000_000),
            mbps: 0.1 + 0.2,
        },
        TraceEvent::Throughput {
            t: Timestamp(u64::MAX),
            mbps: -0.0,
        },
    ]
}

/// The logs every digest below is taken over, with their names.
/// `sa-skewed` carries duplicated, displaced and clock-skewed records, so
/// the timestamp-repairing policy has rollbacks to clamp.
fn logs() -> [(&'static str, String); 5] {
    let skewed =
        ChaosEngine::new(ChaosConfig::default().with_intensity(4.0), 9).corrupt_events(&sa_trace());
    [
        ("sa", emit(&sa_trace())),
        ("sa-skewed", emit(&skewed)),
        ("nsa-a", emit(&nsa_a_trace())),
        ("nsa-v", emit(&nsa_v_trace())),
        ("every-shape", emit(&every_shape())),
    ]
}

#[test]
fn emitted_logs_cover_every_line_shape() {
    let [(_, sa), _, (_, nsa_a), (_, nsa_v), (_, every)] = logs();
    let nsa = format!("{nsa_a}{nsa_v}");
    for (name, text, markers) in [
        (
            "sa",
            &sa,
            &[
                "  measResults {",
                "  sCellToAddModList {",
                "  sCellToReleaseList {",
                "  measConfig {",
                " MM5G State = DEREGISTERED\n  Mm5g Deregistered Substate = ",
                " Throughput = ",
            ][..],
        ),
        (
            "nsa",
            &nsa,
            &[
                " LTE RRC OTA Packet -- ",
                "  trigger = ",
                "  measResults {",
                "  measConfig {",
                "  spCellConfig {",
                "  mobilityControlInfo {",
                " Throughput = ",
            ][..],
        ),
        (
            "every-shape",
            &every,
            &[
                " MM5G State = REGISTERED",
                "  q-RxLevMin = ",
                "  scg-Release = true",
                "  failureType = ",
                "  reestablishmentCause = ",
                "  reestablishmentCell = ",
                ", hys ",
            ][..],
        ),
    ] {
        for m in markers {
            assert!(text.contains(m), "{name} log has no {m:?} line");
        }
    }
}

#[test]
fn emit_matches_the_golden_digests() {
    let want = [
        ("sa", "ce5151eb5bdba07d"),
        ("sa-skewed", "0054b83ccba8b2d5"),
        ("nsa-a", "ce3c17690ff67df5"),
        ("nsa-v", "b882644ea89076a6"),
        ("every-shape", "007c746ca8e184bf"),
    ];
    for ((name, text), (want_name, want)) in logs().iter().zip(want) {
        assert_eq!(*name, want_name);
        assert_eq!(fnv1a(text.as_bytes()), want, "{name}: {} bytes", text.len());
    }
}

#[test]
fn every_shape_roundtrips() {
    let events = every_shape();
    assert_eq!(parse_str(&emit(&events)).unwrap(), events);
}

/// Digest of one lossy parse: the surviving events and the full loss
/// accounting (per-kind counts, discarded lines, the first error).
fn lossy_digest(text: &str, policy: RecoveryPolicy) -> String {
    let (events, stats) = parse_str_lossy(text, policy);
    fnv1a(format!("{events:?}\n{stats:?}").as_bytes())
}

#[test]
fn lossy_parse_of_corrupted_logs_matches_the_golden_digests() {
    // (log, chaos intensity, chaos seed) → one digest per policy.
    let want: [(&str, f64, u64, [&str; 3]); 7] = [
        (
            "sa",
            1.0,
            1,
            ["67146f8d4923d763", "12e7b0833d69f122", "12e7b0833d69f122"],
        ),
        (
            "sa",
            8.0,
            2,
            ["5a40b39af75ad579", "188d847ebba68130", "188d847ebba68130"],
        ),
        (
            "sa-skewed",
            1.0,
            7,
            ["d9f7bc00549e2658", "c478ea63f5a716c8", "5f6baa2d95e4cf35"],
        ),
        (
            "nsa-a",
            1.0,
            3,
            ["75589ca24aa2eae3", "37cd067992f440c2", "37cd067992f440c2"],
        ),
        (
            "nsa-v",
            8.0,
            4,
            ["05554fb0e83f88af", "094a211ca8d3e9c4", "094a211ca8d3e9c4"],
        ),
        (
            "every-shape",
            20.0,
            5,
            ["9f6598f1d21f69e1", "3d08883657b23174", "3d08883657b23174"],
        ),
        (
            "every-shape",
            60.0,
            6,
            ["c82c538de7a9b48d", "e0d8d7feb49dd8a0", "e0d8d7feb49dd8a0"],
        ),
    ];
    let logs = logs();
    for (log, intensity, seed, digests) in want {
        let (_, text) = logs.iter().find(|(n, _)| *n == log).expect("known log");
        let cfg = ChaosConfig::default().with_intensity(intensity);
        let dirty = ChaosEngine::new(cfg, seed).corrupt_text(text);
        for (policy, want) in POLICIES.into_iter().zip(digests) {
            assert_eq!(
                lossy_digest(&dirty, policy),
                want,
                "{log} x{intensity} seed {seed} {policy:?}"
            );
        }
    }
}

/// `Rsrp`/`Rsrq` `Display` as it was written with `format!`.
fn meas_oracle(v: i32, unit: &str) -> String {
    let sign = if v < 0 { "-" } else { "" };
    let a = v.abs();
    format!("{sign}{}.{}{unit}", a / 10, a % 10)
}

/// Threshold/offset/hysteresis text as it was written with `format!`.
fn deci_oracle(v: i32) -> String {
    if v % 10 == 0 {
        format!("{}", v / 10)
    } else {
        format!("{:.1}", v as f64 / 10.0)
    }
}

#[test]
fn measurement_writers_match_format_on_every_deci_value() {
    for v in -1500..=1500 {
        assert_eq!(Rsrp::from_deci(v).to_string(), meas_oracle(v, "dBm"), "{v}");
        assert_eq!(Rsrq::from_deci(v).to_string(), meas_oracle(v, "dB"), "{v}");
        let row = MeasResult {
            cell: CellId::nr(Pci(540), 501390),
            meas: Measurement {
                rsrp: Rsrp::from_deci(v),
                rsrq: Rsrq::from_deci(-v),
            },
        };
        let text = emit(&[rrc(
            0,
            Rat::Nr,
            None,
            RrcMessage::MeasurementReport(MeasurementReport {
                trigger: None,
                results: vec![row].into(),
            }),
        )]);
        let want = format!(
            "    540@501390: {} {}\n",
            meas_oracle(v, "dBm"),
            meas_oracle(-v, "dB")
        );
        assert!(text.contains(&want), "{v}: {text:?}");
    }
    // (-10, 0) keeps its sign although the integer part is 0.
    assert_eq!(Rsrp::from_deci(-5).to_string(), "-0.5dBm");
    assert_eq!(Rsrq::from_deci(-9).to_string(), "-0.9dB");
    assert_eq!(Rsrq::from_deci(0).to_string(), "0.0dB");
}

#[test]
fn event_writers_match_format_on_every_deci_value() {
    for v in -1500..=1500 {
        let ev = MeasEvent {
            kind: EventKind::A5 {
                t1: Threshold(v),
                t2: Threshold(-v),
            },
            quantity: TriggerQuantity::Rsrp,
            hysteresis: v,
            arfcn: 387410,
        };
        let text = emit(&[rrc(
            0,
            Rat::Nr,
            None,
            RrcMessage::Reconfiguration(ReconfigBody {
                meas_config: vec![ev],
                ..Default::default()
            }),
        )]);
        let hys = if v == 0 {
            String::new()
        } else {
            format!(", hys {}dBm", deci_oracle(v))
        };
        let want = format!(
            "    A5 event on 387410: RSRP < {}dBm and RSRP > {}dBm{hys}\n",
            deci_oracle(v),
            deci_oracle(-v)
        );
        assert!(text.contains(&want), "{v}: {text:?}");
    }
    assert_eq!(deci_oracle(-5), "-0.5");
}

#[test]
fn id_writers_match_format_at_the_extremes() {
    for (pci, arfcn) in [
        (0, 0),
        (65535, u32::MAX),
        (0, u32::MAX),
        (65535, 0),
        (393, 521310),
    ] {
        let cell = CellId::nr(Pci(pci), arfcn);
        assert_eq!(cell.to_string(), format!("{pci}@{arfcn}"));
        let text = emit(&[rrc(
            0,
            Rat::Nr,
            Some(cell),
            RrcMessage::Mib {
                cell,
                global_id: GlobalCellId(u64::MAX),
            },
        )]);
        assert_eq!(
            text,
            format!(
                "00:00:00.000 NR5G RRC OTA Packet -- BCCH_BCH / MIB\n  \
                 Physical Cell ID = {pci}, NR Cell Global ID = {}, Freq = {arfcn}\n",
                u64::MAX
            )
        );
    }
}

#[test]
fn hms_writer_matches_format_past_99_hours() {
    let oracle = |t: u64| {
        let ms = t % 1000;
        let s = (t / 1000) % 60;
        let m = (t / 60_000) % 60;
        let h = t / 3_600_000;
        format!("{h:02}:{m:02}:{s:02}.{ms:03}")
    };
    let hour = 3_600_000u64;
    for t in [
        0,
        1,
        999,
        59_999,
        hour - 1,
        99 * hour + 59 * 60_000 + 59_999,
        100 * hour,
        1000 * hour + 1,
        123_456_789_012,
        u64::MAX - 1,
        u64::MAX,
    ] {
        let want = oracle(t);
        assert_eq!(Timestamp(t).hms(), want, "{t}");
        assert_eq!(Timestamp(t).to_string(), want, "{t}");
        let mut line = String::new();
        emit_event(
            &TraceEvent::Mm {
                t: Timestamp(t),
                state: MmState::Registered,
            },
            &mut line,
        )
        .unwrap();
        assert_eq!(line, format!("{want} MM5G State = REGISTERED\n"));
    }
    assert_eq!(Timestamp(100 * hour).hms(), "100:00:00.000");
}

#[test]
fn line_classification_follows_char_is_whitespace() {
    const HEAD: &str = "00:00:01.000 NR5G RRC OTA Packet -- BCCH_BCH / MIB";
    // U+000B is whitespace to `char::is_whitespace` but not to
    // `u8::is_ascii_whitespace`; U+00A0, U+0085 and U+3000 are non-ASCII
    // whitespace. Each indents a continuation line and blanks a line.
    for ws in ["\u{b}", "\u{c}", "\t", "\u{a0}", "\u{85}", "\u{3000}"] {
        let text = format!("{HEAD}\n{ws}Physical Cell ID = 393, Freq = 521310{ws}\n{ws}\n");
        let events = parse_str(&text).unwrap_or_else(|e| panic!("{ws:?}: {e}"));
        assert_eq!(events.len(), 1, "{ws:?}");
        let (_, stats) = parse_str_lossy(
            &format!("{ws}\n{ws}orphan\n{text}"),
            RecoveryPolicy::SkipAndCount,
        );
        assert_eq!(
            (stats.records, stats.parsed, stats.lines_discarded),
            (2, 1, 0),
            "{ws:?}"
        );
        assert_eq!(
            stats.first_error.map(|e| (e.line, e.kind, e.text)),
            Some((2, ParseErrorKind::OrphanContinuation, "orphan".to_string())),
            "{ws:?}"
        );
    }
    // A non-whitespace non-ASCII first character starts a (bad) record.
    let err = parse_str("é00:00:01.000 Throughput = 1.0 Mbps\n").unwrap_err();
    assert_eq!((err.line, err.kind), (1, ParseErrorKind::BadTimestamp));
    // Trailing whitespace after a closing brace is not part of the
    // one-line list grammar: the field stays malformed.
    let text = format!(
        "{}\n  sCellToReleaseList {{1}} \n",
        "00:00:01.000 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration"
    );
    assert_eq!(
        parse_str(&text).unwrap_err().kind,
        ParseErrorKind::BadField("sCellToReleaseList")
    );
    // ...while block delimiters and rows are matched trimmed.
    let text = "00:00:01.000 NR5G RRC OTA Packet -- UL_DCCH / MeasurementReport\n\
                \u{3000}measResults {\u{b}\n\t 1@521310: -80.0dBm -10.5dB \u{a0}\n  }\u{85}\n";
    let events = parse_str(text).unwrap();
    match &events[0] {
        TraceEvent::Rrc(LogRecord {
            msg: RrcMessage::MeasurementReport(r),
            ..
        }) => assert_eq!(r.results.len(), 1),
        other => panic!("{other:?}"),
    }
}
