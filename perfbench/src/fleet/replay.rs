//! The traced run's in-process replay: a fixed prefix of the request mix
//! through each serving layer's public calls, on one thread.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use onoff_detect::{ScoringConfig, TraceAnalyzer};
use onoff_nsglog::RecoveryPolicy;
use onoff_predict::OnlineScorer;
use onoff_rrc::trace::TraceEvent;
use onoff_serve::{
    snapshot_path, FrameBuf, Request, Response, ServeEngine, SessionMeta, SessionTable,
};
use onoff_store::StoreReader;

use super::load::{Op, OpGen, Wire};
use super::{check_report, make_traces, Expected, Spec, Trace};
use crate::trace::Tracer;

/// The replayed request prefix: the connections' sequences interleaved.
fn replay_ops(spec: &Spec, traces: &[Trace], seed: u64, nconn: usize) -> Vec<Op> {
    let mut gens: Vec<OpGen> = (0..nconn).map(|c| OpGen::new(*spec, seed, c)).collect();
    (0..spec.replay)
        .map(|i| gens[i as usize % nconn].next(traces))
        .collect()
}

/// Per-layer outputs of the in-process replay.
pub(super) struct Replay {
    /// Wall clock of the section up to the correctness checks (which,
    /// like freeing the section's state, lie outside every span).
    pub(super) wall_s: f64,
    pub(super) resident_events: usize,
    pub(super) bytes_used: usize,
    pub(super) evictions: u64,
    pub(super) restores: u64,
    pub(super) requests: u64,
}

/// The in-process traced section: generation, the layer pass, the
/// snapshot probe, the oracle (detect and predict) and the engine pass.
pub(super) fn traced_section(
    spec: &Spec,
    seed: u64,
    nconn: usize,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let started = Instant::now();
    let traces = make_traces(seed, spec, tr);
    let ops = replay_ops(spec, &traces, seed, nconn);
    let wire = Wire::new();
    let mut scratch = Vec::new();

    // Layer pass: the calls `ServeEngine::handle` composes, one by one.
    let snap_dir = dir.join("layers");
    let table = SessionTable::new(spec.serve_config(Some(snap_dir.clone())));
    let mut decoded: Vec<(Vec<TraceEvent>, SessionMeta, usize)> =
        vec![(Vec::new(), SessionMeta::default(), 0); traces.len()];
    let mut live: HashMap<u64, usize> = HashMap::new();
    let mut finals = Vec::new();
    for &op in &ops {
        match op {
            Op::Ingest { sid, trace, frame } => {
                let payload = &traces[trace].frames[frame];
                let meta = if spec.bin {
                    let stats = tr.span("store.decode", |_| {
                        StoreReader::new(payload).and_then(|r| {
                            r.read_all_into(RecoveryPolicy::SkipAndCount, &mut scratch)
                        })
                    });
                    let stats = stats.map_err(|e| format!("store decode: {e}"))?;
                    SessionMeta {
                        records: stats.decoded + stats.skipped,
                        parsed: stats.decoded,
                        skipped: stats.skipped,
                    }
                } else {
                    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
                    let stats = tr.span("nsglog.parse", |_| {
                        onoff_nsglog::parse_str_lossy_into(
                            text,
                            RecoveryPolicy::SkipAndCount,
                            &mut scratch,
                        )
                    });
                    tr.count("parse.records", stats.records as f64);
                    tr.count("parse.skipped", stats.skipped as f64);
                    SessionMeta {
                        records: stats.records,
                        parsed: stats.parsed,
                        skipped: stats.skipped,
                    }
                };
                tr.count("decoded.events", scratch.len() as f64);
                // The oracle's copy of each trace: every frame the first
                // time any session streams it.
                let (events, m, frames) = &mut decoded[trace];
                if *frames == frame {
                    events.extend_from_slice(&scratch);
                    m.records += meta.records;
                    m.parsed += meta.parsed;
                    m.skipped += meta.skipped;
                    *frames += 1;
                }
                let n = scratch.len();
                tr.span("session.ingest", |_| {
                    table.ingest_drain(sid, &mut scratch, meta)
                })
                .map_err(|e| format!("session {sid}: ingest refused: {e}"))?;
                tr.count("session.events", n as f64);
                *live.entry(sid).or_default() += n;
            }
            Op::Query { sid } => {
                tr.span("session.query", |_| table.query(sid))
                    .map_err(|e| format!("session {sid}: query refused: {e}"))?;
                tr.count("session.queries", 1.0);
            }
            Op::End { sid, trace } => {
                let report = tr
                    .span("session.end", |_| table.end_session(sid))
                    .map_err(|e| format!("session {sid}: end refused: {e}"))?;
                live.remove(&sid);
                finals.push((sid, trace, report));
            }
            Op::Ping => {}
        }
    }
    let stats = table.stats();
    let spilled: std::collections::HashSet<u64> = std::fs::read_dir(&snap_dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| {
                    let name = e.file_name().into_string().ok()?;
                    let hex = name.strip_prefix("session-")?.strip_suffix(".osnp")?;
                    u64::from_str_radix(hex, 16).ok()
                })
                .collect()
        })
        .unwrap_or_default();
    let resident: Vec<u64> = live
        .keys()
        .copied()
        .filter(|s| !spilled.contains(s))
        .collect();
    let mut out = Replay {
        wall_s: 0.0,
        resident_events: resident.iter().map(|s| live[s]).sum(),
        bytes_used: table.bytes_used(),
        evictions: stats.evictions,
        restores: stats.restores,
        requests: ops.len() as u64,
    };

    // Snapshot probe: spill every resident session through the table's
    // eviction hook, then bring it back through the table's own restore
    // path with an ingest of no events, which restores the session and
    // feeds it nothing. The table's restore counter must show each one.
    if spec.bin {
        let mut nothing = Vec::new();
        for &sid in &resident {
            if !tr.span("snapshot.evict", |_| table.evict(sid)) {
                return Err(format!("session {sid}: eviction failed"));
            }
            let path = snapshot_path(&snap_dir, sid);
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            tr.count("snapshot.evicted", 1.0);
            tr.count("snapshot.bytes", bytes as f64);
            tr.span("snapshot.restore", |_| {
                table.ingest_drain(sid, &mut nothing, SessionMeta::default())
            })
            .map_err(|e| format!("session {sid}: restore refused: {e}"))?;
        }
        let restored = table.stats().restores - stats.restores;
        if restored != resident.len() as u64 {
            return Err(format!(
                "the probe restored {restored} of {} evicted sessions",
                resident.len()
            ));
        }
    }

    // The oracle, as the detect and predict layers over each trace.
    let mut want: Vec<Option<Expected>> = vec![None; traces.len()];
    for (t, (events, meta, frames)) in decoded.iter().enumerate() {
        if *frames < traces[t].frames.len() {
            continue;
        }
        tr.count("oracle.events", events.len() as f64);
        let analysis = tr.span("detect", |_| {
            let mut core = TraceAnalyzer::new();
            for ev in events {
                core.feed(ev);
            }
            core.finish()
        });
        let predictions = tr.span("predict", |_| {
            let mut scorer = OnlineScorer::new(ScoringConfig::default());
            for ev in events {
                scorer.feed(ev);
            }
            scorer.report()
        });
        want[t] = Some(Expected {
            events: events.len(),
            meta: *meta,
            analysis,
            predictions,
        });
    }

    // Engine pass: the same requests as wire frames through the protocol
    // decoder and `ServeEngine::handle`.
    let engine = ServeEngine::new(spec.serve_config(Some(dir.join("engine"))));
    let mut fb = FrameBuf::new();
    let mut frame = Vec::new();
    let mut reports = Vec::new();
    for &op in &ops {
        frame.clear();
        wire.frame(spec, &traces, op, &mut frame);
        let req = tr.span("protocol.decode", |_| {
            fb.push(&frame);
            let (kind, payload) = fb
                .next_frame()
                .map_err(|e| e.to_string())?
                .ok_or("incomplete frame")?;
            Request::decode(kind, &payload).map_err(|e| e.to_string())
        })?;
        tr.count("protocol.frames", 1.0);
        let name = match op {
            Op::Ingest { .. } if spec.bin => "engine.bin",
            Op::Ingest { .. } => "engine.text",
            Op::Query { .. } => "engine.query",
            Op::End { .. } => "engine.end",
            Op::Ping => "engine.ping",
        };
        let resp = tr.span(name, |_| engine.handle(req));
        let bytes = tr.span("protocol.encode", |_| resp.encode());
        std::hint::black_box(bytes);
        match (op, resp) {
            (Op::End { sid, trace }, Response::Json { payload }) => {
                reports.push((sid, trace, payload))
            }
            (_, Response::Ok { .. } | Response::Json { .. }) => {}
            (_, other) => return Err(format!("engine answered {op:?} with {other:?}")),
        }
    }

    out.wall_s = started.elapsed().as_secs_f64();
    // Correctness, outside every span: both passes against the oracle.
    for (sid, trace, payload) in &reports {
        let want = want[*trace]
            .as_ref()
            .ok_or("ended a session on an unseen trace")?;
        check_report(*sid, payload, want)?;
    }
    for (sid, trace, f) in &finals {
        let want = want[*trace]
            .as_ref()
            .ok_or("ended a session on an unseen trace")?;
        if f.analysis != want.analysis || f.predictions.as_ref() != Some(&want.predictions) {
            return Err(format!(
                "session {sid}: session-table report differs from the offline analysis"
            ));
        }
    }
    Ok(out)
}
