//! Driving the daemon: the daemon child, the generated request mix, and
//! the single generator thread that floods and then paces it.

use std::collections::{BTreeMap, VecDeque};
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use onoff_radio::noise::hash_words;
use onoff_serve::{Client, FleetMetrics, FrameBuf, Request, Response};

use super::{
    check_report, lat, Expected, Rng, Spec, Trace, DRAIN_TIMEOUT, LATE_SHARE, PING_EVERY,
    SETUP_REPS, TRACES, WINDOW,
};
use crate::schedule::Schedule;
use crate::stats::{median, percentile, Outcomes};
use crate::vm_hwm_mb;

/// A request of the generated mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Op {
    Ingest {
        sid: u64,
        trace: usize,
        frame: usize,
    },
    Query {
        sid: u64,
    },
    End {
        sid: u64,
        trace: usize,
    },
    Ping,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    sid: u64,
    trace: usize,
    next: usize,
}

/// One connection's deterministic request sequence: open sessions stream
/// their trace frame by frame and end when it runs out, replaced by a new
/// session on another trace; queries and pings are interleaved at fixed
/// intervals.
pub(super) struct OpGen {
    spec: Spec,
    rng: Rng,
    slots: Vec<Slot>,
    /// Cumulative slot weights (Zipf over slot rank).
    cdf: Vec<f64>,
    next_sid: u64,
    counter: u64,
    pending_end: Option<(u64, usize)>,
}

impl OpGen {
    pub(super) fn new(spec: Spec, seed: u64, conn: usize) -> OpGen {
        let mut rng = Rng(hash_words(&[seed, conn as u64, 0x0F1E]));
        let base = (conn as u64 + 1) << 40;
        let slots = (0..spec.slots)
            .map(|i| Slot {
                sid: base + i as u64,
                trace: rng.below(TRACES),
                next: 0,
            })
            .collect();
        let weights: Vec<f64> = (0..spec.slots)
            .map(|r| 1.0 / (r as f64 + 1.0).powf(spec.skew))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        OpGen {
            spec,
            rng,
            slots,
            cdf,
            next_sid: base + spec.slots as u64,
            counter: 0,
            pending_end: None,
        }
    }

    fn pick(&mut self) -> usize {
        let u = self.rng.unit();
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.slots.len() - 1)
    }

    pub(super) fn next(&mut self, traces: &[Trace]) -> Op {
        self.counter += 1;
        if let Some((sid, trace)) = self.pending_end.take() {
            return Op::End { sid, trace };
        }
        if self.counter.is_multiple_of(PING_EVERY) {
            return Op::Ping;
        }
        let i = self.pick();
        if self.counter.is_multiple_of(self.spec.query_every) && self.slots[i].next > 0 {
            return Op::Query {
                sid: self.slots[i].sid,
            };
        }
        let slot = self.slots[i];
        let op = Op::Ingest {
            sid: slot.sid,
            trace: slot.trace,
            frame: slot.next,
        };
        if slot.next + 1 == traces[slot.trace].frames.len() {
            self.pending_end = Some((slot.sid, slot.trace));
            self.slots[i] = Slot {
                sid: self.next_sid,
                trace: self.rng.below(TRACES),
                next: 0,
            };
            self.next_sid += 1;
        } else {
            self.slots[i].next += 1;
        }
        op
    }
}

/// Wire kind bytes, taken from the protocol's own encoder.
pub(super) struct Wire {
    text: u8,
    bin: u8,
}

impl Wire {
    pub(super) fn new() -> Wire {
        let kind = |r: Request| r.encode().expect("empty request encodes")[4];
        Wire {
            text: kind(Request::TextEvents {
                sid: 0,
                text: String::new(),
            }),
            bin: kind(Request::BinEvents {
                sid: 0,
                bytes: Vec::new(),
            }),
        }
    }

    /// Appends `op`'s frame to `out`.
    pub(super) fn frame(&self, spec: &Spec, traces: &[Trace], op: Op, out: &mut Vec<u8>) {
        let req = match op {
            Op::Ingest { sid, trace, frame } => {
                let payload = &traces[trace].frames[frame];
                let kind = if spec.bin { self.bin } else { self.text };
                out.extend_from_slice(&(payload.len() as u32 + 9).to_le_bytes());
                out.push(kind);
                out.extend_from_slice(&sid.to_le_bytes());
                out.extend_from_slice(payload);
                return;
            }
            Op::Query { sid } => Request::Query { sid },
            Op::End { sid, .. } => Request::EndSession { sid },
            Op::Ping => Request::Ping,
        };
        out.extend_from_slice(&req.encode().expect("small request encodes"));
    }
}

/// One request awaiting its response.
struct Pending {
    op: Op,
    due: Instant,
}

/// Width of the windows the flood phase's throughput is counted in.
pub(super) const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Samples per window the paced phase's tail latency is taken over: a
/// p99 with at least ten samples beyond it.
pub(super) const TAIL_SAMPLES: usize = 1000;

/// Per-connection tallies of one phase.
#[derive(Default)]
pub(super) struct PhaseStats {
    pub(super) outcomes: Outcomes,
    start: Option<Instant>,
    /// Events acknowledged and sessions ended, per `RATE_WINDOW` of
    /// response arrival since the phase start.
    pub(super) windows: BTreeMap<u64, (u64, u64)>,
    /// (due time since the phase start in s, latency in ms).
    pub(super) lat: BTreeMap<&'static str, Vec<(f64, f64)>>,
    pub(super) late_ms: Vec<f64>,
    reports: Vec<(u64, usize, String)>,
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

/// Lets the calling thread's timed waits end within a nanosecond of their
/// deadline. By default Linux may defer a wake-up by 50 µs of timer slack
/// to batch it with others, which made the open-loop generator send its
/// median request 60 µs late, over a third of the ingest p50 it measured.
fn tighten_timer_slack() -> Result<(), String> {
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads only its integer argument and sets
    // the calling thread's slack.
    if unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) } == 0 {
        Ok(())
    } else {
        Err(format!("timer slack: {}", std::io::Error::last_os_error()))
    }
}

/// Waits up to `wait` until any of `conns` has bytes (or a hang-up) to
/// read, or room for the bytes it still has to send; returns which
/// connections are ready. A socket timeout would be rounded up to the
/// kernel's clock tick (up to 4 ms) and make the generator that late;
/// poll wakes within microseconds of a response or the deadline.
fn ready(conns: &[Conn], wait: Duration) -> std::io::Result<Vec<bool>> {
    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: if c.unsent() { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: wait.as_secs() as c_long,
        tv_nsec: wait.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` holds `fds.len()` live `#[repr(C)]` pollfd records and
    // `timeout` a live timespec for the duration of the call; a null
    // signal mask leaves the mask unchanged.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == ErrorKind::Interrupted {
            Ok(vec![false; conns.len()])
        } else {
            Err(e)
        };
    }
    Ok(fds.iter().map(|f| f.revents != 0).collect())
}

/// One generator connection. The socket is non-blocking: frames queue in
/// `out` and go out as the socket takes them, so one full connection
/// never stalls the generator's other connections.
struct Conn {
    stream: UnixStream,
    frames: FrameBuf,
    pending: VecDeque<Pending>,
    out: Vec<u8>,
    flushed: usize,
    buf: Vec<u8>,
}

impl Conn {
    fn open(sock: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Conn {
            stream,
            frames: FrameBuf::new(),
            pending: VecDeque::new(),
            out: Vec::new(),
            flushed: 0,
            buf: vec![0; 64 * 1024],
        })
    }

    fn unsent(&self) -> bool {
        self.flushed < self.out.len()
    }

    fn send(&mut self, ctx: &Ctx<'_>, op: Op, due: Instant) -> Result<(), String> {
        ctx.wire.frame(ctx.spec, ctx.traces, op, &mut self.out);
        self.pending.push_back(Pending { op, due });
        self.flush()
    }

    /// Writes queued bytes until the socket would block.
    fn flush(&mut self) -> Result<(), String> {
        while self.unsent() {
            match self.stream.write(&self.out[self.flushed..]) {
                Ok(n) => self.flushed += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        if !self.unsent() {
            self.out.clear();
            self.flushed = 0;
        }
        Ok(())
    }

    /// Reads what the socket holds and settles every complete response.
    fn read_ready(&mut self, st: &mut PhaseStats, paced: bool) -> Result<(), String> {
        loop {
            let n = match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("receive: {e}")),
            };
            let now = Instant::now();
            self.frames.push(&self.buf[..n]);
            while let Some((kind, payload)) = self.frames.next_frame().map_err(|e| e.to_string())? {
                let resp = Response::decode(kind, &payload).map_err(|e| e.to_string())?;
                let p = self
                    .pending
                    .pop_front()
                    .ok_or("response without a request")?;
                settle(p, resp, now, st, paced);
            }
        }
    }
}

/// Sends and settles whatever each connection is ready for within `wait`.
fn receive(
    conns: &mut [Conn],
    wait: Duration,
    st: &mut PhaseStats,
    paced: bool,
) -> Result<(), String> {
    let ready = ready(conns, wait).map_err(|e| format!("poll: {e}"))?;
    for (c, ready) in conns.iter_mut().zip(ready) {
        if ready {
            c.flush()?;
            c.read_ready(st, paced)?;
        }
    }
    Ok(())
}

/// Waits for every outstanding response; those that never come count as
/// failed.
fn drain(conns: &mut [Conn], st: &mut PhaseStats, paced: bool) -> Result<(), String> {
    let give_up = Instant::now() + DRAIN_TIMEOUT;
    while conns.iter().any(|c| !c.pending.is_empty()) && Instant::now() < give_up {
        receive(conns, Duration::from_millis(50), st, paced)?;
    }
    for c in conns {
        for _ in c.pending.drain(..) {
            st.outcomes.record(true);
        }
    }
    Ok(())
}

fn settle(p: Pending, resp: Response, now: Instant, st: &mut PhaseStats, paced: bool) {
    let start = st.start.expect("phase started");
    let window = st
        .windows
        .entry(window_of(now.saturating_duration_since(start), RATE_WINDOW))
        .or_default();
    let ok = match (p.op, resp) {
        (Op::Ingest { .. }, Response::Ok { events }) => {
            window.0 += events;
            true
        }
        (Op::Ping, Response::Ok { .. }) => true,
        (Op::Query { .. }, Response::Json { .. }) => true,
        (Op::End { sid, trace }, Response::Json { payload }) => {
            window.1 += 1;
            st.reports.push((sid, trace, payload));
            true
        }
        _ => false,
    };
    st.outcomes.record(!ok);
    if paced && ok {
        let name = match p.op {
            Op::Ingest { .. } => "ingest",
            Op::Query { .. } => "query",
            Op::End { .. } => "end",
            Op::Ping => "ping",
        };
        let ms = now.saturating_duration_since(p.due).as_secs_f64() * 1e3;
        let due = p.due.saturating_duration_since(start).as_secs_f64();
        st.lat.entry(name).or_default().push((due, ms));
    }
}

fn window_of(since_start: Duration, width: Duration) -> u64 {
    (since_start.as_nanos() / width.as_nanos()) as u64
}

/// What the generator reads while it drives the connections.
struct Ctx<'a> {
    spec: &'a Spec,
    traces: &'a [Trace],
    wire: Wire,
}

/// Phase lengths of one run.
pub(super) struct Phases {
    warm: Duration,
    flood: Duration,
    paced: Duration,
}

impl Phases {
    /// A run of `seconds`: 5% warm-up, then the flood, and with `paced`
    /// the open-loop phase for the last 45%.
    pub(super) fn new(seconds: f64, paced: bool) -> Phases {
        let paced_share = if paced { 0.45 } else { 0.0 };
        Phases {
            warm: Duration::from_secs_f64(seconds * 0.05),
            flood: Duration::from_secs_f64(seconds * (0.95 - paced_share)),
            paced: Duration::from_secs_f64(seconds * paced_share),
        }
    }
}

/// The whole load: warm-up and flood with a fixed window in flight per
/// connection, then the open-loop paced phase, request `k` going to
/// connection `k % nconn`. One thread polls every connection, so the
/// generator adds a single thread to the daemon's `nproc` workers.
fn generate(
    ctx: &Ctx<'_>,
    sock: &Path,
    seed: u64,
    phases: &Phases,
    nconn: usize,
) -> Result<[PhaseStats; 3], String> {
    let mut conns = (0..nconn)
        .map(|_| Conn::open(sock))
        .collect::<Result<Vec<Conn>, String>>()?;
    let mut gens: Vec<OpGen> = (0..nconn).map(|c| OpGen::new(*ctx.spec, seed, c)).collect();
    let mut out: [PhaseStats; 3] = Default::default();
    for (phase, len) in [phases.warm, phases.flood].into_iter().enumerate() {
        let st = &mut out[phase];
        st.start = Some(Instant::now());
        let end = Instant::now() + len;
        while Instant::now() < end {
            for (c, gen) in conns.iter_mut().zip(&mut gens) {
                while c.pending.len() < WINDOW {
                    c.send(ctx, gen.next(ctx.traces), Instant::now())?;
                }
            }
            receive(&mut conns, Duration::from_millis(100), st, false)?;
        }
        drain(&mut conns, st, false)?;
    }
    let st = &mut out[2];
    tighten_timer_slack()?;
    let sched = Schedule::new(ctx.spec.rate);
    let start = Instant::now();
    st.start = Some(start);
    let mut sent = 0u64;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= phases.paced {
            break;
        }
        let due_by = sched.due_by(elapsed);
        while sent < due_by {
            let due = start + sched.due(sent);
            st.late_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let k = sent as usize % nconn;
            let op = gens[k].next(ctx.traces);
            conns[k].send(ctx, op, due)?;
            sent += 1;
        }
        receive(&mut conns, sched.wait(sent, start.elapsed()), st, true)?;
    }
    drain(&mut conns, st, true)?;
    Ok(out)
}

/// A running daemon child.
struct Daemon {
    child: Child,
}

impl Daemon {
    /// Spawns the daemon and waits for its first answered `Ping`; returns
    /// it with the seconds that took.
    fn start(bin: &Path, spec: &Spec, dir: &Path, nproc: usize) -> Result<(Daemon, f64), String> {
        let sock = dir.join("d.sock");
        let t = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("--unix")
            .arg(&sock)
            .args(["--workers", &nproc.to_string()])
            .args(["--budget-mb", &spec.budget_mb.to_string()])
            .arg("--score")
            .stdin(Stdio::piped())
            .stdout(Stdio::null());
        if spec.bin {
            cmd.arg("--snapshot-dir").arg(dir.join("snap"));
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut d = Daemon { child };
        loop {
            if let Ok(mut c) = Client::connect_unix(&sock) {
                return match c.request(&Request::Ping).map_err(|e| e.to_string())? {
                    Response::Ok { .. } => Ok((d, t.elapsed().as_secs_f64())),
                    other => Err(format!("daemon answered ping with {other:?}")),
                };
            }
            if let Some(status) = d.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t.elapsed() > Duration::from_secs(30) {
                d.stop().ok();
                return Err("daemon did not answer within 30 s".into());
            }
            // Spin rather than sleep: the daemon's acceptor polls every
            // 5 ms, and a client that connects late in its start-up lands
            // in the next poll, which would make the measured start-up
            // bimodal.
            std::thread::yield_now();
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes stdin (the daemon's shutdown signal) and waits for exit.
    fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            drop(self.child.stdin.take());
            if self.child.wait().is_err() {
                self.child.kill().ok();
            }
        }
    }
}

/// A scratch directory under the checkout, removed on drop.
pub(super) struct RunDir(PathBuf);

impl RunDir {
    pub(super) fn new(tag: &str) -> Result<RunDir, String> {
        let dir = PathBuf::from(".bench_run").join(format!("{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    pub(super) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        std::fs::remove_dir(".bench_run").ok();
    }
}

/// What the daemon phases measured.
pub(super) struct DaemonRun {
    pub(super) setup_s: f64,
    /// Warm-up, flood and paced phase.
    pub(super) phases: [PhaseStats; 3],
    /// Full rate windows in the flood phase.
    pub(super) flood_windows: u64,
    pub(super) paced_s: f64,
    pub(super) fleet: FleetMetrics,
    pub(super) rss_mb: f64,
}

/// Starts and stops the daemon `n` times, timing each start.
fn time_starts(
    n: usize,
    bin: &Path,
    spec: &Spec,
    dir: &Path,
    nproc: usize,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..n {
        let (d, s) = Daemon::start(bin, spec, dir, nproc)?;
        setups.push(s);
        d.stop()?;
    }
    Ok(())
}

/// Refuses a paced phase whose generator ran late by more than
/// `LATE_SHARE` of the ingest p50 it measured at its own p50, or by more
/// than the ingest p99 at its p99. Latency is timed from the due time,
/// so lateness beyond that share could move the bounded p50 past its
/// bound on its own; the p99 is unbounded and only has to be the daemon's
/// rather than the generator's. Host stalls delay both alike: on a 2-vCPU
/// VM the generator's p99 lateness was 0.07 to 0.42 of the ingest p99.
fn check_lateness(paced: &PhaseStats) -> Result<(), String> {
    let mut late = paced.late_ms.clone();
    for (p, share) in [(50.0, LATE_SHARE), (99.0, 1.0)] {
        let late_ms = percentile(&mut late, p).unwrap_or(0.0);
        let ingest_ms = lat(paced, "ingest", p);
        if late_ms > share * ingest_ms {
            return Err(format!(
                "invalid run: the open-loop generator ran {late_ms:.3} ms late at p{p}, \
                 more than {share} of the {ingest_ms:.3} ms ingest p{p} it measured"
            ));
        }
    }
    Ok(())
}

/// Runs the daemon phases and checks every end-of-session report.
pub(super) fn run_daemon(
    spec: &Spec,
    traces: &[Trace],
    expected: &[Expected],
    bin: &Path,
    seed: u64,
    phases: &Phases,
    nproc: usize,
) -> Result<DaemonRun, String> {
    let dir = RunDir::new(spec.name)?;
    // Half the timed starts come before the load and half after it, so
    // the median samples the host at both ends of the run.
    let mut setups = Vec::new();
    time_starts(SETUP_REPS / 2, bin, spec, dir.path(), nproc, &mut setups)?;
    let (daemon, s) = Daemon::start(bin, spec, dir.path(), nproc)?;
    setups.push(s);
    let sock = dir.path().join("d.sock");
    let ctx = Ctx {
        spec,
        traces,
        wire: Wire::new(),
    };
    let merged = generate(&ctx, &sock, seed, phases, nproc.max(1))?;
    if !phases.paced.is_zero() {
        check_lateness(&merged[2])?;
    }
    let mut client = Client::connect_unix(&sock).map_err(|e| format!("connect: {e}"))?;
    let fleet = match client
        .request(&Request::FleetQuery)
        .map_err(|e| e.to_string())?
    {
        Response::Json { payload } => serde_json::from_str::<FleetMetrics>(&payload)
            .map_err(|e| format!("fleet metrics: {e}"))?,
        other => return Err(format!("fleet query answered {other:?}")),
    };
    drop(client);
    let rss_mb = vm_hwm_mb(&daemon.pid().to_string())?;
    daemon.stop()?;
    // Later starts recover from an empty snapshot directory, as the first.
    std::fs::remove_dir_all(dir.path().join("snap")).ok();
    time_starts(
        SETUP_REPS - setups.len(),
        bin,
        spec,
        dir.path(),
        nproc,
        &mut setups,
    )?;

    for st in &merged {
        for (sid, trace, payload) in &st.reports {
            check_report(*sid, payload, &expected[*trace])?;
        }
    }
    if fleet.frame_errors != 0 {
        return Err(format!(
            "daemon counted {} frame errors",
            fleet.frame_errors
        ));
    }
    if spec.bin && (fleet.evictions == 0 || fleet.restores == 0) {
        return Err(format!(
            "{} evicted {} and restored {} sessions: the budget does not bind",
            spec.name, fleet.evictions, fleet.restores
        ));
    }
    if !spec.bin && (fleet.evictions != 0 || fleet.sheds != 0) {
        return Err(format!(
            "{} saw {} evictions and {} sheds under a wide-open budget",
            spec.name, fleet.evictions, fleet.sheds
        ));
    }
    Ok(DaemonRun {
        setup_s: median(&mut setups),
        phases: merged,
        flood_windows: (phases.flood.as_nanos() / RATE_WINDOW.as_nanos()) as u64,
        paced_s: phases.paced.as_secs_f64(),
        fleet,
        rss_mb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started() -> PhaseStats {
        PhaseStats {
            start: Some(Instant::now()),
            ..PhaseStats::default()
        }
    }

    #[test]
    fn refused_and_wrong_kind_answers_count_as_failed() {
        let mut st = started();
        let now = Instant::now();
        let ingest = Op::Ingest {
            sid: 1,
            trace: 0,
            frame: 0,
        };
        let pending = |op| Pending { op, due: now };
        settle(
            pending(ingest),
            Response::Ok { events: 32 },
            now,
            &mut st,
            false,
        );
        let shed = Response::Shed {
            reason: "budget".into(),
        };
        settle(pending(ingest), shed, now, &mut st, false);
        let error = Response::Error { msg: "bad".into() };
        settle(pending(Op::Query { sid: 1 }), error, now, &mut st, false);
        let json = Response::Json {
            payload: "{}".into(),
        };
        settle(
            pending(Op::End { sid: 1, trace: 0 }),
            json,
            now,
            &mut st,
            false,
        );
        settle(
            pending(Op::Ping),
            Response::Ok { events: 0 },
            now,
            &mut st,
            false,
        );
        assert_eq!(st.outcomes.attempted, 5);
        assert_eq!(st.outcomes.failed, 2);
        assert_eq!(st.windows[&0], (32, 1), "only acknowledged events count");
        assert_eq!(st.reports.len(), 1);
        assert!(st.lat.is_empty(), "the flood phase records no latency");
    }

    #[test]
    fn a_generator_late_by_a_quarter_of_the_p50_is_refused() {
        let phase = |late: f64| {
            let mut st = started();
            st.lat.insert(
                "ingest",
                (0..100).map(|i| (0.0, 0.1 + i as f64 * 0.01)).collect(),
            );
            st.late_ms = vec![late; 100];
            st
        };
        // Ingest p50 0.59 ms, p99 1.08 ms.
        assert!(check_lateness(&phase(0.14)).is_ok());
        assert!(check_lateness(&phase(0.15)).is_err());
        let mut tail = phase(0.01);
        tail.late_ms[99] = 2.0;
        tail.late_ms[98] = 2.0;
        assert!(check_lateness(&tail).is_err(), "p99 lateness above the p99");
    }

    #[test]
    fn paced_latency_runs_from_the_due_time() {
        let mut st = started();
        let due = Instant::now();
        let now = due + Duration::from_millis(3);
        settle(
            Pending { op: Op::Ping, due },
            Response::Ok { events: 0 },
            now,
            &mut st,
            true,
        );
        let (_, ms) = st.lat["ping"][0];
        assert!((ms - 3.0).abs() < 1e-9, "{ms}");
    }

    #[test]
    fn op_sequence_is_a_function_of_the_seed() {
        let traces: Vec<Trace> = (0..TRACES)
            .map(|_| Trace {
                frames: vec![Vec::new(); 3],
            })
            .collect();
        let run = |seed| {
            let mut gen = OpGen::new(super::super::EVICT, seed, 0);
            (0..500).map(|_| gen.next(&traces)).collect::<Vec<Op>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        // Every session that ends streamed all of its frames first.
        let ops = run(7);
        for (i, op) in ops.iter().enumerate() {
            if let Op::End { sid, .. } = op {
                let frames = ops[..i]
                    .iter()
                    .filter(|o| matches!(o, Op::Ingest { sid: s, .. } if s == sid))
                    .count();
                assert_eq!(frames, 3, "session {sid}");
            }
        }
    }
}
