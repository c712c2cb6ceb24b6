//! Pieces every workload shares: the system under test, timed set-up,
//! decision fingerprints, the loopback echo baseline, the metric replay
//! and the mapping from phases to reported metrics.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use harmony_core::{Controller, ControllerConfig};
use harmony_metrics::MetricRegistry;
use harmony_proto::{frame, SharedController, TcpServer};
use harmony_resources::Cluster;
use harmony_rsl::listings;
use parking_lot::RwLock;

use crate::client::{Mode, Tally};
use crate::report::Report;
use crate::stats::{mean, median, median_or_zero, quantile};
use crate::trace::{Trace, Tracer};

/// Everything a run needs to know about its invocation.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Start of the process, the epoch of every span.
    pub epoch: Instant,
    /// Directory for state dirs and trace files.
    pub out_dir: std::path::PathBuf,
}

/// A controller with the default configuration on an `n`-node SP-2
/// cluster, shared the way `harmonyd` shares it.
pub fn controller(nodes: usize) -> Controller {
    let cluster =
        Cluster::from_rsl(&listings::sp2_cluster(nodes)).expect("the SP-2 listing parses");
    Controller::new(cluster, ControllerConfig::default())
}

/// Wraps a controller for the server.
pub fn share(ctl: Controller) -> SharedController {
    Arc::new(RwLock::new(ctl))
}

/// Starts a server on an ephemeral loopback port.
pub fn serve(ctl: &SharedController) -> Result<TcpServer, String> {
    TcpServer::start("127.0.0.1:0", Arc::clone(ctl)).map_err(|e| format!("server start: {e}"))
}

/// The workload's application kinds: `(app name, bundle script)`.
pub const BAG: (&str, &str) = ("bag", listings::FIG2B_BAG);
/// See [`BAG`].
pub const SIMPLE: (&str, &str) = ("simple", listings::FIG2A_SIMPLE);

/// Pause between set-up repetitions. The host's speed drifts by up to
/// half over stretches of a second or more; spaced out, the repetitions
/// sample more of those stretches and their median hangs less on one.
const SETUP_GAP: Duration = Duration::from_millis(150);

/// The timed set-up repetitions of one run. A run sets up before its
/// timed phase and again after it, so the repetitions cover stretches of
/// the host far apart and `setup_s` does not hang on one of them.
#[derive(Debug, Default)]
pub struct Setups {
    times: Vec<f64>,
    prints: Vec<Fingerprint>,
}

impl Setups {
    /// The fingerprint the first repetition reached.
    pub fn first(&self) -> &Fingerprint {
        &self.prints[0]
    }

    /// Reports `setup_s`, the median of every repetition, and checks that
    /// every repetition reached the first one's fingerprint.
    pub fn finish(&self, r: &mut Report, tally: &mut Tally) {
        r.put("setup_s", median(&self.times), "s", self.times.len());
        for (i, p) in self.prints.iter().enumerate().skip(1) {
            if p != self.first() {
                tally.fail(format!(
                    "set-up {i} fingerprint differs: {} vs {}",
                    p.line(),
                    self.first().line()
                ));
            }
        }
    }
}

/// Runs `setup` `reps` times, [`SETUP_GAP`] apart, timing each into `log`,
/// and returns the last system (the earlier ones are dropped, which stops
/// their servers).
pub fn timed_setups<S>(
    reps: usize,
    log: &mut Setups,
    mut setup: impl FnMut() -> Result<(S, Fingerprint), String>,
) -> Result<S, String> {
    let mut kept = None;
    for rep in 0..reps {
        drop(kept.take());
        if rep > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let t0 = Instant::now();
        let (sys, fp) = setup()?;
        log.times.push(t0.elapsed().as_secs_f64());
        log.prints.push(fp);
        kept = Some(sys);
    }
    Ok(kept.expect("at least one set-up repetition"))
}

/// The decision counts of a fixed window of a run, which must repeat
/// exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Arrivals in the window.
    pub arrivals: u64,
    /// Decisions committed.
    pub decisions: u64,
    /// Re-evaluation passes.
    pub reevals: u64,
    /// Candidate-cache hits.
    pub cache_hits: u64,
    /// Candidate-cache misses.
    pub cache_misses: u64,
    /// Objective score at the end of the window.
    pub objective: f64,
}

impl Fingerprint {
    /// Reads the counts from a controller that has seen `arrivals`.
    pub fn capture(ctl: &Controller, arrivals: u64) -> Self {
        let m = ctl.metrics();
        Fingerprint {
            arrivals,
            decisions: ctl.decisions().len() as u64,
            reevals: m.counter("controller.reevals"),
            cache_hits: m.counter("controller.optimizer.cache_hits"),
            cache_misses: m.counter("controller.optimizer.cache_misses"),
            objective: ctl.objective_score(),
        }
    }

    /// One-line form for the report.
    pub fn line(&self) -> String {
        format!(
            "fingerprint: arrivals={} decisions={} reevals={} cache_hits={} cache_misses={} objective={}",
            self.arrivals, self.decisions, self.reevals, self.cache_hits, self.cache_misses, self.objective
        )
    }

    /// Puts the `core.*` counts into the report.
    pub fn report(&self, r: &mut Report) {
        let per = |x: u64| x as f64 / self.arrivals.max(1) as f64;
        let n = self.arrivals as usize;
        r.put("core.decisions_per_arrival", per(self.decisions), "count", n);
        r.put("core.reevals_per_arrival", per(self.reevals), "count", n);
        let lookups = self.cache_hits + self.cache_misses;
        r.put(
            "core.cache_hit_ratio",
            self.cache_hits as f64 / lookups.max(1) as f64,
            "ratio",
            lookups as usize,
        );
        r.put("core.cache_hits", self.cache_hits as f64, "count", 1);
        r.put("core.cache_misses", self.cache_misses as f64, "count", 1);
        r.put("core.objective_final", self.objective, "score", 1);
    }
}

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Merged tallies of every connection.
    pub tally: Tally,
    /// Merged spans (empty for untraced phases).
    pub trace: Trace,
    /// Wall seconds of the phase.
    pub wall_s: f64,
}

impl PhaseOut {
    /// Adds one connection's results.
    pub fn absorb(&mut self, (tally, tracer): (Tally, Option<Tracer>)) {
        self.tally.merge(tally);
        if let Some(t) = tracer {
            self.trace.absorb(t);
        }
    }
}

/// Runs a workload's measured phases through `phase(mode, duration)` and
/// puts the end-to-end metrics of its untraced phase into `r`. With tracing
/// off that is one untraced phase of the whole run. With it on, the run is
/// split into untraced TCP, traced TCP and in-process phases in the shares
/// of [`TRACED_SHARES`], followed by the loopback echo of `echo_payload`,
/// and the per-layer metrics go into `r` too. Returns the untraced phase and the merged tally of the
/// others.
pub fn measure(
    cfg: &RunCfg,
    r: &mut Report,
    workload: &str,
    echo_payload: &str,
    mut phase: impl FnMut(Mode, Duration) -> Result<PhaseOut, String>,
) -> Result<(PhaseOut, Tally), String> {
    let secs = |share: f64| Duration::from_secs_f64(cfg.seconds * share);
    if !cfg.trace {
        let untraced = phase(Mode::Plain, secs(1.0))?;
        e2e(r, &untraced);
        return Ok((untraced, Tally::default()));
    }
    let [u, t, i] = TRACED_SHARES;
    let untraced = phase(Mode::Plain, secs(u))?;
    let traced = phase(Mode::Traced, secs(t))?;
    let inproc = phase(Mode::InProc, secs(i))?;
    let echo =
        echo_us(Duration::from_millis(500), echo_payload).map_err(|e| format!("echo: {e}"))?;
    e2e(r, &untraced);
    overhead(r, &untraced, &traced);
    per_layer(r, &untraced, &inproc, &echo);
    replay_metrics(r, &untraced.tally.samples, cfg.epoch);
    write_traces(cfg, workload, &traced.trace, &inproc.trace);
    let mut rest = traced.tally;
    rest.merge(inproc.tally);
    Ok((untraced, rest))
}

/// Puts the end-to-end metrics of one phase into `r`.
fn e2e(r: &mut Report, p: &PhaseOut) {
    let t = &p.tally;
    let done = t.attempted - t.failed;
    r.put("ops_per_s", done as f64 / p.wall_s, "1/s", done as usize);
    r.put("rtt_p50_us", median(&t.rtt_us), "us", t.rtt_us.len());
    r.put("rtt_p90_us", quantile(&t.rtt_us, 0.9), "us", t.rtt_us.len());
    // Report-only: on `durable` the p99 rides on fsync and lock waits and
    // spread by 0.46 across ten seeds, too wide to gate a change on.
    r.put("rtt_p99_us", quantile(&t.rtt_us, 0.99), "us", t.rtt_us.len());
    r.put("cycle_p50_ms", median(&t.cycle_ms), "ms", t.cycle_ms.len());
    r.put("cycle_p90_ms", quantile(&t.cycle_ms, 0.9), "ms", t.cycle_ms.len());
    r.put(
        "failed_ratio",
        t.failed as f64 / t.attempted.max(1) as f64,
        "ratio",
        t.attempted as usize,
    );
    if !t.end_ms.is_empty() {
        r.put("end_p50_ms", median(&t.end_ms), "ms", t.end_ms.len());
    }
}

/// Puts `trace.overhead.<metric>` = traced minus untraced into `r`.
fn overhead(r: &mut Report, untraced: &PhaseOut, traced: &PhaseOut) {
    let (mut u, mut t) = (Report::default(), Report::default());
    e2e(&mut u, untraced);
    e2e(&mut t, traced);
    for (name, unit) in crate::END_TO_END.into_iter().filter(|(n, _)| *n != "setup_s") {
        if let (Some(a), Some(b)) = (u.get(name), t.get(name)) {
            r.put(format!("trace.overhead.{name}"), b.value - a.value, unit, b.n);
        }
    }
}

/// Span names of the read verbs' dispatch.
const READ_DISPATCH: [(&str, &str); 3] = [
    ("heartbeat", "proto.dispatch.heartbeat"),
    ("poll", "proto.dispatch.poll"),
    ("metric", "proto.dispatch.metric"),
];

/// Derives the per-layer metrics of the in-process phase `inproc`, using
/// the untraced phase's read round trip for the wire residual.
fn per_layer(r: &mut Report, untraced: &PhaseOut, inproc: &PhaseOut, echo_us: &[f64]) {
    let tr = &inproc.trace;
    let med = |name: &str| {
        let d = tr.durations_us(name);
        (median_or_zero(&d), d.len())
    };
    let mut stage_sum = 0.0;
    for (metric, span) in [
        ("proto.req_encode_us", "proto.req_encode"),
        ("proto.req_parse_us", "proto.req_parse"),
        ("proto.resp_encode_us", "proto.resp_encode"),
        ("proto.resp_parse_us", "proto.resp_parse"),
    ] {
        let (v, n) = med(span);
        stage_sum += v;
        r.put(metric, v, "us", n);
    }
    let mut reads = Vec::new();
    for (verb, span) in READ_DISPATCH {
        let d = tr.durations_us(span);
        r.put(format!("proto.dispatch_us.{verb}"), median_or_zero(&d), "us", d.len());
        reads.extend(d);
    }
    stage_sum += median_or_zero(&reads);
    let rtt = median(&untraced.tally.rtt_us);
    r.put("proto.stage_sum_us", stage_sum, "us", reads.len());
    r.put("proto.wire_us", rtt - stage_sum, "us", untraced.tally.rtt_us.len());
    let echo = median(echo_us);
    r.put("proto.echo_us", echo, "us", echo_us.len());
    r.put("proto.reconcile_gap_pct", 100.0 * (stage_sum + echo - rtt) / rtt, "%", reads.len());
    let ops = inproc.tally.attempted.max(1);
    r.put(
        "proto.frame_bytes",
        inproc.tally.phases.frame_bytes as f64 / ops as f64,
        "B",
        ops as usize,
    );

    let (v, n) = med("rsl.parse");
    r.put("rsl.parse_us", v, "us", n);
    let (v, n) = med("analyze.lint");
    r.put("analyze.lint_us", v, "us", n);

    // A bundle's core time: its dispatch minus the parse and lint the
    // controller repeats inside it.
    let dispatch = tr.per_op_us("proto.dispatch.bundle");
    let parse = tr.per_op_us("rsl.parse");
    let lint = tr.per_op_us("analyze.lint");
    let core_ms: Vec<f64> = dispatch
        .iter()
        .map(|(k, d)| (d - parse.get(k).unwrap_or(&0.0) - lint.get(k).unwrap_or(&0.0)) / 1e3)
        .collect();
    let arrivals = core_ms.len();
    r.put("core.bundle_ms", median_or_zero(&core_ms), "ms", arrivals);
    let (v, n) = med("proto.dispatch.end");
    r.put("core.end_ms", v / 1e3, "ms", n);
    let p = &inproc.tally.phases.bundle;
    let per = |x: f64| if arrivals == 0 { 0.0 } else { x / arrivals as f64 };
    r.put("core.phase.candidates_ms", per(p.candidates_ms), "ms", arrivals);
    r.put("core.phase.prediction_ms", per(p.prediction_ms), "ms", arrivals);
    r.put("core.phase.optimization_ms", per(p.optimization_ms + p.pruning_ms), "ms", arrivals);
    r.put("core.phase.commit_ms", per(p.commit_ms), "ms", arrivals);
    let phase_sum =
        p.candidates_ms + p.prediction_ms + p.optimization_ms + p.pruning_ms + p.commit_ms;
    let unattributed =
        if arrivals == 0 { 0.0 } else { mean(&core_ms) - phase_sum / arrivals as f64 };
    r.put("core.phase.unattributed_ms", unattributed, "ms", arrivals);

    // Write-lock holds: write-verb dispatch plus the periodic passes.
    let mut holds: Vec<f64> =
        ["proto.dispatch.startup", "proto.dispatch.bundle", "proto.dispatch.end"]
            .iter()
            .flat_map(|s| tr.durations_us(s))
            .map(|us| us / 1e3)
            .collect();
    holds.extend_from_slice(&inproc.tally.periodic_ms);
    r.put("server.write_hold_ms", median_or_zero(&holds), "ms", holds.len());
    r.put(
        "server.write_share",
        holds.iter().sum::<f64>() / 1e3 / inproc.wall_s,
        "ratio",
        holds.len(),
    );

    for (layer, ms) in tr.self_ms_by_layer() {
        r.put(format!("self_ms.{layer}"), ms, "ms", tr.len());
    }
}

/// Writes a traced run's spans next to its results.
fn write_traces(cfg: &RunCfg, workload: &str, tcp: &Trace, inproc: &Trace) {
    for (kind, t) in [("tcp", tcp), ("inproc", inproc)] {
        let path = cfg.out_dir.join(format!("trace-{workload}-{kind}.tsv"));
        match t.write_tsv(&path) {
            Ok(()) => {
                println!("spans: {} ({} written, {} dropped)", path.display(), t.len(), t.dropped)
            }
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
}

/// Replays a run's metric samples into a fresh registry, one span per
/// `record` and per `observe` (response times feed the histogram too, as
/// the controller does).
fn replay_metrics(r: &mut Report, samples: &[(String, f64, f64)], epoch: Instant) {
    let reg = MetricRegistry::new();
    let mut tr = Tracer::new(epoch, u32::MAX, 2 * samples.len() + 1);
    for (i, (name, time, value)) in samples.iter().enumerate() {
        let s = tr.begin("metrics.record", i as u64);
        std::hint::black_box(reg.record(name, *time, *value));
        tr.end(s);
        if name.ends_with(".response_time") {
            let s = tr.begin("metrics.observe", i as u64);
            std::hint::black_box(reg.observe(name, *value));
            tr.end(s);
        }
    }
    let mut trace = Trace::default();
    trace.absorb(tr);
    for (metric, span) in
        [("metrics.record_us", "metrics.record"), ("metrics.observe_us", "metrics.observe")]
    {
        let d = trace.durations_us(span);
        r.put(metric, median_or_zero(&d), "us", d.len());
    }
}

/// Round trips (µs) of a bare frame echo over one loopback connection for
/// `dur`: the socket and thread hand-off cost with no Harmony work, the
/// independent check on [`per_layer`]'s wire residual. The echo thread
/// takes the server's CPU as the workload's server threads do.
fn echo_us(dur: Duration, payload: &str) -> io::Result<Vec<f64>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr: SocketAddr = listener.local_addr()?;
    std::thread::scope(|s| {
        let server = s.spawn(move || -> io::Result<()> {
            pin(Side::Server);
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            while let Some(text) = frame::read_frame(&mut stream)? {
                frame::write_frame(&mut stream, &text)?;
            }
            Ok(())
        });
        // The stream closes when this returns, which ends the echo thread.
        let rtts = (|| -> io::Result<Vec<f64>> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut out = Vec::new();
            let t0 = Instant::now();
            while t0.elapsed() < dur {
                let t = Instant::now();
                frame::write_frame(&mut stream, payload)?;
                frame::read_frame(&mut stream)?;
                out.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Ok(out)
        })();
        server.join().expect("echo server thread panicked")?;
        rtts
    })
}

/// Shares of a traced run's seconds for its three phases, in order:
/// untraced TCP (the wire residual and the overhead baseline), traced TCP
/// and in-process.
const TRACED_SHARES: [f64; 3] = [0.4, 0.3, 0.3];

/// Which CPU a thread belongs to when the machine has at least two: the
/// server's threads share one, the load generator's the other, so every
/// run hands requests across the same pair of CPUs.
#[derive(Debug, Clone, Copy)]
pub enum Side {
    /// Server threads (accept, connections, WAL flusher).
    Server,
    /// Load-generator threads.
    Client,
}

/// Pins the calling thread (and the threads it spawns afterwards) to its
/// side's CPU: the first and second CPUs the process may use. Does nothing
/// when it may use fewer than two or where the call is unavailable.
pub fn pin(side: Side) {
    // Read once, before any pinning narrows the calling thread's mask.
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    let allowed = ALLOWED.get_or_init(affinity::allowed);
    if allowed.len() < 2 {
        return;
    }
    affinity::set(match side {
        Side::Server => &allowed[..1],
        Side::Client => &allowed[1..2],
    });
}

#[cfg(target_os = "linux")]
mod affinity {
    /// A `cpu_set_t`: 1024 CPU bits.
    type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn allowed() -> Vec<usize> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable 128-byte buffer, the size
        // passed as `cpusetsize`; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..16 * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Restricts the calling thread to `cpus`.
    pub fn set(cpus: &[usize]) {
        let mut mask: Mask = [0; 16];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a live 128-byte buffer, the size passed as
        // `cpusetsize`; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc != 0 {
            eprintln!("perfbench: could not pin a thread to CPUs {cpus:?}; placement unchanged");
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) {}
}
