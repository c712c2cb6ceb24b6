//! One benchmark connection: how requests reach the server, and the checks
//! and tallies every response goes through.
//!
//! * [`Link::Plain`] is the real client path, `TcpTransport::call`, with
//!   nothing around it: the end-to-end numbers come from it.
//! * [`Link::Traced`] is the same round trip over loopback TCP with the
//!   client-side steps done one by one inside spans.
//! * [`Link::InProc`] drives the same request through the public functions
//!   the server calls (frame, parse, `handle_request`, encode) in this
//!   thread, so the server-side stages get spans of their own.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use harmony_core::PhaseTimings;
use harmony_proto::{
    frame, handle_request, Request, Response, SharedController, TcpTransport, Transport, VarUpdate,
};

use crate::trace::Tracer;

/// A registered application instance, as the wire names it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inst {
    /// Application name.
    pub app: String,
    /// Instance id from `registered`.
    pub id: u64,
}

impl Inst {
    /// The wire prefix of this instance's namespace paths.
    pub fn config_prefix(&self) -> String {
        format!("{}.{}.config", self.app, self.id)
    }
}

/// How a connection reaches the server.
#[derive(Debug)]
pub enum Link {
    /// `TcpTransport::call`, untraced.
    Plain(TcpTransport),
    /// Loopback TCP with client-side spans.
    Traced(TcpStream, Tracer),
    /// The server's own functions, called in-process, with spans.
    InProc(SharedController, Tracer),
}

/// Which kind of link a phase uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// See [`Link::Plain`].
    Plain,
    /// See [`Link::Traced`].
    Traced,
    /// See [`Link::InProc`].
    InProc,
}

/// Span capacity of one traced connection.
const SPAN_CAP: usize = 600_000;

impl Link {
    /// Opens a link of `mode` to the server at `addr` (or, in-process, to
    /// `ctl`).
    pub fn open(
        mode: Mode,
        addr: SocketAddr,
        ctl: &SharedController,
        epoch: Instant,
        thread: u32,
    ) -> io::Result<Link> {
        Ok(match mode {
            Mode::Plain => Link::Plain(TcpTransport::connect(addr)?),
            Mode::Traced => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Link::Traced(stream, Tracer::new(epoch, thread, SPAN_CAP))
            }
            Mode::InProc => Link::InProc(ctl.clone(), Tracer::new(epoch, thread, SPAN_CAP)),
        })
    }

    /// The tracer of a traced link.
    pub fn into_tracer(self) -> Option<Tracer> {
        match self {
            Link::Plain(_) => None,
            Link::Traced(_, t) | Link::InProc(_, t) => Some(t),
        }
    }

    fn call(&mut self, req: &Request, op: u64, phases: &mut PhaseSums) -> io::Result<Response> {
        match self {
            Link::Plain(t) => t.call(req),
            Link::Traced(stream, tr) => {
                let root = tr.begin(op_span(req), op);
                let s = tr.begin("proto.req_encode", op);
                let buf = frame::encode(&req.to_text())?;
                tr.end(s);
                let s = tr.begin("proto.socket", op);
                stream.write_all(&buf)?;
                let text = frame::read_frame(&mut *stream)?.ok_or_else(|| {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
                })?;
                tr.end(s);
                let s = tr.begin("proto.resp_parse", op);
                let resp = Response::parse(&text).map_err(invalid);
                tr.end(s);
                tr.end(root);
                resp
            }
            Link::InProc(ctl, tr) => {
                let root = tr.begin(op_span(req), op);
                let s = tr.begin("proto.req_encode", op);
                let mut buf = frame::encode(&req.to_text())?;
                tr.end(s);
                phases.frame_bytes += buf.len() as u64;
                let s = tr.begin("proto.req_parse", op);
                let text = frame::decode(&mut buf)?.ok_or_else(|| invalid("short frame"))?;
                let parsed = Request::parse(&text).map_err(invalid)?;
                tr.end(s);
                if let Request::Bundle { script, .. } = &parsed {
                    // The parse and lint gate `handle_request(Bundle)` runs:
                    // one `parse_bundle_script`, then `analyze_bundle` on its
                    // spec. Timed on their own so the bundle's core time can
                    // be told apart from them.
                    let s = tr.begin("rsl.parse", op);
                    let spec = harmony_rsl::schema::parse_bundle_script(script).map_err(invalid)?;
                    tr.end(s);
                    let s = tr.begin("analyze.lint", op);
                    std::hint::black_box(harmony_analyze::analyze_bundle(&spec));
                    tr.end(s);
                }
                let is_bundle = matches!(parsed, Request::Bundle { .. });
                let before = is_bundle.then(|| ctl.read().decisions().len());
                let s = tr.begin(dispatch_span(&parsed), op);
                let resp = handle_request(ctl, &parsed);
                tr.end(s);
                if let Some(before) = before {
                    phases.absorb(&ctl.read().decisions()[before..]);
                }
                let s = tr.begin("proto.resp_encode", op);
                let mut out = frame::encode(&resp.to_text())?;
                tr.end(s);
                phases.frame_bytes += out.len() as u64;
                let s = tr.begin("proto.resp_parse", op);
                let text = frame::decode(&mut out)?.ok_or_else(|| invalid("short frame"))?;
                let resp = Response::parse(&text).map_err(invalid);
                tr.end(s);
                tr.end(root);
                resp
            }
        }
    }
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn op_span(req: &Request) -> &'static str {
    match req {
        Request::Heartbeat { .. } => "op.heartbeat",
        Request::Poll { .. } => "op.poll",
        Request::Metric { .. } => "op.metric",
        Request::Startup { .. } => "op.startup",
        Request::Bundle { .. } => "op.bundle",
        Request::End { .. } => "op.end",
        _ => "op.other",
    }
}

fn dispatch_span(req: &Request) -> &'static str {
    match req {
        Request::Heartbeat { .. } => "proto.dispatch.heartbeat",
        Request::Poll { .. } => "proto.dispatch.poll",
        Request::Metric { .. } => "proto.dispatch.metric",
        Request::Startup { .. } => "proto.dispatch.startup",
        Request::Bundle { .. } => "proto.dispatch.bundle",
        Request::End { .. } => "proto.dispatch.end",
        _ => "proto.dispatch.other",
    }
}

/// Decision phases committed inside in-process `bundle` requests, plus the
/// frame bytes the in-process path encoded.
#[derive(Debug, Default, Clone)]
pub struct PhaseSums {
    /// Phases of the decisions `bundle` committed.
    pub bundle: PhaseTimings,
    /// Request plus response frame bytes.
    pub frame_bytes: u64,
}

fn add_phases(sum: &mut PhaseTimings, p: &PhaseTimings) {
    sum.candidates_ms += p.candidates_ms;
    sum.prediction_ms += p.prediction_ms;
    sum.optimization_ms += p.optimization_ms;
    sum.pruning_ms += p.pruning_ms;
    sum.commit_ms += p.commit_ms;
}

impl PhaseSums {
    fn absorb(&mut self, decisions: &[harmony_core::DecisionRecord]) {
        for d in decisions {
            add_phases(&mut self.bundle, &d.phases);
        }
    }

    /// Adds another connection's sums.
    pub fn merge(&mut self, other: &PhaseSums) {
        add_phases(&mut self.bundle, &other.bundle);
        self.frame_bytes += other.frame_bytes;
    }
}

/// What one connection measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or drew a wrong response.
    pub failed: u64,
    /// Round trips (µs) of read verbs: heartbeat, poll, metric.
    pub rtt_us: Vec<f64>,
    /// Latency (ms) of the workload's unit of work (its "cycle").
    pub cycle_ms: Vec<f64>,
    /// Round trips (ms) of `end`.
    pub end_ms: Vec<f64>,
    /// How late (ms) an open-loop arrival started after its due time.
    pub late_ms: Vec<f64>,
    /// Write-lock holds (ms) the benchmark made for the periodic pass.
    pub periodic_ms: Vec<f64>,
    /// Durations (ms) of checkpoints the periodic pass wrote.
    pub checkpoint_ms: Vec<f64>,
    /// Metric samples sent, for the registry replay.
    pub samples: Vec<(String, f64, f64)>,
    /// Decision phases of in-process bundles, and frame bytes.
    pub phases: PhaseSums,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

const SAMPLE_CAP: usize = 100_000;

impl Tally {
    /// Adds another connection's tally.
    pub fn merge(&mut self, mut other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rtt_us.append(&mut other.rtt_us);
        self.cycle_ms.append(&mut other.cycle_ms);
        self.end_ms.append(&mut other.end_ms);
        self.late_ms.append(&mut other.late_ms);
        self.periodic_ms.append(&mut other.periodic_ms);
        self.checkpoint_ms.append(&mut other.checkpoint_ms);
        let room = SAMPLE_CAP.saturating_sub(self.samples.len());
        self.samples.extend(other.samples.into_iter().take(room));
        self.phases.merge(&other.phases);
        for e in other.errors {
            self.fail_note(e);
        }
    }

    fn fail_note(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// Counts a failure found outside a request (a broken invariant).
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        self.fail_note(e);
    }
}

/// A connection plus the checks applied to each response.
#[derive(Debug)]
pub struct Client {
    link: Link,
    op: u64,
    /// What this connection measured.
    pub tally: Tally,
}

impl Client {
    /// Wraps a link.
    pub fn new(link: Link) -> Self {
        Client { link, op: 0, tally: Tally::default() }
    }

    /// Sends `req` and checks the response with `ok`; returns the response
    /// when it passed and the elapsed microseconds either way.
    fn send(&mut self, req: Request, ok: impl Fn(&Response) -> bool) -> (Option<Response>, f64) {
        self.op += 1;
        self.tally.attempted += 1;
        let t0 = Instant::now();
        let result = self.link.call(&req, self.op, &mut self.tally.phases);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match result {
            Ok(resp) if ok(&resp) => (Some(resp), us),
            Ok(resp) => {
                self.tally.fail(format!("{} -> unexpected {}", req.to_text(), resp.to_text()));
                (None, us)
            }
            Err(e) => {
                self.tally.fail(format!("{} -> {e}", req.to_text()));
                (None, us)
            }
        }
    }

    /// `heartbeat`, which must answer `ok`.
    pub fn heartbeat(&mut self, inst: &Inst) -> bool {
        let (resp, us) = self
            .send(Request::Heartbeat { app: inst.app.clone(), id: inst.id }, |r| {
                *r == Response::Ok
            });
        self.read_done(resp.is_some(), us)
    }

    /// `poll`, which must answer `update` for the same instance.
    pub fn poll(&mut self, inst: &Inst) -> Option<Vec<VarUpdate>> {
        let (resp, us) = self.send(
            Request::Poll { app: inst.app.clone(), id: inst.id },
            |r| matches!(r, Response::Update { app, id, .. } if *app == inst.app && *id == inst.id),
        );
        self.read_done(resp.is_some(), us);
        match resp {
            Some(Response::Update { updates, .. }) => Some(updates),
            _ => None,
        }
    }

    /// `metric`, which must answer `ok`.
    pub fn metric(&mut self, name: String, time: f64, value: f64) -> bool {
        let req = Request::Metric { name: name.clone(), time, value };
        let (resp, us) = self.send(req, |r| *r == Response::Ok);
        if self.tally.samples.len() < SAMPLE_CAP {
            self.tally.samples.push((name, time, value));
        }
        self.read_done(resp.is_some(), us)
    }

    fn read_done(&mut self, ok: bool, us: f64) -> bool {
        if ok {
            self.tally.rtt_us.push(us);
        }
        ok
    }

    /// `startup`, which must answer `registered` with the same name.
    pub fn startup(&mut self, app: &str) -> Option<Inst> {
        let (resp, _) = self.send(
            Request::Startup { app: app.to_string() },
            |r| matches!(r, Response::Registered { app: a, .. } if a == app),
        );
        match resp {
            Some(Response::Registered { app, id }) => Some(Inst { app, id }),
            _ => None,
        }
    }

    /// `bundle`, which must answer `ok`.
    pub fn bundle(&mut self, inst: &Inst, script: &str) -> bool {
        let req =
            Request::Bundle { app: inst.app.clone(), id: inst.id, script: script.to_string() };
        self.send(req, |r| *r == Response::Ok).0.is_some()
    }

    /// `end`, which must answer `ok`.
    pub fn end(&mut self, inst: &Inst) -> bool {
        let (resp, us) =
            self.send(Request::End { app: inst.app.clone(), id: inst.id }, |r| *r == Response::Ok);
        if resp.is_some() {
            self.tally.end_ms.push(us / 1e3);
        }
        resp.is_some()
    }

    /// Registers an application: `startup`, `bundle`, then a `poll` that
    /// must carry the instance's `<app>.<id>.config` values. Returns the
    /// instance and the milliseconds from the bundle send to the poll's
    /// reply (the decision latency a client sees).
    pub fn arrive(&mut self, app: &str, script: &str) -> Option<(Inst, f64)> {
        let inst = self.startup(app)?;
        let t0 = Instant::now();
        if !self.bundle(&inst, script) {
            return None;
        }
        let updates = self.poll(&inst)?;
        let decide_ms = t0.elapsed().as_secs_f64() * 1e3;
        let prefix = inst.config_prefix();
        if !updates.iter().any(|u| u.path.starts_with(&prefix)) {
            self.tally.fail(format!("poll {}.{} carried no {prefix} value", inst.app, inst.id));
            return None;
        }
        Some((inst, decide_ms))
    }

    /// Ends the connection, returning its tally and its tracer, if traced.
    pub fn finish(self) -> (Tally, Option<Tracer>) {
        (self.tally, self.link.into_tracer())
    }
}
