//! `churn`: the decision path.
//!
//! A 32-node cluster with the population held at eight. One connection
//! runs a closed loop of arrivals: when the population is full the oldest
//! instance sends `end`; the bench advances the virtual clock one step;
//! the newcomer sends `startup` and `bundle` (Figure 2(b) or 2(a), drawn by
//! seed in balanced blocks) and a `poll` that must return its config. Then
//! every live instance picks up its reconfiguration with `heartbeat`,
//! `poll` and a `response_time` `metric`, as applications would.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use harmony_proto::{SharedController, TcpServer, TcpTransport};
use harmony_rng::SeededRng;

use crate::client::{Client, Inst, Link, Mode, Tally};
use crate::common::{
    controller, measure, pin, serve, share, timed_setups, Fingerprint, PhaseOut, RunCfg, Setups,
    Side, BAG, SIMPLE,
};
use crate::report::Report;

const NODES: usize = 32;
const POPULATION: usize = 8;
/// Set-up repetitions before the timed phase, and again after it.
const SETUP_REPS: usize = 8;
/// Arrivals after set-up that warm the controller up before timing starts;
/// the decision fingerprint covers set-up plus these.
const PRINT_ARRIVALS: u64 = 16;
/// Virtual seconds the clock advances per arrival.
const STEP_S: f64 = 1.0;
/// Seed domain of the arrival kinds.
const DOMAIN: u64 = 0x4348_5552;
/// Seed of the kinds that fill the population in set-up, whatever the
/// run's seed, so set-up does the same work on every seed and `setup_s`
/// does not depend on the seed's draw. The run's seed draws every later
/// arrival.
const FILL_SEED: u64 = 0;

/// Seeded application kinds in balanced pairs: each pair holds one of each
/// kind in seeded order, so any eight consecutive arrivals hold three to
/// five of each kind whatever the seed.
#[derive(Debug)]
pub struct Arrivals {
    rng: SeededRng,
    pair: Vec<(&'static str, &'static str)>,
}

impl Arrivals {
    /// The kind stream of `seed`'s `(domain, index)` sub-stream.
    pub fn new(seed: u64, domain: u64, index: u64) -> Self {
        Arrivals { rng: SeededRng::stream(seed, domain, index), pair: Vec::new() }
    }

    /// The next application kind: `(app name, bundle script)`.
    pub fn next_kind(&mut self) -> (&'static str, &'static str) {
        if self.pair.is_empty() {
            self.pair = if self.rng.chance(0.5) { vec![BAG, SIMPLE] } else { vec![SIMPLE, BAG] };
        }
        self.pair.pop().expect("refilled above")
    }
}

struct Sys {
    ctl: SharedController,
    server: TcpServer,
    live: VecDeque<Inst>,
    kinds: Arrivals,
    clock: f64,
    arrivals: u64,
}

/// One arrival cycle; the decision latency goes into the cycle samples.
fn arrival(client: &mut Client, sys: &mut Sys) {
    if sys.live.len() >= POPULATION {
        let oldest = sys.live.pop_front().expect("population is full");
        client.end(&oldest);
    }
    sys.clock += STEP_S;
    sys.ctl.write().set_time(sys.clock);
    let (app, script) = sys.kinds.next_kind();
    sys.arrivals += 1;
    if let Some((inst, ms)) = client.arrive(app, script) {
        client.tally.cycle_ms.push(ms);
        sys.live.push_back(inst);
    }
    for inst in &sys.live {
        client.heartbeat(inst);
        client.poll(inst);
        client.metric(
            format!("{}.{}.response_time", inst.app, inst.id),
            sys.clock,
            100.0 + sys.arrivals as f64,
        );
    }
}

fn setup(seed: u64) -> Result<(Sys, Fingerprint), String> {
    pin(Side::Server);
    let ctl = share(controller(NODES));
    let server = serve(&ctl)?;
    pin(Side::Client);
    let link = TcpTransport::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::new(Link::Plain(link));
    let mut sys = Sys {
        ctl,
        server,
        live: VecDeque::new(),
        kinds: Arrivals::new(FILL_SEED, DOMAIN, 0),
        clock: 0.0,
        arrivals: 0,
    };
    while sys.live.len() < POPULATION {
        arrival(&mut client, &mut sys);
        if client.tally.failed > 0 {
            return Err(format!("population fill failed: {:?}", client.tally.errors));
        }
    }
    sys.kinds = Arrivals::new(seed, DOMAIN, 0);
    let fp = Fingerprint::capture(&sys.ctl.read(), sys.arrivals);
    Ok((sys, fp))
}

/// Runs arrivals until `dur` passes, and at least until the fingerprint
/// window is complete when `print` still waits for it.
fn phase(
    cfg: &RunCfg,
    sys: &mut Sys,
    mode: Mode,
    dur: Duration,
    print: &mut Option<Fingerprint>,
) -> Result<PhaseOut, String> {
    let t0 = Instant::now();
    let link = Link::open(mode, sys.server.addr(), &sys.ctl, cfg.epoch, 0)
        .map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::new(link);
    let window_end = POPULATION as u64 + PRINT_ARRIVALS;
    while t0.elapsed() < dur || (print.is_none() && sys.arrivals < window_end) {
        arrival(&mut client, sys);
        if print.is_none() && sys.arrivals == window_end {
            *print = Some(Fingerprint::capture(&sys.ctl.read(), sys.arrivals));
        }
    }
    let mut out = PhaseOut::default();
    out.absorb(client.finish());
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Replays set-up plus the fingerprint window on a fresh system and
/// returns its fingerprint, which must equal the measured run's.
fn replay_print(cfg: &RunCfg) -> Result<Fingerprint, String> {
    let (mut sys, _) = setup(cfg.seed)?;
    let mut print = None;
    phase(cfg, &mut sys, Mode::Plain, Duration::ZERO, &mut print)?;
    print.ok_or_else(|| "replay ended before the fingerprint window".into())
}

/// Runs `churn` and fills `r`; returns the run's tally.
pub fn run(cfg: &RunCfg, r: &mut Report) -> Result<Tally, String> {
    let mut setups = Setups::default();
    let mut sys = timed_setups(SETUP_REPS, &mut setups, || setup(cfg.seed))?;
    let mut print = None;
    phase(cfg, &mut sys, Mode::Plain, Duration::ZERO, &mut print)?;
    let (untraced, rest) = measure(cfg, r, "churn", "poll bag.1", |mode, dur| {
        phase(cfg, &mut sys, mode, dur, &mut print)
    })?;
    drop(sys);
    drop(timed_setups(SETUP_REPS, &mut setups, || setup(cfg.seed))?);
    let mut tally = untraced.tally;
    tally.merge(rest);
    setups.finish(r, &mut tally);
    let print = print.expect("the warm-up completes the fingerprint window");
    println!("{}", print.line());
    print.report(r);
    let replayed = replay_print(cfg)?;
    if replayed != print {
        tally.fail(format!(
            "fingerprint mismatch on replay: {} vs {}",
            replayed.line(),
            print.line()
        ));
    }
    Ok(tally)
}
