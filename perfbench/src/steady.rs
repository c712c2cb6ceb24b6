//! `steady`: the read path alone.
//!
//! Eight resident Figure 2(b) bags on an 8-node cluster, registered during
//! set-up. One connection runs a closed loop of report cycles: for a seeded
//! resident, `heartbeat`, `poll` and two `metric`s (its `response_time`,
//! which also feeds the histogram, and a plain series) in seeded order. The
//! clock stays frozen, there is no state dir and no decision runs while the
//! loop measures. One connection, not two: on two CPUs two connections put
//! four runnable threads on them and spread by 0.2–0.3 from run to run.

use std::time::{Duration, Instant};

use harmony_proto::{SharedController, TcpServer, TcpTransport};
use harmony_rng::SeededRng;

use crate::client::{Client, Inst, Link, Mode, Tally};
use crate::common::{
    controller, measure, pin, serve, share, timed_setups, Fingerprint, PhaseOut, RunCfg, Setups,
    Side, BAG,
};
use crate::report::Report;

const NODES: usize = 8;
const RESIDENTS: usize = 8;
/// Set-up repetitions before the timed phase, and again after it.
const SETUP_REPS: usize = 12;
/// Report cycles per connection in a traced phase, which bounds span memory.
const TRACED_CYCLES: u64 = 5_000;
/// Seed domain of the connection's op stream.
const DOMAIN: u64 = 0x5354_4541;

/// One report cycle of a seeded resident: `heartbeat`, `poll` and two
/// `metric`s in seeded order. Returns the cycle's milliseconds when every
/// request passed its check.
pub fn report_cycle(
    client: &mut Client,
    residents: &[Inst],
    rng: &mut SeededRng,
    tick: u64,
) -> Option<f64> {
    let inst = &residents[rng.uniform_int(0, residents.len() as i64 - 1) as usize];
    let mut order = [0u8, 1, 2, 3];
    for i in (1..order.len()).rev() {
        order.swap(i, rng.uniform_int(0, i as i64) as usize);
    }
    let t0 = Instant::now();
    let mut ok = true;
    for verb in order {
        ok &= match verb {
            0 => client.heartbeat(inst),
            1 => client.poll(inst).is_some(),
            2 => client.metric(
                format!("{}.{}.response_time", inst.app, inst.id),
                tick as f64,
                rng.uniform(100.0, 400.0),
            ),
            _ => client.metric(
                format!("{}.{}.throughput", inst.app, inst.id),
                tick as f64,
                rng.uniform(0.5, 2.0),
            ),
        };
    }
    ok.then(|| t0.elapsed().as_secs_f64() * 1e3)
}

/// Registers `n` resident bags through `client`.
pub fn register_bags(client: &mut Client, n: usize) -> Result<Vec<Inst>, String> {
    (0..n)
        .map(|_| client.arrive(BAG.0, BAG.1).map(|(inst, _)| inst))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("resident registration failed: {:?}", client.tally.errors))
}

struct Sys {
    ctl: SharedController,
    server: TcpServer,
    residents: Vec<Inst>,
}

fn setup() -> Result<(Sys, Fingerprint), String> {
    pin(Side::Server);
    let ctl = share(controller(NODES));
    let server = serve(&ctl)?;
    pin(Side::Client);
    let link = TcpTransport::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::new(Link::Plain(link));
    let residents = register_bags(&mut client, RESIDENTS)?;
    let fp = Fingerprint::capture(&ctl.read(), RESIDENTS as u64);
    Ok((Sys { ctl, server, residents }, fp))
}

/// Runs the report-cycle loop on one connection to `ctl` (over TCP to
/// `server` unless in-process) until `dur` passes or `max_cycles` ran.
fn read_loop(
    cfg: &RunCfg,
    ctl: &SharedController,
    server: &TcpServer,
    residents: &[Inst],
    mode: Mode,
    dur: Duration,
    max_cycles: u64,
) -> Result<PhaseOut, String> {
    let t0 = Instant::now();
    let link =
        Link::open(mode, server.addr(), ctl, cfg.epoch, 0).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::new(link);
    let mut rng = SeededRng::stream(cfg.seed, DOMAIN, 0);
    let mut tick = 0;
    while tick < max_cycles && t0.elapsed() < dur {
        tick += 1;
        if let Some(ms) = report_cycle(&mut client, residents, &mut rng, tick) {
            client.tally.cycle_ms.push(ms);
        }
    }
    let mut out = PhaseOut::default();
    out.absorb(client.finish());
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// The in-process replay: the same registrations and report cycles
/// through the server's functions on a fresh controller, then every
/// resident ends.
fn inproc(cfg: &RunCfg, server: &TcpServer, dur: Duration) -> Result<PhaseOut, String> {
    let t0 = Instant::now();
    let ctl = share(controller(NODES));
    let link = Link::open(Mode::InProc, server.addr(), &ctl, cfg.epoch, 1)
        .map_err(|e| format!("in-process link: {e}"))?;
    let mut admin = Client::new(link);
    let residents = register_bags(&mut admin, RESIDENTS)?;
    let mut out = read_loop(cfg, &ctl, server, &residents, Mode::InProc, dur, TRACED_CYCLES)?;
    for inst in &residents {
        admin.end(inst);
    }
    out.absorb(admin.finish());
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Runs `steady` and fills `r`; returns the run's tally.
pub fn run(cfg: &RunCfg, r: &mut Report) -> Result<Tally, String> {
    let mut setups = Setups::default();
    let sys = timed_setups(SETUP_REPS, &mut setups, setup)?;
    println!("{}", setups.first().line());
    setups.first().report(r);
    let Sys { ctl, server, residents } = &sys;
    let (untraced, rest) = measure(cfg, r, "steady", "heartbeat bag.1", |mode, dur| match mode {
        Mode::Plain => read_loop(cfg, ctl, server, residents, mode, dur, u64::MAX),
        Mode::Traced => read_loop(cfg, ctl, server, residents, mode, dur, TRACED_CYCLES),
        Mode::InProc => inproc(cfg, server, dur),
    })?;
    drop(timed_setups(SETUP_REPS, &mut setups, setup)?);
    let mut tally = untraced.tally;
    tally.merge(rest);
    setups.finish(r, &mut tally);
    Ok(tally)
}
