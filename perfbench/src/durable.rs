//! `durable`: writes beside reads with persistence on, as `harmonyd
//! --state-dir` runs.
//!
//! An 8-node cluster, four resident bags, and a state dir opened with
//! `StateStore::open` under the benchmark's output directory (on the
//! checkout's filesystem). Connection A runs `steady`'s report cycles in a
//! closed loop. Connection B is an open loop of transient applications due
//! at a fixed rate; each runs `startup`, `bundle`, `poll`, two `metric`s
//! and `end`, and is timed from its due time. Every few arrivals the bench
//! runs the daemon's periodic pass: advance the clock, `Periodic`, then
//! `StateStore::maybe_checkpoint`.
//!
//! After the timed phases the bench forces a checkpoint, runs a fixed
//! seeded tail of requests and times `StateStore::open` on copies of the
//! state dir. The decision fingerprint and the replayed record count come
//! from a recovery point that wall time cannot move: a fresh system runs
//! the fingerprint window's arrivals on one connection, the forced
//! checkpoint and the same tail, twice, and both must agree.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use harmony_core::{HarmonyEvent, StateStore};
use harmony_proto::{SharedController, TcpServer, TcpTransport};
use harmony_rng::SeededRng;
use harmony_wal::{read_wal, StateDir, WalConfig, WalWriter};

use crate::churn::Arrivals;
use crate::client::{Client, Inst, Link, Mode, Tally};
use crate::common::{
    controller, measure, pin, serve, share, timed_setups, Fingerprint, PhaseOut, RunCfg, Setups,
    Side,
};
use crate::report::Report;
use crate::stats::{median, median_or_zero, quantile};
use crate::steady::{register_bags, report_cycle};

const NODES: usize = 8;
const RESIDENTS: usize = 4;
/// Set-up repetitions before the timed phase, and again after it.
const SETUP_REPS: usize = 12;
/// Transient arrivals per second on connection B.
const RATE: f64 = 10.0;
/// Arrivals between periodic passes: every two seconds at `RATE`, the
/// cadence of `harmonyd`'s periodic pass.
const PERIODIC_EVERY: u64 = 20;
/// Virtual seconds a periodic pass advances the clock (the wall time
/// between passes).
const PERIODIC_STEP_S: f64 = 2.0;
/// Arrivals after set-up that the decision fingerprint covers; the
/// window ends on the first periodic pass.
const PRINT_ARRIVALS: u64 = PERIODIC_EVERY - RESIDENTS as u64;
/// The recovery tail: transient arrivals, then report cycles.
const TAIL_ARRIVALS: usize = 2;
const TAIL_CYCLES: u64 = 25;
/// Times `StateStore::open` is measured on copies of the run's state dir.
const RECOVERIES: usize = 5;
/// Report cycles per connection in a traced phase.
const TRACED_CYCLES: u64 = 5_000;
const DOMAIN_READS: u64 = 0x4455_5241;
const DOMAIN_KINDS: u64 = 0x4455_524b;
const DOMAIN_TAIL: u64 = 0x4455_5254;

struct Sys {
    ctl: SharedController,
    store: StateStore,
    server: TcpServer,
    residents: Vec<Inst>,
    kinds: Arrivals,
    clock: f64,
    arrivals: u64,
    dir: PathBuf,
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))
}

fn setup(cfg: &RunCfg, rep: usize) -> Result<(Sys, Fingerprint), String> {
    let dir = cfg.out_dir.join(format!("state-{}-{rep}", std::process::id()));
    fresh_dir(&dir)?;
    pin(Side::Server);
    let (ctl, store) =
        StateStore::open(&dir, || controller(NODES)).map_err(|e| format!("open state dir: {e}"))?;
    let ctl = share(ctl);
    let server = serve(&ctl)?;
    pin(Side::Client);
    let link = TcpTransport::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::new(Link::Plain(link));
    let residents = register_bags(&mut client, RESIDENTS)?;
    let fp = Fingerprint::capture(&ctl.read(), RESIDENTS as u64);
    let kinds = Arrivals::new(cfg.seed, DOMAIN_KINDS, 0);
    Ok((
        Sys { ctl, store, server, residents, kinds, clock: 0.0, arrivals: RESIDENTS as u64, dir },
        fp,
    ))
}

/// One transient application on connection B: `startup`, `bundle`, the
/// config `poll`, two `metric`s and `end`. Returns the milliseconds from
/// `due` until the poll returned the config.
fn transient(client: &mut Client, kinds: &mut Arrivals, due: Instant, clock: f64) -> Option<f64> {
    let (app, script) = kinds.next_kind();
    let (inst, _) = client.arrive(app, script)?;
    let decided = due.elapsed().as_secs_f64() * 1e3;
    client.metric(format!("{}.{}.response_time", inst.app, inst.id), clock, 250.0);
    client.metric(format!("{}.{}.throughput", inst.app, inst.id), clock, 1.0);
    client.end(&inst);
    Some(decided)
}

/// `harmonyd`'s periodic pass under the write lock; records the hold and
/// any checkpoint it wrote.
fn periodic(ctl: &SharedController, store: &mut StateStore, clock: f64, tally: &mut Tally) {
    let t0 = Instant::now();
    let mut guard = ctl.write();
    guard.set_time(clock);
    if let Err(e) = guard.handle_event(HarmonyEvent::Periodic) {
        tally.fail(format!("periodic pass: {e}"));
    }
    let c0 = Instant::now();
    match store.maybe_checkpoint(&mut guard) {
        Ok(true) => tally.checkpoint_ms.push(c0.elapsed().as_secs_f64() * 1e3),
        Ok(false) => {}
        Err(e) => tally.fail(format!("checkpoint: {e}")),
    }
    drop(guard);
    tally.periodic_ms.push(t0.elapsed().as_secs_f64() * 1e3);
}

/// One transient arrival due at `due`, followed by the periodic pass when
/// the arrival count reaches its cadence. Returns the transient's decision
/// latency.
fn arrival(
    client: &mut Client,
    ctl: &SharedController,
    store: &mut StateStore,
    kinds: &mut Arrivals,
    clock: &mut f64,
    arrivals: &mut u64,
    due: Instant,
) -> Option<f64> {
    *arrivals += 1;
    let decided = transient(client, kinds, due, *clock);
    if arrivals.is_multiple_of(PERIODIC_EVERY) {
        *clock += PERIODIC_STEP_S;
        periodic(ctl, store, *clock, &mut client.tally);
    }
    decided
}

/// Runs both connections for `dur`.
fn phase(
    cfg: &RunCfg,
    sys: &mut Sys,
    mode: Mode,
    dur: Duration,
    max_cycles: u64,
) -> Result<PhaseOut, String> {
    let t0 = Instant::now();
    let deadline = t0 + dur;
    let done = AtomicBool::new(false);
    let addr = sys.server.addr();
    let Sys { ctl, store, residents, kinds, clock, arrivals, .. } = sys;
    let (ctl, residents) = (&*ctl, &*residents);
    let mut out = PhaseOut::default();
    std::thread::scope(|s| {
        let done = &done;
        let reads = s.spawn(move || {
            let link =
                Link::open(mode, addr, ctl, cfg.epoch, 0).map_err(|e| format!("connect: {e}"))?;
            let mut client = Client::new(link);
            let mut rng = SeededRng::stream(cfg.seed, DOMAIN_READS, 0);
            let mut tick = 0;
            while tick < max_cycles && !done.load(Ordering::Relaxed) {
                tick += 1;
                report_cycle(&mut client, residents, &mut rng, tick);
            }
            // A capped read loop ends the phase, so rates cover both
            // connections over the same span.
            done.store(true, Ordering::Relaxed);
            Ok::<_, String>(client.finish())
        });
        let writes = (|| {
            let link =
                Link::open(mode, addr, ctl, cfg.epoch, 1).map_err(|e| format!("connect: {e}"))?;
            let mut client = Client::new(link);
            let mut k = 0u32;
            loop {
                let due = t0 + Duration::from_secs_f64(f64::from(k) / RATE);
                if due >= deadline || done.load(Ordering::Relaxed) {
                    break;
                }
                k += 1;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                client.tally.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                if let Some(ms) = arrival(&mut client, ctl, store, kinds, clock, arrivals, due) {
                    client.tally.cycle_ms.push(ms);
                }
            }
            Ok::<_, String>(client.finish())
        })();
        done.store(true, Ordering::Relaxed);
        let reads = reads.join().expect("durable read thread panicked");
        out.absorb(writes?);
        out.absorb(reads?);
        Ok::<_, String>(())
    })?;
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Copies every regular file of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Forces a checkpoint, then runs the seeded tail on one connection: two
/// transient arrivals, then report cycles of the residents. Returns the
/// checkpoint's milliseconds.
fn checkpoint_and_tail(cfg: &RunCfg, sys: &mut Sys, tally: &mut Tally) -> Result<f64, String> {
    let c0 = Instant::now();
    sys.store.checkpoint(&mut sys.ctl.write()).map_err(|e| format!("forced checkpoint: {e}"))?;
    let checkpoint_ms = c0.elapsed().as_secs_f64() * 1e3;
    let link = TcpTransport::connect(sys.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::new(Link::Plain(link));
    let mut kinds = Arrivals::new(cfg.seed, DOMAIN_TAIL, 0);
    let mut rng = SeededRng::stream(cfg.seed, DOMAIN_TAIL, 1);
    for _ in 0..TAIL_ARRIVALS {
        transient(&mut client, &mut kinds, Instant::now(), sys.clock);
    }
    for tick in 0..TAIL_CYCLES {
        report_cycle(&mut client, &sys.residents, &mut rng, tick);
    }
    tally.merge(client.finish().0);
    sys.store.sync().map_err(|e| format!("sync: {e}"))?;
    Ok(checkpoint_ms)
}

/// Times `StateStore::open` on a copy of `sys`'s state dir named `tag`;
/// returns the seconds and the records it replayed.
fn recover(sys: &Sys, tag: &str) -> Result<(f64, u64), String> {
    let name = sys.dir.file_name().and_then(|n| n.to_str()).unwrap_or("state");
    let copy = sys.dir.with_file_name(format!("{name}-{tag}"));
    copy_dir(&sys.dir, &copy)?;
    let t0 = Instant::now();
    let (ctl, store) =
        StateStore::open(&copy, || controller(NODES)).map_err(|e| format!("recover: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let replayed = ctl.recovery_info().map_or(0, |info| info.replayed);
    drop((ctl, store));
    let _ = std::fs::remove_dir_all(&copy);
    Ok((secs, replayed))
}

/// The WAL figures of the run: its own records replayed through a fresh
/// writer, then the forced checkpoint, the seeded tail and timed
/// recoveries of its state dir.
fn wal_and_recovery(
    cfg: &RunCfg,
    sys: &mut Sys,
    r: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let state_dir = StateDir::open(&sys.dir).map_err(|e| format!("state dir: {e}"))?;
    sys.store.sync().map_err(|e| format!("sync: {e}"))?;
    // The run's own records: every WAL generation the store still keeps
    // (the live one and the one before the last checkpoint).
    let mut records = Vec::new();
    for gen in state_dir.generations().map_err(|e| format!("list state dir: {e}"))? {
        let path = state_dir.wal_path(gen);
        if path.exists() {
            records.extend(read_wal(&path).map_err(|e| format!("read wal: {e}"))?.records);
        }
    }
    let bytes: usize = records.iter().map(|p| p.len() + harmony_wal::RECORD_HEADER).sum();
    r.put("wal.bytes_per_record", bytes as f64 / records.len().max(1) as f64, "B", records.len());
    replay_appends(cfg, &records, r)?;

    let checkpoint_ms = checkpoint_and_tail(cfg, sys, tally)?;
    r.put("wal.forced_checkpoint_ms", checkpoint_ms, "ms", 1);
    let snap = std::fs::metadata(state_dir.snapshot_path(sys.store.generation()))
        .map_err(|e| format!("snapshot size: {e}"))?;
    r.put("wal.snapshot_bytes", snap.len() as f64, "B", 1);
    let secs = (0..RECOVERIES)
        .map(|i| recover(sys, &format!("recover-{i}")).map(|(s, _)| s))
        .collect::<Result<Vec<_>, _>>()?;
    let recover_s = median(&secs);
    r.put("recover_s", recover_s, "s", secs.len());
    r.put("wal.recover_s", recover_s, "s", secs.len());
    Ok(())
}

/// The recovery point wall time cannot move: a fresh system (state dir
/// `rep`) runs the fingerprint window's transient arrivals, with their
/// periodic passes, on one connection and no read loop, then the forced
/// checkpoint and the seeded tail, and recovers a copy of its state dir.
/// Returns the fingerprint, the records recovery replayed and its seconds.
fn recovery_point(
    cfg: &RunCfg,
    rep: usize,
    tally: &mut Tally,
) -> Result<(Fingerprint, u64, f64), String> {
    let (mut sys, _) = setup(cfg, rep)?;
    let link = TcpTransport::connect(sys.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::new(Link::Plain(link));
    let Sys { ctl, store, kinds, clock, arrivals, .. } = &mut sys;
    for _ in 0..PRINT_ARRIVALS {
        arrival(&mut client, ctl, store, kinds, clock, arrivals, Instant::now());
    }
    tally.merge(client.finish().0);
    let print = Fingerprint::capture(&sys.ctl.read(), sys.arrivals);
    checkpoint_and_tail(cfg, &mut sys, tally)?;
    let (secs, replayed) = recover(&sys, "point")?;
    Ok((print, replayed, secs))
}

/// Appends the run's records to a fresh WAL with its flusher running,
/// timing each append and an explicit sync every 64 records and after the
/// last.
fn replay_appends(cfg: &RunCfg, records: &[Vec<u8>], r: &mut Report) -> Result<(), String> {
    let path = cfg.out_dir.join(format!("replay-{}.wal", std::process::id()));
    let writer =
        WalWriter::create(&path, WalConfig::default()).map_err(|e| format!("replay wal: {e}"))?;
    let (mut append_us, mut sync_ms) = (Vec::with_capacity(records.len()), Vec::new());
    for (i, rec) in records.iter().enumerate() {
        let t0 = Instant::now();
        writer.append(rec).map_err(|e| format!("replay append: {e}"))?;
        append_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if i % 64 == 63 || i + 1 == records.len() {
            let t0 = Instant::now();
            writer.sync().map_err(|e| format!("replay sync: {e}"))?;
            sync_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    drop(writer);
    let _ = std::fs::remove_file(&path);
    r.put("wal.append_us_p50", median(&append_us), "us", append_us.len());
    r.put("wal.append_us_p99", quantile(&append_us, 0.99), "us", append_us.len());
    r.put("wal.sync_ms", median(&sync_ms), "ms", sync_ms.len());
    Ok(())
}

/// Runs `durable` and fills `r`; returns the run's tally.
pub fn run(cfg: &RunCfg, r: &mut Report) -> Result<Tally, String> {
    let mut setups = Setups::default();
    let mut rep = 0;
    let mut next_setup = || {
        rep += 1;
        setup(cfg, rep)
    };
    let mut sys = timed_setups(SETUP_REPS, &mut setups, &mut next_setup)?;
    let appends = |sys: &Sys| sys.ctl.read().metrics().counter("controller.persistence.appends");
    let mut wal_appends = 0;
    let (untraced, rest) = measure(cfg, r, "durable", "heartbeat bag.1", |mode, dur| {
        let cap = if mode == Mode::Plain { u64::MAX } else { TRACED_CYCLES };
        let a0 = appends(&sys);
        let p = phase(cfg, &mut sys, mode, dur, cap)?;
        if mode == Mode::Plain {
            wal_appends = appends(&sys) - a0;
        }
        Ok(p)
    })?;
    let ops = untraced.tally.attempted.max(1);
    r.put("wal.appends_per_op", wal_appends as f64 / ops as f64, "ratio", ops as usize);
    let ck = &untraced.tally.checkpoint_ms;
    r.put("wal.checkpoints", ck.len() as f64, "count", 1);
    r.put("wal.checkpoint_ms", median_or_zero(ck), "ms", ck.len());
    let late = &untraced.tally.late_ms;
    r.put("loadgen.late_ms_p99", quantile(late, 0.99), "ms", late.len());
    drop(timed_setups(SETUP_REPS, &mut setups, &mut next_setup)?);
    let mut tally = untraced.tally;
    tally.merge(rest);
    setups.finish(r, &mut tally);
    let mut result = wal_and_recovery(cfg, &mut sys, r, &mut tally);
    drop(sys);
    if result.is_ok() {
        result = recovery_points(cfg, r, &mut tally);
    }
    for rep in 1..=2 * SETUP_REPS + 2 {
        let _ = std::fs::remove_dir_all(
            cfg.out_dir.join(format!("state-{}-{rep}", std::process::id())),
        );
    }
    result?;
    Ok(tally)
}

/// Runs [`recovery_point`] twice on fresh systems, requires the same
/// fingerprint and replayed record count from both, and reports them.
fn recovery_points(cfg: &RunCfg, r: &mut Report, tally: &mut Tally) -> Result<(), String> {
    let (print, replayed, s1) = recovery_point(cfg, 2 * SETUP_REPS + 1, tally)?;
    let (again, replayed_again, s2) = recovery_point(cfg, 2 * SETUP_REPS + 2, tally)?;
    if again != print {
        tally.fail(format!("fingerprint mismatch on replay: {} vs {}", again.line(), print.line()));
    }
    if replayed_again != replayed {
        tally.fail(format!(
            "recovery replayed {replayed_again} records on replay against {replayed}"
        ));
    }
    println!("{}", print.line());
    print.report(r);
    r.put("wal.replayed", replayed as f64, "count", 1);
    r.put(
        "wal.replay_us_per_record",
        median(&[s1, s2]) * 1e6 / replayed.max(1) as f64,
        "us",
        replayed as usize,
    );
    Ok(())
}
