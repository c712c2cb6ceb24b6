//! WAL-coverage exhaustiveness guard.
//!
//! Two layers keep the WAL vocabulary honest as the controller grows:
//!
//! 1. **Every [`HarmonyEvent`] variant is producible and replayable.** One
//!    live controller is driven through the public entry points until the
//!    log holds a record of every kind; replaying that log onto a genesis
//!    controller must land on the identical durable state. The set of
//!    kinds comes from the exhaustive `match` that [`record_kinds!`]
//!    writes, so a new variant fails to compile here until it is named,
//!    and once named the producer test must drive it.
//!
//! 2. **Every state-mutating MC verb logs before it applies.** Each verb
//!    in the model checker's alphabet is stepped once with crash
//!    enumeration on; the engine's full-stream recovery comparison is
//!    exactly the log-before-apply guard (an applied-but-unlogged
//!    mutation diverges the recovered fingerprint), so a clean step *is*
//!    the assertion. The byte-growth checks pin which verbs are durable.

use std::collections::BTreeSet;
use std::sync::Arc;

use harmony_core::{Controller, HarmonyEvent};
use harmony_harness::{config_for_seed, PlantedBug};
use harmony_mc::{CrashCtx, Engine, Scope, Verb};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2A_SIMPLE, FIG2B_BAG};
use harmony_rsl::schema::{parse_bundle_script, LinkDecl, NodeDecl};
use harmony_wal::{read_wal, WalConfig, WalTail, WalWriter};

/// Writes, from one list of variant names, both `KINDS` and `kind`: an
/// exhaustive `match` over [`HarmonyEvent`] naming each record's kind.
/// Leaving a variant out of the list fails to compile `kind`.
macro_rules! record_kinds {
    ($($variant:ident),* $(,)?) => {
        const KINDS: &[&str] = &[$(stringify!($variant)),*];

        fn kind(event: &HarmonyEvent) -> &'static str {
            match event {
                $(HarmonyEvent::$variant { .. } => stringify!($variant),)*
            }
        }
    };
}

record_kinds!(
    Startup,
    BundleSetup,
    AddBundle,
    AppEnded,
    MetricReport,
    Metric,
    Heartbeat,
    Renew,
    Touch,
    Poll,
    Disconnect,
    Reattach,
    Reap,
    Periodic,
    Tick,
    Flush,
    Reevaluate,
    NodeJoined,
    LinkJoined,
    NodeLeft,
);

/// The kind of every record in a decoded WAL image.
fn record_kinds_of(records: &[Vec<u8>]) -> BTreeSet<&'static str> {
    records
        .iter()
        .map(|r| {
            let (_, event): (f64, HarmonyEvent) =
                serde_json::from_str(std::str::from_utf8(r).expect("utf8 record"))
                    .expect("wal record parses");
            kind(&event)
        })
        .collect()
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("harmony-mc-walcov-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Drives one WAL-attached controller through every kind of input and
/// asserts (a) the log holds exactly the kinds in `KINDS` and (b)
/// replaying the log reproduces the live durable state.
#[test]
fn every_wal_variant_is_produced_and_replays_to_the_live_state() {
    // Seed 10: coalescing is on, so Tick and Flush can fire.
    let config = config_for_seed(10);
    let cluster = Cluster::from_rsl(&sp2_cluster(8)).expect("sp2 cluster parses");
    let dir = scratch_dir("produce");
    let path = dir.join("coverage.wal");
    let writer =
        Arc::new(WalWriter::create(&path, WalConfig::default()).expect("create coverage wal"));

    let mut live = Controller::new(cluster.clone(), config.clone());
    live.attach_wal(Arc::clone(&writer));

    live.set_time(1.0);
    let a = live.startup("bag"); // Startup
    live.handle_event(HarmonyEvent::BundleSetup {
        // BundleSetup (and, coalescing, a dirty mark for the scheduler)
        instance: a.clone(),
        script: FIG2B_BAG.to_string(),
    })
    .expect("bag bundle places");
    // Quiet for longer than the 0.5 s coalesce window: the tick fires.
    live.service_scheduler(2.5).expect("tick fires"); // Tick
    let b = live.startup("simple");
    live.add_bundle(&b, parse_bundle_script(FIG2A_SIMPLE).expect("listing parses"))
        .expect("simple bundle places"); // AddBundle (+ dirty mark)
    live.flush_scheduler().expect("flush fires"); // Flush
    assert!(live.renew_lease(&a), "live session renews"); // Renew
    live.handle_event(HarmonyEvent::Heartbeat { instance: a.clone() })
        .expect("live session heartbeats"); // Heartbeat
    assert!(live.touch(&a), "live session touches"); // Touch
    live.mark_disconnected(&a); // Disconnect
    live.reattach(&a).expect("disconnected session reattaches"); // Reattach
    let drained = live.take_pending_vars(&a); // Poll
    assert!(!drained.is_empty(), "bundle placement + reattach leave pending vars to drain");
    assert!(live.record_metric(&format!("{a}.response_time"), 2.5, 0.25)); // Metric
    live.handle_event(HarmonyEvent::MetricReport {
        name: format!("{a}.response_time"),
        time: 2.5,
        value: 0.5,
    })
    .expect("metric report records"); // MetricReport
    live.handle_event(HarmonyEvent::NodeLeft { name: "node07".into() }).expect("node departs"); // NodeLeft
    live.handle_event(HarmonyEvent::NodeJoined(NodeDecl::new("node07", 1.0, 256.0)))
        .expect("node rejoins"); // NodeJoined
    live.handle_event(HarmonyEvent::LinkJoined(LinkDecl::new("node00", "node07", 320.0)))
        .expect("link publishes"); // LinkJoined
    live.end(&b).expect("live session ends"); // AppEnded
    live.reevaluate().expect("explicit reevaluation runs"); // Reevaluate
    live.handle_event(HarmonyEvent::Periodic).expect("periodic pass runs"); // Periodic
    live.reap_expired(2.5).expect("reap sweep runs"); // Reap

    writer.sync().expect("sync coverage wal");
    let read = read_wal(&path).expect("read coverage wal");
    assert_eq!(read.tail, WalTail::Clean, "a synced log decodes clean");

    let produced = record_kinds_of(&read.records);
    let expected: BTreeSet<&'static str> = KINDS.iter().copied().collect();
    assert_eq!(
        produced,
        expected,
        "every HarmonyEvent variant must be logged by some entry point \
         (missing: {:?}, unexpected: {:?})",
        expected.difference(&produced).collect::<Vec<_>>(),
        produced.difference(&expected).collect::<Vec<_>>()
    );

    // The log is not just complete, it is sufficient: pure replay onto a
    // genesis controller reconstructs the live durable state.
    let mut replayed = Controller::new(cluster, config);
    replayed.replay_wal(&read.records).expect("every record replays");
    assert_eq!(
        replayed.persisted_state().recovery_fingerprint(),
        live.persisted_state().recovery_fingerprint(),
        "replaying the full log must reproduce the live durable state"
    );

    drop(live);
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Steps every verb in the MC alphabet once with crash enumeration on.
/// The engine's full-stream recovery comparison runs at each step, so a
/// clean pass proves each verb logged everything it applied; the
/// byte-growth assertions pin which verbs are durable (clock verbs log
/// nothing, every other verb logs at least one record here).
#[test]
fn every_mc_verb_logs_before_apply_under_crash_enumeration() {
    // Seed 10 again so the Tick verb is in the alphabet.
    let scope = Scope {
        clients: 2,
        depth: 16,
        seed: 10,
        max_jumps: 2,
        crashes: true,
        planted: PlantedBug::None,
        skip_wal_renew: false,
    };
    let engine = Engine::new(scope);
    let mut ctx = CrashCtx::default();
    let mut node = engine.genesis(Some(&mut ctx));

    // Every alphabet verb appears at a moment it actually fires: the
    // bundle is placed before the poll (so the drain is non-empty), two
    // advances separate the dirty mark from the tick (so the coalesce
    // window has elapsed), and the final jump+reap expires the leases.
    let path = [
        Verb::Advance,
        Verb::Start(0),
        Verb::AddBundle(0),
        Verb::Advance,
        Verb::Advance,
        Verb::Tick,
        Verb::Poll(0),
        Verb::Heartbeat(0),
        Verb::Metric(0),
        Verb::Start(1),
        Verb::End(1),
        Verb::Reap,
        Verb::NodeLeft,
        Verb::NodeRejoin,
        Verb::Jump,
        Verb::Reap,
    ];
    for (i, verb) in path.into_iter().enumerate() {
        let (at_ms, _) = Engine::verb_time(&node, verb);
        let before = ctx.bytes.len();
        node = engine
            .step(&node, verb, at_ms, i, Some(&mut ctx))
            .unwrap_or_else(|v| panic!("step {i} ({verb}) violated: {v}"));
        let grew = ctx.bytes.len() > before;
        match verb {
            Verb::Advance | Verb::Jump => {
                assert!(!grew, "clock verb {verb} must not log WAL records");
            }
            _ => assert!(grew, "state verb {verb} logged no WAL record"),
        }
    }
    assert!(ctx.cuts > 0, "crash enumeration checked at least one cut");

    // The MC alphabet maps onto a fixed subset of the record kinds
    // (direct bundle adds, heartbeat and metric-report events,
    // disconnect/reattach, flush, explicit and periodic re-evaluation and
    // link joins are the other entry points, covered by the live-controller
    // test above). Pin that subset so a verb whose logging silently
    // changes shape is caught.
    let read = harmony_wal::decode_records(&ctx.bytes);
    assert_eq!(read.tail, WalTail::Clean);
    let expected: BTreeSet<&'static str> = [
        "Startup",
        "Renew",
        "BundleSetup",
        "Touch",
        "Poll",
        "Metric",
        "AppEnded",
        "Reap",
        "Tick",
        "NodeLeft",
        "NodeJoined",
    ]
    .into_iter()
    .collect();
    assert_eq!(
        record_kinds_of(&read.records),
        expected,
        "the MC verb alphabet's WAL footprint changed"
    );
}
