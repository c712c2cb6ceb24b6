//! The controller's event interface.
//!
//! "The Harmony process is an event driven system that waits for
//! application and performance events. When an event happens, it triggers
//! the automatic application adaptation system, and each of the option
//! bundles for each application gets re-evaluated" (§5).
//!
//! [`HarmonyEvent`] is the one spelling of a controller input: what
//! embeddings send through [`Controller::handle_event`], what the typed
//! verbs (`startup`, `add_bundle`, `touch`, ...) route through, and what
//! the write-ahead log stores and recovery replays (see
//! [`crate::persist`]).
//!
//! [`Controller::handle_event`]: crate::Controller::handle_event

use harmony_ns::HPath;
use harmony_rsl::schema::{BundleSpec, LinkDecl, NodeDecl};
use harmony_rsl::Value;
use serde::{Deserialize, Serialize};

use crate::app::InstanceId;
use crate::controller::DecisionRecord;

/// An input delivered to the Harmony process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HarmonyEvent {
    /// An application registered (`harmony_startup`).
    Startup {
        /// Application name.
        app: String,
    },
    /// An application sent a bundle (`harmony_bundle_setup`); the payload
    /// is RSL text.
    BundleSetup {
        /// The registered instance.
        instance: InstanceId,
        /// RSL script containing one `harmonyBundle` statement.
        script: String,
    },
    /// An already-parsed bundle for a registered instance
    /// ([`Controller::add_bundle`](crate::Controller::add_bundle)).
    AddBundle {
        /// The receiving instance.
        instance: InstanceId,
        /// The bundle specification.
        spec: BundleSpec,
    },
    /// An application is terminating (`harmony_end`).
    AppEnded {
        /// The departing instance.
        instance: InstanceId,
    },
    /// A performance measurement arrived through the metric interface:
    /// renews the owning lease, records the sample, and publishes it on
    /// the metric bus.
    MetricReport {
        /// Dotted metric name.
        name: String,
        /// Timestamp (controller clock, seconds).
        time: f64,
        /// Sampled value.
        value: f64,
    },
    /// A read-path metric sample
    /// ([`Controller::record_metric`](crate::Controller::record_metric)):
    /// recorded and journaled only. Non-finite samples are rejected but
    /// still journaled.
    Metric {
        /// Dotted metric name.
        name: String,
        /// Timestamp (controller clock, seconds).
        time: f64,
        /// Sampled value.
        value: f64,
    },
    /// A lease-renewal heartbeat arrived from an application (journaled;
    /// an unknown instance is an error).
    Heartbeat {
        /// The renewing instance.
        instance: InstanceId,
    },
    /// A write-path lease renewal
    /// ([`Controller::renew_lease`](crate::Controller::renew_lease)); not
    /// journaled.
    Renew {
        /// The renewing instance.
        instance: InstanceId,
    },
    /// A read-path lease touch
    /// ([`Controller::touch`](crate::Controller::touch)).
    Touch {
        /// The touched instance.
        instance: InstanceId,
    },
    /// A pending-variable drain
    /// ([`Controller::take_pending_vars`](crate::Controller::take_pending_vars)).
    Poll {
        /// The polling instance.
        instance: InstanceId,
    },
    /// An application's connection dropped
    /// ([`Controller::mark_disconnected`](crate::Controller::mark_disconnected)):
    /// its lease is capped to the disconnect grace.
    Disconnect {
        /// The disconnected instance.
        instance: InstanceId,
    },
    /// A reconnecting application re-established its session; current
    /// chosen values are replayed into its pending-variable buffer.
    Reattach {
        /// The reattaching instance.
        instance: InstanceId,
    },
    /// A lease sweep at `now`
    /// ([`Controller::reap_expired`](crate::Controller::reap_expired)).
    Reap {
        /// The sweep time (also advances the clock).
        now: f64,
    },
    /// The periodic re-evaluation timer fired. Expired session leases are
    /// reaped before the re-evaluation pass.
    Periodic,
    /// A scheduler tick: runs the coalesced re-evaluation if it is due
    /// ([`Controller::service_scheduler`](crate::Controller::service_scheduler)).
    Tick,
    /// A forced coalescing-window flush
    /// ([`Controller::flush_scheduler`](crate::Controller::flush_scheduler)).
    Flush,
    /// A full re-evaluation
    /// ([`Controller::reevaluate`](crate::Controller::reevaluate)).
    Reevaluate,
    /// A node joined the metacomputer.
    NodeJoined(NodeDecl),
    /// A link was published.
    LinkJoined(LinkDecl),
    /// A node left; applications running on it are displaced and
    /// re-placed.
    NodeLeft {
        /// The departing node's name.
        name: String,
    },
}

/// What handling an event produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventOutcome {
    /// A new instance was registered.
    Registered(InstanceId),
    /// Zero or more reconfiguration decisions were applied.
    Decisions(Vec<DecisionRecord>),
    /// A poll drained these buffered variable updates.
    Drained(Vec<(HPath, Value)>),
    /// The input was refused (a non-finite metric sample); only a journal
    /// entry records it.
    Rejected,
    /// The event was absorbed with no decisions.
    Quiet,
}

impl EventOutcome {
    /// The decisions this outcome carries (none for other outcomes).
    pub fn into_decisions(self) -> Vec<DecisionRecord> {
        match self {
            EventOutcome::Decisions(records) => records,
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, ControllerConfig};
    use crate::error::CoreError;
    use harmony_resources::Cluster;
    use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};

    fn controller(nodes: usize) -> Controller {
        Controller::new(
            Cluster::from_rsl(&sp2_cluster(nodes)).unwrap(),
            ControllerConfig::default(),
        )
    }

    #[test]
    fn startup_and_bundle_events_register_and_place() {
        let mut c = controller(8);
        let outcome = c.handle_event(HarmonyEvent::Startup { app: "bag".into() }).unwrap();
        let EventOutcome::Registered(id) = outcome else { panic!("expected id") };
        let outcome = c
            .handle_event(HarmonyEvent::BundleSetup {
                instance: id.clone(),
                script: FIG2B_BAG.into(),
            })
            .unwrap();
        let EventOutcome::Decisions(ds) = outcome else { panic!("expected decisions") };
        assert_eq!(ds.len(), 1);
        assert!(c.choice(&id, "config").is_some());
    }

    #[test]
    fn metric_report_records_quietly() {
        let mut c = controller(2);
        let rx = c.metric_bus().subscribe();
        let outcome = c
            .handle_event(HarmonyEvent::MetricReport {
                name: "bag.1.rt".into(),
                time: 1.0,
                value: 12.0,
            })
            .unwrap();
        assert_eq!(outcome, EventOutcome::Quiet);
        assert_eq!(c.metrics().series("bag.1.rt").unwrap().len(), 1);
        // The bus fanned the report out to subscribers.
        let ev = rx.try_recv().unwrap();
        assert_eq!(ev.name, "bag.1.rt");
        assert_eq!(ev.value, 12.0);
    }

    #[test]
    fn decisions_are_published_on_the_bus() {
        let mut c = controller(8);
        let rx = c.metric_bus().subscribe();
        c.register(harmony_rsl::schema::parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
        let events: Vec<_> = rx.try_iter().collect();
        assert!(
            events.iter().any(|e| e.name.starts_with("controller.decision.bag.1")),
            "got {events:?}"
        );
    }

    #[test]
    fn node_arrival_triggers_expansion() {
        let mut c = controller(4);
        let (id, _) =
            c.register(harmony_rsl::schema::parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
        assert_eq!(c.choice(&id, "config").unwrap().vars[0].1, 4);
        // Four more nodes join (and links to the existing mesh).
        for i in 4..8 {
            let name = format!("node{i:02}");
            c.handle_event(HarmonyEvent::NodeJoined(harmony_rsl::schema::NodeDecl::new(
                name.clone(),
                1.0,
                256.0,
            )))
            .unwrap();
            for j in 0..i {
                c.handle_event(HarmonyEvent::LinkJoined(harmony_rsl::schema::LinkDecl::new(
                    format!("node{j:02}"),
                    name.clone(),
                    320.0,
                )))
                .unwrap();
            }
        }
        assert_eq!(c.choice(&id, "config").unwrap().vars[0].1, 8, "expanded onto new nodes");
    }

    #[test]
    fn node_departure_displaces_and_replaces() {
        let mut c = controller(8);
        let (id, _) =
            c.register(harmony_rsl::schema::parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
        assert_eq!(c.choice(&id, "config").unwrap().vars[0].1, 8);
        let outcome = c.handle_event(HarmonyEvent::NodeLeft { name: "node00".into() }).unwrap();
        let EventOutcome::Decisions(ds) = outcome else { panic!() };
        assert!(!ds.is_empty());
        let choice = c.choice(&id, "config").unwrap();
        // 7 nodes remain: best feasible worker count is 4.
        assert_eq!(choice.vars[0].1, 4);
        assert!(choice.alloc.nodes.iter().all(|n| n.node != "node00"));
        // Capacity counters stayed consistent.
        assert_eq!(c.cluster().total_tasks(), 4);
    }

    #[test]
    fn periodic_event_reevaluates() {
        let mut c = controller(8);
        c.register(harmony_rsl::schema::parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
        let before = c.metrics().counter("controller.reevals");
        c.handle_event(HarmonyEvent::Periodic).unwrap();
        assert_eq!(c.metrics().counter("controller.reevals"), before + 1);
    }

    #[test]
    fn bad_bundle_script_is_an_error() {
        let mut c = controller(2);
        let id = c.startup("x");
        let err = c
            .handle_event(HarmonyEvent::BundleSetup {
                instance: id,
                script: "this is not rsl {".into(),
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::Rsl(_)));
    }
}
