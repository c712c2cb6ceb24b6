//! No single frame of deep nesting may abort the server: the RSL list
//! parser and the expression parser refuse input nested past their bounds
//! with an in-band error. Every request here runs on a spawned thread with
//! the default stack, the stack `TcpServer` gives each connection, so an
//! unbounded recursion would abort the whole test process.

use std::sync::Arc;

use harmony_core::{Controller, ControllerConfig};
use harmony_proto::{handle_request, Request, Response, SharedController};
use harmony_resources::Cluster;
use harmony_rsl::expr::MAX_EXPR_DEPTH;
use harmony_rsl::list::MAX_LIST_DEPTH;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
use parking_lot::RwLock;

fn shared() -> SharedController {
    let cluster = Cluster::from_rsl(&sp2_cluster(8)).expect("sp2 cluster parses");
    Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())))
}

/// Serves `req` as a connection thread would.
fn serve(ctl: &SharedController, req: Request) -> Response {
    let ctl = Arc::clone(ctl);
    std::thread::spawn(move || handle_request(&ctl, &req)).join().expect("request thread panicked")
}

/// Registers `bag` and sends FIG2B_BAG with its `seconds` expression
/// replaced by `seconds`.
fn bundle_with_seconds(ctl: &SharedController, seconds: &str) -> Response {
    let Response::Registered { app, id } = serve(ctl, Request::Startup { app: "bag".into() })
    else {
        panic!("startup registers");
    };
    let script = FIG2B_BAG.replace("{1200 / workerNodes}", &format!("{{{seconds}}}"));
    assert_ne!(script, FIG2B_BAG, "the listing's seconds expression was replaced");
    serve(ctl, Request::Bundle { app, id, script })
}

fn nest(open: &str, inner: &str, close: &str, depth: usize) -> String {
    format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
}

#[test]
fn lint_of_twenty_thousand_nested_braces_is_an_error() {
    let ctl = shared();
    let script = format!("harmonyBundle a b {}", nest("{", "", "}", 20_000));
    match serve(&ctl, Request::Lint { script }) {
        Response::Error { message } => assert!(message.contains("nesting"), "{message}"),
        other => panic!("expected an in-band error, got {other:?}"),
    }
    // Nesting at the bound is parsed and linted, not refused for depth.
    let script = format!("harmonyBundle a b {}", nest("{", "x", "}", MAX_LIST_DEPTH - 1));
    if let Response::Error { message } = serve(&ctl, Request::Lint { script }) {
        assert!(!message.contains("nesting"), "{message}");
    }
}

#[test]
fn bundle_with_three_thousand_nested_parens_is_an_error() {
    let ctl = shared();
    // The schema parser keeps an unparseable expression as text, so the
    // refusal surfaces as the analyzer's "not a number" finding.
    let resp = bundle_with_seconds(&ctl, &nest("(", "1200 / workerNodes", ")", 3_000));
    assert!(matches!(resp, Response::Error { .. }), "expected an in-band error, got {resp:?}");
    // The controller is still serving: a plain listing still registers.
    let Response::Registered { app, id } = serve(&ctl, Request::Startup { app: "bag".into() })
    else {
        panic!("startup registers");
    };
    let resp = serve(&ctl, Request::Bundle { app, id, script: FIG2B_BAG.into() });
    assert_eq!(resp, Response::Ok);
}

#[test]
fn expressions_at_the_bound_are_served() {
    // Parentheses add no tree depth; nested calls do, and the analyzer,
    // the evaluator and the predictor all walk the full depth.
    let parens = nest("(", "1200 / workerNodes", ")", MAX_EXPR_DEPTH - 1);
    assert_eq!(bundle_with_seconds(&shared(), &parens), Response::Ok);
    let calls = nest("min(", "1200 / workerNodes, 9999", ", 9999)", MAX_EXPR_DEPTH - 1);
    assert_eq!(bundle_with_seconds(&shared(), &calls), Response::Ok);
}
