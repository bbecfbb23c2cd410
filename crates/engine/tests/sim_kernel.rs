//! Kernel context under the simulator's inline dispatch: message handlers
//! run on the OS thread that gave up the baton, yet must look like kernel
//! code (no current Amber thread), and a handler that panics must end the
//! run with a typed error rather than hang it or blame the lending thread.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use amber_engine::{
    current_thread, must_current_thread, Engine, EngineError, EngineExt, LatencyModel, MemorySink,
    NodeId, ProtocolEvent, SimEngine, SimTime,
};

fn sim() -> Arc<SimEngine> {
    SimEngine::cluster(2, 1, LatencyModel::fixed(SimTime::from_ms(1)))
}

/// Runs `body` as the main thread of a fresh two-node simulator on a helper
/// thread, so an engine that hangs fails the test instead of the suite.
fn run_bounded(body: impl FnOnce(Arc<SimEngine>) + Send + 'static) -> Result<(), EngineError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let e = sim();
        let e2 = Arc::clone(&e);
        let _ = tx.send(e.run(NodeId(0), move || body(e2)));
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("SimEngine::run did not return within 30 s")
}

#[test]
fn handler_runs_in_kernel_context_and_lender_resumes_intact() {
    let e = sim();
    let sink = MemorySink::new();
    e.tracer().install(sink.clone());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (e2, seen2) = (Arc::clone(&e), Arc::clone(&seen));
    let me = e
        .run(NodeId(0), move || {
            let me = must_current_thread();
            let (e3, seen3) = (Arc::clone(&e2), Arc::clone(&seen2));
            e2.send(
                NodeId(0),
                NodeId(1),
                64,
                Box::new(move || {
                    seen3.lock().unwrap().push(current_thread());
                    let e4 = Arc::clone(&e3);
                    e3.send(NodeId(1), NodeId(0), 32, Box::new(move || e4.unblock(me)));
                }),
            );
            e2.block_current("await-reply");
            assert_eq!(current_thread(), Some(me), "lender's marker clobbered");
            me
        })
        .unwrap();
    assert_eq!(*seen.lock().unwrap(), vec![None]);
    let sends: Vec<_> = sink
        .take()
        .into_iter()
        .filter(|r| matches!(r.event, ProtocolEvent::MessageSend { .. }))
        .map(|r| (r.thread, r.event))
        .collect();
    let send = |from, to, bytes| ProtocolEvent::MessageSend {
        from: NodeId(from),
        to: NodeId(to),
        bytes,
    };
    assert_eq!(
        sends,
        vec![(Some(me), send(0, 1, 64)), (None, send(1, 0, 32))],
        "the handler's reply must be traced from kernel context"
    );
}

#[test]
fn handler_panic_while_lender_is_parked_ends_the_run() {
    let err = run_bounded(|e| {
        e.send(NodeId(0), NodeId(1), 8, Box::new(|| panic!("handler boom")));
        e.block_current("await-never");
    })
    .unwrap_err();
    assert_eq!(
        err,
        EngineError::KernelPanic {
            at: SimTime::from_ms(1),
            message: "handler boom".to_string(),
        }
    );
}

#[test]
fn handler_panic_on_a_finishing_thread_ends_the_run() {
    // A parked helper keeps the run alive after main returns, so the
    // handler runs on main's OS thread during its exit-path dispatch step.
    let err = run_bounded(|e| {
        let e2 = Arc::clone(&e);
        e.spawn(
            NodeId(0),
            "parked".into(),
            Box::new(move || e2.block_current("await-never")),
        );
        e.yield_now();
        e.send(NodeId(0), NodeId(1), 8, Box::new(|| panic!("late boom")));
    })
    .unwrap_err();
    assert_eq!(
        err,
        EngineError::KernelPanic {
            at: SimTime::from_ms(1),
            message: "late boom".to_string(),
        }
    );
}
