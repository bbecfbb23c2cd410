//! The three RealEngine workloads: `local-mix`, `remote-rpc` and
//! `drifting-hotspot`.
//!
//! Each runs a 2-node x 1-processor cluster (2 processor tokens, one per
//! host CPU) under `LatencyModel::zero()`, so the numbers measure the
//! runtime's mechanism rather than modelled wire time. Load is a closed
//! loop of 2 clients, one per node: Amber invocations are synchronous, so
//! each client waits for its reply before it issues the next operation.
//!
//! A run is several rounds, each on a fresh cluster: set-up (cluster build
//! plus the clients' object creation), a timed phase in which both clients
//! run operations until a shared deadline, then the output checks. The two
//! clients meet at a gate before and after the timed phase, so the phase
//! contains client operations and nothing else.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use amber_core::{
    Cluster, Ctx, EngineChoice, LatencyModel, MemorySink, NodeId, ObjRef, ProtocolError,
    ProtocolSnapshot, SimTime, TraceSummary,
};
use amber_engine::stats::NetStats;
use amber_placement::adaptive::{AdaptiveConfig, TrafficAdvisor};

use crate::os::Usage;
use crate::sample::{median, quantile, Reservoir, Rng};
use crate::spans::{self, Span, SpanLog};
use crate::{Args, Outcome};

const NODES: usize = 2;
const PROCESSORS: usize = 1;
/// One client per node.
const CLIENTS: usize = NODES;
/// Length of one round's timed phase in an untraced run. A run is as many
/// rounds as fit its `--seconds`, and each end-to-end metric is the median
/// over rounds: a fresh cluster per round samples thread placement and heap
/// layout anew, and the median discards the rounds the host disturbed.
const ROUND: Duration = Duration::from_secs(1);
/// Operations per client in the traced round, which bounds the memory the
/// in-memory trace and span logs take.
const TRACE_OP_CAP: u64 = 100_000;
/// A round that has not finished this long after its timed phase was due
/// to end has hung; the engine fails it with a timeout.
const DEADLINE_SLACK: Duration = Duration::from_secs(60);

/// Which RealEngine workload to run.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Local reads and writes over a working set larger than L2.
    LocalMix,
    /// Remote invokes, locates and moves: the Table-1 remote path.
    RemoteRpc,
    /// Adaptive placement chasing hot objects that keep changing.
    DriftingHotspot,
}

/// Runs `kind` per `args` and reports its metrics.
pub fn run(kind: Kind, args: &Args) -> Outcome {
    match kind {
        Kind::LocalMix => run_workload(LocalMix, "local-mix", args),
        Kind::RemoteRpc => run_workload(RemoteRpc, "remote-rpc", args),
        Kind::DriftingHotspot => run_workload(DriftingHotspot, "drifting-hotspot", args),
    }
}

/// One workload's client behaviour.
trait Workload: Copy + Send + Sync + 'static {
    /// A client's objects and the values it expects them to hold.
    type State: Send;
    /// Whether the cluster runs the adaptive placement advisor.
    const ADAPTIVE: bool = false;
    /// Whether the timed phase must send no network message at all.
    const LOCAL_ONLY: bool = false;

    /// Creates the client's objects; runs on the client's node `me`.
    fn setup(self, ctx: &Ctx, me: NodeId, peer: NodeId, spans: &mut SpanLog) -> Self::State;

    /// Issues one operation. `Err` is an operation the runtime failed;
    /// a wrong result is recorded in `checks` instead.
    fn op(
        self,
        ctx: &Ctx,
        st: &mut Self::State,
        rng: &mut Rng,
        spans: &mut SpanLog,
        checks: &mut Checks,
    ) -> Result<(), ProtocolError>;

    /// Final output checks, after the timed phase.
    fn finish(self, ctx: &Ctx, st: &Self::State, checks: &mut Checks);

    /// Hot-set rotations so far (only `drifting-hotspot` has phases).
    fn phases(_st: &Self::State) -> u64 {
        0
    }
}

/// Output-check failures of one client.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok && self.0.len() < 8 {
            self.0.push(msg());
        }
    }
}

// ---------------------------------------------------------------------------
// local-mix
// ---------------------------------------------------------------------------

/// Each client picks uniformly over its own node's working set: 80% shared
/// reads, 20% exclusive increments. Every call is local.
#[derive(Clone, Copy)]
struct LocalMix;

/// Counter objects per node: with the runtime's per-object registry entry,
/// descriptor and heap block the working set is several times a 4 MiB L2.
const LOCAL_OBJECTS: usize = 32_768;

struct Counters {
    objs: Vec<ObjRef<u64>>,
    /// The value each counter must hold: only its client writes it.
    expect: Vec<u64>,
    writes: u64,
}

impl Counters {
    fn create(ctx: &Ctx, node: NodeId, n: usize, spans: &mut SpanLog) -> Counters {
        let objs = (0..n)
            .map(|_| spans.time("core.kernel.create", || ctx.create_on(node, 0u64)))
            .collect();
        Counters {
            objs,
            expect: vec![0; n],
            writes: 0,
        }
    }

    fn write(
        &mut self,
        ctx: &Ctx,
        i: usize,
        spans: &mut SpanLog,
        checks: &mut Checks,
    ) -> Result<(), ProtocolError> {
        let v = spans.time("core.invoke.excl", || {
            ctx.try_invoke(&self.objs[i], |_, c| {
                *c += 1;
                *c
            })
        })?;
        self.expect[i] += 1;
        self.writes += 1;
        let want = self.expect[i];
        checks.check(v == want, || {
            format!("write of counter {i} returned {v}, want {want}")
        });
        Ok(())
    }

    fn read(
        &self,
        ctx: &Ctx,
        i: usize,
        spans: &mut SpanLog,
        checks: &mut Checks,
    ) -> Result<(), ProtocolError> {
        let v = spans.time("core.invoke.shared", || {
            ctx.try_invoke_shared(&self.objs[i], |_, c| *c)
        })?;
        // Only this client writes the counter, so a read sees exactly its
        // last write: values only grow, and never skip or lose a write.
        let want = self.expect[i];
        checks.check(v == want, || {
            format!("read of counter {i} returned {v}, want {want}")
        });
        Ok(())
    }

    /// Every counter holds its expected value, and they sum to the writes
    /// issued.
    fn verify(&self, ctx: &Ctx, checks: &mut Checks) {
        let mut sum = 0;
        for (i, o) in self.objs.iter().enumerate() {
            match ctx.try_invoke_shared(o, |_, c| *c) {
                Ok(v) => {
                    sum += v;
                    let want = self.expect[i];
                    checks.check(v == want, || format!("counter {i} holds {v}, want {want}"));
                }
                Err(e) => checks.check(false, || format!("final read of counter {i}: {e}")),
            }
        }
        let writes = self.writes;
        checks.check(sum == writes, || {
            format!("counters sum to {sum}, {writes} writes issued")
        });
    }
}

impl Workload for LocalMix {
    type State = Counters;
    const LOCAL_ONLY: bool = true;

    fn setup(self, ctx: &Ctx, me: NodeId, _peer: NodeId, spans: &mut SpanLog) -> Counters {
        Counters::create(ctx, me, LOCAL_OBJECTS, spans)
    }

    fn op(
        self,
        ctx: &Ctx,
        st: &mut Counters,
        rng: &mut Rng,
        spans: &mut SpanLog,
        checks: &mut Checks,
    ) -> Result<(), ProtocolError> {
        let i = rng.below(LOCAL_OBJECTS as u64) as usize;
        if rng.below(5) == 0 {
            st.write(ctx, i, spans, checks)
        } else {
            st.read(ctx, i, spans, checks)
        }
    }

    fn finish(self, ctx: &Ctx, st: &Counters, checks: &mut Checks) {
        st.verify(ctx, checks);
    }
}

// ---------------------------------------------------------------------------
// remote-rpc
// ---------------------------------------------------------------------------

/// Each client's counters are homed on the other node. Per operation: 60%
/// exclusive remote invoke, 20% shared invoke of a remote mutable counter
/// (both migrate the thread there and back), 10% locate, 10% move of the
/// client's own ball to the other node than it is on.
#[derive(Clone, Copy)]
struct RemoteRpc;

/// Remote counters per client.
const REMOTE_OBJECTS: usize = 64;

struct RemoteState {
    counters: Counters,
    ball: ObjRef<[u8; 32]>,
    /// Node of the ball's last move (only this client moves it).
    ball_at: NodeId,
    me: NodeId,
    peer: NodeId,
}

impl Workload for RemoteRpc {
    type State = RemoteState;

    fn setup(self, ctx: &Ctx, me: NodeId, peer: NodeId, spans: &mut SpanLog) -> RemoteState {
        let counters = Counters::create(ctx, peer, REMOTE_OBJECTS, spans);
        let ball = spans.time("core.kernel.create", || ctx.create_on(me, [0u8; 32]));
        RemoteState {
            counters,
            ball,
            ball_at: me,
            me,
            peer,
        }
    }

    fn op(
        self,
        ctx: &Ctx,
        st: &mut RemoteState,
        rng: &mut Rng,
        spans: &mut SpanLog,
        checks: &mut Checks,
    ) -> Result<(), ProtocolError> {
        let i = rng.below(REMOTE_OBJECTS as u64) as usize;
        match rng.below(10) {
            0..=5 => st.counters.write(ctx, i, spans, checks),
            6 | 7 => st.counters.read(ctx, i, spans, checks),
            8 => {
                let ball = rng.below(2) == 0;
                let (at, want) = if ball {
                    let at = spans.time("core.mobility.locate", || ctx.try_locate(&st.ball))?;
                    (at, st.ball_at)
                } else {
                    let obj = &st.counters.objs[i];
                    let at = spans.time("core.mobility.locate", || ctx.try_locate(obj))?;
                    (at, st.peer)
                };
                checks.check(at == want, || {
                    format!("locate (ball: {ball}) found {at:?}, want {want:?}")
                });
                Ok(())
            }
            _ => {
                let to = if st.ball_at == st.me { st.peer } else { st.me };
                spans.time("core.mobility.move", || ctx.move_to(&st.ball, to));
                st.ball_at = to;
                Ok(())
            }
        }
    }

    fn finish(self, ctx: &Ctx, st: &RemoteState, checks: &mut Checks) {
        st.counters.verify(ctx, checks);
        let want = st.ball_at;
        match ctx.try_locate(&st.ball) {
            Ok(at) => checks.check(at == want, || {
                format!("ball's final locate found {at:?}, last moved to {want:?}")
            }),
            Err(e) => checks.check(false, || format!("ball's final locate: {e}")),
        }
    }
}

// ---------------------------------------------------------------------------
// drifting-hotspot
// ---------------------------------------------------------------------------

/// Adaptive placement on. Each client increments 4 hot counters homed on
/// the other node; every phase it creates 4 fresh ones there and moves on,
/// so the advisor must keep re-localizing.
#[derive(Clone, Copy)]
struct DriftingHotspot;

/// Hot counters per phase.
const HOT: usize = 4;
/// Operations per client per phase.
const PHASE_OPS: u64 = 20_000;

struct DriftState {
    counters: Counters,
    /// Index of the current phase's first hot counter.
    hot: usize,
    in_phase: u64,
    phases: u64,
    peer: NodeId,
}

impl Workload for DriftingHotspot {
    type State = DriftState;
    const ADAPTIVE: bool = true;

    fn setup(self, ctx: &Ctx, _me: NodeId, peer: NodeId, spans: &mut SpanLog) -> DriftState {
        DriftState {
            counters: Counters::create(ctx, peer, HOT, spans),
            hot: 0,
            in_phase: 0,
            phases: 1,
            peer,
        }
    }

    fn op(
        self,
        ctx: &Ctx,
        st: &mut DriftState,
        rng: &mut Rng,
        spans: &mut SpanLog,
        checks: &mut Checks,
    ) -> Result<(), ProtocolError> {
        if st.in_phase == PHASE_OPS {
            spans.open("placement.phase");
            let c = &mut st.counters;
            st.hot = c.objs.len();
            for _ in 0..HOT {
                let peer = st.peer;
                c.objs
                    .push(spans.time("core.kernel.create", || ctx.create_on(peer, 0u64)));
                c.expect.push(0);
            }
            spans.close();
            st.in_phase = 0;
            st.phases += 1;
        }
        st.in_phase += 1;
        let i = st.hot + rng.below(HOT as u64) as usize;
        st.counters.write(ctx, i, spans, checks)
    }

    fn finish(self, ctx: &Ctx, st: &DriftState, checks: &mut Checks) {
        st.counters.verify(ctx, checks);
    }

    fn phases(st: &DriftState) -> u64 {
        st.phases
    }
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// How one round runs.
#[derive(Clone, Copy)]
struct Plan {
    seed: u64,
    round: u64,
    timed: Duration,
    traced: bool,
    op_cap: u64,
}

impl Plan {
    /// The random stream of client `k` in this round.
    fn stream(&self, k: usize) -> u64 {
        self.round * CLIENTS as u64 + k as u64
    }
}

/// Where the clients meet: all set up before the timed phase starts, all
/// done (and counters read) before any leaves it.
#[derive(Default)]
struct Gate {
    ready: AtomicUsize,
    done: AtomicUsize,
    probed: AtomicUsize,
    start: OnceLock<Instant>,
}

/// How long a client waiting at the gate sleeps between looks. Sleeping
/// releases the node's processor token, which the other client's migrated
/// thread may need to finish its last operation.
const GATE_POLL: SimTime = SimTime::from_us(50);

impl Gate {
    /// Arrives at the start line; returns when every client has, with the
    /// instant the last one arrived.
    fn start(&self, ctx: &Ctx) -> Instant {
        if self.ready.fetch_add(1, Ordering::SeqCst) + 1 == CLIENTS {
            self.start.set(Instant::now()).expect("one last arrival");
        }
        loop {
            if let Some(&t) = self.start.get() {
                return t;
            }
            ctx.sleep(GATE_POLL);
        }
    }

    fn meet(ctx: &Ctx, count: &AtomicUsize) {
        count.fetch_add(1, Ordering::SeqCst);
        while count.load(Ordering::SeqCst) < CLIENTS {
            ctx.sleep(GATE_POLL);
        }
    }
}

/// Cumulative counters at one instant of a round.
#[derive(Clone, Copy)]
struct Probe {
    at: Instant,
    stats: ProtocolSnapshot,
    msgs: u64,
    bytes: u64,
    retransmits: u64,
    coalesced: u64,
    usage: Usage,
    events: usize,
}

impl Probe {
    fn take(ctx: &Ctx, net: &NetStats, sink: Option<&MemorySink>) -> Probe {
        Probe {
            at: Instant::now(),
            stats: ctx.protocol_stats(),
            msgs: net.total_msgs(),
            bytes: net.total_bytes(),
            retransmits: net.total_retransmits(),
            coalesced: net.total_coalesced(),
            usage: Usage::now(),
            events: sink.map_or(0, |s| s.len()),
        }
    }
}

/// What one client hands back.
struct ClientOut {
    ops: u64,
    failed: u64,
    first_failure: Option<ProtocolError>,
    samples: Vec<u32>,
    end: Instant,
    before: Probe,
    after: Probe,
    phases: u64,
    checks: Vec<String>,
    spans: Vec<Span>,
}

/// Everything shared with a client thread.
struct ClientEnv {
    k: usize,
    plan: Plan,
    gate: Arc<Gate>,
    net: Arc<NetStats>,
    sink: Option<Arc<MemorySink>>,
    epoch: Instant,
    reservoir: Reservoir,
}

fn client<W: Workload>(w: W, ctx: &Ctx, env: ClientEnv) -> ClientOut {
    // One client per CPU, as one processor per node: left to itself, the OS
    // sometimes stacks both clients on one CPU for a whole run, which
    // halves remote-rpc's median latency and doubles its tail.
    crate::os::pin_current_thread(env.k);
    let me = NodeId::from(env.k);
    let peer = NodeId::from((env.k + 1) % NODES);
    let mut rng = Rng::new(env.plan.seed, env.plan.stream(env.k));
    let mut reservoir = env.reservoir;
    let mut spans = SpanLog::new(env.plan.traced, env.epoch);
    let mut checks = Checks::default();

    spans.open("bench.setup");
    let mut st = w.setup(ctx, me, peer, &mut spans);
    spans.close();

    let t0 = env.gate.start(ctx);
    let before = Probe::take(ctx, &env.net, env.sink.as_deref());
    let deadline = t0 + env.plan.timed;
    let (mut ops, mut failed, mut first_failure) = (0u64, 0u64, None);
    spans.open("bench.loop");
    let mut prev = Instant::now();
    while ops < env.plan.op_cap {
        if let Err(e) = w.op(ctx, &mut st, &mut rng, &mut spans, &mut checks) {
            failed += 1;
            first_failure.get_or_insert(e);
        }
        ops += 1;
        let now = Instant::now();
        reservoir.push((now - prev).as_nanos() as u64);
        prev = now;
        if now >= deadline {
            break;
        }
    }
    spans.close();
    Gate::meet(ctx, &env.gate.done);
    let after = Probe::take(ctx, &env.net, env.sink.as_deref());
    Gate::meet(ctx, &env.gate.probed);

    if W::LOCAL_ONLY {
        let sent = after.msgs - before.msgs;
        checks.check(sent == 0, || {
            format!(
                "client {} saw {sent} network messages in a local-only timed phase",
                env.k
            )
        });
    }
    w.finish(ctx, &st, &mut checks);
    ClientOut {
        ops,
        failed,
        first_failure,
        samples: reservoir.into_samples(),
        end: prev,
        before,
        after,
        phases: W::phases(&st),
        checks: checks.0,
        spans: spans.into_spans(),
    }
}

/// One finished round.
struct Round {
    setup: Duration,
    wall: Duration,
    ops: u64,
    failed: u64,
    /// Latency samples taken, and their median and 99th percentile.
    samples: usize,
    p50_us: f64,
    p99_us: f64,
    /// Peak resident memory while the round ran.
    peak_rss_mb: f64,
    /// Client 0's view of the timed phase (the counters are cluster-wide).
    before: Probe,
    after: Probe,
    /// Protocol counters at the end of the round.
    total: ProtocolSnapshot,
    phases: u64,
    spans: Vec<Vec<Span>>,
}

impl Round {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

fn round<W: Workload>(w: W, plan: Plan, out: &mut Outcome) -> Option<Round> {
    // The sample buffers are allocated (and touched) before the peak
    // restarts, so the round's peak counts the runtime, not the benchmark.
    let reservoirs: Vec<Reservoir> = (0..CLIENTS)
        .map(|k| Reservoir::new(Rng::new(plan.seed ^ 0x5A3F, plan.stream(k))))
        .collect();
    crate::os::release_free_memory();
    crate::os::reset_peak_rss();
    let epoch = Instant::now();
    let mut builder = Cluster::builder()
        .nodes(NODES)
        .processors(PROCESSORS)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(plan.timed + DEADLINE_SLACK);
    if W::ADAPTIVE {
        builder = builder.adaptive_placement(|| TrafficAdvisor::new(AdaptiveConfig::default()));
    }
    let cluster = builder.build();
    let sink = plan.traced.then(|| cluster.enable_tracing());
    let net = cluster.net_stats();
    let gate = Arc::new(Gate::default());
    let env_sink = sink.clone();
    let env_net = Arc::clone(&net);
    let env_gate = Arc::clone(&gate);
    let run = cluster.run(move |ctx| {
        // A pinned anchor per node: each client thread runs as an operation
        // on its node's anchor, and the pin keeps the advisor off it.
        let anchors: Vec<_> = (0..NODES)
            .map(|k| {
                let a = ctx.create_on(NodeId::from(k), 0u8);
                ctx.pin(&a);
                a
            })
            .collect();
        let handles: Vec<_> = anchors
            .iter()
            .zip(reservoirs)
            .enumerate()
            .map(|(k, (a, reservoir))| {
                let env = ClientEnv {
                    k,
                    plan,
                    gate: Arc::clone(&env_gate),
                    net: Arc::clone(&env_net),
                    sink: env_sink.clone(),
                    epoch,
                    reservoir,
                };
                ctx.start(a, move |ctx, _| client(w, ctx, env))
            })
            .collect();
        handles.into_iter().map(|h| h.join(ctx)).collect::<Vec<_>>()
    });
    let clients = match run {
        Ok(c) => c,
        Err(e) => {
            out.check(false, || {
                format!("round {}: cluster run failed: {e:?}", plan.round)
            });
            return None;
        }
    };
    let t0 = *gate
        .start
        .get()
        .expect("every client passed the start gate");
    let total = cluster.protocol_stats();

    if let Some(sink) = sink {
        // The trace must account for every counter exactly.
        let events = sink.take();
        let s = TraceSummary::from_events(&events);
        out.check(s.snapshot == total, || {
            format!("trace summary {:?} != protocol_stats {total:?}", s.snapshot)
        });
        let net_counts = (net.total_msgs(), net.total_bytes());
        let net_counts = (net_counts, net.total_retransmits(), net.total_coalesced());
        let traced = ((s.messages, s.message_bytes), s.retransmits, s.coalesced);
        out.check(traced == net_counts, || {
            format!(
                "trace (msgs, bytes), retransmits, coalesced {traced:?} != NetStats {net_counts:?}"
            )
        });
    }

    let mut r = Round {
        setup: t0 - epoch,
        wall: Duration::ZERO,
        ops: 0,
        failed: 0,
        samples: 0,
        p50_us: 0.0,
        p99_us: 0.0,
        peak_rss_mb: crate::os::peak_rss_mb(),
        before: clients[0].before,
        after: clients[0].after,
        total,
        phases: 0,
        spans: Vec::new(),
    };
    let mut samples = Vec::with_capacity(CLIENTS * Reservoir::CAP);
    for (k, c) in clients.into_iter().enumerate() {
        for msg in c.checks {
            out.check(false, || format!("round {} client {k}: {msg}", plan.round));
        }
        if let Some(e) = c.first_failure {
            eprintln!(
                "perfbench: round {} client {k}: {} ops failed, first: {e}",
                plan.round, c.failed
            );
        }
        r.wall = r.wall.max(c.end - t0);
        r.ops += c.ops;
        r.failed += c.failed;
        samples.extend_from_slice(&c.samples);
        r.phases += c.phases;
        r.spans.push(c.spans);
    }
    samples.sort_unstable();
    r.samples = samples.len();
    r.p50_us = quantile(&samples, 0.5) as f64 / 1e3;
    r.p99_us = quantile(&samples, 0.99) as f64 / 1e3;
    out.attempted += r.ops;
    out.failed += r.failed;
    Some(r)
}

fn run_workload<W: Workload>(w: W, name: &str, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let nproc = crate::os::nproc();
    out.check(NODES * PROCESSORS <= nproc, || {
        format!(
            "{NODES} nodes x {PROCESSORS} processors need {} CPUs, have {nproc}",
            NODES * PROCESSORS
        )
    });
    if !out.errors.is_empty() {
        return out;
    }
    let seconds = Duration::from_secs_f64(args.seconds);
    let plans: Vec<Plan> = if args.trace {
        // One untraced round for the counters and the overhead baseline,
        // then one traced round for spans and the trace reconciliation.
        [false, true]
            .into_iter()
            .enumerate()
            .map(|(i, traced)| Plan {
                seed: args.seed,
                round: i as u64,
                timed: seconds / 2,
                traced,
                op_cap: if traced { TRACE_OP_CAP } else { u64::MAX },
            })
            .collect()
    } else {
        let rounds = (seconds.as_secs_f64() / ROUND.as_secs_f64())
            .ceil()
            .max(1.0) as u64;
        (0..rounds)
            .map(|round| Plan {
                seed: args.seed,
                round,
                timed: seconds / rounds as u32,
                traced: false,
                op_cap: u64::MAX,
            })
            .collect()
    };
    let mut rounds = Vec::new();
    for plan in plans {
        match round(w, plan, &mut out) {
            Some(r) => rounds.push(r),
            None => return out,
        }
    }

    let samples: usize = rounds.iter().map(|r| r.samples).sum();
    let per_round = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let mut setups = per_round(|r| r.setup.as_secs_f64());
    let mut rates = per_round(Round::ops_per_s);
    let mut p50s = per_round(|r| r.p50_us);
    let mut p99s = per_round(|r| r.p99_us);
    let mut peaks = per_round(|r| r.peak_rss_mb);
    println!(
        "{name}: {} rounds, {} ops ({} failed), {samples} latency samples; per round: \
         ops/s {rates:.0?}, p50 us {p50s:.3?}, p99 us {p99s:.3?}, set-up s {setups:.4?}",
        rounds.len(),
        out.attempted,
        out.failed,
    );

    if !args.trace {
        out.set("setup_s", median(&mut setups));
        out.set("ops_per_s", median(&mut rates));
        out.set("op_p50_us", median(&mut p50s));
        out.set("op_p99_us", median(&mut p99s));
        out.set("peak_rss_mb", median(&mut peaks));
        return out;
    }

    let (plain, traced) = (&rounds[0], &rounds[1]);
    let (b, a) = (&plain.before, &plain.after);
    let ops = plain.ops as f64;
    let d = |f: fn(&ProtocolSnapshot) -> u64| (f(&a.stats) - f(&b.stats)) as f64;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let invokes = d(|s| s.local_invokes) + d(|s| s.remote_invokes);
    let (moves, skips) = (d(|s| s.advisory_moves), d(|s| s.advisory_skips));
    out.set(
        "core.invoke.remote_frac",
        ratio(d(|s| s.remote_invokes), invokes),
    );
    out.set(
        "core.mobility.migrations_per_op",
        d(|s| s.thread_migrations) / ops,
    );
    out.set(
        "core.mobility.forward_hops_per_op",
        d(|s| s.forward_hops) / ops,
    );
    out.set("core.mobility.hint_repairs", d(|s| s.hint_repairs));
    out.set("core.kernel.creates", plain.total.creates as f64);
    out.set(
        "vspace.region_extensions",
        plain.total.region_extensions as f64,
    );
    out.set("engine.real.msgs_per_op", (a.msgs - b.msgs) as f64 / ops);
    out.set("engine.real.bytes_per_op", (a.bytes - b.bytes) as f64 / ops);
    let usage = a.usage.since(b.usage);
    out.set(
        "engine.real.cpu_util",
        usage.cpu_s / (a.at - b.at).as_secs_f64(),
    );
    out.set(
        "engine.real.ctx_switches_per_op",
        usage.ctx_switches as f64 / ops,
    );
    out.set(
        "engine.fault.retransmits",
        (a.retransmits - b.retransmits) as f64,
    );
    out.set(
        "engine.coalesce.coalesced",
        (a.coalesced - b.coalesced) as f64,
    );
    out.set("placement.advisory_moves", moves);
    out.set("placement.advisory_skips", skips);
    out.set("placement.useful_frac", ratio(moves, moves + skips));
    out.set(
        "placement.remote_per_phase",
        ratio(d(|s| s.remote_invokes), plain.phases as f64),
    );

    let logs = &traced.spans;
    out.set(
        "core.invoke.excl_p50_us",
        spans::p50_us(logs, "core.invoke.excl"),
    );
    out.set(
        "core.invoke.shared_p50_us",
        spans::p50_us(logs, "core.invoke.shared"),
    );
    out.set(
        "core.mobility.locate_p50_us",
        spans::p50_us(logs, "core.mobility.locate"),
    );
    out.set(
        "core.mobility.move_p50_us",
        spans::p50_us(logs, "core.mobility.move"),
    );
    out.set(
        "core.kernel.create_p50_us",
        spans::p50_us(logs, "core.kernel.create"),
    );
    out.set("bench.loop.self_frac", spans::self_frac(logs, "bench.loop"));
    let events = (traced.after.events - traced.before.events) as f64;
    out.set("engine.trace.events_per_op", events / traced.ops as f64);
    out.set(
        "engine.trace.overhead_frac",
        plain.ops_per_s() / traced.ops_per_s() - 1.0,
    );
    out.set("bench.latency_samples", samples as f64);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{name}.spans.csv"));
    if let Err(e) = spans::write_csv(&path, logs) {
        out.check(false, || format!("writing {}: {e}", path.display()));
    }
    out
}
