//! Worker pool: shards instances across threads, steps them in waves.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kset_sim::SimError;

use crate::decision::{Decision, DecisionBatch};
use crate::instance::{Instance, Propose, Workload};

/// Tuning knobs for a [`Server`].
///
/// The defaults are sized for the common case — millions of tiny
/// failure-free runs — and can be overridden field-by-field with struct
/// update syntax: `ServeConfig { threads: 4, ..ServeConfig::new(w) }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// The protocol/problem shape every instance runs (see [`Workload`]).
    pub workload: Workload,
    /// Worker threads; instance `id` is handled by worker `id % threads`.
    pub threads: usize,
    /// Kernel events each live instance may fire per scheduling wave.
    /// Small batches interleave instances more fairly; large batches
    /// amortise the scheduling overhead.
    pub batch: u32,
    /// Cap on concurrently live instances per worker. Bounds worker memory
    /// at `max_live` sessions regardless of how many proposals are queued.
    pub max_live: usize,
    /// Depth of each worker's bounded proposal queue. A submitter that
    /// outruns the workers blocks in [`ServeClient::propose`] instead of
    /// growing the queue without bound.
    pub queue_depth: usize,
}

impl ServeConfig {
    /// Default configuration for `workload`: one worker, waves of 16
    /// events, at most 256 live instances and 4096 queued proposals per
    /// worker.
    pub fn new(workload: Workload) -> Self {
        ServeConfig {
            workload,
            threads: 1,
            batch: 16,
            max_live: 256,
            queue_depth: 4096,
        }
    }
}

/// Totals reported by [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Decisions produced across all workers over the server's lifetime
    /// (including refusals of malformed proposals).
    pub decided: u64,
    /// Times a worker with nothing in flight still found its proposal
    /// queue empty after polling it for the spin window, and blocked on
    /// it until a proposal or the shutdown woke it. Each park costs the
    /// next proposal a thread wake-up.
    pub parks: u64,
    /// Worker threads that served them.
    pub threads: usize,
}

/// What flows down a worker's proposal queue.
enum WorkerMsg {
    Propose(Propose),
    /// Shutdown sentinel: finish the live set, then exit. Lets
    /// [`Server::shutdown`] terminate workers even while [`ServeClient`]
    /// clones are still alive somewhere.
    Stop,
}

/// Cloneable submission handle for a running [`Server`].
///
/// Handles can be cloned freely and moved to other threads; all clones
/// share the instance-id counter. After [`Server::shutdown`] every clone's
/// [`propose`](ServeClient::propose) fails with `InvalidConfig`.
#[derive(Debug, Clone)]
pub struct ServeClient {
    workload: Workload,
    queues: Arc<Vec<SyncSender<WorkerMsg>>>,
    next_id: Arc<AtomicU64>,
}

impl ServeClient {
    /// Submits one instance (`inputs[p]` is process `p`'s initial value)
    /// and returns its assigned id.
    ///
    /// Blocks while the target worker's queue is full (backpressure).
    /// Fails with [`SimError::InvalidConfig`] if the input arity does not
    /// match the workload or the server has shut down.
    pub fn propose(&self, inputs: Vec<u64>) -> Result<u64, SimError> {
        if inputs.len() != self.workload.n {
            return Err(SimError::InvalidConfig(format!(
                "expected {} inputs, got {}",
                self.workload.n,
                inputs.len()
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard = (id % self.queues.len() as u64) as usize;
        let propose = Propose {
            id,
            inputs,
            submitted: Instant::now(),
        };
        self.queues[shard]
            .send(WorkerMsg::Propose(propose))
            .map_err(|_| SimError::InvalidConfig("server is shut down".into()))?;
        Ok(id)
    }
}

/// A pool of worker threads multiplexing consensus instances.
///
/// Proposals flow in through [`ServeClient`] handles, sharded by instance
/// id onto per-worker bounded queues. Each worker keeps up to
/// [`ServeConfig::max_live`] sessions in flight and advances every one of
/// them by a wave of at most [`ServeConfig::batch`] kernel events per
/// round. Each wave's finished instances travel as one [`DecisionBatch`]
/// down the shared unbounded outbound channel, and
/// [`Server::recv_decision`] turns them into [`Decision`]s on the reading
/// thread. A worker keeps its finished instances and restarts them for
/// later proposals, so it allocates nothing per instance once warm. A
/// worker with nothing in flight polls its queue for a fixed 50 µs
/// before it blocks on it ([`ServeStats::parks`]).
pub struct Server {
    client: ServeClient,
    decisions: Receiver<DecisionBatch>,
    /// The batch `recv_decision` is reading from.
    current: RefCell<DecisionBatch>,
    workers: Vec<JoinHandle<WorkerTotals>>,
    threads: usize,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("threads", &self.threads)
            .field("workload", &self.client.workload)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Spawns the worker pool described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads`, `config.batch`, `config.max_live` or
    /// `config.queue_depth` is zero, or the workload fails
    /// [`Workload::check`].
    pub fn start(config: ServeConfig) -> Server {
        Server::spawn(config, IDLE_SPIN)
    }

    /// [`start`](Server::start) with idle workers polling for `spin`
    /// before they park.
    fn spawn(config: ServeConfig, spin: Duration) -> Server {
        if let Err(err) = config.workload.check() {
            panic!("invalid workload: {err}");
        }
        assert!(config.threads > 0, "server needs at least one worker");
        assert!(config.batch > 0, "wave batch must be positive");
        assert!(config.max_live > 0, "max_live must be positive");
        assert!(config.queue_depth > 0, "queue_depth must be positive");

        let (decision_tx, decisions) = mpsc::channel();
        let mut queues = Vec::with_capacity(config.threads);
        let mut workers = Vec::with_capacity(config.threads);
        for worker_idx in 0..config.threads {
            let (tx, rx) = mpsc::sync_channel(config.queue_depth);
            queues.push(tx);
            let out = decision_tx.clone();
            let cfg = config;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("kset-serve-{worker_idx}"))
                    .spawn(move || worker_loop(rx, out, cfg, spin))
                    .expect("failed to spawn worker thread"),
            );
        }
        let client = ServeClient {
            workload: config.workload,
            queues: Arc::new(queues),
            next_id: Arc::new(AtomicU64::new(0)),
        };
        Server {
            client,
            decisions,
            current: RefCell::new(DecisionBatch::new()),
            workers,
            threads: config.threads,
        }
    }

    /// A new submission handle for this server.
    pub fn client(&self) -> ServeClient {
        self.client.clone()
    }

    /// Blocks until the next decision is available. Returns `None` only
    /// after every worker has exited (i.e. post-shutdown drain).
    pub fn recv_decision(&self) -> Option<Decision> {
        self.next_decision(|batches| batches.recv().ok())
    }

    /// Non-blocking variant of [`recv_decision`](Server::recv_decision).
    pub fn try_recv_decision(&self) -> Option<Decision> {
        self.next_decision(|batches| batches.try_recv().ok())
    }

    /// The next unread decision, taking batches from `fetch` until one
    /// has one; `None` once `fetch` has no batch.
    fn next_decision(
        &self,
        mut fetch: impl FnMut(&Receiver<DecisionBatch>) -> Option<DecisionBatch>,
    ) -> Option<Decision> {
        let mut current = self.current.borrow_mut();
        loop {
            if let Some(decision) = current.next() {
                return Some(decision);
            }
            *current = fetch(&self.decisions)?;
        }
    }

    /// Stops the workers (each finishes its in-flight instances first) and
    /// returns lifetime totals. Undelivered decisions still sitting in the
    /// outbound channel are discarded, so drain with
    /// [`recv_decision`](Server::recv_decision) first if you want them.
    /// Proposals racing the shutdown from other [`ServeClient`] clones may
    /// be dropped without a decision.
    pub fn shutdown(self) -> ServeStats {
        let Server {
            client,
            decisions,
            workers,
            threads,
            ..
        } = self;
        for queue in client.queues.iter() {
            // A full queue still delivers the sentinel eventually: send
            // blocks until the worker drains ahead of it. A send error
            // means the worker is already gone, which is fine too.
            let _ = queue.send(WorkerMsg::Stop);
        }
        drop(client);
        let mut stats = ServeStats {
            decided: 0,
            parks: 0,
            threads,
        };
        for worker in workers {
            let totals = worker.join().expect("worker thread panicked");
            stats.decided += totals.decided;
            stats.parks += totals.parks;
        }
        drop(decisions);
        stats
    }
}

/// One worker's instances: the live set it steps, and finished instances
/// kept for restarting. Together they never exceed `max_live`.
struct Instances {
    live: Vec<Instance>,
    free: Vec<Instance>,
    workload: Workload,
}

impl Instances {
    /// Admits one proposal into the live set, restarting a finished
    /// instance when there is one, or answers it in `batch` if it cannot
    /// start.
    fn admit(&mut self, propose: Propose, batch: &mut DecisionBatch) {
        let started = match self.free.pop() {
            Some(mut instance) => match instance.restart(propose) {
                Ok(()) => Ok(instance),
                Err((err, propose)) => {
                    self.free.push(instance);
                    Err((err, propose))
                }
            },
            None => Instance::new(propose, &self.workload),
        };
        match started {
            Ok(instance) => self.live.push(instance),
            Err((_, propose)) => batch.push_refusal(propose),
        }
    }

    /// Advances every live instance by one wave of `budget` events and
    /// moves the finished ones into `batch` and the free list.
    fn step_wave(&mut self, budget: u32, batch: &mut DecisionBatch) {
        let mut i = 0;
        while i < self.live.len() {
            // A kernel error (e.g. event-limit exhaustion) ends the
            // instance too; it is reported as non-terminated.
            if self.live[i].step_wave(budget).unwrap_or(true) {
                let mut instance = self.live.swap_remove(i);
                instance.finish_into(batch);
                self.free.push(instance);
            } else {
                i += 1;
            }
        }
    }
}

/// How long a worker with nothing in flight polls its proposal queue
/// before it blocks on it.
///
/// A proposal sent to a blocked worker pays a wake-up: the sender makes a
/// futex syscall and the proposal waits until the scheduler runs the
/// worker again, several times the ~2 µs one FloodMin(3, 1) instance
/// takes to serve. A proposal sent while the worker polls costs neither,
/// so a worker fed every few microseconds never parks. The price is at
/// most this long of one core per idle spell, paid only when the queue
/// stays empty. The window is not a tuning knob: it only has to exceed
/// the gap between proposals worth staying awake for.
const IDLE_SPIN: Duration = Duration::from_micros(50);

/// What one worker reports when it exits: its share of [`ServeStats`].
#[derive(Debug, Default)]
struct WorkerTotals {
    decided: u64,
    parks: u64,
}

/// One worker: ingest proposals up to `max_live`, advance every live
/// instance by one wave, ship the wave's decisions as one batch, repeat
/// until the proposal queue disconnects and the live set drains.
fn worker_loop(
    rx: Receiver<WorkerMsg>,
    out: Sender<DecisionBatch>,
    config: ServeConfig,
    spin: Duration,
) -> WorkerTotals {
    let mut instances = Instances {
        live: Vec::new(),
        free: Vec::new(),
        workload: config.workload,
    };
    let mut totals = WorkerTotals::default();
    let mut open = true;
    while open || !instances.live.is_empty() {
        let mut batch = DecisionBatch::new();
        if instances.live.is_empty() {
            // Nothing in flight: wait until work arrives or the queue closes.
            match idle_wait(&rx, spin, &mut totals.parks) {
                Some(WorkerMsg::Propose(p)) => instances.admit(p, &mut batch),
                Some(WorkerMsg::Stop) | None => open = false,
            }
        }
        while open && instances.live.len() < config.max_live {
            match rx.try_recv() {
                Ok(WorkerMsg::Propose(p)) => instances.admit(p, &mut batch),
                Err(TryRecvError::Empty) => break,
                Ok(WorkerMsg::Stop) | Err(TryRecvError::Disconnected) => open = false,
            }
        }
        instances.step_wave(config.batch, &mut batch);
        if !batch.is_empty() {
            totals.decided += batch.len() as u64;
            batch.seal();
            if out.send(batch).is_err() {
                // Receiver gone: the server is being torn down.
                return totals;
            }
        }
    }
    totals
}

/// The next message of an idle worker's queue, `None` once it is
/// disconnected: polls it for `spin`, then blocks on it, counting that in
/// `parks`.
fn idle_wait(rx: &Receiver<WorkerMsg>, spin: Duration, parks: &mut u64) -> Option<WorkerMsg> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(msg) => return Some(msg),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if start.elapsed() >= spin => break,
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    *parks += 1;
    rx.recv().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_and_shuts_down() {
        let server = Server::start(ServeConfig {
            threads: 2,
            max_live: 8,
            ..ServeConfig::new(Workload::flood_min(3, 1))
        });
        let client = server.client();
        let mut ids = Vec::new();
        for i in 0..100u64 {
            ids.push(client.propose(vec![i, i + 1, i + 2]).unwrap());
        }
        drop(client);
        let mut got = Vec::new();
        for _ in 0..100 {
            let d = server.recv_decision().expect("decision");
            assert!(d.record.terminated(), "instance {} did not terminate", d.id);
            assert!(d.events > 0);
            assert!(!d.record.decisions().is_empty());
            got.push(d.id);
        }
        got.sort_unstable();
        assert_eq!(got, ids);
        let stats = server.shutdown();
        assert_eq!(stats.decided, 100);
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn decisions_match_direct_runs() {
        use kset_net::MpSystem;
        use kset_protocols::FloodMin;

        let workload = Workload::flood_min(3, 1);
        let server = Server::start(ServeConfig::new(workload));
        let client = server.client();
        let id = client.propose(vec![9, 4, 7]).unwrap();
        let decision = server.recv_decision().expect("decision");
        assert_eq!(decision.id, id);

        // The same instance replayed through the ordinary run entry point
        // must produce the same decisions: the service is just another
        // driver over the deterministic kernel.
        let procs = [9u64, 4, 7]
            .iter()
            .map(|&v| FloodMin::boxed(workload.n, workload.t, v))
            .collect();
        let outcome = MpSystem::new(workload.n)
            .seed(workload.seed ^ id)
            .run(procs)
            .unwrap();
        assert_eq!(
            decision
                .record
                .decisions()
                .iter()
                .map(|(&p, &v)| (p, v))
                .collect::<Vec<_>>(),
            outcome
                .decisions
                .iter()
                .map(|(&p, &v)| (p, v))
                .collect::<Vec<_>>(),
        );
        drop(client);
        server.shutdown();
    }

    /// Inputs of instance `id` in the recycling parity test: every third
    /// id proposes `[id; n]` and so decides `id`, a value no other
    /// instance decides, so its recycled predecessor and successor always
    /// decided something else. The rest mix small values, which the
    /// schedule decides between.
    fn parity_inputs(id: u64, n: usize) -> Vec<u64> {
        if id % 3 == 0 {
            vec![1_000_000 + id; n]
        } else {
            (0..n as u64)
                .map(|p| (id.wrapping_mul(31) + p * 7) % 97)
                .collect()
        }
    }

    /// Runs `count` proposals through a server that recycles instances
    /// constantly (`max_live` 4, one event per wave), with a wrong-arity
    /// proposal slipped past the client every 997 ids, and checks every
    /// answer against a fresh `MpSystem::run` of the same instance.
    fn recycled_runs_match_fresh_runs(threads: usize, count: u64) {
        use kset_net::MpSystem;
        use kset_protocols::FloodMin;

        let workload = Workload::flood_min(3, 1);
        let server = Server::start(ServeConfig {
            threads,
            batch: 1,
            max_live: 4,
            ..ServeConfig::new(workload)
        });
        let client = server.client();
        let mut refused = Vec::new();
        let mut proposed = 0u64;
        for i in 0..count {
            if i % 997 == 500 {
                // The client refuses a wrong arity, so hand it straight to
                // the worker's queue the way `propose` would.
                let id = client.next_id.fetch_add(1, Ordering::Relaxed);
                let shard = (id % threads as u64) as usize;
                let propose = Propose {
                    id,
                    inputs: vec![id, 1],
                    submitted: Instant::now(),
                };
                client.queues[shard]
                    .send(WorkerMsg::Propose(propose))
                    .unwrap();
                refused.push(id);
            } else {
                let id = client.next_id.load(Ordering::Relaxed);
                assert_eq!(client.propose(parity_inputs(id, workload.n)).unwrap(), id);
            }
            proposed += 1;
        }
        drop(client);
        let mut answered = vec![false; proposed as usize];
        let mut changed_value = 0;
        let mut previous: Option<Vec<u64>> = None;
        for _ in 0..proposed {
            let d = server.recv_decision().expect("decision");
            assert!(
                !std::mem::replace(&mut answered[d.id as usize], true),
                "{} twice",
                d.id
            );
            assert!(d.queued <= d.latency, "{}: queued beyond latency", d.id);
            if refused.contains(&d.id) {
                assert_eq!(d.record.inputs(), &[d.id, 1][..]);
                assert!(!d.record.terminated());
                assert!(d.record.decisions().is_empty());
                assert_eq!(d.events, 0);
                continue;
            }
            assert_eq!(
                d.record.inputs(),
                parity_inputs(d.id, workload.n).as_slice()
            );
            let procs = d
                .record
                .inputs()
                .iter()
                .map(|&v| FloodMin::boxed(workload.n, workload.t, v))
                .collect();
            let fresh = MpSystem::new(workload.n)
                .seed(workload.seed ^ d.id)
                .run(procs)
                .unwrap();
            assert_eq!(d.record.decisions(), &fresh.decisions, "id {}", d.id);
            assert_eq!(d.record.terminated(), fresh.terminated, "id {}", d.id);
            assert_eq!(d.events, fresh.stats.events_fired, "id {}", d.id);
            let values: Vec<u64> = d.record.decisions().values().copied().collect();
            changed_value += usize::from(previous.as_ref().is_some_and(|p| *p != values));
            previous = Some(values);
        }
        assert!(answered.iter().all(|&a| a));
        assert!(
            changed_value > count as usize / 3,
            "decided values barely vary"
        );
        assert_eq!(server.shutdown().decided, proposed);
    }

    #[test]
    fn recycled_instances_match_fresh_runs_on_one_worker() {
        recycled_runs_match_fresh_runs(1, 10_000);
    }

    #[test]
    fn recycled_instances_match_fresh_runs_on_two_workers() {
        recycled_runs_match_fresh_runs(2, 10_000);
    }

    /// Proposes one instance to `server`, waits for its decision and
    /// checks it.
    fn round_trip(server: &Server, i: u64) {
        let id = server.client().propose(vec![i, i + 1, i + 2]).unwrap();
        let d = server.recv_decision().expect("decision");
        assert_eq!(d.id, id);
        assert!(d.record.terminated());
    }

    #[test]
    fn proposals_spaced_past_the_spin_window_are_decided_after_parking() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        for i in 0..5 {
            round_trip(&server, i);
            // Forty spin windows: the idle worker polls, gives up and
            // blocks before the next proposal arrives.
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = server.shutdown();
        assert_eq!(stats.decided, 5);
        assert!(stats.parks >= 1, "{stats:?}");
    }

    #[test]
    fn shutdown_is_prompt_from_a_parked_worker() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        round_trip(&server, 0);
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        let stats = server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{:?}",
            start.elapsed()
        );
        assert_eq!(stats.decided, 1);
        assert!(stats.parks >= 1, "{stats:?}");
    }

    #[test]
    fn shutdown_is_prompt_from_a_spinning_worker() {
        // A window far longer than the test: the idle worker is still
        // polling when the shutdown sentinel arrives, and must take it
        // from there rather than finish the window.
        let window = Duration::from_secs(600);
        let server = Server::spawn(ServeConfig::new(Workload::flood_min(3, 1)), window);
        round_trip(&server, 0);
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        let stats = server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{:?}",
            start.elapsed()
        );
        assert_eq!(stats.decided, 1);
        assert_eq!(stats.parks, 0, "the worker parked inside its window");
    }

    #[test]
    fn wrong_arity_is_rejected_at_the_client() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        let client = server.client();
        assert!(matches!(
            client.propose(vec![1, 2]),
            Err(SimError::InvalidConfig(_))
        ));
        drop(client);
        assert_eq!(server.shutdown().decided, 0);
    }
}
