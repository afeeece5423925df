//! The daemon: TCP accept loop, bounded admission queue, executor
//! pool, detached-job registry.
//!
//! Threading model (std-only, no async runtime):
//!
//! * one **accept thread** polls a non-blocking listener;
//! * one **reader thread per connection** frames request lines (with
//!   the bounded [`LineReader`]), answers cheap control requests
//!   (`poll`/`fetch`/`cancel`/`health`/`shutdown`) inline, and pushes
//!   analysis requests through **admission control** — a bounded queue
//!   that answers `overloaded` instead of growing;
//! * a fixed set of **executor threads** drains the queue, each request
//!   run under [`ced_par::isolate`] so a panicking analysis becomes a
//!   typed `internal_error` response while the daemon keeps serving.
//!
//! Cancellation is disconnect-driven: every connection owns a
//! [`CancelToken`] cloned into the [`Budget`] of each synchronous
//! request it admits, and the reader thread fires it the moment the
//! peer goes away (EOF, reset, mid-line disconnect). Detached jobs
//! (`submit`) get their own token instead — they are *meant* to
//! outlive the submitting connection — fired by an explicit `cancel`.

use crate::ops::{self, OpError, OpOutput, OpRequest};
use crate::proto::{
    self, ErrorKind, LineReader, ReadOutcome, Request, JOB_STATE_DONE, JOB_STATE_QUEUED,
    JOB_STATE_RUNNING,
};
use ced_par::{isolate, ParExec};
use ced_runtime::{fnv1a64, Budget, CancelToken, Json};
use ced_store::Store;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Socket read-timeout used as the poll interval for shutdown and
/// stall detection.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Daemon configuration. [`ServeOptions::default`] matches the
/// one-shot CLI's defaults wherever a knob overlaps (pool width 1), so
/// a default daemon and a default CLI produce identical payloads.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Width of the shared [`ParExec`] pool each request runs on.
    pub jobs: usize,
    /// Executor threads — how many requests run concurrently.
    pub workers: usize,
    /// Admission cap: queued-but-not-running requests beyond this are
    /// shed with a typed `overloaded` error.
    pub max_pending: usize,
    /// Longest accepted request line, in bytes.
    pub max_line_bytes: usize,
    /// How long a *partial* request line may stall before the
    /// connection is answered `read_timeout` and dropped.
    pub line_timeout: Duration,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms`. `None` means no default deadline.
    pub default_deadline: Option<Duration>,
    /// Most detached jobs retained (queued, running or finished).
    pub max_jobs: usize,
    /// Warm `ced-store` directory shared by every request; `None`
    /// serves storeless (every request cold).
    pub store_dir: Option<PathBuf>,
    /// Honor `debug-panic` requests (test/CI-only executor-isolation
    /// probe).
    pub debug_ops: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            workers: 2,
            max_pending: 16,
            max_line_bytes: 1 << 20,
            line_timeout: Duration::from_secs(10),
            default_deadline: None,
            max_jobs: 64,
            store_dir: None,
            debug_ops: false,
        }
    }
}

/// What an executor actually runs.
enum Work {
    /// An analysis request.
    Op(Box<OpRequest>),
    /// A deliberate panic (isolation probe; `debug_ops` only).
    Panic,
}

/// Where a finished request's response goes.
enum Reply {
    /// Write the response line back on the admitting connection.
    Conn(Arc<ConnWriter>, String),
    /// Park the outcome in the job registry under this handle.
    Detached(String),
}

/// One admitted unit of work.
struct Job {
    work: Work,
    cancel: CancelToken,
    deadline: Option<Duration>,
    ticks: Option<u64>,
    reply: Reply,
}

/// A detached job's lifecycle.
enum JobState {
    Queued,
    Running,
    Done(Result<OpOutput, (ErrorKind, String)>),
}

struct JobEntry {
    state: JobState,
    cancel: CancelToken,
}

/// Registry of detached jobs, capacity-bounded: when full, the oldest
/// *finished* job is evicted to make room; if every slot holds live
/// work, the submit is shed as `overloaded`.
#[derive(Default)]
struct JobRegistry {
    entries: HashMap<String, JobEntry>,
    order: VecDeque<String>,
}

/// Monotonic daemon counters (all totals since start).
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    panics: AtomicU64,
    bad_lines: AtomicU64,
}

/// Most recently analyzed machines retained for `baseline_fp` lookup.
const MACHINE_CACHE_CAP: usize = 32;

/// Recently analyzed machines, keyed by FNV-1a-64 of their KISS2
/// bytes. Every executed analysis deposits its machine here, so a
/// follow-up `analyze-delta` can name its baseline by fingerprint
/// instead of resending the text. Capacity-bounded (FIFO eviction); a
/// miss is a typed `not_found` — the client resends the baseline
/// inline, nothing is ever wrong, only slower.
#[derive(Default)]
struct MachineCache {
    by_fp: HashMap<u64, String>,
    order: VecDeque<u64>,
}

impl MachineCache {
    fn remember(&mut self, text: &str) {
        let fp = fnv1a64(text.as_bytes());
        if self.by_fp.insert(fp, text.to_string()).is_none() {
            self.order.push_back(fp);
            while self.order.len() > MACHINE_CACHE_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.by_fp.remove(&old);
                }
            }
        }
    }

    fn get(&self, fp: u64) -> Option<String> {
        self.by_fp.get(&fp).cloned()
    }
}

/// State shared by every thread of one daemon.
struct Shared {
    options: ServeOptions,
    pool: ParExec,
    store: Option<Store>,
    shutdown: CancelToken,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    registry: Mutex<JobRegistry>,
    machines: Mutex<MachineCache>,
    next_handle: AtomicU64,
    counters: Counters,
    started: Instant,
}

/// Serialized write half of one connection. Executor threads and the
/// connection's own reader both respond through this, one full line at
/// a time.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Writes one response line; errors are swallowed (a vanished
    /// client is routine, and its cancel token is handled elsewhere).
    fn send(&self, line: &str) {
        if let Ok(mut stream) = self.stream.lock() {
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.write_all(b"\n");
            let _ = stream.flush();
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`Server::stop`] (or send a `shutdown` request) and then
/// [`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    shutdown: CancelToken,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, opens the store (when configured) and spawns the accept
    /// and executor threads. Returns once the daemon is accepting.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; a store that cannot open is
    /// reported as [`std::io::ErrorKind::InvalidData`].
    pub fn start(options: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let store = match &options.store_dir {
            Some(dir) => Some(Store::open(dir).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
            })?),
            None => None,
        };
        let pool = ParExec::new(options.jobs);
        let shutdown = CancelToken::new();
        let shared = Arc::new(Shared {
            pool,
            store,
            shutdown: shutdown.clone(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            registry: Mutex::new(JobRegistry::default()),
            machines: Mutex::new(MachineCache::default()),
            next_handle: AtomicU64::new(1),
            counters: Counters::default(),
            started: Instant::now(),
            options,
        });
        let mut executors = Vec::new();
        for _ in 0..shared.options.workers.max(1) {
            let shared = Arc::clone(&shared);
            executors.push(
                std::thread::Builder::new()
                    .name("ced-serve-exec".to_string())
                    .spawn(move || executor_loop(&shared))
                    .expect("spawning executor thread"),
            );
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ced-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, executors))
                .expect("spawning accept thread")
        };
        Ok(Server {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fires the daemon's shutdown token (same effect as a `shutdown`
    /// request).
    pub fn stop(&self) {
        self.shutdown.cancel();
    }

    /// Blocks until the daemon has fully stopped: accept loop exited,
    /// every connection reader and executor joined.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    executors: Vec<std::thread::JoinHandle<()>>,
) {
    let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.is_cancelled() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("ced-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, &shared))
                    .expect("spawning connection thread");
                readers.push(handle);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
        // Reap finished readers so a long-lived daemon does not
        // accumulate handles for short-lived connections.
        readers.retain(|h| !h.is_finished());
    }
    shared.queue_cv.notify_all();
    // Detached jobs outlive their submitting connection, so no reader
    // fires their tokens — shutdown must, or a long submitted job
    // would stall the daemon's exit.
    for entry in shared
        .registry
        .lock()
        .expect("registry lock")
        .entries
        .values()
    {
        entry.cancel.cancel();
    }
    for handle in readers {
        let _ = handle.join();
    }
    for handle in executors {
        let _ = handle.join();
    }
}

// ---------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------

fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.is_cancelled() {
                    return;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock");
                queue = q;
            }
        };
        if shared.shutdown.is_cancelled() {
            deliver(
                shared,
                job.reply,
                Err((ErrorKind::ShuttingDown, "daemon shutting down".to_string())),
            );
            continue;
        }
        run_job(shared, job);
    }
}

fn run_job(shared: &Arc<Shared>, mut job: Job) {
    if let Reply::Detached(handle) = &job.reply {
        let mut registry = shared.registry.lock().expect("registry lock");
        if let Some(entry) = registry.entries.get_mut(handle) {
            entry.state = JobState::Running;
        }
    }
    if let Work::Op(op) = &mut job.work {
        // Resolve a fingerprint-named baseline against the
        // recent-machine cache before the ops layer sees the request
        // (the ops layer only accepts inline baselines), and remember
        // this request's machine so later `analyze-delta` requests can
        // name it the same way.
        if let Some(fp) = op.baseline_fp {
            let resolved = shared.machines.lock().expect("machine cache lock").get(fp);
            match resolved {
                Some(text) => {
                    op.baseline = Some(text);
                    op.baseline_fp = None;
                }
                None => {
                    deliver(
                        shared,
                        job.reply,
                        Err((
                            ErrorKind::NotFound,
                            format!(
                                "baseline fingerprint {fp:#018x} is not in the recent-machine \
                                 cache; resend the baseline as inline KISS2 text"
                            ),
                        )),
                    );
                    return;
                }
            }
        }
        shared
            .machines
            .lock()
            .expect("machine cache lock")
            .remember(&op.kiss2);
    }
    if job.cancel.is_cancelled() {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        deliver(
            shared,
            job.reply,
            Err((
                ErrorKind::Cancelled,
                "cancelled before the analysis started".to_string(),
            )),
        );
        return;
    }
    let mut budget = Budget::new().with_cancel(job.cancel.clone());
    if let Some(deadline) = job.deadline.or(shared.options.default_deadline) {
        budget = budget.with_deadline(deadline);
    }
    if let Some(cap) = job.ticks {
        budget = budget.with_tick_cap(cap);
    }
    let outcome = match &job.work {
        Work::Op(op) => isolate(|| ops::execute(op, &budget, &shared.pool, shared.store.as_ref())),
        Work::Panic => {
            isolate(|| -> Result<OpOutput, OpError> { panic!("deliberate debug panic") })
        }
    };
    let result: Result<OpOutput, (ErrorKind, String)> = match outcome {
        Ok(Ok(output)) => {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            Ok(output)
        }
        Ok(Err(OpError::BadRequest(m))) => Err((ErrorKind::BadRequest, m)),
        Ok(Err(OpError::Interrupted(i))) => {
            let kind = ErrorKind::from_interrupt(i.kind);
            if kind == ErrorKind::Cancelled {
                shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Err((kind, i.to_string()))
        }
        Ok(Err(OpError::Failed(m))) => Err((ErrorKind::InternalError, m)),
        Err(msg) => {
            shared.counters.panics.fetch_add(1, Ordering::Relaxed);
            Err((
                ErrorKind::InternalError,
                format!("analysis panicked: {msg}"),
            ))
        }
    };
    deliver(shared, job.reply, result);
}

/// Routes a finished request's outcome: back to the connection, or
/// into the job registry.
fn deliver(shared: &Arc<Shared>, reply: Reply, result: Result<OpOutput, (ErrorKind, String)>) {
    match reply {
        Reply::Conn(writer, id) => {
            let line = match &result {
                Ok(output) => proto::ok_op(&id, output),
                Err((kind, message)) => proto::error(&id, *kind, message),
            };
            writer.send(&line);
        }
        Reply::Detached(handle) => {
            let mut registry = shared.registry.lock().expect("registry lock");
            if let Some(entry) = registry.entries.get_mut(&handle) {
                entry.state = JobState::Done(result);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter {
            stream: Mutex::new(w),
        }),
        Err(_) => return,
    };
    // The connection's cancel token: cloned into every synchronous
    // request's budget, fired on any exit from the read loop. This is
    // the disconnect → cancellation edge.
    let conn_cancel = CancelToken::new();
    let mut reader = LineReader::new(
        stream,
        shared.options.max_line_bytes,
        shared.options.line_timeout,
    );
    loop {
        match reader.next_line(|| shared.shutdown.is_cancelled()) {
            ReadOutcome::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                match proto::parse_request(&line) {
                    Ok(request) => {
                        if !handle_request(shared, &writer, &conn_cancel, request) {
                            break;
                        }
                    }
                    Err((id, message)) => {
                        shared.counters.bad_lines.fetch_add(1, Ordering::Relaxed);
                        writer.send(&proto::error(&id, ErrorKind::BadRequest, &message));
                    }
                }
            }
            ReadOutcome::TooLong => {
                shared.counters.bad_lines.fetch_add(1, Ordering::Relaxed);
                writer.send(&proto::error(
                    "",
                    ErrorKind::LineTooLong,
                    &format!(
                        "request line exceeds {} bytes",
                        shared.options.max_line_bytes
                    ),
                ));
                break;
            }
            ReadOutcome::Timeout => {
                shared.counters.bad_lines.fetch_add(1, Ordering::Relaxed);
                writer.send(&proto::error(
                    "",
                    ErrorKind::ReadTimeout,
                    "partial request line stopped making progress",
                ));
                break;
            }
            ReadOutcome::Eof | ReadOutcome::TruncatedEof | ReadOutcome::Shutdown => break,
        }
    }
    conn_cancel.cancel();
}

/// Handles one parsed request on the reader thread. Returns `false`
/// when the connection should close (only after `shutdown`).
fn handle_request(
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter>,
    conn_cancel: &CancelToken,
    request: Request,
) -> bool {
    match request {
        Request::Op {
            id,
            op,
            deadline_ms,
            ticks,
        } => {
            let job = Job {
                work: Work::Op(op),
                cancel: conn_cancel.clone(),
                deadline: deadline_ms.map(Duration::from_millis),
                ticks,
                reply: Reply::Conn(Arc::clone(writer), id.clone()),
            };
            if let Err((kind, message)) = admit(shared, job) {
                writer.send(&proto::error(&id, kind, &message));
            }
        }
        Request::Submit {
            id,
            op,
            deadline_ms,
            ticks,
        } => {
            let cancel = CancelToken::new();
            let handle = match register_job(shared, &cancel) {
                Ok(handle) => handle,
                Err((kind, message)) => {
                    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                    writer.send(&proto::error(&id, kind, &message));
                    return true;
                }
            };
            let job = Job {
                work: Work::Op(op),
                cancel,
                deadline: deadline_ms.map(Duration::from_millis),
                ticks,
                reply: Reply::Detached(handle.clone()),
            };
            if let Err((kind, message)) = admit(shared, job) {
                let mut registry = shared.registry.lock().expect("registry lock");
                registry.entries.remove(&handle);
                registry.order.retain(|h| h != &handle);
                writer.send(&proto::error(&id, kind, &message));
                return true;
            }
            writer.send(&proto::ok_fields(
                &id,
                vec![("handle".to_string(), Json::str(&handle))],
            ));
        }
        Request::Poll { id, handle } => {
            let registry = shared.registry.lock().expect("registry lock");
            match registry.entries.get(&handle) {
                None => writer.send(&proto::error(
                    &id,
                    ErrorKind::NotFound,
                    &format!("no job `{handle}`"),
                )),
                Some(entry) => {
                    let state = match &entry.state {
                        JobState::Queued => JOB_STATE_QUEUED,
                        JobState::Running => JOB_STATE_RUNNING,
                        JobState::Done(_) => JOB_STATE_DONE,
                    };
                    writer.send(&proto::ok_fields(
                        &id,
                        vec![
                            ("handle".to_string(), Json::str(&handle)),
                            ("state".to_string(), Json::str(state)),
                        ],
                    ));
                }
            }
        }
        Request::Fetch { id, handle } => {
            let mut registry = shared.registry.lock().expect("registry lock");
            match registry.entries.get(&handle) {
                None => writer.send(&proto::error(
                    &id,
                    ErrorKind::NotFound,
                    &format!("no job `{handle}`"),
                )),
                Some(entry) if !matches!(entry.state, JobState::Done(_)) => writer.send(
                    &proto::error(&id, ErrorKind::NotReady, "job has not finished; poll again"),
                ),
                Some(_) => {
                    let entry = registry.entries.remove(&handle).expect("checked above");
                    registry.order.retain(|h| h != &handle);
                    drop(registry);
                    let JobState::Done(result) = entry.state else {
                        unreachable!("matched Done above");
                    };
                    let line = match &result {
                        Ok(output) => proto::ok_op(&id, output),
                        Err((kind, message)) => proto::error(&id, *kind, message),
                    };
                    writer.send(&line);
                }
            }
        }
        Request::Cancel { id, handle } => {
            let registry = shared.registry.lock().expect("registry lock");
            match registry.entries.get(&handle) {
                None => writer.send(&proto::error(
                    &id,
                    ErrorKind::NotFound,
                    &format!("no job `{handle}`"),
                )),
                Some(entry) => {
                    entry.cancel.cancel();
                    writer.send(&proto::ok_fields(
                        &id,
                        vec![("handle".to_string(), Json::str(&handle))],
                    ));
                }
            }
        }
        Request::Health { id } => {
            let doc = health_doc(shared);
            writer.send(&proto::ok_fields(&id, vec![("health".to_string(), doc)]));
        }
        Request::Shutdown { id } => {
            writer.send(&proto::ok_fields(&id, Vec::new()));
            shared.shutdown.cancel();
            shared.queue_cv.notify_all();
            return false;
        }
        Request::DebugPanic { id } => {
            if !shared.options.debug_ops {
                writer.send(&proto::error(
                    &id,
                    ErrorKind::BadRequest,
                    "debug ops are disabled on this daemon",
                ));
                return true;
            }
            let job = Job {
                work: Work::Panic,
                cancel: conn_cancel.clone(),
                deadline: None,
                ticks: None,
                reply: Reply::Conn(Arc::clone(writer), id.clone()),
            };
            if let Err((kind, message)) = admit(shared, job) {
                writer.send(&proto::error(&id, kind, &message));
            }
        }
    }
    true
}

/// Admission control: rejects when shutting down or when the pending
/// queue is at capacity; otherwise enqueues and wakes an executor.
fn admit(shared: &Arc<Shared>, job: Job) -> Result<(), (ErrorKind, String)> {
    if shared.shutdown.is_cancelled() {
        return Err((ErrorKind::ShuttingDown, "daemon shutting down".to_string()));
    }
    let mut queue = shared.queue.lock().expect("queue lock");
    if queue.len() >= shared.options.max_pending {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        return Err((
            ErrorKind::Overloaded,
            format!(
                "pending queue is full ({} requests); retry later",
                queue.len()
            ),
        ));
    }
    queue.push_back(job);
    drop(queue);
    shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
    shared.queue_cv.notify_one();
    Ok(())
}

/// Reserves a registry slot and handle for a detached job, evicting
/// the oldest *finished* job when at capacity.
fn register_job(shared: &Arc<Shared>, cancel: &CancelToken) -> Result<String, (ErrorKind, String)> {
    let mut registry = shared.registry.lock().expect("registry lock");
    if registry.entries.len() >= shared.options.max_jobs {
        let evict = registry
            .order
            .iter()
            .find(|h| {
                registry
                    .entries
                    .get(*h)
                    .is_some_and(|e| matches!(e.state, JobState::Done(_)))
            })
            .cloned();
        match evict {
            Some(handle) => {
                registry.entries.remove(&handle);
                registry.order.retain(|h| h != &handle);
            }
            None => {
                return Err((
                    ErrorKind::Overloaded,
                    format!(
                        "job registry is full ({} live jobs); fetch or cancel some",
                        registry.entries.len()
                    ),
                ));
            }
        }
    }
    let handle = format!("job-{}", shared.next_handle.fetch_add(1, Ordering::Relaxed));
    registry.entries.insert(
        handle.clone(),
        JobEntry {
            state: JobState::Queued,
            cancel: cancel.clone(),
        },
    );
    registry.order.push_back(handle.clone());
    Ok(handle)
}

/// The `health` document: daemon counters, queue/registry depth, and —
/// when a store is attached — the live store statistics and any fleet
/// campaign visible under the store directory.
fn health_doc(shared: &Arc<Shared>) -> Json {
    let queue_len = shared.queue.lock().expect("queue lock").len() as u64;
    let registry = shared.registry.lock().expect("registry lock");
    let jobs_live = registry.entries.len() as u64;
    drop(registry);
    let c = &shared.counters;
    let mut fields = vec![
        ("schema".to_string(), Json::str("ced-serve-health/1")),
        (
            "uptime_ms".to_string(),
            Json::UInt(shared.started.elapsed().as_millis() as u64),
        ),
        (
            "workers".to_string(),
            Json::UInt(shared.options.workers.max(1) as u64),
        ),
        (
            "pool_jobs".to_string(),
            Json::UInt(shared.pool.jobs() as u64),
        ),
        (
            "max_pending".to_string(),
            Json::UInt(shared.options.max_pending as u64),
        ),
        ("queue_depth".to_string(), Json::UInt(queue_len)),
        ("detached_jobs".to_string(), Json::UInt(jobs_live)),
        (
            "counters".to_string(),
            Json::Object(vec![
                (
                    "connections".to_string(),
                    Json::UInt(c.connections.load(Ordering::Relaxed)),
                ),
                (
                    "admitted".to_string(),
                    Json::UInt(c.admitted.load(Ordering::Relaxed)),
                ),
                (
                    "completed".to_string(),
                    Json::UInt(c.completed.load(Ordering::Relaxed)),
                ),
                (
                    "shed".to_string(),
                    Json::UInt(c.shed.load(Ordering::Relaxed)),
                ),
                (
                    "cancelled".to_string(),
                    Json::UInt(c.cancelled.load(Ordering::Relaxed)),
                ),
                (
                    "panics".to_string(),
                    Json::UInt(c.panics.load(Ordering::Relaxed)),
                ),
                (
                    "bad_lines".to_string(),
                    Json::UInt(c.bad_lines.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ];
    if let Some(store) = &shared.store {
        fields.push(("store".to_string(), store.stats_json()));
    }
    if let Some(dir) = &shared.options.store_dir {
        if let Ok(status) = ced_fleet::fleet_status(dir, Duration::from_secs(15)) {
            fields.push(("fleet".to_string(), status.to_json()));
        }
    }
    Json::Object(fields)
}
