//! The sweep service: accept loop, shared execution, resumable streams.
//!
//! ## Architecture
//!
//! One thread per connection reads a single [`Request`] line and
//! answers with a frame stream. Sweep cells never run on connection
//! threads: each *run* (a deduplicated sweep spec) submits its pending
//! cells as one queue to a shared [`SharedPool`], which round-robins
//! across queues — so a giant sweep cannot starve a small one, and a
//! run's cells are spread fairly no matter how many clients watch it.
//!
//! ## Dedup
//!
//! Two levels. **Run-level:** the run id is a hash of the canonical
//! spec, so equivalent submissions attach to one `RunState` and one
//! execution. **Cell-level:** every cell key owns a process-wide
//! `CellSlot`; a run whose cell is already resident or in flight
//! under another run subscribes to the slot instead of executing.
//!
//! ## Execution
//!
//! A run's claimed cells form fused groups exactly as an offline sweep
//! forms them ([`sweep_runner::group_cells`]: by benchmark, split until
//! every worker has one), and each group is one pool job that streams
//! the benchmark's trace once for all its cells through
//! [`run_fused_group`], the offline sweep's own code path. No trace is
//! kept resident between groups.
//!
//! ## Persistence and resume
//!
//! Every run appends to its own journal (`<dir>/<run_id>.jsonl`,
//! standard sweep-runner schema plus one `__spec__` record holding the
//! spec). A client that lost its connection resumes with
//! `{"op":"resume","run_id":..,"ack":n}` and receives cells from index
//! `n`; a *restarted server* revives the run from its journal — cells
//! already recorded restore instantly, the rest re-execute.
//!
//! ## Shutdown
//!
//! SIGINT/SIGTERM (via [`sweep_runner::interrupt`]) or a `shutdown`
//! request starts a drain: no new connections are accepted, in-flight
//! and queued cells finish (journals stay a clean prefix either way),
//! streams complete, then `run` returns.

use crate::protocol::{Frame, Request, SweepSpec};
use sim_engine::config::PolicyKind;
use sim_engine::experiments::suite::run_fused_group;
use sim_engine::experiments::SuiteOptions;
use sim_engine::{codec, env};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;
use sweep_runner::json::Value;
use sweep_runner::pool::Job;
use sweep_runner::{interrupt, Journal, SharedPool};

/// Journal key of the special record that stores the run's spec, so a
/// restarted server can revive the run from its journal alone. Cell
/// keys always contain `/` and `@`, so collision is impossible.
const SPEC_KEY: &str = "__spec__";

/// Maximum simultaneously active runs (pool admission limit); further
/// submissions get a `server busy` error frame.
const MAX_RUNS: usize = 32;

/// Maximum simultaneous client connections.
const MAX_CONNS: usize = 64;

/// How the server executes and what it will accept.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing fused groups.
    pub jobs: usize,
    /// Directory for per-run journals (created if missing).
    pub journal_dir: PathBuf,
    /// Suppress stderr log lines.
    pub quiet: bool,
}

impl ServerConfig {
    /// Loopback defaults: ephemeral port, env-derived worker count,
    /// journals under `journal_dir`.
    ///
    /// # Panics
    ///
    /// On a knob [`env::check`] rejects (retired or unparseable) — a
    /// server that ignored it would misreport how it executes.
    pub fn new(journal_dir: impl Into<PathBuf>) -> ServerConfig {
        env::check().unwrap_or_else(|e| panic!("{e}"));
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: env::jobs(),
            journal_dir: journal_dir.into(),
            quiet: false,
        }
    }
}

/// Process-wide slot for one cell key: the first run to claim it
/// executes, every other run subscribes and receives the identical
/// payload on completion.
struct CellSlot {
    /// `(wall_ms, metrics, payload)` once the cell has completed.
    done: OnceLock<(f64, Value, Value)>,
    /// Runs waiting for completion, as `(run, cell index)`.
    subscribers: Mutex<Vec<(Arc<RunState>, usize)>>,
}

/// One deduplicated sweep: immutable shape plus fill-as-they-complete
/// results.
struct RunState {
    run_id: String,
    options: SuiteOptions,
    keys: Vec<String>,
    /// Encoded `SimResult` per cell, filled in any order, streamed in
    /// cell order.
    results: Vec<OnceLock<Value>>,
    /// Count of filled results, guarded for the condvar.
    filled: Mutex<usize>,
    complete: Condvar,
    /// Cells this run submitted to the pool.
    executed: u64,
    /// Cells satisfied by its journal or another run's slot.
    restored: u64,
    journal: Journal,
    /// Cleared when any journal write fails: a run whose journal is
    /// not a complete record must stay resident (never archived),
    /// because its in-memory results are the only copy.
    journal_ok: AtomicBool,
}

impl RunState {
    /// Total cells.
    fn cells(&self) -> usize {
        self.keys.len()
    }

    /// Records (if `record`) and publishes one completed cell, waking
    /// stream threads.
    fn deliver(&self, index: usize, wall_ms: f64, metrics: Value, payload: Value, record: bool) {
        if record {
            // Journal I/O failure must not poison execution — the run
            // still completes in memory; only resume durability is
            // lost, and the run is pinned resident (no archival).
            if let Err(e) =
                self.journal
                    .record(&self.keys[index], wall_ms, metrics, payload.clone())
            {
                self.journal_ok.store(false, Ordering::SeqCst);
                eprintln!("[serve] journal write failed for {}: {e}", self.run_id);
            }
        }
        if self.results[index].set(payload).is_ok() {
            let mut filled = self.filled.lock().expect("run progress poisoned");
            *filled += 1;
            self.complete.notify_all();
        }
    }

    /// Blocks until cell `index` has a payload, then returns it.
    fn wait_cell(&self, index: usize) -> Value {
        let mut filled = self.filled.lock().expect("run progress poisoned");
        loop {
            if let Some(p) = self.results[index].get() {
                return p.clone();
            }
            filled = self.complete.wait(filled).expect("run progress poisoned");
        }
    }
}

/// Counters reported by the `stats` frame.
#[derive(Debug, Default)]
struct Counters {
    runs_started: AtomicU64,
    runs_joined: AtomicU64,
    runs_archived: AtomicU64,
    cells_executed: AtomicU64,
    cells_deduped: AtomicU64,
    cells_restored: AtomicU64,
}

struct ServerState {
    config: ServerConfig,
    pool: Mutex<Option<SharedPool>>,
    runs: Mutex<HashMap<String, Arc<RunState>>>,
    cells: Mutex<HashMap<String, Arc<CellSlot>>>,
    /// Index of completed runs whose cell results were released from
    /// memory: `run_id -> cell count`. The journal is the durable
    /// copy; a resubmission or resume revives the run from it.
    archived: Mutex<HashMap<String, u64>>,
    counters: Counters,
    conns: AtomicUsize,
    draining: AtomicBool,
}

impl ServerState {
    fn log(&self, msg: &str) {
        if !self.config.quiet {
            eprintln!("[serve] {msg}");
        }
    }

    /// Finds the run for `spec`, creating (or reviving from its
    /// journal) and scheduling it if needed. Returns the run and
    /// whether an existing one was joined.
    fn run_for_spec(self: &Arc<Self>, spec: &SweepSpec) -> Result<(Arc<RunState>, bool), String> {
        let options = spec.suite_options()?;
        let run_id = spec.run_id()?;
        // Hold the runs lock across creation so two identical
        // submissions cannot race into two executions.
        let mut runs = self.runs.lock().expect("runs poisoned");
        if let Some(run) = runs.get(&run_id) {
            self.counters.runs_joined.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(run), true));
        }
        let run = self.schedule_run(&run_id, spec, options)?;
        runs.insert(run_id, Arc::clone(&run));
        self.counters.runs_started.fetch_add(1, Ordering::Relaxed);
        drop(runs);
        // A run fully satisfied by its journal has nothing in flight
        // to keep it resident; release it right away. Streams hold
        // their own `Arc<RunState>`, so this never races a reader.
        self.maybe_archive(&run);
        Ok((run, false))
    }

    /// Builds a run: restores journaled cells, subscribes to other
    /// runs' in-flight cells, submits the rest to the pool as one
    /// fair-share queue.
    fn schedule_run(
        self: &Arc<Self>,
        run_id: &str,
        spec: &SweepSpec,
        options: SuiteOptions,
    ) -> Result<Arc<RunState>, String> {
        let cells: Vec<(&'static str, PolicyKind)> = options
            .benchmarks
            .iter()
            .flat_map(|&b| options.policies.iter().map(move |&p| (b, p)))
            .collect();
        let keys: Vec<String> = cells.iter().map(|&(b, p)| options.cell_key(b, p)).collect();
        std::fs::create_dir_all(&self.config.journal_dir)
            .map_err(|e| format!("journal dir: {e}"))?;
        let journal = Journal::open(self.config.journal_dir.join(format!("{run_id}.jsonl")))
            .map_err(|e| format!("journal: {e}"))?;
        if journal.payload(SPEC_KEY).is_none() {
            // The metrics slot records *how this server executes* (its
            // worker count), so a journal read back later can tell what
            // produced it; older journals also carry the retired
            // `trace_mode`/`shards` fields, which revival ignores. The
            // payload must stay exactly the spec (it hashes to the run
            // id).
            let how = Value::object().with("jobs", Value::u64(self.config.jobs as u64));
            journal
                .record(SPEC_KEY, 0.0, how, spec.to_value())
                .map_err(|e| format!("journal: {e}"))?;
        }
        let restored_payloads: Vec<Option<Value>> =
            keys.iter().map(|k| journal.payload(k).cloned()).collect();

        // Which cells need execution (vs journal restore)? Decided
        // before the RunState exists so the counts are immutable.
        let pending: Vec<usize> = restored_payloads
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_none().then_some(i))
            .collect();

        // Of the pending cells, claim the process-wide slot; only
        // newly claimed cells execute here.
        let mut claimed: Vec<usize> = Vec::new();
        let mut subscribed: Vec<(usize, Arc<CellSlot>)> = Vec::new();
        {
            let mut slots = self.cells.lock().expect("cell slots poisoned");
            for &i in &pending {
                match slots.get(&keys[i]) {
                    Some(slot) => subscribed.push((i, Arc::clone(slot))),
                    None => {
                        slots.insert(
                            keys[i].clone(),
                            Arc::new(CellSlot {
                                done: OnceLock::new(),
                                subscribers: Mutex::new(Vec::new()),
                            }),
                        );
                        claimed.push(i);
                    }
                }
            }
        }

        let run = Arc::new(RunState {
            run_id: run_id.to_owned(),
            options,
            keys,
            results: (0..cells.len()).map(|_| OnceLock::new()).collect(),
            filled: Mutex::new(0),
            complete: Condvar::new(),
            executed: claimed.len() as u64,
            restored: (cells.len() - claimed.len()) as u64,
            journal,
            journal_ok: AtomicBool::new(true),
        });

        // Journal restores: deliver immediately, no re-record.
        for (i, payload) in restored_payloads.into_iter().enumerate() {
            if let Some(payload) = payload {
                self.counters.cells_restored.fetch_add(1, Ordering::Relaxed);
                run.deliver(i, 0.0, Value::object(), payload, false);
            }
        }

        // Cross-run dedup: attach to slots other runs own. Under the
        // slot's subscriber lock, "complete" and "in flight" are the
        // only two cases.
        for (i, slot) in subscribed {
            self.counters.cells_deduped.fetch_add(1, Ordering::Relaxed);
            let subs = slot.subscribers.lock().expect("subscribers poisoned");
            if let Some((wall_ms, metrics, payload)) = slot.done.get() {
                drop(subs);
                run.deliver(i, *wall_ms, metrics.clone(), payload.clone(), true);
            } else {
                let mut subs = subs;
                subs.push((Arc::clone(&run), i));
            }
        }

        // Everything else executes on the shared pool as one queue of
        // fused groups: one job passes over a benchmark's trace once and
        // retires the whole group.
        let groups = sweep_runner::group_cells(&claimed, |i| cells[i].0, self.config.jobs);
        let jobs: Vec<Job> = groups
            .into_iter()
            .map(|members| {
                let state = Arc::clone(self);
                let run = Arc::clone(&run);
                let group: Vec<(usize, &'static str, PolicyKind)> = members
                    .iter()
                    .map(|&i| (i, cells[i].0, cells[i].1))
                    .collect();
                Box::new(move || state.execute_group(&run, &group)) as Job
            })
            .collect();
        if !jobs.is_empty() {
            let pool = self.pool.lock().expect("pool poisoned");
            let result = pool
                .as_ref()
                .ok_or("server is shutting down")?
                .try_submit(jobs);
            if result.is_err() {
                // Not scheduled: release the claims so a later attempt
                // (or another run) can execute these cells.
                let mut slots = self.cells.lock().expect("cell slots poisoned");
                for &i in &claimed {
                    slots.remove(&run.keys[i]);
                }
                return Err(format!("server busy: {MAX_RUNS} active runs, retry later"));
            }
        }
        self.log(&format!(
            "run {run_id}: {} cells ({} to execute, {} restored)",
            run.cells(),
            run.executed,
            run.restored
        ));
        Ok(run)
    }

    /// Executes one claimed fused group on a pool worker and fans each
    /// member's result out to every subscribed run. The group's wall
    /// time is split evenly across members, matching the sweep journal
    /// convention.
    fn execute_group(
        self: &Arc<Self>,
        run: &Arc<RunState>,
        members: &[(usize, &'static str, PolicyKind)],
    ) {
        let started = std::time::Instant::now();
        let bench = members[0].1;
        let policies: Vec<PolicyKind> = members.iter().map(|&(_, _, p)| p).collect();
        let outputs = run_fused_group(&run.options, bench, &policies);
        debug_assert_eq!(outputs.len(), members.len());
        let wall = started.elapsed() / members.len() as u32;
        let wall_ms = wall.as_secs_f64() * 1e3;
        for (&(index, _, _), result) in members.iter().zip(outputs) {
            let (metrics, payload) = codec::encode_record(&result, wall);
            self.counters.cells_executed.fetch_add(1, Ordering::Relaxed);
            self.publish(run, index, wall_ms, metrics, payload);
        }
    }

    /// Delivers one completed cell to its run and every run
    /// subscribed to its slot, then archives any run the delivery
    /// completed.
    fn publish(
        self: &Arc<Self>,
        run: &Arc<RunState>,
        index: usize,
        wall_ms: f64,
        metrics: Value,
        payload: Value,
    ) {
        let key = &run.keys[index];
        let slot = {
            let slots = self.cells.lock().expect("cell slots poisoned");
            slots.get(key).map(Arc::clone)
        };
        run.deliver(index, wall_ms, metrics.clone(), payload.clone(), true);
        let mut delivered: Vec<Arc<RunState>> = vec![Arc::clone(run)];
        if let Some(slot) = slot {
            // Publish under the subscriber lock so a run subscribing
            // right now either sees `done` or lands in the drain below.
            let mut subs = slot.subscribers.lock().expect("subscribers poisoned");
            let _ = slot.done.set((wall_ms, metrics.clone(), payload.clone()));
            let waiters = std::mem::take(&mut *subs);
            drop(subs);
            for (other, i) in waiters {
                other.deliver(i, wall_ms, metrics.clone(), payload.clone(), true);
                delivered.push(other);
            }
        }
        for r in delivered {
            self.maybe_archive(&r);
        }
    }

    /// Releases a completed run's in-memory cell results, keeping
    /// only an index entry: once every cell is delivered *and* the
    /// journal holds a complete record, the `RunState` leaves the run
    /// map (live streams keep their own `Arc`). The run's completed
    /// [`CellSlot`]s stay resident as the cross-run dedup memo. A
    /// later submission or resume revives the run from its journal.
    fn maybe_archive(&self, run: &Arc<RunState>) {
        if !run.journal_ok.load(Ordering::SeqCst) {
            return;
        }
        {
            let filled = run.filled.lock().expect("run progress poisoned");
            if *filled < run.cells() {
                return;
            }
        }
        let removed = self.runs.lock().expect("runs poisoned").remove(&run.run_id);
        if removed.is_none() {
            return; // already archived by another delivery
        }
        self.archived
            .lock()
            .expect("archive index poisoned")
            .insert(run.run_id.clone(), run.cells() as u64);
        // Cell slots stay resident: they are the process-wide dedup
        // memo that lets an overlapping *future* spec restore shared
        // cells instead of re-executing them. Only the run's own state
        // (its result store and subscriber machinery) is released.
        self.counters.runs_archived.fetch_add(1, Ordering::Relaxed);
        self.log(&format!(
            "run {}: archived ({} cells sealed in journal)",
            run.run_id,
            run.cells()
        ));
    }

    /// The run for `run_id`, reviving it from its journal when it is
    /// not in memory (server restarted).
    fn run_for_id(self: &Arc<Self>, run_id: &str) -> Result<Arc<RunState>, String> {
        if let Some(run) = self.runs.lock().expect("runs poisoned").get(run_id) {
            return Ok(Arc::clone(run));
        }
        let path = self.config.journal_dir.join(format!("{run_id}.jsonl"));
        if !path.exists() {
            return Err(format!("unknown run {run_id:?}"));
        }
        let journal = Journal::open(&path).map_err(|e| format!("journal: {e}"))?;
        let spec_value = journal
            .payload(SPEC_KEY)
            .ok_or_else(|| format!("run {run_id:?} journal has no spec record"))?;
        let spec = SweepSpec::parse(spec_value)?;
        drop(journal); // reopened by the scheduling path
        let (run, _) = self.run_for_spec(&spec)?;
        if run.run_id != run_id {
            // The journal was renamed or its spec tampered with; the
            // resumed stream would not be the run the client acked.
            return Err(format!(
                "journal spec hashes to {}, not {run_id}",
                run.run_id
            ));
        }
        Ok(run)
    }

    /// The `stats` frame body.
    fn stats_value(&self) -> Value {
        let runs = self.runs.lock().expect("runs poisoned");
        let total_cells: u64 = runs.values().map(|r| r.cells() as u64).sum();
        let archived = self.archived.lock().expect("archive index poisoned");
        Value::object()
            .with("runs", Value::u64(runs.len() as u64))
            .with("runs_archived_index", Value::u64(archived.len() as u64))
            .with(
                "runs_started",
                Value::u64(self.counters.runs_started.load(Ordering::Relaxed)),
            )
            .with(
                "runs_joined",
                Value::u64(self.counters.runs_joined.load(Ordering::Relaxed)),
            )
            .with(
                "runs_archived",
                Value::u64(self.counters.runs_archived.load(Ordering::Relaxed)),
            )
            .with("cells", Value::u64(total_cells))
            .with(
                "cells_executed",
                Value::u64(self.counters.cells_executed.load(Ordering::Relaxed)),
            )
            .with(
                "cells_deduped",
                Value::u64(self.counters.cells_deduped.load(Ordering::Relaxed)),
            )
            .with(
                "cells_restored",
                Value::u64(self.counters.cells_restored.load(Ordering::Relaxed)),
            )
            .with(
                "connections",
                Value::u64(self.conns.load(Ordering::Relaxed) as u64),
            )
            .with("jobs", Value::u64(self.config.jobs as u64))
    }
}

/// Writes one frame line and flushes it.
fn send(out: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    let line = frame.to_value().to_json();
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

/// Streams a run's cells `[from, cells)` in order, then `done`.
fn stream_run(out: &mut TcpStream, run: &RunState, from: u64, joined: bool) -> std::io::Result<()> {
    let cells = run.cells() as u64;
    send(
        out,
        &Frame::Hello {
            run_id: run.run_id.clone(),
            cells,
            from: from.min(cells),
            joined,
        },
    )?;
    for i in from.min(cells)..cells {
        let payload = run.wait_cell(i as usize);
        send(
            out,
            &Frame::Cell {
                index: i,
                key: run.keys[i as usize].clone(),
                payload,
            },
        )?;
    }
    send(
        out,
        &Frame::Done {
            run_id: run.run_id.clone(),
            cells,
            executed: run.executed,
            restored: run.restored,
        },
    )
}

/// Handles one connection end to end.
fn handle_conn(state: &Arc<ServerState>, mut stream: TcpStream) {
    // A connected-but-silent client must not pin a connection slot
    // forever; streaming itself is unaffected (write path).
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut line = String::new();
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    if reader.read_line(&mut line).is_err() {
        let _ = send(
            &mut stream,
            &Frame::Error {
                message: "request timed out".to_owned(),
            },
        );
        return;
    }
    let fail = |stream: &mut TcpStream, message: String| {
        let _ = send(stream, &Frame::Error { message });
    };
    let request = match Request::parse(line.trim_end()) {
        Ok(r) => r,
        Err(e) => return fail(&mut stream, e),
    };
    if state.draining.load(Ordering::SeqCst) && !matches!(request, Request::Shutdown) {
        return fail(&mut stream, "server is shutting down".to_owned());
    }
    let outcome = match request {
        Request::Submit(spec) => match state.run_for_spec(&spec) {
            Ok((run, joined)) => stream_run(&mut stream, &run, 0, joined),
            Err(e) => return fail(&mut stream, e),
        },
        Request::Resume { run_id, ack } => match state.run_for_id(&run_id) {
            Ok(run) => stream_run(&mut stream, &run, ack, true),
            Err(e) => return fail(&mut stream, e),
        },
        Request::Stats => send(&mut stream, &Frame::Stats(state.stats_value())),
        Request::Shutdown => {
            state.draining.store(true, Ordering::SeqCst);
            send(&mut stream, &Frame::Bye)
        }
    };
    // A write error here means the client went away mid-stream; its
    // run keeps executing and its journal keeps growing, so a resume
    // picks up where it left off. Nothing to do.
    let _ = outcome;
}

/// A running (or ready-to-run) sweep server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    addr: SocketAddr,
}

impl Server {
    /// Binds the listener and builds the shared execution state. The
    /// accept loop starts when [`run`](Server::run) is called.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        std::fs::create_dir_all(&config.journal_dir)?;
        let state = Arc::new(ServerState {
            pool: Mutex::new(Some(SharedPool::new(config.jobs.max(1), MAX_RUNS))),
            runs: Mutex::new(HashMap::new()),
            cells: Mutex::new(HashMap::new()),
            archived: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            conns: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            config,
        });
        Ok(Server {
            listener,
            state,
            addr,
        })
    }

    /// The bound address (the actual port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts and serves connections until a `shutdown` request or
    /// SIGINT/SIGTERM, then drains: queued and in-flight cells finish,
    /// open streams complete, the pool joins.
    pub fn run(self) -> std::io::Result<()> {
        let flag = interrupt::install();
        let state = Arc::clone(&self.state);
        state.log(&format!(
            "listening on {} ({} jobs, journals in {})",
            self.addr,
            state.config.jobs,
            state.config.journal_dir.display()
        ));
        // The accept loop blocks in `accept`; this watchdog turns the
        // interrupt flag (or a protocol-initiated drain) into one
        // throwaway loopback connection so the loop observes it.
        let watchdog = {
            let state = Arc::clone(&state);
            let addr = self.addr;
            std::thread::spawn(move || loop {
                if interrupt::interrupted() {
                    state.draining.store(true, Ordering::SeqCst);
                }
                if state.draining.load(Ordering::SeqCst) {
                    let _ = TcpStream::connect(addr);
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            })
        };
        let _ = flag; // watchdog polls the module-level state
        for incoming in self.listener.incoming() {
            if state.draining.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                Err(_) => continue,
            };
            if state.conns.fetch_add(1, Ordering::SeqCst) >= MAX_CONNS {
                state.conns.fetch_sub(1, Ordering::SeqCst);
                let mut stream = stream;
                let _ = send(
                    &mut stream,
                    &Frame::Error {
                        message: "connection limit reached".to_owned(),
                    },
                );
                continue;
            }
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                handle_conn(&state, stream);
                state.conns.fetch_sub(1, Ordering::SeqCst);
            });
        }
        let _ = watchdog.join();
        state.log("draining: waiting for in-flight cells");
        let pool = state.pool.lock().expect("pool poisoned").take();
        if let Some(pool) = pool {
            pool.drain();
            pool.shutdown();
        }
        // Streams only wait on cells, which are all delivered now, so
        // the remaining connection threads finish on their own.
        while state.conns.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        state.log("drained, bye");
        Ok(())
    }
}
