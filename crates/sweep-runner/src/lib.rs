//! `sweep-runner` — a dependency-free parallel experiment-execution
//! engine for simulation sweeps.
//!
//! The crate knows nothing about caches or energy: a sweep is a list of
//! *cells*, each identified by a caller-chosen key string and executed
//! by a caller-supplied closure. The engine contributes:
//!
//! * [`pool`] — a `std::thread::scope` worker pool that drains cells
//!   dynamically but returns results in cell order, so parallel runs
//!   are bit-identical to serial ones (each cell must be seeded
//!   independently of execution order — the simulator already is).
//! * [`journal`] — a JSONL run journal recording per-cell wall time, an
//!   observability metrics object, and a full result payload.
//! * Checkpoint/resume — cells whose key is already in the journal are
//!   decoded from their payload instead of re-run.
//! * [`group_cells`] — the grouping rule that turns pending cells into
//!   pool jobs, each retiring several cells at once.
//! * [`progress`] — live per-cell progress lines on stderr.
//!
//! # Example
//!
//! ```
//! use sweep_runner::{group_cells, json::Value, run_sweep_grouped, SweepOptions};
//!
//! let keys: Vec<String> = (0..8).map(|i| format!("cell-{i}")).collect();
//! let opts = SweepOptions { jobs: 4, journal: None, quiet: true, label: "demo".into(), cancel: None };
//! let squares = run_sweep_grouped(
//!     &keys,
//!     &opts,
//!     |pending| group_cells(pending, |i| i % 2, opts.jobs), // even/odd cells group
//!     |members| members.iter().map(|&i| (i as u64) * (i as u64)).collect(),
//!     |&v, _wall| (Value::object(), Value::u64(v)), // (metrics, payload)
//!     |p| p.as_u64(),                               // payload -> value
//! ).unwrap();
//! assert_eq!(squares[3], 9);
//! ```

pub mod interrupt;
pub mod journal;
pub mod json;
pub mod pool;
pub mod progress;

pub use journal::Journal;
pub use pool::{available_jobs, run_indexed_cancellable, PoolBusy, SharedPool};

use json::Value;
use progress::Progress;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a sweep should execute.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker count; 1 means fully serial on the calling thread.
    pub jobs: usize,
    /// Journal path for checkpoint/resume; `None` disables journaling.
    pub journal: Option<PathBuf>,
    /// Suppress the stderr progress lines.
    pub quiet: bool,
    /// Short sweep name shown in progress lines.
    pub label: String,
    /// Cooperative cancellation flag (usually
    /// [`interrupt::install`]'s SIGINT flag): once it reads true the
    /// pool stops dispatching cells, in-flight cells finish and are
    /// journaled, and [`run_sweep_grouped`] returns
    /// [`std::io::ErrorKind::Interrupted`].
    pub cancel: Option<&'static AtomicBool>,
}

impl SweepOptions {
    /// Serial, journal-less, quiet.
    pub fn serial() -> SweepOptions {
        SweepOptions::with_jobs(1)
    }

    /// `jobs` workers, journal-less, quiet.
    pub fn with_jobs(jobs: usize) -> SweepOptions {
        SweepOptions {
            jobs,
            journal: None,
            quiet: true,
            label: "sweep".to_owned(),
            cancel: None,
        }
    }
}

/// Partitions `pending` cell indices into execution groups: cells with
/// equal `key(i)` form one group, groups in first-seen order. Then,
/// while there are fewer groups than `workers`, the largest group (the
/// first on ties) splits in half, its second half placed right after
/// it, so a narrow grid still keeps every worker busy. A singleton
/// never splits.
pub fn group_cells<K: PartialEq>(
    pending: &[usize],
    key: impl Fn(usize) -> K,
    workers: usize,
) -> Vec<Vec<usize>> {
    let mut keyed: Vec<(K, Vec<usize>)> = Vec::new();
    for &i in pending {
        let k = key(i);
        match keyed.iter_mut().find(|(g, _)| *g == k) {
            Some((_, members)) => members.push(i),
            None => keyed.push((k, vec![i])),
        }
    }
    let mut groups: Vec<Vec<usize>> = keyed.into_iter().map(|(_, m)| m).collect();
    while groups.len() < workers {
        // `max_by_key` keeps the last maximum; reversed, the first.
        let Some((largest, _)) = (groups.iter().enumerate().rev())
            .max_by_key(|(_, g)| g.len())
            .filter(|(_, g)| g.len() > 1)
        else {
            break;
        };
        let half = groups[largest].len().div_ceil(2);
        let tail = groups[largest].split_off(half);
        groups.insert(largest + 1, tail);
    }
    groups
}

/// Runs a sweep: pending cells are partitioned into *groups*, each
/// executed by one pool worker in a single `run` call that returns one
/// result per member (a fused simulation group occupies one worker but
/// retires N cells at once). Results come back in key order.
///
/// * `group(&pending)` partitions the pending cell indices (cells the
///   journal did not restore — resume therefore re-forms groups from
///   the surviving cells only). Every pending index must appear in
///   exactly one group; groups must be non-empty. [`group_cells`] is
///   the usual rule.
/// * `run(&members)` executes one group and returns its results in
///   member order.
/// * `encode(&T, wall)` produces the journal record: `metrics` is a
///   small observability object (see [`progress`] for the well-known
///   keys; `wall` is provided so rates like accesses/sec can be
///   derived), `payload` must contain everything `decode` needs.
/// * `decode(&Value) -> Option<T>` rebuilds a result from a journal
///   payload; returning `None` (schema drift, corrupt line) causes the
///   cell to be re-run.
///
/// Cells whose key is present in the journal are restored, not re-run;
/// `keys` must therefore encode every input the result depends on. The
/// labels in a restored record's metrics still count toward the
/// progress footer, so it names every path that produced the results.
/// Each member is journaled individually (with the group's wall time
/// split evenly across members) the moment its group completes, so an
/// interrupted sweep still seals a clean per-cell resumable journal.
///
/// # Errors
///
/// Journal I/O errors propagate. When the sweep's cancellation flag
/// trips (`opts.cancel`, typically SIGINT) before every group has run,
/// the completed groups are already journaled — their records flush
/// line-atomically, so the journal tail stays sealed — and the sweep
/// returns [`std::io::ErrorKind::Interrupted`]; re-running with the
/// same journal resumes from the completed set. Panics from `run`
/// propagate after the worker scope joins.
///
/// # Panics
///
/// Panics when `group` does not produce a partition of the pending
/// indices, or when `run` returns a result count different from its
/// group size — both are caller bugs that would corrupt cell/key
/// alignment.
pub fn run_sweep_grouped<T, Grp, Run, Enc, Dec>(
    keys: &[String],
    opts: &SweepOptions,
    group: Grp,
    run: Run,
    encode: Enc,
    decode: Dec,
) -> std::io::Result<Vec<T>>
where
    T: Send,
    Grp: FnOnce(&[usize]) -> Vec<Vec<usize>>,
    Run: Fn(&[usize]) -> Vec<T> + Sync,
    Enc: Fn(&T, Duration) -> (Value, Value) + Sync,
    Dec: Fn(&Value) -> Option<T>,
{
    let journal = match &opts.journal {
        Some(path) => Some(Journal::open(path)?),
        None => None,
    };
    if let Some(j) = &journal {
        if j.skipped() > 0 && !opts.quiet {
            eprintln!(
                "{}: warning: skipped {} corrupt/truncated journal line(s) in {} \
                 (their cells will re-run)",
                opts.label,
                j.skipped(),
                j.path().display()
            );
        }
    }

    // Restore completed cells; collect the rest as pending indices.
    let mut resolved: Vec<Option<T>> = keys.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let restored = journal
            .as_ref()
            .and_then(|j| j.payload(key))
            .and_then(&decode);
        match restored {
            Some(v) => resolved[i] = Some(v),
            None => pending.push(i),
        }
    }
    let from_journal = keys.len() - pending.len();
    let progress = Progress::new(&opts.label, pending.len(), opts.quiet);
    if let Some(j) = &journal {
        for (key, _) in keys.iter().zip(&resolved).filter(|(_, v)| v.is_some()) {
            if let Some(metrics) = j.metrics(key) {
                progress.restored(metrics);
            }
        }
    }

    let groups = group(&pending);
    {
        // The grouping must be a permutation of the pending set — a
        // stray or missing index would silently misalign keys/results.
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert!(
            groups.iter().all(|g| !g.is_empty()) && seen == pending,
            "group() must partition the pending cell indices"
        );
    }

    let journal_error: Mutex<Option<std::io::Error>> = Mutex::new(None);

    let ran = pool::run_indexed_cancellable(groups.len(), opts.jobs, opts.cancel, |g| {
        let members = &groups[g];
        let started = Instant::now();
        let values = run(members);
        let wall = started.elapsed();
        assert_eq!(
            values.len(),
            members.len(),
            "group run() must return one result per member"
        );
        // The group ran as one unit; attribute its wall time evenly so
        // per-cell rates stay meaningful.
        let member_wall = wall / members.len() as u32;
        for (&i, value) in members.iter().zip(&values) {
            let (metrics, payload) = encode(value, member_wall);
            if let Some(journal) = &journal {
                if let Err(e) = journal.record(
                    &keys[i],
                    member_wall.as_secs_f64() * 1e3,
                    metrics.clone(),
                    payload,
                ) {
                    journal_error
                        .lock()
                        .expect("error slot poisoned")
                        .get_or_insert(e);
                }
            }
            progress.cell_done(&keys[i], member_wall, &metrics);
        }
        values
    });
    if let Some(e) = journal_error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }

    if ran.len() < groups.len() {
        // The cancellation flag tripped mid-sweep. Completed groups are
        // journaled per member (each line flushed atomically), so the
        // journal is a clean resumable prefix.
        let done: usize = ran.iter().map(|(g, _)| groups[*g].len()).sum();
        let total = pending.len();
        if !opts.quiet {
            eprintln!(
                "[{}] interrupted after {done}/{total} cells{}",
                opts.label,
                match &opts.journal {
                    Some(p) => format!("; journal {} sealed, re-run to resume", p.display()),
                    None => String::new(),
                }
            );
        }
        return Err(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("sweep interrupted after {done}/{total} pending cells"),
        ));
    }

    for (g, values) in ran {
        for (&i, value) in groups[g].iter().zip(values) {
            resolved[i] = Some(value);
        }
    }
    progress.finish(from_journal);
    Ok(resolved
        .into_iter()
        .map(|v| v.expect("every cell resolved"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("cell-{i}")).collect()
    }

    /// One cell per group: the sweep shape most tests below exercise.
    fn run_sweep<T: Send>(
        keys: &[String],
        opts: &SweepOptions,
        run: impl Fn(usize) -> T + Sync,
        encode: impl Fn(&T, Duration) -> (Value, Value) + Sync,
        decode: impl Fn(&Value) -> Option<T>,
    ) -> std::io::Result<Vec<T>> {
        run_sweep_grouped(
            keys,
            opts,
            |pending| pending.iter().map(|&i| vec![i]).collect(),
            |members| vec![run(members[0])],
            encode,
            decode,
        )
    }

    fn quiet(jobs: usize) -> SweepOptions {
        SweepOptions {
            jobs,
            journal: None,
            quiet: true,
            label: "test".to_owned(),
            cancel: None,
        }
    }

    #[allow(clippy::type_complexity)]
    fn codec_u64() -> (
        impl Fn(&u64, Duration) -> (Value, Value) + Sync,
        impl Fn(&Value) -> Option<u64>,
    ) {
        (
            |&v: &u64, _: Duration| (Value::object(), Value::u64(v)),
            |p: &Value| p.as_u64(),
        )
    }

    #[test]
    fn parallel_results_match_serial() {
        let (enc, dec) = codec_u64();
        let f = |i: usize| (i as u64).wrapping_mul(0x9E3779B9) >> 7;
        let serial = run_sweep(&keys(20), &quiet(1), f, &enc, &dec).unwrap();
        let parallel = run_sweep(&keys(20), &quiet(4), f, &enc, &dec).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn resume_skips_completed_cells() {
        let mut path = std::env::temp_dir();
        path.push(format!("slip-sweep-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            jobs: 2,
            journal: Some(path.clone()),
            quiet: true,
            label: "test".to_owned(),
            cancel: None,
        };
        let executions = AtomicUsize::new(0);
        let run = |i: usize| {
            executions.fetch_add(1, Ordering::Relaxed);
            i as u64 + 100
        };
        let (enc, dec) = codec_u64();

        let first = run_sweep(&keys(6), &opts, run, &enc, &dec).unwrap();
        assert_eq!(executions.load(Ordering::Relaxed), 6);

        // Same keys again: everything restores from the journal.
        let second = run_sweep(&keys(6), &opts, run, &enc, &dec).unwrap();
        assert_eq!(executions.load(Ordering::Relaxed), 6, "no cell re-ran");
        assert_eq!(first, second);

        // A grown sweep only runs the new cells.
        let third = run_sweep(&keys(8), &opts, run, &enc, &dec).unwrap();
        assert_eq!(executions.load(Ordering::Relaxed), 8);
        assert_eq!(third[..6], first[..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn undecodable_payloads_cause_rerun() {
        let mut path = std::env::temp_dir();
        path.push(format!("slip-sweep-badpayload-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            jobs: 1,
            journal: Some(path.clone()),
            quiet: true,
            label: "test".to_owned(),
            cancel: None,
        };
        let (enc, dec) = codec_u64();
        run_sweep(&keys(2), &opts, |i| i as u64, &enc, &dec).unwrap();
        // Decoder that rejects everything: cells must re-run, not panic.
        let ran = AtomicUsize::new(0);
        let out = run_sweep(
            &keys(2),
            &opts,
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i as u64
            },
            &enc,
            |_: &Value| None::<u64>,
        )
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(out, vec![0, 1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_trailing_record_reruns_only_that_cell() {
        let mut path = std::env::temp_dir();
        path.push(format!("slip-sweep-truncated-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            jobs: 1,
            journal: Some(path.clone()),
            quiet: true,
            label: "test".to_owned(),
            cancel: None,
        };
        let (enc, dec) = codec_u64();
        let first = run_sweep(&keys(4), &opts, |i| i as u64 * 11, &enc, &dec).unwrap();

        // Simulate a crash mid-append: cut the file in the middle of
        // the last record, leaving a torn trailing line.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let keep = text.len() - lines[3].len() / 2 - 1;
        let truncated = &text[..keep];
        assert!(
            !truncated.ends_with('\n'),
            "truncation must land inside the final record"
        );
        std::fs::write(&path, truncated).unwrap();

        let j = Journal::open(&path).unwrap();
        assert_eq!((j.loaded(), j.skipped()), (3, 1));
        drop(j);

        // Resume: the three intact cells restore, only the torn one
        // re-runs, and results are identical to the pre-crash sweep.
        let ran = AtomicUsize::new(0);
        let second = run_sweep(
            &keys(4),
            &opts,
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i as u64 * 11
            },
            &enc,
            &dec,
        )
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 1, "only the torn cell re-ran");
        assert_eq!(second, first);

        // The re-run appended a fresh record after the torn bytes; the
        // journal heals on the next load.
        let j = Journal::open(&path).unwrap();
        assert_eq!((j.loaded(), j.skipped()), (4, 1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interrupted_sweep_seals_a_resumable_journal() {
        let mut path = std::env::temp_dir();
        path.push(format!("slip-sweep-interrupt-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // A leaked flag stands in for the process-global SIGINT flag so
        // this test cannot race other tests through shared state.
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let opts = SweepOptions {
            jobs: 1,
            journal: Some(path.clone()),
            quiet: true,
            label: "test".to_owned(),
            cancel: Some(flag),
        };
        let (enc, dec) = codec_u64();
        let err = run_sweep(
            &keys(6),
            &opts,
            |i| {
                if i == 2 {
                    flag.store(true, std::sync::atomic::Ordering::SeqCst);
                }
                i as u64 * 3
            },
            &enc,
            &dec,
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);

        // The journal holds exactly the completed prefix, sealed: a
        // clean reload sees no torn lines.
        let j = Journal::open(&path).unwrap();
        assert_eq!((j.loaded(), j.skipped()), (3, 0));
        drop(j);

        // Clearing the flag and re-running resumes: only the cells the
        // interrupt skipped execute.
        flag.store(false, std::sync::atomic::Ordering::SeqCst);
        let ran = AtomicUsize::new(0);
        let out = run_sweep(
            &keys(6),
            &opts,
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i as u64 * 3
            },
            &enc,
            &dec,
        )
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        assert_eq!(out, (0..6).map(|i| i * 3).collect::<Vec<u64>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn grouped_sweep_runs_each_group_in_one_call() {
        let (enc, dec) = codec_u64();
        let calls = AtomicUsize::new(0);
        let out = run_sweep_grouped(
            &keys(6),
            &quiet(2),
            |pending| pending.chunks(3).map(<[usize]>::to_vec).collect(),
            |members| {
                calls.fetch_add(1, Ordering::Relaxed);
                members.iter().map(|&i| i as u64 * 7).collect()
            },
            &enc,
            &dec,
        )
        .unwrap();
        assert_eq!(out, (0..6).map(|i| i * 7).collect::<Vec<u64>>());
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn grouped_sweep_rejects_a_bad_partition() {
        let (enc, dec) = codec_u64();
        // Index 1 appears twice — key/result alignment would corrupt.
        let _ = run_sweep_grouped(
            &keys(4),
            &quiet(1),
            |_| vec![vec![0, 1], vec![1, 2, 3]],
            |members| members.iter().map(|&i| i as u64).collect(),
            &enc,
            &dec,
        );
    }

    #[test]
    fn grouped_resume_reforms_groups_from_surviving_cells() {
        let mut path = std::env::temp_dir();
        path.push(format!("slip-sweep-grouped-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            jobs: 1,
            journal: Some(path.clone()),
            quiet: true,
            label: "test".to_owned(),
            cancel: None,
        };
        let (enc, dec) = codec_u64();
        // Seed the journal with the first three cells, as if a grouped
        // sweep was interrupted mid-group.
        run_sweep(&keys(6)[..3], &opts, |i| i as u64 * 7, &enc, &dec).unwrap();

        // Re-sweep all six: only the survivors reach group(), and they
        // run in a single call.
        let calls = AtomicUsize::new(0);
        let seen = Mutex::new(Vec::new());
        let out = run_sweep_grouped(
            &keys(6),
            &opts,
            |pending| {
                *seen.lock().unwrap() = pending.to_vec();
                vec![pending.to_vec()]
            },
            |members| {
                calls.fetch_add(1, Ordering::Relaxed);
                members.iter().map(|&i| i as u64 * 7).collect()
            },
            &enc,
            &dec,
        )
        .unwrap();
        assert_eq!(seen.into_inner().unwrap(), vec![3, 4, 5]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(out, (0..6).map(|i| i * 7).collect::<Vec<u64>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_cells_splits_up_to_the_worker_count_in_first_seen_order() {
        // Cells 0..10 over benchmarks a,b (interleaved first-seen a, b).
        let bench = |i: usize| if i.is_multiple_of(2) { "a" } else { "b" };
        let pending: Vec<usize> = (0..10).collect();
        assert_eq!(
            group_cells(&pending, bench, 1),
            vec![vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7, 9]]
        );
        assert_eq!(
            group_cells(&pending, bench, 2),
            group_cells(&pending, bench, 1)
        );
        // Below the worker count the largest group halves, the first
        // one on ties, each second half right after its first.
        assert_eq!(
            group_cells(&pending, bench, 3),
            vec![vec![0, 2, 4], vec![6, 8], vec![1, 3, 5, 7, 9]]
        );
        assert_eq!(
            group_cells(&pending, bench, 4),
            vec![vec![0, 2, 4], vec![6, 8], vec![1, 3, 5], vec![7, 9]]
        );
        // One benchmark of five cells on two workers: a 3 + 2 split.
        let one: Vec<usize> = (0..5).collect();
        assert_eq!(
            group_cells(&one, |_| "soplex", 2),
            vec![vec![0, 1, 2], vec![3, 4]]
        );
        // Singletons never split, however many workers wait.
        assert_eq!(group_cells(&[7], |_| "x", 8), vec![vec![7]]);
        assert_eq!(
            group_cells(&one, |_| "soplex", 64),
            vec![vec![0], vec![1], vec![2], vec![3], vec![4]]
        );
        assert!(group_cells(&[], |_| "x", 4).is_empty());
    }

    #[test]
    fn resume_reforms_groups_from_unjournaled_cells() {
        let mut path = std::env::temp_dir();
        path.push(format!("slip-sweep-group-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            jobs: 2,
            journal: Some(path.clone()),
            quiet: true,
            label: "test".to_owned(),
            cancel: None,
        };
        let (enc, dec) = codec_u64();
        let bench = |i: usize| i / 4; // two benchmarks of four cells
                                      // A sweep that journaled cells 0, 1, and 5 before it died.
        run_sweep(&keys(8), &opts, |i| i as u64, &enc, &dec).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: String = text
            .lines()
            .filter(|l| {
                ["cell-0\"", "cell-1\"", "cell-5\""]
                    .iter()
                    .any(|k| l.contains(k))
            })
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&path, kept).unwrap();
        let seen = Mutex::new(Vec::new());
        let out = run_sweep_grouped(
            &keys(8),
            &opts,
            |pending| {
                let groups = group_cells(pending, bench, opts.jobs);
                *seen.lock().unwrap() = groups.clone();
                groups
            },
            |members| members.iter().map(|&i| i as u64).collect(),
            &enc,
            &dec,
        )
        .unwrap();
        assert_eq!(
            seen.into_inner().unwrap(),
            vec![vec![2, 3], vec![4, 6, 7]],
            "groups re-form from the survivors only"
        );
        assert_eq!(out, (0..8).collect::<Vec<u64>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_sweep_is_fine() {
        let (enc, dec) = codec_u64();
        let out = run_sweep(&[], &quiet(4), |_| 0u64, &enc, &dec).unwrap();
        assert!(out.is_empty());
    }
}
