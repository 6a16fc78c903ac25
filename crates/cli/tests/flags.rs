//! Every flag a `slip` subcommand accepts changes what it does; every
//! other flag fails before anything runs.
//!
//! For each (subcommand, flag) pair the binary runs twice: once on a
//! small base command line and once with the flag added. The pair must
//! either be rejected — a non-zero exit whose error line names the
//! subcommand and the flag, with no file written — or change stdout or
//! a written file. `--jobs` is the exception: where a pool runs it must
//! leave the output unchanged. For `bench`, `serve` and `submit` only
//! rejection is driven, and it must come before any replay, bind or
//! connect. Runs stay at 20k accesses or fewer.

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs the binary with `args` and no `SLIP_*` knobs, killing it if it
/// outlives the deadline (a command that should have been rejected may
/// serve forever).
fn slip(args: &[String]) -> Output {
    slip_with(args, &[])
}

/// The `SLIP_*` knobs a run starts without.
const KNOBS: [&str; 6] = [
    "SLIP_ACCESSES",
    "SLIP_WARMUP",
    "SLIP_JOBS",
    "SLIP_JOURNAL",
    "SLIP_FUZZ_ITERS",
    "SLIP_TOPOLOGY",
];

/// [`slip`] with the `SLIP_*` knobs in `vars` set.
fn slip_with(args: &[String], vars: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_slip"));
    for knob in KNOBS {
        cmd.env_remove(knob);
    }
    cmd.envs(vars.iter().copied());
    let mut child = cmd
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let started = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if started.elapsed() > Duration::from_secs(120) {
            child.kill().unwrap();
            panic!("{args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait_with_output().unwrap()
}

/// The value a pair adds after `flag`: one that differs from the
/// default and from any value in a base command line. Path-valued
/// flags get `file`.
fn flag_args(flag: &str, file: &Path) -> Vec<String> {
    let value = match flag {
        "--policy" => "baseline",
        "--accesses" => "10000",
        "--seed" => "7",
        "--replacement" => "drrip",
        "--topology" => "22nm",
        "--jobs" => "2",
        "--iters" => "2",
        "--max-len" => "3000",
        "--warmup" => "100",
        "--ack" => "1",
        "--resume" => "run-1",
        "--addr" | "--connect" => "127.0.0.1:9",
        "--csv" | "--journal" | "--out" | "--port-file" | "--journal-dir" | "--check" => {
            file.to_str().unwrap()
        }
        "--full" | "--inclusive" | "--oracle" | "--quick" | "--quiet" | "--shutdown"
        | "--stats" | "--verify-offline" => return vec![flag.to_owned()],
        other => panic!("no test value for {other}"),
    };
    vec![flag.to_owned(), value.to_owned()]
}

/// Every flag the usage text names.
fn usage_flags() -> BTreeSet<String> {
    let out = slip(&[]);
    assert!(!out.status.success());
    String::from_utf8(out.stderr)
        .unwrap()
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--") && w.len() > 2)
        .map(str::to_owned)
        .collect()
}

/// Whether `out` is a rejection of `flag` by `slip <cmd>`: a non-zero
/// exit whose error line (the first stderr line; the usage text after
/// it names every flag) names both.
fn rejects(out: &Output, cmd: &str, flag: &str) -> bool {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().next().unwrap_or("");
    !out.status.success()
        && line.contains(&format!("slip {cmd}"))
        && line
            .split(|c: char| c.is_whitespace() || matches!(c, ':' | '`' | ',' | '"'))
            .any(|w| w == flag)
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slip-flags-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One base command line. `{out}` stands for a fresh output path per
/// run, `{trc}` for a recorded 20k-access gcc trace.
struct Row {
    argv: &'static [&'static str],
    /// Flags the command takes on this line.
    accepts: &'static [&'static str],
    /// Drive only these flags (default: every flag).
    only: Option<&'static [&'static str]>,
}

/// What a run produced, with per-run paths replaced by placeholders
/// and the job count dropped from sweep headers.
#[derive(Debug, PartialEq)]
struct Seen {
    status: Option<i32>,
    stdout: String,
    out_file: Option<Vec<u8>>,
    flag_file: Option<Vec<u8>>,
}

fn drop_job_count(s: &str) -> String {
    s.lines()
        .map(|l| match l.find(" jobs)") {
            Some(i) => {
                let head = l[..i].trim_end_matches(|c: char| c.is_ascii_digit());
                format!("{head}{}\n", &l[i..])
            }
            None => format!("{l}\n"),
        })
        .collect()
}

fn drive(dir: &Path, trc: &Path, row: &Row, flags: &BTreeSet<String>) {
    let cmd = row.argv[0];
    let mut runs = 0;
    let mut run = |extra: &[String], flag_file: &Path| -> (Output, Seen) {
        runs += 1;
        let out_path = dir.join(format!("out-{runs}"));
        let argv: Vec<String> = row
            .argv
            .iter()
            .map(|a| match *a {
                "{out}" => out_path.to_str().unwrap().to_owned(),
                "{trc}" => trc.to_str().unwrap().to_owned(),
                a => a.to_owned(),
            })
            .chain(extra.iter().cloned())
            .collect();
        let out = slip(&argv);
        let stdout = String::from_utf8_lossy(&out.stdout)
            .replace(out_path.to_str().unwrap(), "{out}")
            .replace(flag_file.to_str().unwrap(), "{file}");
        let seen = Seen {
            status: out.status.code(),
            stdout: drop_job_count(&stdout),
            out_file: std::fs::read(&out_path).ok(),
            flag_file: std::fs::read(flag_file).ok(),
        };
        (out, seen)
    };
    let none = dir.join("none");
    // The base line runs (an oracle at 20k accesses misses some bands
    // and exits non-zero, but it still runs and reports).
    let (base_out, base) = run(&[], &none);
    assert!(
        !base.stdout.is_empty() && !rejects(&base_out, cmd, ""),
        "{:?}: {}",
        row.argv,
        String::from_utf8_lossy(&base_out.stderr)
    );
    for flag in flags {
        if row.only.is_some_and(|only| !only.contains(&flag.as_str())) {
            continue;
        }
        let file = dir.join(format!("file{flag}"));
        let mut extra = flag_args(flag, &file);
        if cmd == "check" && flag == "--oracle" && !row.argv.contains(&"--oracle") {
            // The oracle's length rides along, so the pair stays small.
            extra.extend(["--accesses".to_owned(), "20000".to_owned()]);
        }
        let (out, seen) = run(&extra, &file);
        let _ = std::fs::remove_file(&file);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let accepted = row.accepts.contains(&flag.as_str());
        if !accepted {
            assert!(
                rejects(&out, cmd, flag),
                "{:?} + {flag}: {stderr}",
                row.argv
            );
            assert!(seen.stdout.is_empty(), "{:?} + {flag} ran", row.argv);
            assert_eq!(seen.out_file, None, "{:?} + {flag} wrote", row.argv);
            assert_eq!(seen.flag_file, None, "{:?} + {flag} wrote", row.argv);
            continue;
        }
        assert!(
            !rejects(&out, cmd, flag),
            "{:?} + {flag}: {stderr}",
            row.argv
        );
        if flag == "--jobs" || (cmd == "check" && flag == "--quick") {
            // Parallelism, and naming the default mode, change nothing.
            assert_eq!(seen, base, "{:?} + {flag}", row.argv);
        } else {
            assert_ne!(seen, base, "{:?} + {flag} changed nothing", row.argv);
        }
    }
}

/// Drives every flag the usage text names over `rows`.
fn drive_rows(name: &str, rows: &[Row]) {
    let dir = scratch(name);
    let trc = dir.join("gcc.trc");
    let recorded = slip(&[
        "record".into(),
        "gcc".into(),
        trc.to_str().unwrap().into(),
        "--accesses".into(),
        "20000".into(),
    ]);
    assert!(recorded.status.success());
    let flags = usage_flags();
    for row in rows {
        drive(&dir, &trc, row, &flags);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_usage_text_names_every_flag_this_test_drives() {
    let flags = usage_flags();
    for flag in &flags {
        // Panics on a flag with no test value.
        flag_args(flag, Path::new("file"));
    }
    assert_eq!(flags.len(), 27, "{flags:?}");
}

#[test]
fn run_and_list_take_only_the_flags_they_read() {
    drive_rows(
        "run",
        &[
            Row {
                argv: &["list"],
                accepts: &[],
                only: None,
            },
            Row {
                argv: &["run", "gcc", "--accesses", "20000"],
                accepts: &[
                    "--policy",
                    "--accesses",
                    "--seed",
                    "--replacement",
                    "--inclusive",
                    "--csv",
                    "--topology",
                ],
                only: None,
            },
            // A trace file runs whole: --accesses is not read.
            Row {
                argv: &["run", "{trc}"],
                accepts: &[
                    "--policy",
                    "--seed",
                    "--replacement",
                    "--inclusive",
                    "--csv",
                    "--topology",
                ],
                only: None,
            },
            Row {
                argv: &["record", "gcc", "{out}", "--accesses", "20000"],
                accepts: &["--accesses", "--seed"],
                only: None,
            },
        ],
    );
    let list = slip(&["list".into(), "gcc".into()]);
    assert!(!list.status.success());
    assert!(list.stdout.is_empty());
}

#[test]
fn compare_sweep_and_mix_take_only_the_flags_they_read() {
    drive_rows(
        "grid",
        &[
            Row {
                argv: &["compare", "gcc", "--accesses", "20000"],
                accepts: &[
                    "--accesses",
                    "--seed",
                    "--replacement",
                    "--inclusive",
                    "--jobs",
                    "--topology",
                ],
                only: None,
            },
            Row {
                argv: &["sweep", "gcc", "--accesses", "20000", "--jobs", "1"],
                accepts: &["--accesses", "--seed", "--jobs", "--journal", "--topology"],
                only: None,
            },
            Row {
                argv: &["mix", "gcc", "lbm", "--accesses", "20000"],
                accepts: &[
                    "--policy",
                    "--accesses",
                    "--seed",
                    "--replacement",
                    "--topology",
                ],
                only: None,
            },
        ],
    );
}

#[test]
fn check_takes_length_and_pool_only_with_the_oracle() {
    drive_rows(
        "check",
        &[
            Row {
                argv: &["check", "--iters", "1", "--max-len", "2000"],
                accepts: &[
                    "--quick",
                    "--full",
                    "--oracle",
                    "--iters",
                    "--max-len",
                    "--seed",
                    "--topology",
                ],
                only: None,
            },
            Row {
                argv: &[
                    "check",
                    "--iters",
                    "1",
                    "--max-len",
                    "2000",
                    "--oracle",
                    "--accesses",
                    "20000",
                ],
                accepts: &["--accesses", "--jobs"],
                only: Some(&["--accesses", "--jobs"]),
            },
        ],
    );
}

/// Drives every flag outside `accepts` onto `argv` and requires a
/// rejection with nothing run: no stdout, no file, and no connection
/// to `listener`, whose address stands in for `{addr}`.
fn rejected_before_running(argv: &[&str], accepts: &[&str]) {
    let dir = scratch(&argv.join("-").replace(['/', '.', ':', '{', '}'], ""));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let out_path = dir.join("out");
    for flag in usage_flags() {
        if accepts.contains(&flag.as_str()) {
            continue;
        }
        let file = dir.join(format!("file{flag}"));
        let args: Vec<String> = argv
            .iter()
            .map(|a| match *a {
                "{addr}" => addr.clone(),
                "{out}" => out_path.to_str().unwrap().to_owned(),
                a => a.to_owned(),
            })
            .chain(flag_args(&flag, &file))
            .collect();
        let out = slip(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(rejects(&out, argv[0], &flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
        assert!(!out_path.exists() && !file.exists(), "{args:?} wrote");
        assert!(listener.accept().is_err(), "{args:?} connected");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bench_rejects_other_flags_before_replaying() {
    rejected_before_running(
        &["bench", "--quick", "--out", "{out}"],
        &["--quick", "--out", "--check"],
    );
}

#[test]
fn bench_rejects_an_unreadable_baseline_before_replaying() {
    let dir = scratch("bench-check");
    let missing = dir.join("missing.json");
    let malformed = dir.join("malformed.json");
    std::fs::write(&malformed, "{\"suite_accesses_per_sec\": ").unwrap();
    let no_rate = dir.join("no-rate.json");
    std::fs::write(&no_rate, "{\"kernels\": []}").unwrap();
    for (path, error) in [
        (&missing, "reading"),
        (&malformed, "parsing"),
        (&no_rate, "no suite_accesses_per_sec"),
    ] {
        let args = ["bench", "--quick", "--check", path.to_str().unwrap()].map(String::from);
        let started = Instant::now();
        let out = slip(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?}");
        assert!(stderr.lines().next().unwrap().contains(error), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} benched before failing");
        assert!(started.elapsed() < Duration::from_secs(5), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Each `SLIP_*` knob a subcommand could be expected to read either
/// changes what it prints or writes, or fails before it runs with an
/// error naming the subcommand and the variable.
#[test]
fn env_knobs_change_the_output_or_fail_before_running() {
    let dir = scratch("env");
    let trc = dir.join("gcc.trc");
    let journal = dir.join("j.jsonl");
    let rec = dir.join("rec.trc");
    let (trc, journal) = (trc.to_str().unwrap(), journal.to_str().unwrap());
    let rec = rec.to_str().unwrap();
    assert!(
        slip(&["record", "gcc", trc, "--accesses", "20000"].map(String::from))
            .status
            .success()
    );
    let warmup = ("SLIP_WARMUP", "5000");
    let journaled = ("SLIP_JOURNAL", journal);
    let written = || Path::new(journal).exists();
    for (argv, var, honoured) in [
        ("run gcc --accesses 20000", warmup, true),
        ("compare gcc --accesses 20000 --jobs 1", warmup, true),
        ("sweep gcc --accesses 20000 --jobs 1", warmup, true),
        ("sweep gcc --accesses 20000 --jobs 1", journaled, true),
        ("run {trc}", warmup, false),
        ("mix gcc lbm --accesses 20000", warmup, false),
        ("compare gcc --accesses 20000 --jobs 1", journaled, false),
        ("run gcc --accesses 20000", journaled, false),
        ("run {trc}", journaled, false),
        ("mix gcc lbm --accesses 20000", journaled, false),
        ("record gcc {rec} --accesses 20000", journaled, false),
        ("check --quick --iters 1", journaled, false),
    ] {
        let args: Vec<String> = argv
            .replace("{trc}", trc)
            .replace("{rec}", rec)
            .split(' ')
            .map(String::from)
            .collect();
        let base = slip(&args);
        assert!(base.status.success(), "{args:?}");
        let out = slip_with(&args, &[var]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tag = format!("{}={} {args:?}", var.0, var.1);
        if honoured {
            assert!(out.status.success(), "{tag}: {stderr}");
            assert!(
                out.stdout != base.stdout || written(),
                "{tag} changed nothing"
            );
        } else {
            assert!(rejects(&out, &args[0], var.0), "{tag}: {stderr}");
            assert!(out.stdout.is_empty(), "{tag} ran");
            assert!(!written(), "{tag} wrote");
        }
        let _ = std::fs::remove_file(journal);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_rejects_other_flags_before_binding() {
    rejected_before_running(
        &["serve", "--addr", "127.0.0.1:0", "--port-file", "{out}"],
        &[
            "--addr",
            "--jobs",
            "--journal-dir",
            "--port-file",
            "--quiet",
        ],
    );
}

#[test]
fn submit_takes_each_flag_only_in_its_mode_and_rejects_before_connecting() {
    // Flags that pick a mode are driven as their own base lines.
    let modes = ["--stats", "--shutdown", "--resume"];
    let spec = [
        "--policy",
        "--accesses",
        "--warmup",
        "--topology",
        "--verify-offline",
    ];
    let submit: Vec<&str> = modes
        .iter()
        .chain(&spec)
        .chain(&["--connect", "--quiet"])
        .copied()
        .collect();
    rejected_before_running(
        &["submit", "gcc", "--accesses", "1000", "--connect", "{addr}"],
        &submit,
    );
    rejected_before_running(
        &["submit", "--resume", "run-1", "--connect", "{addr}"],
        &[
            "--stats",
            "--shutdown",
            "--resume",
            "--ack",
            "--connect",
            "--quiet",
        ],
    );
    rejected_before_running(
        &["submit", "--stats", "--connect", "{addr}"],
        &["--stats", "--connect"],
    );
    // --stats picks its own mode, which then rejects --shutdown.
    rejected_before_running(
        &["submit", "--shutdown", "--connect", "{addr}"],
        &["--stats", "--shutdown", "--connect"],
    );
}

/// A closed stdout ends every printing subcommand quietly: the first
/// write to it stops the process, with no panic or backtrace, and never
/// with Rust's panic exit code 101.
#[test]
fn a_closed_stdout_ends_every_command_quietly() {
    let dir = scratch("pipe");
    let trc = dir.join("gcc.trc");
    let trc = trc.to_str().unwrap();
    assert!(
        slip(&["record", "gcc", trc, "--accesses", "2000"].map(String::from))
            .status
            .success()
    );
    let rec = dir.join("rec.trc");
    let rec = rec.to_str().unwrap();
    for argv in [
        "list",
        "run gcc --accesses 2000",
        "run {trc}",
        "compare gcc --accesses 2000 --jobs 1",
        "sweep gcc --accesses 2000 --jobs 1",
        "mix gcc lbm --accesses 2000",
        "record gcc {rec} --accesses 2000",
        "check --quick --iters 1",
    ] {
        let args: Vec<String> = argv
            .replace("{trc}", trc)
            .replace("{rec}", rec)
            .split(' ')
            .map(String::from)
            .collect();
        // The read end closes before the child starts, so its first
        // write to stdout fails.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_slip"));
        for knob in KNOBS {
            cmd.env_remove(knob);
        }
        let out = cmd
            .args(&args)
            .stdin(Stdio::null())
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{argv}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{argv}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
