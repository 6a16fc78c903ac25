//! End-to-end tests for the sweep service: shared execution, dedup,
//! resumable streams, journal-backed restart — all over real loopback
//! TCP against a real worker pool.

use sim_engine::codec;
use sim_engine::experiments::suite::SweepConfig;
use sim_engine::experiments::{SuiteOptions, SuiteResults};
use slip_serve::{client, Server, ServerConfig, SweepSpec};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;

/// A scratch directory under `target/` (the sandbox may not allow
/// `/tmp`), unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("serve-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Starts a quiet server on an ephemeral loopback port.
fn start_server(jobs: usize, journal_dir: &std::path::Path) -> (SocketAddr, JoinHandle<()>) {
    let mut config = ServerConfig::new(journal_dir);
    config.jobs = jobs;
    config.quiet = true;
    let server = Server::bind(config).expect("bind server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// The spec all tests sweep: small enough to be fast, two benchmarks
/// and two policies so there is real parallelism and ordering to get
/// wrong.
fn small_spec() -> SweepSpec {
    SweepSpec {
        benchmarks: vec!["gcc".into(), "soplex".into()],
        policies: vec!["baseline".into(), "slip".into()],
        accesses: 2_000,
        warmup: 0,
        topology: None,
    }
}

/// Benchmark-major cell keys for `spec` — the order the server streams.
fn cell_keys(options: &SuiteOptions) -> Vec<String> {
    options
        .benchmarks
        .iter()
        .flat_map(|&b| {
            options
                .policies
                .iter()
                .map(move |&p| options.cell_key(b, p))
        })
        .collect()
}

/// Offline ground truth: the same spec through the ordinary sweep path
/// (`SuiteResults::run_with`, exactly what `slip sweep` calls), encoded
/// with the same codec, in the same benchmark-major order.
fn offline_payloads(spec: &SweepSpec, jobs: usize) -> Vec<(String, String)> {
    let options = spec.suite_options().expect("spec resolves");
    let mut sweep = SweepConfig::with_jobs(jobs);
    sweep.quiet = true;
    let results =
        SuiteResults::run_with(spec.suite_options().unwrap(), &sweep).expect("offline sweep");
    options
        .benchmarks
        .iter()
        .flat_map(|&b| {
            let options = &options;
            let results = &results;
            options.policies.iter().map(move |&p| {
                (
                    options.cell_key(b, p),
                    codec::encode_result(results.get(b, p)).to_json(),
                )
            })
        })
        .collect()
}

#[test]
fn concurrent_identical_specs_execute_each_cell_once() {
    let dir = scratch("dedup-run");
    let (addr, server) = start_server(2, &dir);
    let spec = small_spec();

    let streams: Vec<_> = (0..2)
        .map(|_| {
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut stream = client::submit(addr, &spec).expect("submit");
                let cells = stream.collect_cells().expect("stream cells");
                (stream, cells)
            })
        })
        .collect();
    let outcomes: Vec<_> = streams.into_iter().map(|t| t.join().unwrap()).collect();

    let options = spec.suite_options().unwrap();
    let keys = cell_keys(&options);
    for (stream, cells) in &outcomes {
        assert_eq!(stream.cells, keys.len() as u64);
        let got: Vec<&String> = cells.iter().map(|(_, k, _)| k).collect();
        assert_eq!(got, keys.iter().collect::<Vec<_>>(), "cells in cell order");
    }
    // Both clients saw byte-identical payload streams.
    let render = |cells: &[(u64, String, sweep_runner::json::Value)]| {
        cells
            .iter()
            .map(|(i, k, p)| format!("{i} {k} {}", p.to_json()))
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&outcomes[0].1), render(&outcomes[1].1));
    // Exactly one of the two submissions created the run.
    let joined: Vec<bool> = outcomes.iter().map(|(s, _)| s.joined).collect();
    assert_eq!(
        joined.iter().filter(|&&j| j).count(),
        1,
        "joined flags: {joined:?}"
    );

    // The acceptance criterion: one execution per cell, ever.
    let stats = client::stats(addr).expect("stats");
    assert_eq!(stats.get("runs_started").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(stats.get("runs_joined").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        stats.get("cells_executed").and_then(|v| v.as_u64()),
        Some(keys.len() as u64)
    );
    assert_eq!(stats.get("cells_deduped").and_then(|v| v.as_u64()), Some(0));

    client::shutdown(addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn resumed_stream_concatenates_bit_exact_with_offline_sweep() {
    // Ground truth once; the server must match it at every jobs count.
    let spec = small_spec();
    let expected = offline_payloads(&spec, 1);

    for jobs in [1usize, 4] {
        let dir = scratch(&format!("resume-jobs{jobs}"));
        let (addr, server) = start_server(jobs, &dir);

        // Take two cells, then drop the connection mid-stream.
        let mut stream = client::submit(addr, &spec).expect("submit");
        assert_eq!(stream.cells as usize, expected.len());
        let run_id = stream.run_id.clone();
        let mut received = Vec::new();
        for _ in 0..2 {
            received.push(stream.next_cell().expect("cell").expect("not done"));
        }
        drop(stream); // simulated client death: TCP reset mid-stream

        // Reconnect with the run id, acking what we already have.
        let mut resumed = client::resume(addr, &run_id, received.len() as u64).expect("resume");
        assert_eq!(resumed.run_id, run_id);
        assert_eq!(resumed.from, received.len() as u64);
        assert!(resumed.joined, "resume always joins");
        received.extend(resumed.collect_cells().expect("resumed cells"));

        // The concatenated stream is the whole sweep, in order,
        // bit-identical to the offline run.
        let got: Vec<(String, String)> = received
            .iter()
            .map(|(_, k, p)| (k.clone(), p.to_json()))
            .collect();
        assert_eq!(got, expected, "jobs={jobs}");
        let indices: Vec<u64> = received.iter().map(|(i, _, _)| *i).collect();
        assert_eq!(indices, (0..expected.len() as u64).collect::<Vec<_>>());

        client::shutdown(addr).expect("shutdown");
        server.join().unwrap();
    }
}

#[test]
fn overlapping_specs_share_cell_executions() {
    let dir = scratch("dedup-cell");
    let (addr, server) = start_server(2, &dir);

    let small = SweepSpec {
        benchmarks: vec!["gcc".into()],
        policies: vec!["baseline".into(), "slip".into()],
        accesses: 2_000,
        warmup: 0,
        topology: None,
    };
    let big = SweepSpec {
        benchmarks: vec!["gcc".into(), "soplex".into()],
        policies: vec!["baseline".into(), "slip".into()],
        accesses: 2_000,
        warmup: 0,
        topology: None,
    };

    let mut first = client::submit(addr, &small).expect("submit small");
    let first_cells = first.collect_cells().expect("small cells");
    assert_eq!(first.done().unwrap().executed, 2);

    // The big sweep is a different run but shares the two gcc cells.
    let mut second = client::submit(addr, &big).expect("submit big");
    assert!(!second.joined, "different spec, different run");
    let second_cells = second.collect_cells().expect("big cells");
    let done = second.done().unwrap().clone();
    assert_eq!(done.executed, 2, "only the soplex cells execute");
    assert_eq!(done.restored, 2, "the gcc cells are deduplicated");

    // Shared cells carry byte-identical payloads in both streams.
    for (key, payload) in first_cells.iter().map(|(_, k, p)| (k, p.to_json())) {
        let twin = second_cells
            .iter()
            .find(|(_, k, _)| k == key)
            .unwrap_or_else(|| panic!("big stream misses {key}"));
        assert_eq!(twin.2.to_json(), payload);
    }

    let stats = client::stats(addr).expect("stats");
    assert_eq!(
        stats.get("cells_executed").and_then(|v| v.as_u64()),
        Some(4)
    );
    assert_eq!(stats.get("cells_deduped").and_then(|v| v.as_u64()), Some(2));

    client::shutdown(addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn restarted_server_revives_runs_from_journal() {
    let dir = scratch("restart");
    let spec = small_spec();

    // First server instance executes the sweep and shuts down.
    let (addr, server) = start_server(2, &dir);
    let mut stream = client::submit(addr, &spec).expect("submit");
    let original = stream.collect_cells().expect("cells");
    let run_id = stream.run_id.clone();
    client::shutdown(addr).expect("shutdown");
    server.join().unwrap();

    // Second instance knows nothing in memory; the journal is all it
    // has. A resume from zero must replay every cell without executing.
    let (addr, server) = start_server(2, &dir);
    let mut revived = client::resume(addr, &run_id, 0).expect("resume after restart");
    let replayed = revived.collect_cells().expect("replayed cells");
    let done = revived.done().unwrap();
    assert_eq!(done.executed, 0, "nothing re-executes");
    assert_eq!(done.restored, original.len() as u64);

    let render = |cells: &[(u64, String, sweep_runner::json::Value)]| {
        cells
            .iter()
            .map(|(i, k, p)| format!("{i} {k} {}", p.to_json()))
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&replayed), render(&original));

    let stats = client::stats(addr).expect("stats");
    assert_eq!(
        stats.get("cells_executed").and_then(|v| v.as_u64()),
        Some(0)
    );
    assert_eq!(
        stats.get("cells_restored").and_then(|v| v.as_u64()),
        Some(original.len() as u64)
    );

    client::shutdown(addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn unknown_run_and_bad_requests_get_error_frames() {
    let dir = scratch("errors");
    let (addr, server) = start_server(1, &dir);

    let err = client::resume(addr, "r-0000000000000000", 0).unwrap_err();
    assert!(err.to_string().contains("unknown run"), "{err}");

    let err = client::submit(
        addr,
        &SweepSpec {
            benchmarks: vec!["not-a-benchmark".into()],
            policies: vec![],
            accesses: 1_000,
            warmup: 0,
            topology: None,
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("not-a-benchmark"), "{err}");

    client::shutdown(addr).expect("shutdown");
    server.join().unwrap();
}

/// The `__spec__` record of a run journal under `dir`.
fn spec_record(dir: &std::path::Path, run_id: &str) -> (usize, sweep_runner::json::Value) {
    let text = std::fs::read_to_string(dir.join(format!("{run_id}.jsonl"))).expect("journal");
    text.lines()
        .enumerate()
        .map(|(i, l)| (i, sweep_runner::json::Value::parse(l).expect("record")))
        .find(|(_, v)| v.get("key").and_then(|k| k.as_str()) == Some("__spec__"))
        .expect("spec record")
}

#[test]
fn spec_record_no_longer_carries_trace_mode_or_shards() {
    let dir = scratch("spec-record");
    let (addr, server) = start_server(2, &dir);
    let mut stream = client::submit(addr, &small_spec()).expect("submit");
    stream.collect_cells().expect("cells");
    client::shutdown(addr).expect("shutdown");
    server.join().unwrap();

    let (_, record) = spec_record(&dir, &stream.run_id);
    let metrics = record.get("metrics").expect("metrics");
    assert_eq!(metrics.get("jobs").and_then(|v| v.as_u64()), Some(2));
    assert!(metrics.get("trace_mode").is_none(), "{}", metrics.to_json());
    assert!(metrics.get("shards").is_none(), "{}", metrics.to_json());
}

#[test]
fn spec_record_with_retired_trace_mode_and_shards_still_revives() {
    use sweep_runner::json::Value;
    let dir = scratch("spec-retired");
    let spec = small_spec();
    let (addr, server) = start_server(2, &dir);
    let mut stream = client::submit(addr, &spec).expect("submit");
    let original = stream.collect_cells().expect("cells");
    let run_id = stream.run_id.clone();
    client::shutdown(addr).expect("shutdown");
    server.join().unwrap();

    // Rewrite the spec record as a server that ran sharded, shared-mode
    // cells wrote it.
    let path = dir.join(format!("{run_id}.jsonl"));
    let (at, record) = spec_record(&dir, &run_id);
    let field = |k: &str| record.get(k).expect("record field").clone();
    let retired = Value::object()
        .with("v", field("v"))
        .with("key", field("key"))
        .with("wall_ms", field("wall_ms"))
        .with(
            "metrics",
            Value::object()
                .with("trace_mode", Value::str("shared"))
                .with("shards", Value::u64(2))
                .with("jobs", Value::u64(2)),
        )
        .with("payload", field("payload"));
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == at {
                retired.to_json()
            } else {
                l.to_owned()
            }
        })
        .collect();
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    // A restarted server revives the run from that journal.
    let (addr, server) = start_server(2, &dir);
    let mut revived = client::resume(addr, &run_id, 0).expect("resume after restart");
    let replayed = revived.collect_cells().expect("replayed cells");
    assert_eq!(revived.done().unwrap().executed, 0, "nothing re-executes");
    let render = |cells: &[(u64, String, Value)]| {
        cells
            .iter()
            .map(|(i, k, p)| format!("{i} {k} {}", p.to_json()))
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&replayed), render(&original));
    client::shutdown(addr).expect("shutdown");
    server.join().unwrap();
}
