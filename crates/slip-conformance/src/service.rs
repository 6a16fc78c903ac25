//! Server-determinism check: a cell executed by the `slip serve`
//! daemon must be bit-identical to the same cell executed by a plain
//! offline `slip sweep`.
//!
//! The serve path differs from the offline path in every way that
//! could plausibly leak into results — a shared worker pool, runs
//! executing concurrently, journal persistence, JSON round trips over
//! TCP — so this check boots a real loopback server on two workers,
//! streams small sweeps through it, and compares the payloads byte for
//! byte against [`SuiteResults::run_with`]. Two scenarios:
//!
//! 1. **One run:** `gcc` under every policy, so the server splits the
//!    benchmark into two fused groups. Each offline cell must also
//!    match its solo run on the verbatim reference hot path
//!    (`reference_hot_path = true`).
//! 2. **Concurrent runs:** two submissions in flight at once on the
//!    same benchmark, seed and length but disjoint policy sets, so both
//!    runs stream the same trace side by side (the baseline the suite
//!    always adds is shared through cell-level dedup).
//!
//! The check also requires the server to *archive* every completed run
//! — release its in-memory cell results once the journal holds them —
//! which the stats endpoint reports.

use crate::invariants::Violation;
use sim_engine::codec;
use sim_engine::experiments::suite::SweepConfig;
use sim_engine::experiments::SuiteResults;
use sim_engine::system::run_workload_with_warmup;
use slip_serve::{client, Server, ServerConfig, SweepSpec};
use std::net::SocketAddr;
use std::path::Path;

/// A single-benchmark spec of `accesses` accesses under `policies`.
fn spec(bench: &str, policies: &[&str], accesses: u64) -> SweepSpec {
    SweepSpec {
        benchmarks: vec![bench.into()],
        policies: policies.iter().map(|&p| p.to_owned()).collect(),
        accesses,
        warmup: 0,
        topology: None,
    }
}

/// Streams `spec` through the server at `addr` as `(key, payload)`
/// pairs in cell order.
fn serve_cells(addr: SocketAddr, spec: &SweepSpec) -> Result<Vec<(String, String)>, String> {
    let mut stream = client::submit(addr, spec).map_err(|e| e.to_string())?;
    let cells = stream.collect_cells().map_err(|e| e.to_string())?;
    Ok(cells
        .into_iter()
        .map(|(_, key, payload)| (key, payload.to_json()))
        .collect())
}

/// The offline sweep of `spec` on two workers as `(key, payload)`
/// pairs in cell order; with `reference`, every cell must also match
/// its solo run on the reference hot path.
fn offline_cells(spec: &SweepSpec, reference: bool) -> Result<Vec<(String, String)>, String> {
    let options = spec
        .suite_options()
        .map_err(|e| format!("spec does not resolve: {e}"))?;
    let offline = SuiteResults::run_with(options.clone(), &SweepConfig::with_jobs(2))
        .map_err(|e| format!("offline sweep failed: {e}"))?;
    let mut cells = Vec::new();
    for &bench in &options.benchmarks {
        let workload = workloads::workload(bench).expect("known benchmark");
        for &policy in &options.policies {
            let want = codec::encode_result(offline.get(bench, policy)).to_json();
            if reference {
                let mut config = options.cell_config(policy);
                config.reference_hot_path = true;
                let solo =
                    run_workload_with_warmup(config, &workload, options.accesses, options.warmup);
                if codec::encode_result(&solo).to_json() != want {
                    return Err(format!(
                        "offline cell {bench}/{policy} differs from the reference hot path"
                    ));
                }
            }
            cells.push((options.cell_key(bench, policy), want));
        }
    }
    Ok(cells)
}

/// Compares streamed cells against the offline ones, key and payload.
fn compare(streamed: &[(String, String)], expected: &[(String, String)]) -> Result<(), String> {
    if streamed.len() != expected.len() {
        return Err(format!(
            "server streamed {} cells, offline sweep has {}",
            streamed.len(),
            expected.len()
        ));
    }
    for ((got_key, got), (want_key, want)) in streamed.iter().zip(expected) {
        if got_key != want_key {
            return Err(format!(
                "cell order differs: server sent {got_key:?}, offline has {want_key:?}"
            ));
        }
        if got != want {
            return Err(format!(
                "cell {want_key} differs:\n    serve:   {got}\n    offline: {want}"
            ));
        }
    }
    Ok(())
}

/// Boots a loopback server, runs both scenarios through it, compares
/// every cell byte for byte against the offline sweep, then requires
/// all three completed runs archived (results dropped from memory,
/// journal authoritative). `journal_dir` holds the throwaway server
/// journals.
pub fn check_serve_determinism(accesses: u64, journal_dir: &Path) -> Result<(), Violation> {
    let every = ["baseline", "slip", "slip-abp", "nurapid", "lru-pea"];
    let single = spec("gcc", &every, accesses);
    let concurrent = [
        spec("soplex", &["slip", "nurapid"], accesses),
        spec("soplex", &["slip-abp", "lru-pea"], accesses),
    ];
    let violation = |scenario: &str, detail: String| Violation {
        invariant: "serve-determinism",
        scenario: format!("{scenario} @ {accesses} accesses via loopback serve"),
        step: None,
        detail,
    };
    let single_name = format!("gcc x {every:?}");
    let concurrent_name = "soplex x [slip, nurapid] || [slip-abp, lru-pea], concurrent";

    // Offline ground truth, through the exact path `slip sweep` uses.
    let want_single = offline_cells(&single, true).map_err(|e| violation(&single_name, e))?;
    let want_concurrent = concurrent
        .iter()
        .map(|s| offline_cells(s, false))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| violation(concurrent_name, e))?;

    // The server side: fresh journal dir, two workers.
    let dir = journal_dir.join(format!("serve-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::new(&dir);
    config.jobs = 2;
    config.quiet = true;
    let server = Server::bind(config).map_err(|e| violation(&single_name, format!("bind: {e}")))?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let got_single = serve_cells(addr, &single);
    let got_concurrent: Vec<Result<Vec<(String, String)>, String>> = std::thread::scope(|s| {
        let streams: Vec<_> = concurrent
            .iter()
            .map(|spec| s.spawn(move || serve_cells(addr, spec)))
            .collect();
        streams
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_owned()))
            })
            .collect()
    });
    // Archival runs on the worker thread right after a run's final cell
    // is published, so give it a few polls before calling it missing.
    let runs = 1 + concurrent.len() as u64;
    let archived = (0..50).any(|_| {
        let done = client::stats(addr).is_ok_and(|stats| {
            stats
                .get("runs_archived_index")
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
                >= runs
        });
        if !done {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        done
    });
    let _ = client::shutdown(addr);
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&dir);

    got_single
        .map_err(|e| format!("serve round trip failed: {e}"))
        .and_then(|got| compare(&got, &want_single))
        .map_err(|e| violation(&single_name, e))?;
    for (got, want) in got_concurrent.into_iter().zip(&want_concurrent) {
        got.map_err(|e| format!("serve round trip failed: {e}"))
            .and_then(|got| compare(&got, want))
            .map_err(|e| violation(concurrent_name, e))?;
    }
    if !archived {
        return Err(violation(
            "archival",
            format!(
                "fewer than {runs} completed runs were archived: cell results stay \
                 resident after the journal sealed"
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_matches_offline_at_small_budget() {
        check_serve_determinism(1_500, &std::env::temp_dir()).unwrap();
    }
}
