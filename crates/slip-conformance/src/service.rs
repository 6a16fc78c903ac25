//! Server-determinism check: a cell executed by the `slip serve`
//! daemon must be bit-identical to the same cell executed by a plain
//! offline `slip sweep`.
//!
//! The serve path differs from the offline path in every way that
//! could plausibly leak into results — a shared worker pool, the
//! server-wide trace LRU, journal persistence, JSON round trips over
//! TCP — so this check boots a real loopback server, streams a small
//! sweep through it, and compares the payloads byte for byte against
//! [`SuiteResults::run_with`] and against each cell's solo run on the
//! verbatim reference hot path (`reference_hot_path = true`). The grid
//! is one benchmark under every policy on two workers, so the server
//! splits the benchmark into two fused groups replaying one cached
//! trace. The check also requires the server to *archive* the
//! completed run — release its in-memory cell results once the journal
//! holds them — which the stats endpoint reports.

use crate::invariants::Violation;
use sim_engine::codec;
use sim_engine::experiments::suite::SweepConfig;
use sim_engine::experiments::SuiteResults;
use sim_engine::system::run_workload_with_warmup;
use slip_serve::{client, Server, ServerConfig, SweepSpec};
use std::path::Path;

/// Boots a loopback server, streams `gcc` × every policy through it,
/// and compares every cell byte for byte against the offline sweep and
/// the reference hot path, then requires the completed run archived
/// (results dropped from memory, journal authoritative). `journal_dir`
/// holds the throwaway server journals.
pub fn check_serve_determinism(accesses: u64, journal_dir: &Path) -> Result<(), Violation> {
    let policies = ["baseline", "slip", "slip-abp", "nurapid", "lru-pea"];
    let violation = |detail: String| Violation {
        invariant: "serve-determinism",
        scenario: format!("gcc x {policies:?} @ {accesses} accesses via loopback serve"),
        step: None,
        detail,
    };

    let spec = SweepSpec {
        benchmarks: vec!["gcc".into()],
        policies: policies.iter().map(|&p| p.to_owned()).collect(),
        accesses,
        warmup: 0,
        topology: None,
    };
    let options = spec
        .suite_options()
        .map_err(|e| violation(format!("spec does not resolve: {e}")))?;

    // Offline ground truth, through the exact path `slip sweep` uses.
    let offline = SuiteResults::run_with(options.clone(), &SweepConfig::with_jobs(2))
        .map_err(|e| violation(format!("offline sweep failed: {e}")))?;

    // The server side: fresh journal dir, two workers, one submission.
    let dir = journal_dir.join(format!("serve-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::new(&dir);
    config.jobs = 2;
    config.quiet = true;
    let server = Server::bind(config).map_err(|e| violation(format!("bind: {e}")))?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let streamed = (|| -> Result<Vec<(String, String)>, String> {
        let mut stream = client::submit(addr, &spec).map_err(|e| e.to_string())?;
        let cells = stream.collect_cells().map_err(|e| e.to_string())?;
        Ok(cells
            .into_iter()
            .map(|(_, key, payload)| (key, payload.to_json()))
            .collect())
    })();
    // Archival runs on the worker thread right after the final cell is
    // published, so give it a few polls before calling it missing.
    let archived = (0..50).any(|_| {
        let done = client::stats(addr).is_ok_and(|stats| {
            stats
                .get("runs_archived_index")
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
                >= 1
        });
        if !done {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        done
    });
    let _ = client::shutdown(addr);
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&dir);
    let streamed = streamed.map_err(|e| violation(format!("serve round trip failed: {e}")))?;

    let mut expected = Vec::new();
    for &bench in &options.benchmarks {
        let workload = workloads::workload(bench).expect("known benchmark");
        for &policy in &options.policies {
            let want = codec::encode_result(offline.get(bench, policy)).to_json();
            let mut reference = options.cell_config(policy);
            reference.reference_hot_path = true;
            let solo = run_workload_with_warmup(reference, &workload, accesses, 0);
            if codec::encode_result(&solo).to_json() != want {
                return Err(violation(format!(
                    "offline cell {bench}/{policy} differs from the reference hot path"
                )));
            }
            expected.push((options.cell_key(bench, policy), want));
        }
    }
    if streamed.len() != expected.len() {
        return Err(violation(format!(
            "server streamed {} cells, offline sweep has {}",
            streamed.len(),
            expected.len()
        )));
    }
    for ((got_key, got), (want_key, want)) in streamed.iter().zip(&expected) {
        if got_key != want_key {
            return Err(violation(format!(
                "cell order differs: server sent {got_key:?}, offline has {want_key:?}"
            )));
        }
        if got != want {
            return Err(violation(format!(
                "cell {want_key} differs:\n    serve:   {got}\n    offline: {want}"
            )));
        }
    }
    if !archived {
        return Err(violation(
            "completed run was never archived: cell results stay resident after the \
             journal sealed"
                .to_owned(),
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
