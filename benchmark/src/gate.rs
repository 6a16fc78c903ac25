//! The correctness gate: untimed checks after each timed phase. Every
//! failed check marks the operations it covers as failed.

use crate::serve::Outcome;
use crate::workload::{derive, CellDef, Plan};
use sim_engine::codec;
use sim_engine::config::PolicyKind;
use sim_engine::SimResult;
use std::collections::HashMap;
use sweep_runner::json::Value;

/// One simulation result reported by a workload child.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Operation (cell run or sweep) the result came from.
    pub op: u64,
    pub label: String,
    /// The encoded `SimResult` exactly as received.
    pub text: String,
}

/// The verdict: named checks and the operations they failed.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checks: Vec<(String, bool)>,
    pub failed: u64,
}

impl Verdict {
    fn check(&mut self, name: impl Into<String>, ok: bool, failed_ops: u64) {
        if !ok {
            self.failed += failed_ops.max(1);
        }
        self.checks.push((name.into(), ok));
    }

    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn encoded(r: &SimResult) -> String {
    codec::encode_result(r).to_json()
}

/// Runs `jobs` on two threads, keeping their order.
fn in_parallel<T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
    let (mut evens, mut odds) = (Vec::new(), Vec::new());
    for (i, job) in jobs.into_iter().enumerate() {
        if i % 2 == 0 {
            evens.push(job);
        } else {
            odds.push(job);
        }
    }
    let (evens, odds) = std::thread::scope(|s| {
        let h = s.spawn(move || odds.into_iter().map(|f| f()).collect::<Vec<T>>());
        let evens: Vec<T> = evens.into_iter().map(|f| f()).collect();
        (evens, h.join().expect("gate thread panicked"))
    });
    let mut odds = odds.into_iter();
    let mut out = Vec::new();
    for e in evens {
        out.push(e);
        out.extend(odds.next());
    }
    out
}

/// Cell workloads: every round agrees with the first, and the first
/// round is byte-identical to the reference hot path.
pub fn cells(cells: &[CellDef], reported: &[Reported]) -> Verdict {
    let mut v = Verdict::default();
    let n = cells.len();
    for (i, r) in reported.iter().enumerate().skip(n) {
        let first = &reported[i % n];
        v.check(
            format!("round {} {} matches round 0", i / n, r.label),
            r.text == first.text,
            1,
        );
    }
    let reference: Vec<Result<SimResult, String>> = in_parallel(
        cells
            .iter()
            .map(|c| Box::new(move || c.run(c.config(true))) as Box<dyn FnOnce() -> _ + Send>)
            .collect(),
    );
    for ((cell, r), reference) in cells.iter().zip(reported).zip(reference) {
        let ok = matches!(&reference, Ok(ref_r) if encoded(ref_r) == r.text);
        v.check(
            format!("{} matches reference_hot_path", cell.label()),
            ok,
            1,
        );
    }
    v
}

/// The paper's headline savings (SLIP, SLIP+ABP × L2, L3) and the
/// figure-oracle bands they must sit in at the 1M calibration
/// (`slip-conformance` oracle rows).
const HEADLINES: [(PolicyKind, bool, f64, f64, f64); 4] = [
    (PolicyKind::Slip, true, 0.21, 0.02, 0.30),
    (PolicyKind::SlipAbp, true, 0.35, 0.25, 0.60),
    (PolicyKind::Slip, false, 0.13, 0.02, 0.30),
    (PolicyKind::SlipAbp, false, 0.22, 0.25, 0.60),
];

/// Mean absolute error, in percentage points, of the four headline
/// savings against the paper, and whether each sits in its band.
pub fn headline_savings(
    results: &HashMap<(String, PolicyKind), SimResult>,
) -> (f64, Vec<(String, f64, bool)>) {
    let benches: Vec<&String> = {
        let mut b: Vec<&String> = results.keys().map(|(b, _)| b).collect();
        b.sort();
        b.dedup();
        b
    };
    let mut err = 0.0;
    let mut rows = Vec::new();
    for (policy, l2, paper, lo, hi) in HEADLINES {
        let savings: Vec<f64> = benches
            .iter()
            .filter_map(|b| {
                let r = results.get(&((*b).clone(), policy))?;
                let base = results.get(&((*b).clone(), PolicyKind::Baseline))?;
                Some(if l2 {
                    1.0 - r.l2_total_energy() / base.l2_total_energy()
                } else {
                    1.0 - r.l3_total_energy() / base.l3_total_energy()
                })
            })
            .collect();
        let mean = savings.iter().sum::<f64>() / savings.len().max(1) as f64;
        err += (mean - paper).abs() * 100.0 / 4.0;
        let level = if l2 { "L2" } else { "L3" };
        rows.push((
            format!("mean {level} saving, {}", policy.label()),
            mean,
            !savings.is_empty() && (lo..=hi).contains(&mean),
        ));
    }
    (err, rows)
}

/// `sweep_paper`: sweeps agree with each other, one seeded cell per
/// benchmark is byte-identical to `run_workload_with_warmup` on the
/// reference path, and (at the 1M calibration) the headline savings sit
/// inside the figure-oracle bands.
pub fn sweep(plan: &Plan, seed: u64, reported: &[Reported]) -> (Verdict, f64) {
    let mut v = Verdict::default();
    let options = plan.suite_options().expect("sweep plan");
    let first: HashMap<&str, &Reported> = reported
        .iter()
        .filter(|r| r.op == 0)
        .map(|r| (r.label.as_str(), r))
        .collect();
    for r in reported.iter().filter(|r| r.op > 0) {
        let same = first
            .get(r.label.as_str())
            .is_some_and(|f| f.text == r.text);
        v.check(
            format!("sweep {} {} matches sweep 0", r.op, r.label),
            same,
            1,
        );
    }
    let sample: Vec<(&'static str, PolicyKind)> = options
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let k = derive(seed, 0x40 + i as u64) % options.policies.len() as u64;
            (b, options.policies[k as usize])
        })
        .collect();
    let reference: Vec<String> = in_parallel(
        sample
            .iter()
            .map(|&(bench, policy)| {
                let options = &options;
                Box::new(move || {
                    let mut config = options.cell_config(policy);
                    config.reference_hot_path = true;
                    let spec = workloads::workload(bench).expect("suite benchmark");
                    encoded(&sim_engine::system::run_workload_with_warmup(
                        config,
                        &spec,
                        options.accesses,
                        options.warmup,
                    ))
                }) as Box<dyn FnOnce() -> String + Send>
            })
            .collect(),
    );
    for (&(bench, policy), reference) in sample.iter().zip(reference) {
        let label = format!("{bench}/{}", policy.label());
        let ok = first
            .get(label.as_str())
            .is_some_and(|r| r.text == reference);
        v.check(format!("{label} matches reference_hot_path"), ok, 1);
    }
    let decoded: HashMap<(String, PolicyKind), SimResult> = first
        .values()
        .filter_map(|r| {
            let result = codec::decode_result(&Value::parse(&r.text).ok()?)?;
            Some(((result.workload.clone(), result.policy), result))
        })
        .collect();
    let (err, rows) = headline_savings(&decoded);
    if options.accesses >= 1_000_000 {
        for (label, mean, ok) in rows {
            v.check(format!("{label} = {mean:.4} in the oracle band"), ok, 1);
        }
    }
    (v, err)
}

/// `serve_mix`: every submission completes, every repeat streams the
/// payloads of the spec it repeats, and every 8th fresh submission is
/// byte-identical to the offline library sweep of its spec.
pub fn serve(outcomes: &[Outcome]) -> Verdict {
    let mut v = Verdict::default();
    let errors: Vec<&Outcome> = outcomes.iter().filter(|o| o.error.is_some()).collect();
    v.check(
        format!(
            "{} of {} submissions completed{}",
            outcomes.len() - errors.len(),
            outcomes.len(),
            errors
                .first()
                .and_then(|o| o.error.as_deref())
                .map(|e| format!(" (first error: {e})"))
                .unwrap_or_default()
        ),
        errors.is_empty(),
        errors.len() as u64,
    );
    let by_position: HashMap<(usize, usize), &Outcome> = outcomes
        .iter()
        .map(|o| ((o.sub.client, o.sub.index), o))
        .collect();
    let text = |o: &Outcome| -> Vec<(String, String)> {
        o.cells
            .iter()
            .map(|(k, p)| (k.clone(), p.to_json()))
            .collect()
    };
    let repeats_ok = outcomes
        .iter()
        .filter(|o| o.error.is_none())
        .filter_map(|o| Some((o, by_position.get(&(o.sub.client, o.sub.repeat_of?))?)))
        .filter(|(o, fresh)| text(o) != text(fresh))
        .count();
    v.check(
        "repeats stream the payloads of the submission they repeat",
        repeats_ok == 0,
        repeats_ok as u64,
    );
    let fresh: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.sub.repeat_of.is_none())
        .collect();
    let checked: Vec<&Outcome> = fresh.iter().copied().step_by(8).collect();
    let offline: Vec<Result<Vec<(String, String)>, String>> = in_parallel(
        checked
            .iter()
            .map(|o| {
                let spec = &o.sub.spec;
                Box::new(move || {
                    let options = spec.suite_options()?;
                    let suite = sim_engine::experiments::suite::SuiteResults::run_with(
                        options.clone(),
                        &sim_engine::SweepConfig::serial(),
                    )
                    .map_err(|e| e.to_string())?;
                    let mut cells = Vec::new();
                    for &b in &options.benchmarks {
                        for &p in &options.policies {
                            cells.push((options.cell_key(b, p), encoded(suite.get(b, p))));
                        }
                    }
                    Ok(cells)
                }) as Box<dyn FnOnce() -> _ + Send>
            })
            .collect(),
    );
    let mismatched = checked
        .iter()
        .zip(&offline)
        .filter(|(o, off)| !matches!(off, Ok(cells) if *cells == text(o)))
        .count();
    v.check(
        format!(
            "{} sampled fresh submissions match the offline sweep",
            checked.len()
        ),
        mismatched == 0,
        mismatched as u64,
    );
    v
}
