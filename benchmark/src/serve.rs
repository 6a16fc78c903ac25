//! The `serve_mix` load: a closed loop of two client connections from
//! this process against a `slip serve` daemon child.
//!
//! Each client alternates fresh submissions — two seeded benchmarks ×
//! {baseline, SLIP+ABP} at a unique trace length, so every cell executes
//! — with repeats of one of its own earlier, completed specs, which the
//! server answers from its journal archive. A client sends its next
//! submission only when the previous stream has ended.

use crate::spans::Tracer;
use crate::workload::{derive, Scale};
use cache_sim::rng::SplitMix64;
use slip_serve::SweepSpec;
use std::time::Instant;
use sweep_runner::json::Value;

/// Client connections of the load generator.
pub const CLIENTS: usize = 2;

/// One submission of the load.
#[derive(Debug, Clone)]
pub struct Submission {
    pub client: usize,
    /// Position in the client's sequence.
    pub index: usize,
    /// For a repeat, the index of the fresh submission it repeats.
    pub repeat_of: Option<usize>,
    pub spec: SweepSpec,
}

/// The whole load, generated from the seed before any connection opens.
#[derive(Debug, Clone)]
pub struct Load {
    pub per_client: Vec<Vec<Submission>>,
    pub accesses: u64,
}

impl Load {
    /// `seconds × 60` submissions, half of them fresh: a fresh
    /// submission and its repeat take ~65 ms on a 2-vCPU host.
    pub fn new(seed: u64, scale: Scale) -> Load {
        let (per_client, accesses) = if scale.smoke {
            (4, 5_000)
        } else {
            ((scale.seconds as usize * 60 / CLIENTS).max(2), 50_000)
        };
        let names = workloads::BENCHMARK_NAMES;
        let per_client = (0..CLIENTS)
            .map(|client| {
                let mut rng = SplitMix64::new(derive(seed, 0x30 + client as u64));
                let mut subs: Vec<Submission> = Vec::with_capacity(per_client);
                for index in 0..per_client {
                    let sub = if index % 2 == 0 {
                        let a = rng.next_below(names.len() as u64) as usize;
                        let b =
                            (a + 1 + rng.next_below(names.len() as u64 - 1) as usize) % names.len();
                        Submission {
                            client,
                            index,
                            repeat_of: None,
                            spec: SweepSpec {
                                benchmarks: vec![names[a].to_owned(), names[b].to_owned()],
                                policies: vec!["baseline".to_owned(), "SLIP+ABP".to_owned()],
                                // Unique across the whole load.
                                accesses: accesses + (client * per_client + index) as u64,
                                warmup: 0,
                                topology: None,
                            },
                        }
                    } else {
                        let of = 2 * rng.next_below(index.div_ceil(2) as u64) as usize;
                        Submission {
                            client,
                            index,
                            repeat_of: Some(of),
                            spec: subs[of].spec.clone(),
                        }
                    };
                    subs.push(sub);
                }
                subs
            })
            .collect();
        Load {
            per_client,
            accesses,
        }
    }

    /// The submission that ends a daemon's set-up: the first fresh spec
    /// one access shorter, a length no submission of the load uses, so
    /// it executes and leaves nothing the load could reuse.
    pub fn warmup(&self) -> Submission {
        let first = &self.per_client[0][0];
        let mut spec = first.spec.clone();
        spec.accesses = self.accesses - 1;
        Submission {
            spec,
            ..first.clone()
        }
    }

    pub fn describe(&self) -> Value {
        let total: usize = self.per_client.iter().map(Vec::len).sum();
        Value::object()
            .with("clients", Value::u64(CLIENTS as u64))
            .with("submissions", Value::u64(total as u64))
            .with("cells_per_submission", Value::u64(4))
            .with("fresh_accesses_from", Value::u64(self.accesses))
    }
}

/// What one submission observed.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub sub: Submission,
    pub latency_ms: f64,
    /// Submit until the `hello` frame.
    pub connect_ms: f64,
    /// `hello` until the first cell frame.
    pub first_cell_ms: f64,
    /// Gaps between later cell frames.
    pub gaps_ms: Vec<f64>,
    pub cells: Vec<(String, Value)>,
    pub executed: u64,
    pub error: Option<String>,
}

/// Whether a submission records spans in a traced run: alternate
/// fresh+repeat pairs, so traced and untraced fresh latencies compare.
pub fn traced(sub: &Submission) -> bool {
    (sub.index / 2) % 2 == 1
}

/// Runs the load against `addr`, one thread per client, recording spans
/// of every [`traced`] submission when `trace` is set. Returns the
/// outcomes, the spans and the load's wall seconds.
pub fn run_load(
    addr: &str,
    load: &Load,
    trace: bool,
    epoch: Instant,
) -> (Vec<Outcome>, Vec<crate::spans::Span>, f64) {
    let started = Instant::now();
    let per_client: Vec<(Vec<Outcome>, Vec<crate::spans::Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = load
            .per_client
            .iter()
            .enumerate()
            .map(|(client, subs)| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(false, epoch, (client as u64 + 1) << 32);
                    let outcomes = subs
                        .iter()
                        .map(|sub| {
                            let request = (sub.client * subs.len() + sub.index) as u64;
                            tracer.set_enabled(trace && traced(sub));
                            submit(addr, sub, &mut tracer, request)
                        })
                        .collect();
                    (outcomes, tracer.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut outcomes = Vec::new();
    let mut spans = Vec::new();
    for (o, s) in per_client {
        outcomes.extend(o);
        spans.extend(s);
    }
    (outcomes, spans, wall)
}

/// Runs the load's warm-up submission against `addr`; every one of its
/// cells must execute.
pub fn warm_up(addr: &str, load: &Load) -> Result<(), String> {
    let sub = load.warmup();
    let outcome = submit(addr, &sub, &mut Tracer::new(false, Instant::now(), 0), 0);
    if let Some(e) = outcome.error {
        return Err(format!("warm-up submission: {e}"));
    }
    let cells = (sub.spec.benchmarks.len() * sub.spec.policies.len()) as u64;
    if outcome.executed != cells {
        return Err(format!(
            "warm-up submission executed {} of {cells} cells",
            outcome.executed
        ));
    }
    Ok(())
}

fn submit(addr: &str, sub: &Submission, tracer: &mut Tracer, request: u64) -> Outcome {
    let mut out = Outcome {
        sub: sub.clone(),
        latency_ms: 0.0,
        connect_ms: 0.0,
        first_cell_ms: 0.0,
        gaps_ms: Vec::new(),
        cells: Vec::new(),
        executed: 0,
        error: None,
    };
    let started = Instant::now();
    tracer.begin("slip-serve.submit", request);
    let result = stream(addr, sub, tracer, request, &mut out, started);
    tracer.end();
    out.latency_ms = started.elapsed().as_secs_f64() * 1e3;
    out.error = result.err();
    out
}

fn stream(
    addr: &str,
    sub: &Submission,
    tracer: &mut Tracer,
    request: u64,
    out: &mut Outcome,
    started: Instant,
) -> Result<(), String> {
    let mut stream = tracer
        .span("slip-serve.connect", request, || {
            slip_serve::client::submit(addr, &sub.spec)
        })
        .map_err(|e| format!("submit: {e}"))?;
    out.connect_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut last = Instant::now();
    loop {
        let first = out.cells.is_empty();
        let name = if first {
            "slip-serve.first_cell"
        } else {
            "slip-serve.cell"
        };
        let cell = tracer
            .span(name, request, || stream.next_cell())
            .map_err(|e| format!("stream: {e}"))?;
        let Some((_, key, payload)) = cell else {
            break;
        };
        let gap = last.elapsed().as_secs_f64() * 1e3;
        last = Instant::now();
        if first {
            out.first_cell_ms = gap;
        } else {
            out.gaps_ms.push(gap);
        }
        out.cells.push((key, payload));
    }
    let done = stream.done().ok_or("stream ended without done")?;
    out.executed = done.executed;
    if out.cells.len() as u64 != stream.cells {
        return Err(format!(
            "{} of {} cells streamed",
            out.cells.len(),
            stream.cells
        ));
    }
    Ok(())
}

/// A counter delta of the server's `stats` frame.
pub fn stats_delta(before: &Value, after: &Value, path: &[&str]) -> f64 {
    let get = |v: &Value| {
        path.iter()
            .try_fold(v, |v, k| v.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    get(after).saturating_sub(get(before)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_alternates_fresh_and_repeats_of_own_earlier_specs() {
        let load = Load::new(
            9,
            Scale {
                seconds: 10,
                smoke: false,
            },
        );
        let mut lengths = std::collections::HashSet::new();
        assert!(lengths.insert(load.warmup().spec.accesses));
        for subs in &load.per_client {
            assert_eq!(subs.len(), 300);
            for s in subs {
                match s.repeat_of {
                    None => {
                        assert_eq!(s.index % 2, 0);
                        assert_ne!(s.spec.benchmarks[0], s.spec.benchmarks[1]);
                        assert!(lengths.insert(s.spec.accesses), "fresh specs are unique");
                    }
                    Some(of) => {
                        assert!(of < s.index && of % 2 == 0);
                        assert_eq!(s.spec, subs[of].spec);
                    }
                }
            }
        }
    }
}
