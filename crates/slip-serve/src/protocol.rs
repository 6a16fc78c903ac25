//! The `slip serve` wire protocol: JSONL frames over TCP.
//!
//! One connection carries one request (a single JSON object line,
//! client → server) followed by a stream of response frames (one JSON
//! object per line, server → client). The codec is
//! [`sweep_runner::json`], so framing inherits its guarantees: exact
//! `u64` round-trips and deterministic serialization — the bytes a
//! client receives for a cell are byte-identical to the payload line an
//! offline `slip sweep` journals for the same cell.
//!
//! Malformed input is a value, not a panic: both [`Request::parse`] and
//! [`Frame::parse`] return `Err` on truncated, foreign, or
//! wrongly-typed frames, and the server answers with an
//! [`Frame::Error`] rather than dying.
//!
//! ## Requests
//!
//! ```json
//! {"op":"submit","spec":{"benchmarks":["gcc"],"policies":["SLIP"],"accesses":30000,"warmup":0}}
//! {"op":"resume","run_id":"r-9a1b7c33","ack":3}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! ## Response frames
//!
//! ```json
//! {"frame":"hello","run_id":"r-9a1b7c33","cells":10,"from":3,"joined":true}
//! {"frame":"cell","index":3,"key":"gcc/SLIP@acc=30000,...","payload":{...}}
//! {"frame":"done","run_id":"r-9a1b7c33","cells":10,"executed":7,"restored":3}
//! {"frame":"stats", ...server counters...}
//! {"frame":"error","message":"unknown workload \"gc\""}
//! {"frame":"bye"}
//! ```

use energy_model::HierarchySpec;
use sim_engine::config::PolicyKind;
use sim_engine::experiments::SuiteOptions;
use sweep_runner::json::Value;

/// FNV-1a 64-bit hash; tiny, stable, and collision-resistant enough to
/// name runs (the canonical spec text is the real identity — the hash
/// only keys the in-memory map and the journal filename).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a client wants swept. The wire shape mirrors the `slip sweep`
/// CLI: named benchmarks, named policies (baseline is always added),
/// measured accesses, unmeasured warmup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Benchmark names; empty means the paper's full set.
    pub benchmarks: Vec<String>,
    /// Policy labels; empty means all policies.
    pub policies: Vec<String>,
    /// Measured accesses per benchmark.
    pub accesses: u64,
    /// Unmeasured warmup accesses.
    pub warmup: u64,
    /// Hierarchy spec: a built-in node name (`45nm`, `22nm`,
    /// `stt-llc`) or full spec *text* (the server never reads client
    /// file paths); `None` runs the compiled-in 45 nm configuration.
    pub topology: Option<String>,
}

impl SweepSpec {
    /// Resolves [`SweepSpec::topology`] into a parsed hierarchy spec.
    /// A value containing a newline is treated as inline spec text;
    /// anything else must name a built-in node.
    pub fn topology_spec(&self) -> Result<Option<HierarchySpec>, String> {
        let Some(arg) = &self.topology else {
            return Ok(None);
        };
        if arg.contains('\n') {
            return HierarchySpec::parse(arg)
                .map(Some)
                .map_err(|e| format!("spec.topology: {e}"));
        }
        HierarchySpec::builtin(arg).map(Some).ok_or_else(|| {
            format!("spec.topology: unknown node {arg:?} (send spec text for custom hierarchies)")
        })
    }
    /// Resolves the spec against the workload/policy registries,
    /// producing the identical [`SuiteOptions`] an offline `slip sweep`
    /// of the same parameters would run. Unknown names are an error —
    /// never a silent skip.
    pub fn suite_options(&self) -> Result<SuiteOptions, String> {
        let benchmarks: Vec<&'static str> = if self.benchmarks.is_empty() {
            workloads::BENCHMARK_NAMES.to_vec()
        } else {
            self.benchmarks
                .iter()
                .map(|n| {
                    workloads::BENCHMARK_NAMES
                        .iter()
                        .copied()
                        .find(|b| b == n)
                        .ok_or_else(|| format!("unknown workload {n:?}"))
                })
                .collect::<Result<_, _>>()?
        };
        let mut options = SuiteOptions::paper_full()
            .with_benchmarks(&benchmarks)
            .with_accesses(self.accesses)
            .with_warmup(self.warmup);
        options.variant.topology = self.topology_spec()?;
        if !self.policies.is_empty() {
            let policies: Vec<PolicyKind> = self
                .policies
                .iter()
                .map(|p| PolicyKind::parse(p).ok_or_else(|| format!("unknown policy {p:?}")))
                .collect::<Result<_, _>>()?;
            options = options.with_policies(&policies);
        }
        Ok(options)
    }

    /// The canonical form two textually different but equivalent specs
    /// share: resolved benchmark names and policy labels in sweep
    /// order. Two clients submitting equivalent specs therefore hash to
    /// the same run and share one execution.
    pub fn canonical(&self) -> Result<Value, String> {
        let options = self.suite_options()?;
        let mut canonical = Value::object()
            .with(
                "benchmarks",
                Value::Array(options.benchmarks.iter().map(|b| Value::str(*b)).collect()),
            )
            .with(
                "policies",
                Value::Array(
                    options
                        .policies
                        .iter()
                        .map(|p| Value::str(p.label()))
                        .collect(),
                ),
            )
            .with("accesses", Value::u64(self.accesses))
            .with("warmup", Value::u64(self.warmup));
        if let Some(spec) = self.topology_spec()? {
            // Name plus canonical-text fingerprint: a built-in name and
            // the identical inline text canonicalize differently by
            // name, but any two textual variants of one hierarchy (one
            // sent as text, one re-sent with different comments or
            // whitespace) share the fingerprint and therefore the run.
            canonical = canonical.with(
                "topology",
                Value::str(format!("{}#{:016x}", spec.name, spec.fingerprint())),
            );
        }
        Ok(canonical)
    }

    /// The run id: `r-` plus the FNV-1a hash of the canonical spec.
    pub fn run_id(&self) -> Result<String, String> {
        Ok(format!(
            "r-{:016x}",
            fnv1a(self.canonical()?.to_json().as_bytes())
        ))
    }

    /// Wire encoding.
    pub fn to_value(&self) -> Value {
        let out = Value::object()
            .with(
                "benchmarks",
                Value::Array(
                    self.benchmarks
                        .iter()
                        .map(|s| Value::str(s.as_str()))
                        .collect(),
                ),
            )
            .with(
                "policies",
                Value::Array(
                    self.policies
                        .iter()
                        .map(|s| Value::str(s.as_str()))
                        .collect(),
                ),
            )
            .with("accesses", Value::u64(self.accesses))
            .with("warmup", Value::u64(self.warmup));
        match &self.topology {
            Some(t) => out.with("topology", Value::str(t.as_str())),
            None => out,
        }
    }

    /// Wire decoding; missing or wrongly-typed fields are an error.
    pub fn parse(v: &Value) -> Result<SweepSpec, String> {
        let strings = |key: &str| -> Result<Vec<String>, String> {
            match v.get(key) {
                None => Ok(Vec::new()),
                Some(arr) => arr
                    .as_array()
                    .ok_or_else(|| format!("spec.{key} must be an array"))?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| format!("spec.{key} entries must be strings"))
                    })
                    .collect(),
            }
        };
        Ok(SweepSpec {
            benchmarks: strings("benchmarks")?,
            policies: strings("policies")?,
            accesses: v
                .get("accesses")
                .and_then(Value::as_u64)
                .ok_or("spec.accesses must be a u64")?,
            warmup: v.get("warmup").and_then(Value::as_u64).unwrap_or(0),
            // Absent means the default topology — specs journaled
            // before the field existed keep parsing.
            topology: match v.get("topology") {
                None => None,
                Some(t) => Some(
                    t.as_str()
                        .map(str::to_owned)
                        .ok_or("spec.topology must be a string")?,
                ),
            },
        })
    }
}

/// A client request — exactly one per connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or join) the sweep described by the spec and stream every
    /// cell from the beginning.
    Submit(SweepSpec),
    /// Re-attach to a run and stream its cells starting at index `ack`
    /// (the count of cells the client already holds).
    Resume {
        /// Run id from the original hello frame.
        run_id: String,
        /// Cells already received; the stream restarts there.
        ack: u64,
    },
    /// Report server counters (runs, cells, connections, workers).
    Stats,
    /// Drain and stop the server.
    Shutdown,
}

impl Request {
    /// Wire encoding.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Submit(spec) => Value::object()
                .with("op", Value::str("submit"))
                .with("spec", spec.to_value()),
            Request::Resume { run_id, ack } => Value::object()
                .with("op", Value::str("resume"))
                .with("run_id", Value::str(run_id))
                .with("ack", Value::u64(*ack)),
            Request::Stats => Value::object().with("op", Value::str("stats")),
            Request::Shutdown => Value::object().with("op", Value::str("shutdown")),
        }
    }

    /// Parses one request line. Truncated or malformed input is an
    /// `Err`, never a panic.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Value::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
        match v.get("op").and_then(Value::as_str) {
            Some("submit") => Ok(Request::Submit(SweepSpec::parse(
                v.get("spec").ok_or("submit needs a spec")?,
            )?)),
            Some("resume") => Ok(Request::Resume {
                run_id: v
                    .get("run_id")
                    .and_then(Value::as_str)
                    .ok_or("resume needs a run_id")?
                    .to_owned(),
                ack: v.get("ack").and_then(Value::as_u64).unwrap_or(0),
            }),
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(op) => Err(format!("unknown op {op:?}")),
            None => Err("request has no op".to_owned()),
        }
    }
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Stream preamble.
    Hello {
        /// The run's id (reconnect with it to resume).
        run_id: String,
        /// Total cells in the run.
        cells: u64,
        /// First streamed cell index (the client's ack on resume).
        from: u64,
        /// `true` when this request attached to a run another client
        /// had already started (run-level dedup).
        joined: bool,
    },
    /// One completed cell, in cell order. `payload` is the bit-exact
    /// journal payload (`sim_engine::codec::encode_result`).
    Cell {
        /// Cell index within the run, `0..cells`.
        index: u64,
        /// The cell's journal key.
        key: String,
        /// Encoded `SimResult`.
        payload: Value,
    },
    /// Stream end: every cell has been delivered.
    Done {
        /// The run's id.
        run_id: String,
        /// Total cells in the run.
        cells: u64,
        /// Cells this run executed on the pool.
        executed: u64,
        /// Cells restored from the run's journal or another run's
        /// in-flight execution instead of executing (dedup).
        restored: u64,
    },
    /// Server counters (shape owned by the server).
    Stats(Value),
    /// Request failed; the connection closes after this frame.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Acknowledges a shutdown request.
    Bye,
}

impl Frame {
    /// Wire encoding.
    pub fn to_value(&self) -> Value {
        match self {
            Frame::Hello {
                run_id,
                cells,
                from,
                joined,
            } => Value::object()
                .with("frame", Value::str("hello"))
                .with("run_id", Value::str(run_id))
                .with("cells", Value::u64(*cells))
                .with("from", Value::u64(*from))
                .with("joined", Value::Bool(*joined)),
            Frame::Cell {
                index,
                key,
                payload,
            } => Value::object()
                .with("frame", Value::str("cell"))
                .with("index", Value::u64(*index))
                .with("key", Value::str(key))
                .with("payload", payload.clone()),
            Frame::Done {
                run_id,
                cells,
                executed,
                restored,
            } => Value::object()
                .with("frame", Value::str("done"))
                .with("run_id", Value::str(run_id))
                .with("cells", Value::u64(*cells))
                .with("executed", Value::u64(*executed))
                .with("restored", Value::u64(*restored)),
            Frame::Stats(v) => {
                let mut out = Value::object().with("frame", Value::str("stats"));
                if let Value::Object(pairs) = v {
                    // Skip the tag itself so parse → to_value is stable.
                    for (k, val) in pairs.iter().filter(|(k, _)| k != "frame") {
                        out = out.with(k, val.clone());
                    }
                }
                out
            }
            Frame::Error { message } => Value::object()
                .with("frame", Value::str("error"))
                .with("message", Value::str(message)),
            Frame::Bye => Value::object().with("frame", Value::str("bye")),
        }
    }

    /// Parses one response line. Truncated or malformed input is an
    /// `Err`, never a panic.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let v = Value::parse(line).map_err(|e| format!("bad frame JSON: {e}"))?;
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("frame field {key} must be a u64"))
        };
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("frame field {key} must be a string"))
        };
        match v.get("frame").and_then(Value::as_str) {
            Some("hello") => Ok(Frame::Hello {
                run_id: s("run_id")?,
                cells: u("cells")?,
                from: u("from")?,
                joined: v.get("joined").and_then(Value::as_bool).unwrap_or(false),
            }),
            Some("cell") => Ok(Frame::Cell {
                index: u("index")?,
                key: s("key")?,
                payload: v.get("payload").ok_or("cell frame has no payload")?.clone(),
            }),
            Some("done") => Ok(Frame::Done {
                run_id: s("run_id")?,
                cells: u("cells")?,
                executed: u("executed")?,
                restored: u("restored")?,
            }),
            Some("stats") => Ok(Frame::Stats(v)),
            Some("error") => Ok(Frame::Error {
                message: s("message")?,
            }),
            Some("bye") => Ok(Frame::Bye),
            Some(f) => Err(format!("unknown frame {f:?}")),
            None => Err("line has no frame tag".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: the workspace's standard seeded generator for
    /// property tests (no external proptest crate offline).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Adversarial strings: quotes, backslashes, control bytes,
        /// multi-byte unicode, embedded braces and newline-escapes.
        fn string(&mut self) -> String {
            const POOL: &[&str] = &[
                "\"",
                "\\",
                "\u{0}",
                "\u{1f}",
                "\n",
                "\t",
                "\r",
                "{",
                "}",
                "[",
                "]",
                ":",
                ",",
                "é",
                "日本語",
                "🦀",
                "\u{7f}",
                "a",
                " ",
                "\u{2028}",
                "end\\\"quote",
            ];
            let len = (self.next() % 12) as usize;
            (0..len)
                .map(|_| POOL[(self.next() as usize) % POOL.len()])
                .collect()
        }

        /// u64 edge values and random values.
        fn u64(&mut self) -> u64 {
            const EDGES: [u64; 8] = [
                0,
                1,
                (1 << 53) - 1,
                1 << 53,
                (1 << 53) + 1,
                u64::MAX - 1,
                u64::MAX,
                42,
            ];
            if self.next().is_multiple_of(2) {
                EDGES[(self.next() as usize) % EDGES.len()]
            } else {
                self.next()
            }
        }
    }

    fn arbitrary_spec(rng: &mut Rng) -> SweepSpec {
        let names = |rng: &mut Rng| {
            (0..(rng.next() % 4))
                .map(|_| rng.string())
                .collect::<Vec<_>>()
        };
        SweepSpec {
            benchmarks: names(rng),
            policies: names(rng),
            accesses: rng.u64(),
            warmup: rng.u64(),
            topology: match rng.next() % 3 {
                0 => None,
                1 => Some("stt-llc".to_owned()),
                _ => Some(rng.string()),
            },
        }
    }

    #[test]
    fn requests_round_trip_for_adversarial_inputs() {
        let mut rng = Rng(0x511b);
        for i in 0..500 {
            let req = match rng.next() % 4 {
                0 => Request::Submit(arbitrary_spec(&mut rng)),
                1 => Request::Resume {
                    run_id: rng.string(),
                    ack: rng.u64(),
                },
                2 => Request::Stats,
                _ => Request::Shutdown,
            };
            let line = req.to_value().to_json();
            let back = Request::parse(&line).unwrap_or_else(|e| panic!("iter {i}: {e}\n{line}"));
            assert_eq!(back, req, "iter {i}: {line}");
        }
    }

    #[test]
    fn frames_round_trip_for_adversarial_inputs() {
        let mut rng = Rng(0xf00d);
        for i in 0..500 {
            let frame = match rng.next() % 6 {
                0 => Frame::Hello {
                    run_id: rng.string(),
                    cells: rng.u64(),
                    from: rng.u64(),
                    joined: rng.next().is_multiple_of(2),
                },
                1 => Frame::Cell {
                    index: rng.u64(),
                    key: rng.string(),
                    payload: Value::object()
                        .with("energy", Value::u64(rng.u64()))
                        .with("tag", Value::str(rng.string())),
                },
                2 => Frame::Done {
                    run_id: rng.string(),
                    cells: rng.u64(),
                    executed: rng.u64(),
                    restored: rng.u64(),
                },
                3 => Frame::Error {
                    message: rng.string(),
                },
                4 => Frame::Bye,
                _ => Frame::Stats(Value::object().with("runs", Value::u64(rng.u64()))),
            };
            let line = frame.to_value().to_json();
            let back = Frame::parse(&line).unwrap_or_else(|e| panic!("iter {i}: {e}\n{line}"));
            // Stats frames carry their whole object through; compare by
            // re-encoding, which is deterministic.
            assert_eq!(back.to_value().to_json(), line, "iter {i}");
            if !matches!(frame, Frame::Stats(_)) {
                assert_eq!(back, frame, "iter {i}: {line}");
            }
        }
    }

    #[test]
    fn truncated_frames_reject_without_panicking() {
        let mut rng = Rng(0xdead);
        let spec = SweepSpec {
            benchmarks: vec!["gcc".into(), rng.string()],
            policies: vec!["SLIP".into()],
            accesses: u64::MAX,
            warmup: (1 << 53) + 1,
            topology: Some("node x\nwire \"quoted\n".into()),
        };
        let lines = [
            Request::Submit(spec).to_value().to_json(),
            Frame::Cell {
                index: 3,
                key: "gcc/SLIP@acc=1,\"quoted\"".into(),
                payload: Value::object().with("x", Value::u64(u64::MAX)),
            }
            .to_value()
            .to_json(),
        ];
        for line in &lines {
            // Every strict prefix must parse to Err, never panic. (Byte
            // prefixes may split UTF-8; slice on char boundaries.)
            let cuts: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
            for &cut in &cuts[..cuts.len()] {
                if cut == 0 {
                    continue;
                }
                let prefix = &line[..cut];
                assert!(Request::parse(prefix).is_err(), "prefix parsed: {prefix}");
                assert!(Frame::parse(prefix).is_err(), "prefix parsed: {prefix}");
            }
        }
        // Wrong types and missing fields are errors too.
        for bad in [
            "{\"op\":\"submit\"}",
            "{\"op\":\"submit\",\"spec\":{\"accesses\":\"many\"}}",
            "{\"op\":\"resume\"}",
            "{\"op\":17}",
            "{}",
            "null",
            "[1,2,3]",
            "{\"frame\":\"cell\",\"index\":-1,\"key\":\"k\",\"payload\":{}}",
            "{\"frame\":\"cell\",\"index\":1}",
            "{\"frame\":\"hello\"}",
        ] {
            assert!(
                Request::parse(bad).is_err() || Frame::parse(bad).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn equivalent_specs_share_a_run_id() {
        let a = SweepSpec {
            benchmarks: vec!["gcc".into()],
            policies: vec!["SLIP".into()],
            accesses: 1000,
            warmup: 0,
            topology: None,
        };
        // Different text, same canonical run: baseline is implied, and
        // policy parsing is case-insensitive.
        let b = SweepSpec {
            benchmarks: vec!["gcc".into()],
            policies: vec!["baseline".into(), "slip".into()],
            accesses: 1000,
            warmup: 0,
            topology: None,
        };
        assert_eq!(a.run_id().unwrap(), b.run_id().unwrap());
        let c = SweepSpec {
            accesses: 1001,
            ..a.clone()
        };
        assert_ne!(a.run_id().unwrap(), c.run_id().unwrap());
        // Unknown names surface as errors, not silently empty runs.
        let bad = SweepSpec {
            benchmarks: vec!["not-a-benchmark".into()],
            policies: vec![],
            accesses: 1,
            warmup: 0,
            topology: None,
        };
        assert!(bad.run_id().is_err());
    }

    #[test]
    fn topology_enters_the_run_identity() {
        use energy_model::spec::BUILTIN_STT_LLC;
        use energy_model::HierarchySpec;
        let base = SweepSpec {
            benchmarks: vec!["gcc".into()],
            policies: vec!["SLIP".into()],
            accesses: 1000,
            warmup: 0,
            topology: None,
        };
        let named = SweepSpec {
            topology: Some("stt-llc".into()),
            ..base.clone()
        };
        // A topology changes the run id; different nodes never collide.
        assert_ne!(base.run_id().unwrap(), named.run_id().unwrap());
        let other = SweepSpec {
            topology: Some("22nm".into()),
            ..base.clone()
        };
        assert_ne!(named.run_id().unwrap(), other.run_id().unwrap());
        // The same hierarchy sent as a built-in name and as inline spec
        // text deduplicates to one run: the canonical identity is
        // name#fingerprint of the parsed spec, not the raw argument.
        let inline = SweepSpec {
            topology: Some(BUILTIN_STT_LLC.to_owned()),
            ..base.clone()
        };
        assert_eq!(named.run_id().unwrap(), inline.run_id().unwrap());
        // Equivalent text with extra comments fingerprints identically.
        let commented = SweepSpec {
            topology: Some(format!("# leading comment\n{BUILTIN_STT_LLC}")),
            ..base.clone()
        };
        assert_eq!(named.run_id().unwrap(), commented.run_id().unwrap());
        // Unknown node names and malformed inline text are errors.
        let unknown = SweepSpec {
            topology: Some("90nm".into()),
            ..base.clone()
        };
        assert!(unknown.run_id().unwrap_err().contains("unknown node"));
        let malformed = SweepSpec {
            topology: Some("node bad\nwire 0.1\n".into()),
            ..base.clone()
        };
        assert!(malformed.run_id().unwrap_err().contains("line"));
        // The suite options actually carry the spec's technology.
        let options = named.suite_options().unwrap();
        assert_eq!(options.cell_config(PolicyKind::Slip).tech.name, "stt-llc");
        assert_eq!(
            HierarchySpec::builtin("stt-llc").unwrap().fingerprint(),
            options.variant.topology.as_ref().unwrap().fingerprint()
        );
    }
}
