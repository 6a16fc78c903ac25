//! Live progress lines on stderr.
//!
//! One line per completed cell plus a summary, e.g.:
//!
//! ```text
//! [suite 3/10] gcc/SLIP+ABP: 1.43s (1398 kacc/s, L2 81.2%, L3 44.0%)
//! [suite] 10 cells done (4 from journal) in 4.1s
//! ```
//!
//! The detail inside the parentheses is extracted from the cell's
//! metrics object when the well-known keys are present, so the engine
//! itself stays domain-agnostic.

use crate::json::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Work accumulated across completed cells, for the end-of-sweep
/// aggregate throughput line.
#[derive(Debug, Default, Clone)]
struct Aggregate {
    /// Simulated accesses: the cell's raw `accesses` counter when it
    /// reports one, else reconstructed from its reported rate.
    accesses: f64,
    /// Per-cell wall seconds, summed (worker time, not sweep time).
    cell_secs: f64,
    /// Cells that contributed to the sums above. Cells with a raw
    /// counter always count (the counter is exact at any wall time);
    /// rate-only cells reporting a zero/non-finite rate or ~0 wall
    /// time are excluded, so the footer never aggregates a
    /// reconstruction that rounds to garbage.
    rated_cells: usize,
    /// Cells counted per `exec_mode` metric label (the execution path
    /// that actually ran — `fused`, `sharded`, `pipelined`, ... — which
    /// can differ from the requested mode on fallback), in first-seen
    /// order.
    exec_modes: Vec<(String, usize)>,
}

impl Aggregate {
    /// Counts a cell's `exec_mode` label.
    fn tally_exec_mode(&mut self, metrics: &Value) {
        if let Some(label) = metrics.get("exec_mode").and_then(Value::as_str) {
            match self.exec_modes.iter_mut().find(|(s, _)| s == label) {
                Some((_, n)) => *n += 1,
                None => self.exec_modes.push((label.to_owned(), 1)),
            }
        }
    }
}

/// Rate-only cells whose wall time rounds to nothing (tiny `--quick`
/// cells) carry no throughput signal; below this their `rate * wall`
/// reconstruction is left out of the aggregate. Cells that report a
/// raw `accesses` counter are exempt — the counter is exact however
/// fast the cell finished.
const MIN_RATED_SECS: f64 = 1e-6;

/// Progress reporter for one sweep. Thread-safe.
#[derive(Debug)]
pub struct Progress {
    label: String,
    total: usize,
    done: AtomicUsize,
    quiet: bool,
    started: Instant,
    aggregate: Mutex<Aggregate>,
}

impl Progress {
    /// Creates a reporter for `total` cells; `quiet` suppresses all
    /// output.
    pub fn new(label: impl Into<String>, total: usize, quiet: bool) -> Progress {
        Progress {
            label: label.into(),
            total,
            done: AtomicUsize::new(0),
            quiet,
            started: Instant::now(),
            aggregate: Mutex::new(Aggregate::default()),
        }
    }

    /// Reports one completed cell.
    pub fn cell_done(&self, key: &str, wall: Duration, metrics: &Value) {
        let n = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let rate = metrics
            .get("accesses_per_sec")
            .and_then(Value::as_f64)
            .filter(|r| r.is_finite() && *r > 0.0);
        let accesses = metrics.get("accesses").and_then(Value::as_u64);
        {
            let mut agg = self.aggregate.lock().unwrap();
            if let Some(n) = accesses {
                // Raw counter: sum it directly. A cell that finished in
                // under a millisecond still simulated exactly n
                // accesses — reconstructing that from its (huge) rate
                // times its (~0) wall used to drop or mangle it.
                agg.accesses += n as f64;
                agg.cell_secs += wall.as_secs_f64();
                agg.rated_cells += 1;
            } else if let Some(rate) = rate {
                if wall.as_secs_f64() >= MIN_RATED_SECS {
                    agg.accesses += rate * wall.as_secs_f64();
                    agg.cell_secs += wall.as_secs_f64();
                    agg.rated_cells += 1;
                }
            }
            agg.tally_exec_mode(metrics);
        }
        if self.quiet {
            return;
        }
        let mut detail = String::new();
        if let Some(rate) = rate {
            detail.push_str(&format!("{:.0} kacc/s", rate / 1e3));
        }
        for (json_key, label) in [("l2_hit_rate", "L2"), ("l3_hit_rate", "L3")] {
            if let Some(r) = metrics.get(json_key).and_then(Value::as_f64) {
                if !detail.is_empty() {
                    detail.push_str(", ");
                }
                detail.push_str(&format!("{label} {:.1}%", r * 100.0));
            }
        }
        if detail.is_empty() {
            eprintln!(
                "[{} {n}/{}] {key}: {:.2}s",
                self.label,
                self.total,
                wall.as_secs_f64()
            );
        } else {
            eprintln!(
                "[{} {n}/{}] {key}: {:.2}s ({detail})",
                self.label,
                self.total,
                wall.as_secs_f64()
            );
        }
    }

    /// Counts the labels of a cell restored from the journal: it did not
    /// run now, but the footer still names the path that produced it.
    pub fn restored(&self, metrics: &Value) {
        self.aggregate.lock().unwrap().tally_exec_mode(metrics);
    }

    /// Aggregate simulator throughput in accesses per second across all
    /// rated cells (total simulated accesses over total per-cell wall
    /// time), or `None` when no cell reported a usable rate.
    pub fn aggregate_rate(&self) -> Option<f64> {
        let agg = self.aggregate.lock().unwrap();
        (agg.rated_cells > 0 && agg.cell_secs >= MIN_RATED_SECS)
            .then(|| agg.accesses / agg.cell_secs)
            .filter(|r| r.is_finite())
    }

    /// Prints the end-of-sweep summary; `from_journal` is how many
    /// cells were restored rather than run.
    pub fn finish(&self, from_journal: usize) {
        if !self.quiet {
            eprintln!("{}", self.summary(from_journal));
        }
    }

    /// The end-of-sweep summary line [`finish`](Self::finish) prints.
    pub fn summary(&self, from_journal: usize) -> String {
        let agg = self.aggregate.lock().unwrap().clone();
        let mut detail = String::new();
        if let Some(rate) = self.aggregate_rate() {
            // Mean over the rated cells only; unrated cells would drag
            // the mean toward zero without carrying any signal.
            let mean = agg.cell_secs / agg.rated_cells as f64;
            detail = format!(" ({:.0} kacc/s aggregate, {mean:.2}s/cell)", rate / 1e3);
        }
        if !agg.exec_modes.is_empty() {
            let counts: Vec<String> = agg
                .exec_modes
                .iter()
                .map(|(s, n)| format!("{n} {s}"))
                .collect();
            detail.push_str(&format!(" [exec: {}]", counts.join(", ")));
        }
        format!(
            "[{}] {} cells done ({from_journal} from journal) in {:.1}s{detail}",
            self.label,
            self.total + from_journal,
            self.started.elapsed().as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_cells_without_printing_when_quiet() {
        let p = Progress::new("t", 2, true);
        p.cell_done("a", Duration::from_millis(5), &Value::object());
        p.cell_done(
            "b",
            Duration::from_millis(5),
            &Value::object().with("accesses_per_sec", Value::f64(1e6)),
        );
        p.finish(0);
        assert_eq!(p.done.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn aggregates_throughput_across_cells() {
        let p = Progress::new("t", 2, true);
        assert!(p.aggregate_rate().is_none());
        // 1 Macc/s for 2s + 3 Macc/s for 1s = 5 Macc over 3s.
        p.cell_done(
            "a",
            Duration::from_secs(2),
            &Value::object().with("accesses_per_sec", Value::f64(1e6)),
        );
        p.cell_done(
            "b",
            Duration::from_secs(1),
            &Value::object().with("accesses_per_sec", Value::f64(3e6)),
        );
        let rate = p.aggregate_rate().unwrap();
        assert!((rate - 5e6 / 3.0).abs() < 1.0, "rate was {rate}");
        // Cells without a rate don't perturb the aggregate.
        p.cell_done("c", Duration::from_secs(9), &Value::object());
        assert!((p.aggregate_rate().unwrap() - rate).abs() < 1.0);
    }

    #[test]
    fn nonsense_rates_never_reach_the_footer() {
        let p = Progress::new("t", 4, true);
        // Zero rate (the codec's secs<=0 fallback), non-finite rates,
        // and a ~0-wall cell: none may contribute.
        p.cell_done(
            "zero",
            Duration::from_secs(1),
            &Value::object().with("accesses_per_sec", Value::f64(0.0)),
        );
        p.cell_done(
            "inf",
            Duration::from_secs(1),
            &Value::object().with("accesses_per_sec", Value::f64(f64::INFINITY)),
        );
        p.cell_done(
            "nan",
            Duration::from_secs(1),
            &Value::object().with("accesses_per_sec", Value::f64(f64::NAN)),
        );
        p.cell_done(
            "instant",
            Duration::from_nanos(1),
            &Value::object().with("accesses_per_sec", Value::f64(1e6)),
        );
        assert_eq!(p.aggregate_rate(), None);
        p.finish(0); // quiet, but must not divide by zero either way
                     // One sane cell and the aggregate is back.
        p.cell_done(
            "ok",
            Duration::from_secs(1),
            &Value::object().with("accesses_per_sec", Value::f64(2e6)),
        );
        let rate = p.aggregate_rate().unwrap();
        assert!((rate - 2e6).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn raw_counters_survive_sub_millisecond_cells() {
        let p = Progress::new("t", 3, true);
        // Three cells of 30k accesses each, finishing in 100µs, 500µs,
        // and 400µs: 90k accesses over 1ms total. The old rate-based
        // reconstruction dropped the 100µs cell entirely at coarser
        // thresholds and amplified rounding in the rest; raw counters
        // sum exactly.
        for (micros, rate) in [(100u64, 3e8), (500, 6e7), (400, 7.5e7)] {
            p.cell_done(
                "c",
                Duration::from_micros(micros),
                &Value::object()
                    .with("accesses", Value::u64(30_000))
                    .with("accesses_per_sec", Value::f64(rate)),
            );
        }
        let agg = p.aggregate.lock().unwrap().clone();
        assert_eq!(agg.rated_cells, 3);
        assert_eq!(agg.accesses, 90_000.0);
        let rate = p.aggregate_rate().unwrap();
        assert!((rate - 90_000.0 / 1e-3).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn raw_counters_beat_bogus_rates() {
        let p = Progress::new("t", 1, true);
        // A cell with a raw counter contributes even when its reported
        // rate is the codec's secs<=0 fallback (0.0).
        p.cell_done(
            "c",
            Duration::from_millis(2),
            &Value::object()
                .with("accesses", Value::u64(5_000))
                .with("accesses_per_sec", Value::f64(0.0)),
        );
        let agg = p.aggregate.lock().unwrap().clone();
        assert_eq!(agg.rated_cells, 1);
        assert_eq!(agg.accesses, 5_000.0);
    }

    #[test]
    fn exec_modes_are_counted_per_label() {
        let p = Progress::new("t", 3, true);
        let fused = Value::object().with("exec_mode", Value::str("fused"));
        let sharded = Value::object().with("exec_mode", Value::str("sharded"));
        p.cell_done("a", Duration::from_millis(5), &fused);
        p.cell_done("b", Duration::from_millis(5), &fused);
        p.cell_done("c", Duration::from_millis(5), &sharded);
        let agg = p.aggregate.lock().unwrap().clone();
        assert_eq!(
            agg.exec_modes,
            vec![("fused".to_owned(), 2), ("sharded".to_owned(), 1)]
        );
        p.finish(0);
    }

    #[test]
    fn footer_tallies_retired_labels_of_restored_cells() {
        // A journal written before the execution modes were collapsed:
        // nothing runs now, yet the footer still names every path that
        // produced the restored results. The retired `trace_source`
        // labels are ignored.
        let p = Progress::new("t", 0, true);
        for (mode, source) in [
            ("shared", "cached"),
            ("pipelined", "regenerated"),
            ("sharded", "cached"),
        ] {
            p.restored(
                &Value::object()
                    .with("exec_mode", Value::str(mode))
                    .with("trace_source", Value::str(source)),
            );
        }
        let footer = p.summary(3);
        assert!(footer.contains("3 cells done (3 from journal)"), "{footer}");
        assert!(!footer.contains("[traces"), "{footer}");
        assert!(
            footer.contains("[exec: 1 shared, 1 pipelined, 1 sharded]"),
            "{footer}"
        );
    }
}
