//! The JSONL run journal: one line per completed cell.
//!
//! Line schema (see DESIGN.md §8):
//!
//! ```json
//! {"v":1,"key":"<cell key>","wall_ms":123.4,"metrics":{...},"payload":{...}}
//! ```
//!
//! * `key` — a caller-chosen string that must encode everything the
//!   cell's result depends on (benchmark, policy, trace length, seed,
//!   technology node, ...). Resume matches on it verbatim.
//! * `wall_ms` — how long the cell took when it actually ran.
//! * `metrics` — small human-oriented observability summary
//!   (accesses/sec, hit rates, energy totals).
//! * `payload` — the full machine-readable result; `decode` in
//!   [`crate::run_sweep_grouped`] rebuilds the in-memory result from it.
//!
//! Appends are flushed per line under a mutex, so a sweep killed
//! mid-run loses at most the cells still in flight; unparseable
//! (truncated) lines are skipped on load.

use crate::json::Value;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// True when a non-empty file does not end in `\n` — the signature of a
/// write torn by a crash.
fn file_lacks_final_newline(path: &Path) -> std::io::Result<bool> {
    let mut f = File::open(path)?;
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(false);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last[0] != b'\n')
}

/// Journal line format version.
pub const JOURNAL_VERSION: u64 = 1;

/// An append-only JSONL journal of completed sweep cells.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    /// `key -> (metrics, payload)` of every loaded record.
    completed: HashMap<String, (Value, Value)>,
    skipped: usize,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, loading every
    /// well-formed line already present. Torn or corrupt lines (a
    /// truncated final write, a foreign format version) are skipped and
    /// counted in [`skipped`](Self::skipped) — their cells simply
    /// re-run — so one bad line never poisons the rest of the journal.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut completed = HashMap::new();
        let mut skipped = 0;
        let mut torn_tail = false;
        if path.exists() {
            let reader = BufReader::new(File::open(&path)?);
            for line in reader.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let Ok(v) = Value::parse(&line) else {
                    skipped += 1;
                    continue;
                };
                if v.get("v").and_then(Value::as_u64) != Some(JOURNAL_VERSION) {
                    skipped += 1;
                    continue;
                }
                let (Some(key), Some(payload)) =
                    (v.get("key").and_then(Value::as_str), v.get("payload"))
                else {
                    skipped += 1;
                    continue;
                };
                let metrics = v.get("metrics").cloned().unwrap_or_else(Value::object);
                completed.insert(key.to_owned(), (metrics, payload.clone()));
            }
            torn_tail = file_lacks_final_newline(&path)?;
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if torn_tail {
            // A crash mid-append left a half-written final line. Seal it
            // with a newline so fresh records never merge into the torn
            // bytes (which would corrupt them too).
            writeln!(file)?;
            file.flush()?;
        }
        Ok(Journal {
            path,
            file: Mutex::new(file),
            completed,
            skipped,
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The payload recorded for `key` when the journal was opened, if
    /// any.
    pub fn payload(&self, key: &str) -> Option<&Value> {
        self.completed.get(key).map(|(_, payload)| payload)
    }

    /// The metrics object recorded next to `key`'s payload (an empty
    /// object when the record carried none).
    pub fn metrics(&self, key: &str) -> Option<&Value> {
        self.completed.get(key).map(|(metrics, _)| metrics)
    }

    /// Number of completed cells loaded at open time.
    pub fn loaded(&self) -> usize {
        self.completed.len()
    }

    /// Number of non-empty lines skipped at open time because they
    /// were truncated, unparseable, of a foreign version, or missing
    /// their key/payload.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Appends one completed cell and flushes the line to disk.
    /// Thread-safe; lines are never interleaved.
    pub fn record(
        &self,
        key: &str,
        wall_ms: f64,
        metrics: Value,
        payload: Value,
    ) -> std::io::Result<()> {
        let line = Value::object()
            .with("v", Value::u64(JOURNAL_VERSION))
            .with("key", Value::str(key))
            .with("wall_ms", Value::f64(wall_ms))
            .with("metrics", metrics)
            .with("payload", payload)
            .to_json();
        let mut file = self.file.lock().expect("journal file poisoned");
        writeln!(file, "{line}")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("slip-journal-test-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn write_then_reload_round_trips() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.loaded(), 0);
            j.record(
                "gcc/SLIP+ABP",
                12.5,
                Value::object().with("rate", Value::f64(0.93)),
                Value::object().with("energy_pj", Value::f64(1234.5)),
            )
            .unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.loaded(), 1);
        let p = j.payload("gcc/SLIP+ABP").unwrap();
        assert_eq!(p.get("energy_pj").and_then(Value::as_f64), Some(1234.5));
        let m = j.metrics("gcc/SLIP+ABP").unwrap();
        assert_eq!(m.get("rate").and_then(Value::as_f64), Some(0.93));
        assert!(j.payload("gcc/baseline").is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_and_foreign_lines_are_skipped() {
        let path = temp_path("torn");
        std::fs::write(
            &path,
            "{\"v\":1,\"key\":\"ok\",\"wall_ms\":1,\"metrics\":{},\"payload\":{\"x\":1}}\n\
             {\"v\":99,\"key\":\"wrong-version\",\"payload\":{}}\n\
             {\"v\":1,\"key\":\"truncat",
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.loaded(), 1);
        assert_eq!(j.skipped(), 2, "torn + foreign-version lines counted");
        assert!(j.payload("ok").is_some());
        assert!(j.payload("wrong-version").is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clean_journals_report_zero_skips() {
        let path = temp_path("clean");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.skipped(), 0, "fresh journal");
            j.record("k", 1.0, Value::object(), Value::u64(7)).unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!((j.loaded(), j.skipped()), (1, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn later_records_win_on_duplicate_keys() {
        let path = temp_path("dup");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            j.record("k", 1.0, Value::object(), Value::u64(1)).unwrap();
            j.record("k", 1.0, Value::object(), Value::u64(2)).unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.payload("k").and_then(Value::as_u64), Some(2));
        std::fs::remove_file(&path).unwrap();
    }
}
