//! Typed parsing of the `SLIP_*` environment variables.
//!
//! Every knob the suite, benches, and CLI read from the environment
//! goes through here, so defaults and parse rules (trimmed input, empty
//! means unset) are defined exactly once:
//!
//! | variable              | meaning                              | default |
//! |-----------------------|--------------------------------------|---------|
//! | `SLIP_ACCESSES`       | measured accesses per benchmark      | 2,000,000 |
//! | `SLIP_WARMUP`         | unmeasured warmup accesses (`slip run`, `compare`, `sweep`, `all_figures`) | 0 |
//! | `SLIP_JOBS`           | sweep worker count (at least 1)      | available parallelism |
//! | `SLIP_JOURNAL`        | run-journal path (enables resume; `slip sweep`, `all_figures`) | unset (off) |
//! | `SLIP_FUZZ_ITERS`     | `slip check` differential-fuzz iteration budget | unset (mode default) |
//! | `SLIP_TOPOLOGY`       | hierarchy spec: built-in node name or file path | unset (built-in 45 nm) |
//!
//! No knob falls back silently. [`check`] fails on a numeric knob that
//! does not parse, on `SLIP_JOBS=0`, and on the retired knobs
//! `SLIP_TRACE_MODE`, `SLIP_SHARDS`, `SLIP_TRACE_CACHE_MB` and
//! `SLIP_BENCH_TOL`; the readers below panic with the same message
//! when a caller skipped the check.
use std::path::PathBuf;

/// Default trace length per benchmark.
pub const DEFAULT_ACCESSES: u64 = 2_000_000;

/// The numeric knobs [`check`] validates.
const NUMERIC: [&str; 4] = [
    "SLIP_ACCESSES",
    "SLIP_WARMUP",
    "SLIP_JOBS",
    "SLIP_FUZZ_ITERS",
];

/// Parses one numeric knob's raw value: unset or empty is `None`;
/// anything that is not a whole number, and `SLIP_JOBS=0`, is an error
/// naming the variable and its value.
fn numeric(name: &str, raw: Option<String>) -> Result<Option<u64>, String> {
    let Some(value) = raw.filter(|v| !v.trim().is_empty()) else {
        return Ok(None);
    };
    let value = value.trim();
    match value.parse() {
        Ok(0) if name == "SLIP_JOBS" => Err(format!(
            "{name}={value:?}: a worker pool needs at least one worker"
        )),
        Ok(n) => Ok(Some(n)),
        Err(e) => Err(format!("{name}={value:?} is not a whole number: {e}")),
    }
}

/// Reads one numeric knob; panics on a value [`check`] rejects.
fn knob(name: &str) -> Option<u64> {
    numeric(name, std::env::var(name).ok()).unwrap_or_else(|e| panic!("{e}"))
}

/// Measured accesses per benchmark (`SLIP_ACCESSES`), or `default`.
pub fn accesses_or(default: u64) -> u64 {
    knob("SLIP_ACCESSES").unwrap_or(default)
}

/// Measured accesses per benchmark (`SLIP_ACCESSES`).
pub fn accesses() -> u64 {
    accesses_or(DEFAULT_ACCESSES)
}

/// Unmeasured warmup accesses (`SLIP_WARMUP`).
pub fn warmup() -> u64 {
    knob("SLIP_WARMUP").unwrap_or(0)
}

/// Sweep worker count (`SLIP_JOBS`), defaulting to the host's
/// available parallelism.
pub fn jobs() -> usize {
    knob("SLIP_JOBS").map_or_else(sweep_runner::available_jobs, |n| n as usize)
}

/// Run-journal path (`SLIP_JOURNAL`); unset means journaling off.
pub fn journal() -> Option<PathBuf> {
    std::env::var_os("SLIP_JOURNAL")
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

/// Differential-fuzz iteration budget for `slip check`
/// (`SLIP_FUZZ_ITERS`); unset means the mode's default (quick 48,
/// full 512).
pub fn fuzz_iters() -> Option<u64> {
    knob("SLIP_FUZZ_ITERS")
}

/// Environment knobs that used to select an execution path, size a
/// trace cache or loosen the bench gate, with what replaced them.
/// Setting one is an error, never a silent no-op.
const RETIRED: [(&str, &str); 4] = [
    (
        "SLIP_TRACE_MODE",
        "`slip run` steps its trace inline and sweeps always run fused benchmark groups; \
         parallelism is SLIP_JOBS / --jobs",
    ),
    (
        "SLIP_SHARDS",
        "set-sharded runs were removed; sweeps always run fused benchmark groups; \
         parallelism is SLIP_JOBS / --jobs",
    ),
    (
        "SLIP_TRACE_CACHE_MB",
        "sweeps and `slip serve` stream every trace through fused benchmark groups, \
         so there is no cache budget to set",
    ),
    (
        "SLIP_BENCH_TOL",
        "the `slip bench --check` regression bound is fixed at 20%",
    ),
];

/// Fails when a retired knob (`SLIP_TRACE_MODE`, `SLIP_SHARDS`,
/// `SLIP_TRACE_CACHE_MB`, `SLIP_BENCH_TOL`) is set to a non-empty value,
/// naming its replacement, or when a numeric knob (`SLIP_ACCESSES`,
/// `SLIP_WARMUP`, `SLIP_JOBS`, `SLIP_FUZZ_ITERS`) is set to a value
/// that does not parse, or `SLIP_JOBS` to 0, naming the variable and
/// its value.
pub fn check() -> Result<(), String> {
    check_in(|name| std::env::var(name).ok())
}

/// [`check`] over any variable lookup; an empty value counts as unset.
fn check_in(var: impl Fn(&str) -> Option<String>) -> Result<(), String> {
    for (name, replacement) in RETIRED {
        if let Some(value) = var(name).filter(|v| !v.trim().is_empty()) {
            return Err(format!(
                "{name}={:?} is no longer supported: {replacement}",
                value.trim()
            ));
        }
    }
    for name in NUMERIC {
        numeric(name, var(name))?;
    }
    Ok(())
}

/// Hierarchy spec argument (`SLIP_TOPOLOGY`): a built-in node name
/// (`45nm`, `22nm`, `stt-llc`) or a spec file path; unset or empty
/// means the compiled-in 45 nm configuration. Resolution (and
/// rejection of malformed specs with line/column diagnostics) happens
/// in `energy_model::HierarchySpec::load`, which the CLI calls — the
/// variable is only *read* here so all `SLIP_*` knobs live in one
/// table.
pub fn topology() -> Option<String> {
    std::env::var("SLIP_TOPOLOGY")
        .ok()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_without_env() {
        // These read live env vars, so only check invariants that hold
        // for any value.
        assert!(accesses() >= 1);
        assert!(jobs() >= 1);
    }

    #[test]
    fn retired_knobs_fail_naming_their_replacement() {
        for (name, replacement) in [
            ("SLIP_TRACE_MODE", "--jobs"),
            ("SLIP_SHARDS", "--jobs"),
            ("SLIP_TRACE_CACHE_MB", "no cache budget"),
            ("SLIP_BENCH_TOL", "fixed at 20%"),
        ] {
            let set = |value: &'static str| move |n: &str| (n == name).then(|| value.to_owned());
            let e = check_in(set(" 2 ")).unwrap_err();
            assert!(e.starts_with(&format!("{name}=\"2\"")), "{e}");
            if name != "SLIP_BENCH_TOL" {
                assert!(e.contains("fused benchmark groups"), "{e}");
            }
            assert!(e.contains(replacement), "{e}");
            // Empty means unset.
            assert_eq!(check_in(set("  ")), Ok(()));
        }
        assert_eq!(check_in(|_| None), Ok(()));
    }

    #[test]
    fn parse_var_trims_and_rejects_garbage() {
        let raw = |v: &str| Some(v.to_owned());
        assert_eq!(numeric("SLIP_ACCESSES", raw(" 42 ")), Ok(Some(42)));
        assert_eq!(numeric("SLIP_ACCESSES", raw("  ")), Ok(None));
        assert_eq!(numeric("SLIP_ACCESSES", None), Ok(None));
        let e = numeric("SLIP_ACCESSES", raw("not-a-number")).unwrap_err();
        assert!(e.starts_with("SLIP_ACCESSES=\"not-a-number\""), "{e}");
        // Zero accesses is a number; zero workers is not a pool.
        assert_eq!(numeric("SLIP_WARMUP", raw("0")), Ok(Some(0)));
        let e = numeric("SLIP_JOBS", raw(" 0 ")).unwrap_err();
        assert!(e.starts_with("SLIP_JOBS=\"0\""), "{e}");
    }

    #[test]
    fn check_rejects_unparseable_numeric_knobs() {
        for name in NUMERIC {
            let set = |value: &'static str| move |n: &str| (n == name).then(|| value.to_owned());
            let e = check_in(set("four")).unwrap_err();
            assert!(e.starts_with(&format!("{name}=\"four\"")), "{e}");
            assert_eq!(check_in(set(" 4 ")), Ok(()));
            assert_eq!(check_in(set("")), Ok(()));
        }
        let jobs = |n: &str| (n == "SLIP_JOBS").then(|| "0".to_owned());
        assert!(check_in(jobs).unwrap_err().starts_with("SLIP_JOBS=\"0\""));
    }
}
