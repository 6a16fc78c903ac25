//! Typed parsing of the `SLIP_*` environment variables.
//!
//! Every knob the suite, benches, and CLI read from the environment
//! goes through here, so defaults and parse behavior (trimmed input,
//! garbage falls back to the default) are defined exactly once:
//!
//! | variable              | meaning                              | default |
//! |-----------------------|--------------------------------------|---------|
//! | `SLIP_ACCESSES`       | measured accesses per benchmark      | 2,000,000 |
//! | `SLIP_WARMUP`         | unmeasured warmup accesses           | 0 |
//! | `SLIP_JOBS`           | sweep worker count                   | available parallelism |
//! | `SLIP_JOURNAL`        | run-journal path (enables resume)    | unset (off) |
//! | `SLIP_FUZZ_ITERS`     | `slip check` differential-fuzz iteration budget | unset (mode default) |
//! | `SLIP_TOPOLOGY`       | hierarchy spec: built-in node name or file path | unset (built-in 45 nm) |
//!
//! One exception to the garbage-falls-back rule: the retired knobs
//! `SLIP_TRACE_MODE`, `SLIP_SHARDS`, `SLIP_TRACE_CACHE_MB` and
//! `SLIP_BENCH_TOL` are errors when set, not silently ignored — see
//! [`check_retired`].
use std::path::PathBuf;
use std::str::FromStr;

/// Default trace length per benchmark.
pub const DEFAULT_ACCESSES: u64 = 2_000_000;

/// Reads and parses one environment variable; unset, empty, or
/// unparseable values yield `None`.
pub fn parse_var<T: FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|s| s.trim().parse().ok())
}

/// Measured accesses per benchmark (`SLIP_ACCESSES`).
pub fn accesses() -> u64 {
    parse_var("SLIP_ACCESSES").unwrap_or(DEFAULT_ACCESSES)
}

/// Unmeasured warmup accesses (`SLIP_WARMUP`).
pub fn warmup() -> u64 {
    parse_var("SLIP_WARMUP").unwrap_or(0)
}

/// Sweep worker count (`SLIP_JOBS`), defaulting to the host's
/// available parallelism.
pub fn jobs() -> usize {
    parse_var("SLIP_JOBS").unwrap_or_else(sweep_runner::available_jobs)
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
    parse_var("SLIP_FUZZ_ITERS")
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
/// `SLIP_TRACE_CACHE_MB`, `SLIP_BENCH_TOL`) is set to a non-empty
/// value, naming its replacement.
pub fn check_retired() -> Result<(), String> {
    check_retired_in(|name| std::env::var(name).ok())
}

/// [`check_retired`] over any variable lookup; an empty value counts as
/// unset.
fn check_retired_in(var: impl Fn(&str) -> Option<String>) -> Result<(), String> {
    for (name, replacement) in RETIRED {
        if let Some(value) = var(name).filter(|v| !v.trim().is_empty()) {
            return Err(format!(
                "{name}={:?} is no longer supported: {replacement}",
                value.trim()
            ));
        }
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
            let e = check_retired_in(set(" 2 ")).unwrap_err();
            assert!(e.starts_with(&format!("{name}=\"2\"")), "{e}");
            if name != "SLIP_BENCH_TOL" {
                assert!(e.contains("fused benchmark groups"), "{e}");
            }
            assert!(e.contains(replacement), "{e}");
            // Empty means unset.
            assert_eq!(check_retired_in(set("  ")), Ok(()));
        }
        assert_eq!(check_retired_in(|_| None), Ok(()));
    }

    #[test]
    fn parse_var_trims_and_rejects_garbage() {
        std::env::set_var("SLIP_TEST_PARSE_VAR", " 42 ");
        assert_eq!(parse_var::<u64>("SLIP_TEST_PARSE_VAR"), Some(42));
        std::env::set_var("SLIP_TEST_PARSE_VAR", "not-a-number");
        assert_eq!(parse_var::<u64>("SLIP_TEST_PARSE_VAR"), None);
        std::env::remove_var("SLIP_TEST_PARSE_VAR");
        assert_eq!(parse_var::<u64>("SLIP_TEST_PARSE_VAR"), None);
    }
}
