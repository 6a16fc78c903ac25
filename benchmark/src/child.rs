//! Workload child processes: spawn, the READY handshake, and reaping.
//!
//! Every workload runs in a fresh process, a re-exec of this binary,
//! with every `SLIP_*` variable removed so the library defaults are what
//! gets measured. The child prints one `ready` line once it is set up;
//! the parent times spawn → ready as the set-up time.

use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;
use sweep_runner::json::Value;

/// A running workload child. Dropping it unreaped kills and reaps it,
/// so an error path never leaves a process behind.
pub struct Child {
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Seconds from spawn until the `ready` line arrived.
    pub setup_s: f64,
    /// The `ready` message (may carry e.g. the daemon's address).
    pub ready: Value,
    handle: std::process::Child,
    reaped: bool,
}

impl Child {
    /// Spawns `self --child <args>` and waits for its `ready` line.
    pub fn spawn(args: &[String]) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--child")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("SLIP_") {
                cmd.env_remove(key);
            }
        }
        let started = Instant::now();
        let mut handle = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
        let stdin = handle.stdin.take();
        let mut stdout = BufReader::new(handle.stdout.take().expect("stdout is piped"));
        let ready = read_message(&mut stdout);
        let mut child = Child {
            stdin,
            stdout,
            setup_s: started.elapsed().as_secs_f64(),
            ready: Value::Null,
            handle,
            reaped: false,
        };
        match ready {
            Ok(v) if v.get("ready").and_then(Value::as_bool) == Some(true) => {
                child.ready = v;
                Ok(child)
            }
            Ok(v) => Err(format!("child sent {} instead of ready", v.to_json())),
            Err(e) => Err(e),
        }
    }

    /// Sends one command line to the child.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write to child: {e}"))
    }

    /// Reads messages up to and including the child's `done` message,
    /// which carries its peak RSS; returns the messages before it and
    /// the peak RSS in MiB.
    pub fn until_done(&mut self) -> Result<(Vec<Value>, f64), String> {
        let mut messages = Vec::new();
        loop {
            let msg = read_message(&mut self.stdout)?;
            if msg.get("done").is_some() {
                let kib = msg
                    .get("peak_rss_kib")
                    .and_then(Value::as_u64)
                    .ok_or("done without peak_rss_kib")?;
                return Ok((messages, kib as f64 / 1024.0));
            }
            messages.push(msg);
        }
    }

    /// Closes stdin and waits for the child to exit successfully.
    pub fn finish(mut self) -> Result<(), String> {
        self.stdin.take();
        let status = self.handle.wait();
        self.reaped = true;
        match status {
            Ok(s) if s.success() => Ok(()),
            Ok(s) => Err(format!("child exited with {s}")),
            Err(e) => Err(format!("wait for child: {e}")),
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.handle.kill();
            let _ = self.handle.wait();
        }
    }
}

fn read_message(r: &mut impl BufRead) -> Result<Value, String> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)
            .map_err(|e| format!("read child: {e}"))?
            == 0
        {
            return Err("child closed its output early".to_owned());
        }
        if !line.trim().is_empty() {
            return Value::parse(line.trim()).map_err(|e| format!("child message: {e}"));
        }
    }
}

/// This process's peak resident set size in KiB (`VmHWM`). It counts
/// only the address space this process built; `ru_maxrss` from `wait4`
/// would also carry the parent's high-water mark across `exec`, which
/// made a child spawned by a grown parent read 40 MiB larger.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}
