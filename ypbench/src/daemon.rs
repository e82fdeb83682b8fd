//! Real `ypd` processes: building the binary, spawning daemons on
//! ephemeral loopback ports, reading their CPU time and peak memory from
//! `/proc`, and draining them with the protocol's `Halt` frame.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use actyp_pipeline::{RemoteBackend, ResourceManager, StageAddress, StatsSnapshot};

/// How long a halted daemon may take to drain and exit.
const EXIT_DEADLINE: Duration = Duration::from_secs(20);

/// Builds `ypd` from the repository at `root` (release profile, offline)
/// and returns the path of the binary.  Cargo's own output goes to this
/// process's standard error, so standard output keeps only results.
pub fn build_ypd(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/ypd/Cargo.toml").is_file() {
        return Err(format!(
            "no ypd sources under {}: run from the repository root",
            root.display()
        ));
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "actyp-ypd",
            "--bin",
            "ypd",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build ypd: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build ypd failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let binary = target.join("release").join("ypd");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("built ypd not found at {}", binary.display()))
    }
}

/// One running `ypd` process.
pub struct Ypd {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: StageAddress,
}

impl Ypd {
    /// Starts `ypd` with `flags` on an ephemeral loopback port and waits
    /// for its `listening on` line.
    pub fn spawn(binary: &Path, flags: &[String]) -> Result<Ypd, String> {
        let mut child = Command::new(binary)
            .args(flags)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| parse_listening(&line))
            .ok_or_else(|| format!("ypd {flags:?} did not report a listen address: {line:?}"));
        match addr {
            Ok(addr) => Ok(Ypd {
                child,
                stdout,
                addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The address the daemon listens on.
    pub fn addr(&self) -> &StageAddress {
        &self.addr
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time the daemon has used so far, in
    /// microseconds.
    pub fn cpu_us(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        cpu_us_from_stat(&text, clock_ticks_per_second())
            .ok_or_else(|| format!("{path}: unexpected format"))
    }

    /// Peak resident set size (`VmHWM`), in megabytes.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        vm_hwm_mb(&text).ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// The daemon's lifetime counters, over a fresh connection.
    pub fn stats(&self) -> Result<StatsSnapshot, String> {
        let client = RemoteBackend::connect(&self.addr).map_err(|e| format!("stats: {e}"))?;
        let stats = client.stats();
        client.shutdown().map_err(|e| format!("stats: {e}"))?;
        Ok(stats)
    }

    /// Sends `Halt` and waits for the daemon to drain.  Fails unless it
    /// exits with status 0 in time.
    pub fn halt(mut self) -> Result<(), String> {
        let sent = RemoteBackend::connect(&self.addr)
            .and_then(|client| {
                client.halt_daemon()?;
                client.shutdown()
            })
            .map_err(|e| format!("halt {}: {e}", self.addr));
        let waited = self.wait_exit();
        sent?;
        let status = waited?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("ypd at {} exited with {status}", self.addr))
        }
    }

    fn wait_exit(&mut self) -> Result<std::process::ExitStatus, String> {
        let deadline = Instant::now() + EXIT_DEADLINE;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                // Drain the rest of its output so nothing is left unread.
                let mut rest = String::new();
                while matches!(self.stdout.read_line(&mut rest), Ok(n) if n > 0) {}
                return Ok(status);
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(format!("ypd at {} did not exit after Halt", self.addr));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Ypd {
    fn drop(&mut self) {
        // A daemon not halted cleanly (an error path) must not outlive the
        // benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Parses `ypd: listening on HOST:PORT (...)`.
fn parse_listening(line: &str) -> Option<StageAddress> {
    let rest = line.trim().strip_prefix("ypd: listening on ")?;
    rest.split_whitespace().next()?.parse().ok()
}

/// utime + stime (fields 14 and 15 of `/proc/<pid>/stat`) in µs.  The
/// command name may contain spaces and parentheses, so fields are counted
/// from the last `)`.
fn cpu_us_from_stat(stat: &str, ticks_per_second: f64) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so field n is at index n - 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / ticks_per_second * 1e6)
}

fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn clock_ticks_per_second() -> f64 {
    // SAFETY: sysconf takes an integer selector, reads no memory of ours
    // and is thread-safe; an unknown selector returns -1, handled below.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_parses() {
        let addr = parse_listening(
            "ypd: listening on 127.0.0.1:40123 (live backend, 128 machines, seed 7, reactor sessions)\n",
        )
        .unwrap();
        assert_eq!(addr, StageAddress::new("127.0.0.1", 40123));
        assert!(parse_listening("ypd: failed to start").is_none());
    }

    #[test]
    fn stat_cpu_fields_are_counted_from_the_last_paren() {
        let stat = "4242 (y p)d) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0";
        assert_eq!(cpu_us_from_stat(stat, 100.0), Some(3_000_000.0));
        assert!(cpu_us_from_stat("garbage", 100.0).is_none());
    }

    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        let status = "Name:\typd\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(2.0));
        assert!(vm_hwm_mb("Name:\typd\n").is_none());
    }
}
