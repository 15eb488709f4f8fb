//! Starting and stopping the release `serve` binary, and reading its CPU
//! time and peak memory from `/proc`.

use crate::client::{self, Conn};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `/proc/<pid>/stat` counts CPU time in `USER_HZ` ticks, 100 per second
/// on Linux.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) used so far by process `pid`.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// CPU seconds the hypervisor gave other guests while this one wanted to
/// run (the `steal` column of `/proc/stat`, all CPUs together).
pub fn host_steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: u64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal as f64 / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) in KiB of process `pid`, or of this
/// process when `pid` is `None`.
pub fn peak_rss_kib(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A running `serve` process. Dropping it kills the process and waits
/// for it.
#[derive(Debug)]
pub struct ServeProcess {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    /// The address `serve` reported it listens on.
    pub addr: SocketAddr,
    /// Seconds from spawning until the "listening" line.
    pub listen_s: f64,
}

impl ServeProcess {
    /// Spawns `serve --snapshot FILE --workers 1 --max-batch 16` on an
    /// ephemeral port, optionally with the event loop or with span
    /// tracing on (`--trace-file`), and waits for its "listening" line.
    pub fn spawn(
        bin: &Path,
        snapshot: &Path,
        event_loop: bool,
        trace_file: Option<&Path>,
    ) -> Result<ServeProcess, String> {
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("--snapshot")
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--max-batch", "16"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if event_loop {
            cmd.arg("--event-loop");
        }
        if let Some(t) = trace_file {
            cmd.arg("--trace-file").arg(t);
        }
        let mut child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let out = child.stdout.take().ok_or("serve has no stdout")?;
        let (tx, rx) = mpsc::channel::<String>();
        // Drains stdout until the process exits, so it never blocks on a
        // full pipe.
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = ServeProcess {
            child,
            stdout: Some(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            listen_s: 0.0,
        };
        let deadline = started + Duration::from_secs(60);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx.recv_timeout(left).map_err(|_| "serve never reported listening")?;
            if let Some(addr) = line.split("listening on http://").nth(1) {
                server.addr = addr.trim().parse().map_err(|_| format!("bad address `{addr}`"))?;
                server.listen_s = started.elapsed().as_secs_f64();
                return Ok(server);
            }
        }
    }

    /// The process ID.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and exit (`POST /shutdown`) and waits for
    /// it; kills it if it has not exited after 30 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr)
            .and_then(|mut c| c.call_raw(&client::post("/shutdown", "")))
            .map(|(status, _)| status == 200)
            .unwrap_or(false);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.join_stdout();
                return match (asked, status.success()) {
                    (true, true) => Ok(()),
                    _ => Err(format!("serve shutdown was not clean ({status})")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("serve did not exit within 30 s of /shutdown".into())
    }

    fn join_stdout(&mut self) {
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.join_stdout();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_and_peak_memory() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).is_some());
        assert!(peak_rss_kib(None).unwrap() > 0);
        assert_eq!(peak_rss_kib(Some(pid)).map(|k| k > 0), Some(true));
        assert!(cpu_seconds(u32::MAX).is_none());
    }
}
