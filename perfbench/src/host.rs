//! The program under test in a process of its own: `perfbench host
//! <seed>` binds an in-memory `qc-server` with UDP ingest, prints its
//! addresses and serves until its stdin closes. The load generator drives
//! it from outside and reads its peak RSS from `/proc`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use qc_server::{IngestConfig, Server, ServerConfig};
use qc_store::StoreConfig;

/// Entry point of the `host` subcommand.
pub fn host_main(args: &[String]) -> Result<(), String> {
    let [seed] = args else {
        return Err("host takes <seed>".into());
    };
    let seed = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let cfg = ServerConfig {
        store: StoreConfig::default().seed(seed),
        ingest: Some(IngestConfig::default()),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let udp = handle.ingest_addr().map_or("-".to_string(), |a| a.to_string());
    println!("READY {} {udp}", handle.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.shutdown();
    Ok(())
}

/// A running host process, seen from the load generator. Dropping it
/// kills and reaps the process if it is still running.
pub struct HostProc {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    pub tcp: SocketAddr,
    pub udp: Option<SocketAddr>,
}

impl HostProc {
    pub fn spawn(seed: u64) -> Result<HostProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["host".to_string(), seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn host: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut host =
            HostProc { child: Some(child), stdin, tcp: ([0, 0, 0, 0], 0).into(), udp: None };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).map_err(|e| format!("host stdout: {e}"))?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some("READY") {
            return Err(format!("host did not start: {line:?}"));
        }
        host.tcp = parts.next().and_then(|a| a.parse().ok()).ok_or("host tcp address")?;
        host.udp = parts.next().and_then(|a| a.parse().ok());
        Ok(host)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set size (`VmHWM`) of the host process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        proc_status_kb(&format!("/proc/{}/status", self.pid()), "VmHWM:") / 1024.0
    }

    /// Graceful stop: close stdin, wait for the server to shut down.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stdin.take();
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("host exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("host did not shut down within 30 s".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    fn reap(&mut self) {
        self.stdin.take();
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for HostProc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// A `kB` field of a `/proc/<pid>/status` file, 0 when unreadable.
pub fn proc_status_kb(path: &str, field: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse::<f64>().ok()))
        })
        .unwrap_or(0.0)
}

/// Remove a directory tree the benchmark created, ignoring absence.
pub fn remove_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}
