//! The `mani serve` child process: start, wait for ready, read its memory
//! high-water mark, and stop it (also when the benchmark panics).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

pub struct ServerProcess {
    child: Child,
    pub addr: SocketAddr,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProcess {
    /// Starts the server on a free loopback port with its default
    /// configuration and logging off, and returns once its banner names the
    /// bound address.
    pub fn start(binary: &Path) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0", "--log-level", "off"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before printing its address".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let text = rest.split_whitespace().next().unwrap_or_default();
                match text.parse() {
                    Ok(addr) => break addr,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("cannot parse server address from {line:?}"));
                    }
                }
            }
        };
        Ok(Self {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// The server's resident-set high-water mark (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|status| {
                status
                    .lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
